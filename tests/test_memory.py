"""What the listings hold at their peak, pinned by ratios of ``tracemalloc``
peaks taken in one process, never by absolute sizes; and per-nest records
(``Nest``) without an instance dict."""

from __future__ import annotations

import copy
import dataclasses
import gc
import os
import tracemalloc

import pytest

from skelex import cli
from skelex.generators import gen_cube, gen_nonorientable_surface, gen_orientable_surface
from skelex.graph import read_graph, serialize
from skelex.nests import NestIndex


def traced_peak(work) -> int:
    """The ``tracemalloc`` peak of ``work()``, run once untraced before.

    The untraced run fills the caches and imports the work uses once per
    process.  A full collection then empties CPython's free lists, so every
    measured run starts from the same state.
    """
    work()
    gc.collect()
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def command(*argv):
    return lambda: cli.run([*argv, "--out", os.devnull]) == cli.EXIT_OK or pytest.fail(argv)


@pytest.mark.parametrize(
    "make", [lambda: gen_orientable_surface(128), lambda: gen_nonorientable_surface(128)],
    ids=["gT2(128)", "kP2(128)"],
)
def test_realize_table_peaks_no_higher_than_classify(tmp_path, make):
    # the isotropy rows are built as they are written, the complex is read
    # off the index without a face list, and vertices with one star share
    # one tuple of tangent colors
    source = tmp_path / "surface.json"
    source.write_text(serialize(make()))
    realize = traced_peak(command("realize", str(source), "--table", "--format", "json"))
    classify = traced_peak(command("classify", str(source), "--format", "json"))
    assert realize <= classify, (realize, classify)


def test_nests_listing_holds_one_dimension_at_a_time(tmp_path, monkeypatch):
    n = 7
    text = serialize(gen_cube(n))
    source = tmp_path / "cube.json"
    source.write_text(text)
    alone = max(
        traced_peak(lambda k=k: NestIndex(read_graph(text)).nests(k)) for k in range(n + 1)
    )
    # the free lists are emptied again as each dimension begins, so that
    # only what the listing holds is counted, as in the runs alone
    real = NestIndex.nests
    monkeypatch.setattr(NestIndex, "nests", lambda self, k: (gc.collect(), real(self, k))[1])
    listing = traced_peak(command("nests", str(source), "--format", "json"))
    assert listing <= 1.2 * alone, (listing, alone)


def test_per_nest_records_have_no_instance_dict():
    nest = NestIndex(gen_cube(2)).nests(2)[0]
    assert not hasattr(nest, "__dict__")
    twin = copy.deepcopy(nest)
    assert twin is not nest
    assert twin == nest
    assert hash(twin) == hash(nest)
    assert len({nest, twin}) == 1
    field = dataclasses.fields(nest)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(nest, field, getattr(nest, field))
