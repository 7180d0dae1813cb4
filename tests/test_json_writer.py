"""The one JSON writer: ``graph.json_pieces`` against ``json.dumps``, every
JSON subcommand's output, and the memory a streamed table takes."""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from skelex import cli
from skelex import graph as graph_mod
from skelex import nests as nests_mod
from skelex.generators import gen_cube, gen_nonorientable_surface, gen_orientable_surface
from skelex.graph import PER_ROW, json_pieces, row_shape, serialize
from skelex.nests import NestIndex

from conftest import K4_EDGES, criterion_counterexample, simplex_boundary_text

TEXT = st.text(
    alphabet=st.characters(codec="utf-8") | st.sampled_from('·"\\\n\t\x00\x1f\x7f'),
    max_size=8,
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.integers(2**64, 2**200)
    | st.floats()
    | TEXT
)
KEYS = TEXT | st.integers() | st.booleans() | st.none() | st.floats()
VALUES = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.dictionaries(KEYS, inner, max_size=5)
    ),
    max_leaves=40,
)


class Dict(dict):
    pass


class List(list):
    pass


class Int(int):
    pass


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(VALUES)
@example([True, 1, [1, True], {"x": [False, 0]}])  # bool is an int, written as one
@example({"a": [[], {}, ()], "b": {"c": [{}, [[]]], "d": {}}, "e": [[[[], {}]]]})
@example(["·", '"', "\\", "\n\x01", -(2**65), 2**64 + 1, None])
@example({1: "int", True: "bool", None: "null", 1.5: "float", "s": "str"})
# rows at the streamed depth, each written whole by one call
@example({"rows": [Dict(a=[1, Dict(b=2)]), List([1, [2], List()]), Dict(), List()]})
@example([[(1, "a"), (2, [3, (4,)]), ()], ((5, (6, 7)),)])
@example({"rows": [{1: [1]}, {True: [2]}, {None: {"x": 3}}, {1.5: [[4]]}, {2: 5, "s": 6}]})
@example([[Int(3), {"a": Int(4)}, [Int(5), [1]], Int(-6)], {"k": Int(7)}])
@example({"rows": [{"a": [], "b": {}, "c": (), "d": [[], {}, ()]}, [[], {}, ()], [[[]]]]})
def test_pieces_join_to_json_dumps(value):
    assert "".join(json_pieces(value)) == json.dumps(value, indent=1)


def lazy(value, level: int = 0):
    """``value`` with every list at the streamed levels made an iterator."""
    if level >= graph_mod.STREAMED_LEVELS:
        return value
    if isinstance(value, dict):
        return {k: lazy(v, level + 1) for k, v in value.items()}
    if isinstance(value, list):
        return iter([lazy(v, level + 1) for v in value])
    return value


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(VALUES)
@example([])
@example({"a": [], "b": [[]], "c": [{}]})
def test_lazy_arrays_join_to_json_dumps_of_the_lists(value):
    assert "".join(json_pieces(lazy(value))) == json.dumps(value, indent=1)


class TestLazyArrays:
    """An iterator at the top two levels is written as the array it yields."""

    ROWS = [{"dim": 1, "edges": [3, 4], "kernel": ["t0", "t1+t2"]}, {"dim": 2, "edges": []}]

    @pytest.mark.parametrize("value, materialized", [
        (iter(()), []),
        ((x for x in ()), []),
        ((x for x in [1, "a", None, [2, 3], {}]), [1, "a", None, [2, 3], {}]),
        ({"rows": (x for x in [1, [2], {"k": 3}]), "n": 2}, {"rows": [1, [2], {"k": 3}], "n": 2}),
        ({"rows": (x for x in ()), "n": 2}, {"rows": [], "n": 2}),
        ((row for row in ROWS), ROWS),
        ({"isotropy": (row for row in ROWS)}, {"isotropy": ROWS}),
        (((x for x in [i, i + 1]) for i in range(3)), [[i, i + 1] for i in range(3)]),
    ], ids=["empty", "empty generator", "level 0", "level 1", "empty at level 1",
            "dict rows", "dict rows at level 1", "generator of generators"])
    def test_joins_to_json_dumps_of_the_list(self, value, materialized):
        assert "".join(json_pieces(value)) == json.dumps(materialized, indent=1)

    def test_below_the_streamed_levels_is_a_type_error(self):
        # as json.dumps refuses any generator, the writer refuses one that
        # lies where values are written whole
        for value in ({"a": [(x for x in [1])]}, [[(x for x in [1])]], [{"a": iter([])}]):
            with pytest.raises(TypeError, match="generator|iterator"):
                json.dumps(value, indent=1)
            with pytest.raises(TypeError, match="generator|iterator"):
                "".join(json_pieces(value))

    def test_iterables_that_are_not_iterators_stay_type_errors(self):
        for value in ([range(2)], {"a": {1, 2}}, range(3)):
            with pytest.raises(TypeError):
                json.dumps(value, indent=1)
            with pytest.raises(TypeError):
                "".join(json_pieces(value))

    def test_later_values_are_read_once_the_iterator_is_exhausted(self):
        # how ``nests`` writes ``nu``: counted while the nests are drawn
        counted: list[int] = []
        rows = (counted.append(i) or {"i": [i]} for i in range(3))
        text = "".join(json_pieces({"rows": rows, "count": counted}))
        assert json.loads(text) == {"rows": [{"i": [0]}, {"i": [1]}, {"i": [2]}],
                                    "count": [0, 1, 2]}

    def test_items_are_drawn_as_they_are_written(self):
        drawn = []
        pieces = json_pieces({"rows": (drawn.append(i) or [i, i] for i in range(3))})
        assert next(pieces) == '{\n "rows": [\n  [\n   0,\n   0\n  ]'
        assert drawn == [0]

    def test_the_lazy_check_skips_the_rows(self, monkeypatch):
        # only values at the streamed levels that are not nested containers
        # are asked whether they are iterators: here the one "n"
        asked = []
        real = graph_mod._is_lazy
        monkeypatch.setattr(graph_mod, "_is_lazy", lambda v: asked.append(v) or real(v))
        payload = {"rows": [[u, u + 1, "011"] for u in range(100)], "n": 2}
        assert "".join(json_pieces(payload)) == json.dumps(payload, indent=1)
        assert asked == [2]


class Str(str):
    pass


class Float(float):
    pass


# the values a row's field takes: id lists of exact ints, and lists that
# merely look like them (bools, int subclasses), next to every other value
FIELDS = (
    VALUES
    | st.lists(st.integers(0, 2**20), max_size=12).map(tuple)
    | st.lists(st.integers(-(2**70), 2**70) | st.booleans() | st.builds(Int, st.integers()))
    | st.builds(Int, st.integers()) | st.builds(Str, TEXT) | st.builds(Float, st.floats())
    | st.lists(SCALARS, max_size=4).map(List) | st.dictionaries(TEXT, SCALARS, max_size=4).map(Dict)
)
ROWS = st.lists(
    st.lists(st.tuples(KEYS, FIELDS, st.booleans()), max_size=6), max_size=6
)  # per row, (key, value, whether the row renders it itself) per field


def assembled(fields: list[tuple]) -> str:
    """The row of ``fields`` as ``row_shape`` makes it from its shared and
    own field values."""
    make = row_shape({key: PER_ROW if own else value for key, value, own in fields})
    kept = {key: (value, own) for key, value, own in fields}  # a later key wins
    return make(*(value for value, own in kept.values() if own))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ROWS)
@example([[("dim", 1, False), ("edges", (3, 4), True), ("kernel", ["t0", "t1+t2"], False)]])
@example([[("vertices", (), True), ("edges", [], True)], [], [("a", {}, False)]])
@example([[("·\n\"", "\x00·\\", True), (None, True, False), (1.5, None, True)]])
@example([[("ids", [True, 1, Int(2)], True), ("big", (2**64, -(2**70)), True)]])
def test_assembled_rows_join_to_json_dumps(rows):
    values = [{key: value for key, value, _ in fields} for fields in rows]
    texts = [assembled(fields) for fields in rows]
    for value, written in (
        ({"rows": values, "n": 2}, {"rows": texts, "n": 2}),
        ([values], [texts]),
        ({"rows": values}, {"rows": iter(texts)}),
    ):
        assert "".join(json_pieces(written)) == json.dumps(value, indent=1)


class TestRowShape:
    def test_a_row_is_one_piece(self):
        make = row_shape({"dim": 2, "edges": PER_ROW, "kernel": ["t0"]})
        pieces = list(json_pieces({"rows": [make((1, 2)), make(())]}))
        assert pieces[:2] == [
            '{\n "rows": [\n  {\n   "dim": 2,\n   "edges": [\n    1,\n    2\n   ],'
            '\n   "kernel": [\n    "t0"\n   ]\n  }',
            ',\n  {\n   "dim": 2,\n   "edges": [],\n   "kernel": [\n    "t0"\n   ]\n  }',
        ]

    @pytest.mark.parametrize("where", [
        lambda row: row, lambda row: [row], lambda row: {"a": row},
        lambda row: [[[row]]], lambda row: {"a": [{"b": row}]},
    ], ids=["top", "level 1", "field at level 1", "level 3", "field at level 3"])
    def test_a_row_stands_only_where_rows_are_written(self, where):
        row = row_shape({"a": PER_ROW})([1])
        with pytest.raises(TypeError, match="a row is written 2 levels down"):
            "".join(json_pieces(where(row)))

    def test_a_row_takes_its_own_fields_exactly(self):
        make = row_shape({"a": 1, "b": PER_ROW, "c": PER_ROW})
        for own in ((), ([1],), ([1], [2], [3])):
            with pytest.raises(TypeError, match="has 2 own fields"):
                make(*own)

    def test_shared_values_are_rendered_once(self, monkeypatch):
        rendered = []
        real = graph_mod._text
        monkeypatch.setattr(
            graph_mod, "_text", lambda value, level: rendered.append(value) or real(value, level)
        )
        make = row_shape({"kernel": ["t0", "t1"], "edges": PER_ROW})
        rendered.clear()
        for i in range(5):
            make({"own": i})
        assert rendered == [{"own": i} for i in range(5)]


# (exit code, sha256) of each listing as it was written when every row was
# rendered whole, field by field; rows assembled from per-subspace field
# texts write the same bytes
LISTING_SHA256 = {
    ("gT2(64)", "realize --table --format json"):
        (0, "fb5f8e68dde0124267a03a5b615297518c6815fccdef7d250b5b88f5545da450"),
    ("kP2(65)", "realize --table --format json"):
        (0, "94a3ed8c4de880a9a28355ff9440727aa49c610ee5f2968fd20d99cc675453d6"),
    ("cube5", "nests --format json"):
        (0, "70658343beaa590c8cb4f52605a7dc5221100741d2357c71ec973abb159f2a0f"),
    ("cube5", "nests --dim 2 --format json"):
        (0, "226d49c93cdbf58cea9ea2c9109fc790e4cadb79fa4b2fa821ac5771a1d7fa37"),
    ("gT2(8)", "nests --format json"):
        (0, "53d0562ea16eca309e17cd4957478370c0c89a831993bbf307e165e5af1a7512"),
    ("gT2(8)", "nests --dim 2 --format json"):
        (0, "b1e9a79bbfb7c28ee40769bc196640b6be0d921441fe844ed1b3571f3fcc0668"),
    ("cube5", "nests --format text"):
        (0, "ba0175e928e59c50c67464bf9d7603ef50dd2ede04a7c85d421a8a28b9a22d38"),
    ("gT2(8)", "nests --format text"):
        (0, "f020073477914a3b4a82de3b7cbe5c8307f5fbca7abe53482387b796a84abeaf"),
    ("gT2(64)", "realize --table --format text"):
        (0, "7479cd9c72e4fc11a1b494b079d9e6ac9087ef63646d7d7eeb6d32f6d60e7fd6"),
    ("kP2(65)", "realize --table --format text"):
        (0, "689522ed548407ce7aebd504d50357d7b1e28ba6b9c30c31f30f4d047ea6f483"),
}
LISTED = {
    "gT2(64)": lambda: gen_orientable_surface(64),
    "kP2(65)": lambda: gen_nonorientable_surface(65),
    "cube5": lambda: gen_cube(5),
    "gT2(8)": lambda: gen_orientable_surface(8),
}


@pytest.mark.parametrize(
    "name, argv", list(LISTING_SHA256), ids=[" ".join(key) for key in LISTING_SHA256]
)
def test_listings_are_byte_identical(name, argv, tmp_path):
    source = tmp_path / "graph.json"
    source.write_text(serialize(LISTED[name]()), encoding="utf-8")
    listing = tmp_path / "listing.json"
    code = cli.run([*argv.split(), str(source), "--out", str(listing)])
    digest = hashlib.sha256(listing.read_bytes()).hexdigest()
    assert (code, digest) == LISTING_SHA256[name, argv]


# (exit code, sha256) of the output file of each call, as written when every
# edge color was a vector object; read and written as int masks, the bytes
# are the same
OUTPUT_SHA256 = {
    ("generate cube --n 5", None):
        (0, "6de5173bbbbd419c6f4f672f452ee798629912915d7b13b8060446c5a34504f9"),
    ("generate surface --genus 64", None):
        (0, "2f58cf855c4214b3cc829cd1a87add74277ec7387bd98290ed89e47f1f5fe5da"),
    ("generate surface --genus 65 --non-orientable", None):
        (0, "f78d808a99bfad1a189a1b879bfb3f7c090d18139ff5bc37aa44bfee88dc4caa"),
    ("dualize", "simplex3"):
        (0, "3233359de91fa5c54d929c2307e3729faf96155335c7a735bfde01b84bbea4ed"),
    ("validate --format json", "zero color"):
        (1, "f0690cb06a92b1be4b8208271fb3a56b16b090f90ce8a9867f8928ad5c38588d"),
    ("validate --format json", "dependent colors"):
        (1, "71ac01bb72b277de477ef4269a21c3ab06ba4869c9e86af3d25658471bd10d44"),
}
OUTPUT_INPUTS = {
    "simplex3": lambda: simplex_boundary_text(3),
    "zero color": lambda: json.dumps(
        {"n": 1, "vertices": 2, "edges": [[0, 1, "10"], [0, 1, "00"]]}
    ),
    "dependent colors": lambda: json.dumps(
        {"n": 2, "vertices": 2, "edges": [[0, 1, "100"], [0, 1, "010"], [1, 0, "110"]]}
    ),
}


@pytest.mark.parametrize(
    "argv, source", list(OUTPUT_SHA256),
    ids=[argv + (f" {source}" if source else "") for argv, source in OUTPUT_SHA256],
)
def test_outputs_are_byte_identical(argv, source, tmp_path):
    inputs = []
    if source is not None:
        path = tmp_path / "input.json"
        path.write_text(OUTPUT_INPUTS[source](), encoding="utf-8")
        inputs = [str(path)]
    out = tmp_path / "output"
    code = cli.run([*argv.split(), *inputs, "--out", str(out)])
    assert (code, hashlib.sha256(out.read_bytes()).hexdigest()) == OUTPUT_SHA256[argv, source]


@pytest.mark.parametrize("g, argv, labels", [
    (gen_cube(4), ["nests", "--format", "json"], True),
    (gen_orientable_surface(8), ["realize", "--table", "--format", "json"], False),
], ids=["cube4 nests", "gT2(8) realize --table"])
def test_fields_a_subspace_decides_are_rendered_once_per_subspace(
    g, argv, labels, monkeypatch, tmp_path
):
    index = NestIndex(g)
    subspaces = {nest.color for k in range(g.width) for nest in index.nests(k)}
    nests = sum(len(index.nests(k)) for k in range(g.width))
    assert len(subspaces) < nests  # the listing repeats them
    source = tmp_path / "graph.json"
    source.write_text(serialize(g), encoding="utf-8")
    calls = {"label": 0, "shape": 0}

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(nests_mod, "nest_label", counted("label", nests_mod.nest_label))
    monkeypatch.setattr(graph_mod, "row_shape", counted("shape", graph_mod.row_shape))
    listing = tmp_path / "listing.json"
    assert cli.run([*argv, str(source), "--out", str(listing)]) == cli.EXIT_OK
    rows = json.loads(listing.read_text(encoding="utf-8"))["nests" if labels else "isotropy"]
    assert len(rows) == nests
    assert calls == {"label": len(subspaces) if labels else 0, "shape": len(subspaces)}


@pytest.mark.parametrize("value", [[object()], {"a": {"b": [{1}]}}, {(1,): 2}])
def test_unserializable_values_raise_type_error_as_json_does(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=1)
    with pytest.raises(TypeError):
        "".join(json_pieces(value))


def test_items_two_levels_down_are_one_piece_each():
    payload = {"rows": [{"edges": [1, 2], "kernel": ["t0"]}, {"edges": []}], "n": 2}
    pieces = list(json_pieces(payload))
    assert "".join(pieces) == json.dumps(payload, indent=1)
    row0, row1 = (json.dumps(r, indent=1).replace("\n", "\n  ") for r in payload["rows"])
    assert pieces[0] == '{\n "rows": [\n  ' + row0
    assert pieces[1:] == [",\n  " + row1, "\n ]", ',\n "n": 2', "\n}"]


CUBE = serialize(gen_cube(2))
CUBE3 = serialize(gen_cube(3))
SURFACE = serialize(gen_nonorientable_surface(3))
K4 = json.dumps({"n": 2, "vertices": 4, "edges": K4_EDGES})
JSON_CALLS = [
    (["validate", "--format", "json"], CUBE),
    (["validate", "--format", "json"], json.dumps({"n": 2, "vertices": 2, "edges": []})),
    (["nests", "--format", "json"], CUBE3),
    (["nests", "--dim", "1", "--format", "json"], CUBE),
    (["expand", "--format", "json"], CUBE3),
    (["expand", "--dump", "--format", "json"], CUBE3),
    (["expand", "--format", "json"], serialize(criterion_counterexample())),
    (["classify", "--format", "json"], SURFACE),
    (["classify", "--format", "json"], CUBE3),
    (["dualize"], simplex_boundary_text(3)),
    (["generate", "cube", "--n", "3"], None),
    (["generate", "surface", "--genus", "2"], None),
    (["census", "--format", "json"], K4),
    (["census", "--format", "json"], CUBE3),
    (["realize", "--table", "--format", "json"], SURFACE),
    (["realize", "--format", "json"], CUBE3),
]


@pytest.mark.parametrize(
    "argv, stdin_text", JSON_CALLS, ids=[" ".join(a) for a, _ in JSON_CALLS]
)
def test_subcommand_output_is_json_dumps_indent_one(capsys, monkeypatch, argv, stdin_text):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    assert cli.run(argv) in (cli.EXIT_OK, cli.EXIT_REFUSED)
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=1) + "\n"


def test_isotropy_table_is_streamed(monkeypatch, tmp_path):
    """The gT2(512) ``realize --table`` payload is written to a file in
    pieces, its rows built as they are written, at a peak far below the
    size of its text."""
    source = tmp_path / "gT2-512.json"
    source.write_text(serialize(gen_orientable_surface(512)))
    payloads = []
    monkeypatch.setattr(
        graph_mod, "json_pieces", lambda value: payloads.append(value) or iter([""])
    )
    argv = ["realize", str(source), "--table", "--format", "json", "--out", os.devnull]
    for _ in range(2):  # each payload's rows can be drawn once
        assert cli.run(argv) == cli.EXIT_OK
    measured, streamed = payloads
    size = sum(map(len, json_pieces(measured)))
    assert size > 1_000_000
    with open(os.devnull, "w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            cli._emit(fh, json_pieces(streamed))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < size / 2, (peak, size)

