"""Fast paths against slow oracles.

``NestIndex`` face lists and valences are checked against whole-dimension
``Nest.contains`` scans, the sparse boundary ranks of ``homology_mod2``
against dense ``rank_gf2`` on ``boundary_matrix``, and ``full_expand``
against a reference expansion that builds every face list and checks
every candidate boundary sphere by scans.  The n=3 counting criterion
and its witness are checked against that per-nest sphere check.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from skelex.census import enumerate_proper_colorings
from skelex.classify import homology_mod2
from skelex.cli import run
from skelex.duality import FacePoset, dual_colored_graph, predicted_complex
from skelex.errors import NotGoodColoring
from skelex.expansion import CellComplex, criterion_3d, expand2, full_expand
from skelex.generators import gen_cube, gen_nonorientable_surface, gen_orientable_surface
from skelex.gf2 import rank_masks, span
from skelex.graph import ColoredGraph, serialize
from skelex.nests import Nest, NestIndex, nest_label

from conftest import (
    CUBE_EDGES,
    banana,
    colored_from_indices,
    edges_at,
    criterion_counterexample,
    gale_facets,
    random_valid_coloring,
    six_colored_k4,
)
from cell_oracle import cells_by_dim
from graph_helpers import connected_sum
from local_check_oracle import manifold_local_check
from nest_oracle import grow_nest
from rank_oracle import boundary_matrix, rank_gf2
from sphere_oracle import _subcomplex, boundary_sphere_complex, sphere_check

HYPERCUBE_EDGES = [(u, v) for u, v, _ in gen_cube(3).edges]


def cyclic_poset(m: int) -> FacePoset:
    return FacePoset.from_simplices(gale_facets(m))


def cyclic_dual(m: int) -> ColoredGraph:
    return dual_colored_graph(cyclic_poset(m))


def _same_color_edge(g: ColoredGraph, color) -> int:
    return next(e for e in range(g.edge_count) if g.color(e) == color)


def connected_sums() -> list[ColoredGraph]:
    out = []
    for crossing in ("straight", "crossed"):
        a, b = gen_cube(2), gen_orientable_surface(1)
        out.append(connected_sum(a, 0, b, _same_color_edge(b, a.color(0)), crossing))
        a, b = gen_cube(3), gen_cube(3)
        out.append(connected_sum(a, 0, b, 0, crossing))
    chain = gen_nonorientable_surface(1)
    for _ in range(2):
        other = gen_nonorientable_surface(1)
        chain = connected_sum(chain, 0, other, _same_color_edge(other, chain.color(0)))
    out.append(chain)
    return out


CORPUS = {
    **{f"cube{n}": (lambda n=n: gen_cube(n)) for n in (2, 3, 4)},
    **{f"gT2({g})": (lambda g=g: gen_orientable_surface(g)) for g in (1, 2, 3)},
    **{f"kP2({k})": (lambda k=k: gen_nonorientable_surface(k)) for k in (1, 2, 3)},
    **{f"sum{i}": (lambda i=i: connected_sums()[i]) for i in range(5)},
    "criterion_counterexample": criterion_counterexample,
    "six-colored K4": six_colored_k4,
    "C(6,4) dual": lambda: cyclic_dual(6),
    "C(7,4) dual": lambda: cyclic_dual(7),
    # parallel edges: every nest is a bundle of them, every disc a bigon
    **{f"bigon{n}": (lambda n=n: banana(n)) for n in (2, 3)},
}


# ---------------------------------------------------------------- oracles


def grown_from_every_seed(g: ColoredGraph, k: int) -> list:
    """Every k-nest, regrown from each k-subset of edges at each vertex."""
    found = {}
    for v in range(g.vertex_count):
        for seeds in combinations(edges_at(g, v), k):
            nest = grow_nest(g, seeds, vertex=v)
            found[nest.key()] = nest
    return [found[key] for key in sorted(found)]


def scan_within(nest, lower) -> tuple[int, ...]:
    return tuple(j for j, cand in enumerate(lower) if nest.contains(cand))


def dense_ranks(c: CellComplex) -> list[int]:
    return [rank_gf2(boundary_matrix(c, k)) for k in range(1, c.top_dim + 1)]


def reference_expand(g: ColoredGraph):
    """The expansion with scans: (refusal, complex).

    The refusal is None on a completed expansion, "not good" for a 2-nest
    that is not a circle, "criterion" or "n>=4" for the early stops, and
    the full obstruction reason for a boundary that is not a 2-sphere.
    """
    index = NestIndex(g)
    by_dim = [index.nests(k) for k in range(3)]
    for nest in by_dim[2]:
        for v in nest.vertex_ids:
            if sum(1 for e in edges_at(g, v) if e in nest.edge_ids) != 2:
                return "not good", None
    faces = [
        [scan_within(nest, by_dim[k - 1]) if k else () for nest in by_dim[k]]
        for k in range(3)
    ]
    skeleton = CellComplex(g, by_dim, faces)
    if g.n == 2:
        return None, skeleton
    if g.n >= 4:
        return "n>=4", skeleton
    three = index.nests(3)
    if len(three) != len(by_dim[2]) - g.vertex_count:
        return "criterion", skeleton
    three_faces = []
    for nest in three:
        keep = [{i for i, cand in enumerate(level) if nest.contains(cand)} for level in by_dim]
        verdict = sphere_check(_subcomplex(skeleton, keep), 2)
        if not verdict.ok:
            return (
                f"boundary of 3-nest {nest_label(nest)} is not a 2-sphere:"
                f" {verdict.reason}",
                skeleton,
            )
        three_faces.append(scan_within(nest, by_dim[2]))
    return None, CellComplex(g, by_dim + [three], faces + [three_faces])


# ----------------------------------------------------------------- checks


def check_index(g: ColoredGraph) -> None:
    index = NestIndex(g)
    for k in range(g.n + 1):
        nests = index.nests(k)
        assert list(nests) == grown_from_every_seed(g, k)
        if k >= 2:
            parts = sorted(part for layer in index.layers(k) for part in layer.parts)
            assert parts == [nest.key() for nest in nests]
        else:
            # the 0- and 1-nests are read off the graph, with no labelling
            assert index.layers(k) == ()
        if k == 0:
            assert all(nest.vertex_ids == (v,) for v, nest in enumerate(nests))
        if k == 1:
            assert list(nests) == [
                Nest((e,), tuple(sorted(g.ends(e))), span([g.color(e)], g.width))
                for e in range(g.edge_count)
            ]
        assert list(index.valence_faults(k)) == [
            (nest, v, valence)
            for nest in nests
            for v in nest.vertex_ids
            for valence in [sum(1 for e in edges_at(g, v) if e in nest.edge_ids)]
            if valence != k
        ]
        for nest in nests:
            for j in range(k):
                assert tuple(index.within(nest, j)) == scan_within(nest, index.nests(j))
    assert index.counts() == tuple(len(index.nests(k)) for k in range(g.n + 1))


def check_criterion(g: ColoredGraph) -> bool:
    """The counting criterion against the per-nest sphere oracle, on a good
    n=3 coloring; returns whether the criterion holds.

    When it holds, the oracle passes every 3-nest boundary.  When it fails,
    its witness is the first 3-nest whose boundary has euler characteristic
    other than 2, that characteristic is the one named, and the oracle
    fails the witness's boundary.
    """
    index = NestIndex(g)
    skeleton = expand2(g, index)
    crit = criterion_3d(g, index)
    nests = index.nests(3)
    if crit.holds:
        assert crit.witness is None
        assert all(sphere_check(boundary_sphere_complex(skeleton, n), 2).ok for n in nests)
        return True
    first = nests.index(crit.witness)
    assert all(boundary_sphere_complex(skeleton, n).euler() == 2 for n in nests[:first])
    boundary = boundary_sphere_complex(skeleton, crit.witness)
    assert boundary.euler() == crit.witness_euler != 2
    assert not sphere_check(boundary, 2).ok
    assert crit.refusal.endswith(
        f"; 3-nest {nest_label(crit.witness)} with edges {crit.witness.edge_ids}"
        f" has boundary euler characteristic {crit.witness_euler}"
    )
    return False


def check_expansion(g: ColoredGraph) -> None:
    refusal, reference = reference_expand(g)
    if refusal == "not good":
        with pytest.raises(NotGoodColoring):
            full_expand(g)
        return
    outcome = full_expand(g)
    assert cells_by_dim(outcome.complex) == cells_by_dim(reference)
    if refusal is None:
        assert outcome.completed
        assert outcome.reached_dim == reference.top_dim
    else:
        assert not outcome.completed
        reason = outcome.obstruction.reason
        if refusal == "criterion":
            assert reason.startswith("counting criterion fails")
        elif refusal == "n>=4":
            assert "unsupported" in reason
        else:
            assert reason == refusal
    if g.n == 3:
        grown = outcome.complex
        skeleton = CellComplex(g, grown.nests[:3], [grown.faces(k) for k in range(3)], grown.index)
        levels = cells_by_dim(skeleton)
        for nest in NestIndex(g).nests(3):
            keep = [
                {c.index for c in level if nest.contains(c.nest)}
                for level in levels
            ]
            fast = boundary_sphere_complex(skeleton, nest)
            assert cells_by_dim(fast) == cells_by_dim(_subcomplex(skeleton, keep))
        check_criterion(g)
        if not outcome.completed:
            assert outcome.obstruction.nest == criterion_3d(g).witness
    if outcome.completed:
        c = outcome.complex
        ranks = dense_ranks(c)
        for k in range(1, c.top_dim + 1):
            column_masks = (sum(1 << f for f in faces) for faces in c.faces(k))
            assert rank_masks(column_masks) == ranks[k - 1]
        padded = [0] + ranks + [0]
        betti = tuple(
            n - padded[k] - padded[k + 1] for k, n in enumerate(c.counts())
        )
        assert homology_mod2(c).betti_mod2 == betti


@pytest.mark.parametrize("name", list(CORPUS))
def test_index_matches_scans(name):
    check_index(CORPUS[name]())


def test_corpus_pins_nests_keyed_by_subspace():
    # the index labels components once per subspace, not once per seed
    # key; the regrowth comparison above only tells the two apart on a
    # graph where distinct seed keys span one subspace
    keys_share_a_subspace = nests_share_a_subspace = False
    for make in CORPUS.values():
        g = make()
        index = NestIndex(g)
        for k in range(2, g.n + 1):
            keys: dict = {}
            for v in range(g.vertex_count):
                for seeds in combinations(edges_at(g, v), k):
                    key = tuple(sorted(g.color(e) for e in seeds))
                    keys.setdefault(span([g.color(e) for e in seeds], g.width), set()).add(key)
            if any(len(found) > 1 for found in keys.values()):
                keys_share_a_subspace = True
            colors = [nest.color for nest in index.nests(k)]
            if len(set(colors)) < len(colors):
                nests_share_a_subspace = True
    assert keys_share_a_subspace and nests_share_a_subspace


@pytest.mark.parametrize("name", list(CORPUS))
def test_expansion_matches_reference(name):
    check_expansion(CORPUS[name]())


def test_cyclic_duals_are_homology_spheres():
    # C(m,4) duals with 24 to 1,848 vertices: the 3-cells are attached on the
    # counting criterion alone, so the closed complex is checked whole
    for m in range(6, 15):
        poset = cyclic_poset(m)
        dual = dual_colored_graph(poset)
        outcome = full_expand(dual)
        assert outcome.completed
        assert predicted_complex(poset) == NestIndex(dual).counts()
        assert outcome.complex.euler() == 0
        assert homology_mod2(outcome.complex).betti_mod2 == (1, 0, 0, 1)
        assert manifold_local_check(outcome.complex).ok


def test_criterion_matches_sphere_oracle_on_four_cube_classes():
    # every class of pure colorings of the 4-cube: 1,839 refused, 1 closed
    held = [
        check_criterion(colored_from_indices(HYPERCUBE_EDGES, 16, 3, coloring))
        for coloring in enumerate_proper_colorings(HYPERCUBE_EDGES, 16, 4)
    ]
    assert len(held) == 1840 and sum(held) == 1


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), three=st.booleans())
def test_random_valid_colorings(seed, three):
    rng = random.Random(seed)
    if three:
        g = random_valid_coloring(HYPERCUBE_EDGES, 16, 4, rng)
    else:
        g = random_valid_coloring(CUBE_EDGES, 8, 3, rng)
    check_index(g)
    check_expansion(g)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    name=st.sampled_from(["cube3", "kP2(2)", "sum3", "criterion_counterexample", "C(6,4) dual"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_relabeled_graphs(name, seed):
    # vertex ids and edge order permuted: face lists come out in other orders
    g = CORPUS[name]()
    rng = random.Random(seed)
    ids = list(range(g.vertex_count))
    rng.shuffle(ids)
    edges = [(ids[u], ids[v], c) for u, v, c in g.edges]
    rng.shuffle(edges)
    relabeled = ColoredGraph(g.n, g.vertex_count, tuple(edges))
    check_index(relabeled)
    check_expansion(relabeled)


@given(rows=st.lists(st.lists(st.integers(0, 1), min_size=6, max_size=6), max_size=9))
def test_rank_masks_matches_dense_rank(rows):
    # columns of the matrix as masks over its rows
    columns = [
        sum(row[j] << i for i, row in enumerate(rows)) for j in range(6)
    ] if rows else []
    assert rank_masks(columns) == rank_gf2(rows)


# The sha256 of `skelex expand --format json --dump` on the cubes as the
# whole-skeleton scan implementation printed them.
SEED_DUMP_SHA256 = {
    2: "850a3a17b255a9c9b6cf23227192c6c3892372a27fa46093badb104a2229dd2c",
    3: "cbac500faf6689b3836a8b2be4fab3dca600469d58102fe64d494bd77b21ad61",
}


@pytest.mark.parametrize("n", [2, 3])
def test_expand_dump_is_byte_identical(n, tmp_path):
    source = tmp_path / "cube.json"
    source.write_text(serialize(gen_cube(n)) + "\n", encoding="utf-8")
    dump = tmp_path / "dump.json"
    assert run(["expand", "--format", "json", "--dump", str(source), "--out", str(dump)]) == 0
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == SEED_DUMP_SHA256[n]


# (exit code, sha256) of `skelex expand --format json --dump` on the corpus
# as the complex printed it when it held one Cell object per cell; a complex
# read off its nest index on demand prints the same bytes.
CELL_LIST_DUMP_SHA256 = {
    "cube2": (0, "850a3a17b255a9c9b6cf23227192c6c3892372a27fa46093badb104a2229dd2c"),
    "cube3": (0, "cbac500faf6689b3836a8b2be4fab3dca600469d58102fe64d494bd77b21ad61"),
    "cube4": (1, "f230fce9e9fa0f7c4b8b7dc000fe3e09ff418f0918124add186107ce26b7941c"),
    "gT2(1)": (0, "59c2702565f0c79307fd72d14cd0be2dde05a943e66f35d05b352a828af820e4"),
    "gT2(2)": (0, "d1b0a11ca9e99621442ff7304754b4079f905bf403d3423341968a782406ad6c"),
    "gT2(3)": (0, "3ee4ebe6647e61f76eb6a9012307f52bfcbfff0525e00edee4984ce422d9270a"),
    "kP2(1)": (0, "3660de93433f13c013c7ea131f76640dd7db683969eda3384934dd6a41f40eb1"),
    "kP2(2)": (0, "706b220fd49e811bc5fdf93bc691c39e903a7076e0fe43537cf0725f29eee034"),
    "kP2(3)": (0, "c67e6e6bbc48d8c4e8f20095e18d6980c43d11e9c857dbd63e1ef9200899967e"),
    "sum0": (0, "ab658faf3de85089bb389352b46dae565fecf817666282d8528008f8923002d3"),
    "sum1": (0, "d997fbef1543f885ba7f17d19ade88bd6958f7575e6bafdad4969eaa5efe325f"),
    "sum2": (0, "a1e92f6228e51dc90de8940e94de9edfdf87d0b8c921b8e6f2befd5590e4bc7c"),
    "sum3": (0, "8bde534d841e33a388f2a97bef580a8f995a074ccd46bd9c274e64b9324db53d"),
    "sum4": (0, "37e37bdc8886e09e72f1b4a259af3b20a216b80f209e9d634d32f6b2cfc58b8e"),
    "criterion_counterexample": (1, "1106c848bdc0658d8102af354fc28e93c8f4e9d0d9c783bc155db469944a60e6"),
    "six-colored K4": (0, "ece60feafc8d81f9b29741f9a86b31987642adc64d456066f184a1b8ad743bf6"),
    "C(6,4) dual": (0, "efec3996e82414814f3b5662c3b2a7da5a6dbb3fef8a0fc1be73efcb415cf59b"),
    "C(7,4) dual": (0, "f21654e729e6553c974a9e858fbd4278271409dcf627831db9d93dcdf7179edc"),
    "bigon2": (0, "f222577bb90f1e120ce30f2795078eef6d16a356116cb7f9332984097f3e740b"),
    "bigon3": (0, "0266f412144abae23c7991b283d28e829933a6078e48bd7bed58a4ac2366ace6"),
}


@pytest.mark.parametrize("name", list(CORPUS))
def test_expand_dump_matches_the_cell_list_complex(name, tmp_path):
    source = tmp_path / "graph.json"
    source.write_text(serialize(CORPUS[name]()), encoding="utf-8")
    dump = tmp_path / "dump.json"
    code = run(["expand", "--format", "json", "--dump", str(source), "--out", str(dump)])
    digest = hashlib.sha256(dump.read_bytes()).hexdigest()
    assert (code, digest) == CELL_LIST_DUMP_SHA256[name]
