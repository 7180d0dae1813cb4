"""CLI behavior: subcommands, formats, exit codes, pipes."""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import time
from itertools import combinations

import pytest

from skelex import census as census_mod
from skelex import cli
from skelex import errors as errors_mod
from skelex import generators as generators_mod
from skelex import graph as graph_mod

from skelex.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_REFUSED,
    census,
    enumerate_proper_colorings,
    run,
)
from skelex.graph import serialize
from skelex.duality import sphere_poset
from skelex.generators import gen_cube, gen_nonorientable_surface

from conftest import (
    CUBE_EDGES,
    GAP_CELL,
    K4_EDGES,
    LONE_VERTEX_2,
    LONE_VERTEX_3,
    THIRD_CELL,
    colored_from_indices,
    criterion_counterexample,
    edited,
    nongood_cube,
    poset_document,
    simplex_boundary_text,
)


def run_cli(capsys, monkeypatch, argv, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerateClassify:
    def test_cube_pipeline(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, ["generate", "cube", "--n", "2"])
        assert code == EXIT_OK
        code, out, _ = run_cli(capsys, monkeypatch, ["classify"], stdin_text=out)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "S2"

    def test_nonorientable_pipeline(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch,
            ["generate", "surface", "--genus", "3", "--non-orientable"],
        )
        assert code == EXIT_OK
        code, out, _ = run_cli(capsys, monkeypatch, ["classify"], stdin_text=out)
        assert code == EXIT_OK
        assert out.splitlines()[0] == "kP2(3)"
        assert "orientable: no" in out

    def test_classify_json(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch, ["classify", "--format", "json"],
            stdin_text=serialize(gen_cube(2)),
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["name"] == "S2" and payload["euler"] == 2

    def test_homology_output(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch, ["classify"], stdin_text=serialize(gen_cube(3))
        )
        assert code == EXIT_OK
        assert "betti_mod2: (1, 0, 0, 1)" in out


class TestValidate:
    def test_valid(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch, ["validate"], stdin_text=serialize(gen_cube(2))
        )
        assert code == EXIT_OK and out.strip() == "valid"

    def test_invalid_reports(self, capsys, monkeypatch):
        bad = json.dumps({
            "n": 2, "vertices": 2,
            "edges": [[0, 1, "100"], [0, 1, "100"], [0, 1, "010"], [0, 1, "001"]],
        })
        code, out, _ = run_cli(capsys, monkeypatch, ["validate"], stdin_text=bad)
        assert code == EXIT_REFUSED
        assert "invalid" in out

    def test_garbage_input(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, monkeypatch, ["validate"], stdin_text="{nope")
        assert code == EXIT_INPUT
        assert "error" in err


GRAPH_COMMANDS = [
    ["validate"], ["nests"], ["expand"], ["classify"], ["realize"], ["realize", "--table"],
]


class TestOneValidation:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        original = graph_mod.validate
        monkeypatch.setattr(graph_mod, "validate", lambda g: seen.append(g) or original(g))
        return seen

    @pytest.mark.parametrize("argv", GRAPH_COMMANDS, ids=" ".join)
    def test_valid_graph(self, capsys, monkeypatch, calls, argv):
        text = serialize(gen_nonorientable_surface(1))
        code, _, _ = run_cli(capsys, monkeypatch, argv, stdin_text=text)
        assert code == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize("argv", GRAPH_COMMANDS, ids=" ".join)
    def test_invalid_graph(self, capsys, monkeypatch, calls, argv):
        # x1+x2 at vertex 0, which already has x1 and x2
        doc = json.loads(serialize(gen_cube(2)))
        doc["edges"][0][2] = "011"
        code, out, err = run_cli(capsys, monkeypatch, argv, stdin_text=json.dumps(doc))
        assert len(calls) == 1
        if argv == ["validate"]:  # the report is validate's output
            assert code == EXIT_REFUSED and "linearly dependent" in out
        else:
            assert code == EXIT_INPUT and "linearly dependent" in err


class TestNests:
    def test_summary_line(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch, ["nests"], stdin_text=serialize(gen_cube(2))
        )
        assert code == EXIT_OK
        assert "nu = (8, 12, 6)" in out

    def test_dim_filter_and_json(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch,
            ["nests", "--dim", "2", "--format", "json"],
            stdin_text=serialize(gen_cube(2)),
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["nests"]) == 6
        assert payload["nu"] == [8, 12, 6]
        assert all(n["dim"] == 2 for n in payload["nests"])

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("dim", [-1, 4])
    def test_dimension_outside_refused_before_any_output(self, capsys, monkeypatch, fmt, dim):
        # the listing is written as the dimensions are enumerated, so the
        # dimension is checked before the first of them
        code, out, err = run_cli(
            capsys, monkeypatch, ["nests", "--dim", str(dim), "--format", fmt],
            stdin_text=serialize(gen_cube(3)),
        )
        assert (code, out, err) == (EXIT_INPUT, "", f"error: nest dimension {dim} outside 0..3\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_one_dimension_is_the_full_listing_cut(self, capsys, monkeypatch, fmt):
        # --dim lists the nests of one dimension and still counts them all
        text = serialize(gen_cube(3))
        _, full, _ = run_cli(capsys, monkeypatch, ["nests", "--format", fmt], stdin_text=text)
        for dim in range(4):
            code, out, _ = run_cli(
                capsys, monkeypatch, ["nests", "--dim", str(dim), "--format", fmt],
                stdin_text=text,
            )
            assert code == EXIT_OK
            if fmt == "json":
                whole, cut = json.loads(full), json.loads(out)
                assert cut["nu"] == whole["nu"] == [16, 32, 24, 8]
                assert cut["nests"] == [n for n in whole["nests"] if n["dim"] == dim]
            else:
                lines = full.splitlines()
                assert out.splitlines() == [
                    line for line in lines if line.startswith(f"k={dim} ")
                ] + [lines[-1]]


class TestExpand:
    def test_completed(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch, ["expand"], stdin_text=serialize(gen_cube(3))
        )
        assert code == EXIT_OK
        assert "cells: 16 32 24 8" in out

    def test_counterexample_refused_with_counts(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch, ["expand"],
            stdin_text=serialize(criterion_counterexample()),
        )
        assert code == EXIT_REFUSED
        assert "5 3-nests != 12 2-nests - 8 vertices" in out

    def test_dump_json(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch, ["expand", "--dump", "--format", "json"],
            stdin_text=serialize(gen_nonorientable_surface(1)),
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["cells"] == [4, 6, 3]
        assert len(payload["complex"]) == 13


class TestDualize:
    def test_poset_file(self, capsys, monkeypatch, tmp_path):
        poset = {
            "top_dim": 2,
            "cells": (
                [[f"c0_{s}", 0, []] for s in (1, 2)]
                + [[f"c1_{s}", 1, ["c0_1", "c0_2"]] for s in (1, 2)]
                + [[f"c2_{s}", 2, ["c1_1", "c1_2", "c0_1", "c0_2"]] for s in (1, 2)]
            ),
        }
        path = tmp_path / "sphere.json"
        path.write_text(json.dumps(poset))
        code, out, _ = run_cli(capsys, monkeypatch, ["dualize", str(path)])
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["vertices"] == 8 and len(data["edges"]) == 12

    def test_open_complex_refused(self, capsys, monkeypatch):
        text = json.dumps({"simplices": [[0, 1, 2], [0, 1, 3], [0, 2, 3]]})
        code, _, err = run_cli(capsys, monkeypatch, ["dualize"], stdin_text=text)
        assert code == EXIT_REFUSED
        assert "refused" in err

    def test_open_simplex_refused_before_its_poset_is_built(self, capsys, monkeypatch):
        text = json.dumps({"simplices": [list(range(14))]})
        code, _, err = run_cli(capsys, monkeypatch, ["dualize"], stdin_text=text)
        assert code == EXIT_REFUSED
        assert "ridge [0, 1, 2" in err

    @pytest.mark.parametrize("cell, interval", [
        (GAP_CELL, "between 1-cell 'c1_3' and 3-cell 'c3_1' lie 0 2-cells"),
        (THIRD_CELL, "between 1-cell 'c1_1' and 3-cell 'c3_1' lie 3 2-cells"),
    ])
    def test_interval_without_two_cells_refused(self, capsys, monkeypatch, cell, interval):
        text = json.dumps(poset_document(edited(sphere_poset(4), add=cell)))
        code, out, err = run_cli(capsys, monkeypatch, ["dualize"], stdin_text=text)
        assert (code, out) == (EXIT_REFUSED, "")
        assert err == f"refused: {interval}, expected 2\n"

    @pytest.mark.parametrize("n, cell, reason", [
        (3, LONE_VERTEX_3, "link of vertex 'z' is disconnected"),
        (2, LONE_VERTEX_2, "between 0-cell 'z' and 2-cell 'c2_1' lie 0 1-cells, expected 2"),
    ])
    def test_lone_vertex_refused(self, capsys, monkeypatch, n, cell, reason):
        text = json.dumps(poset_document(edited(sphere_poset(n), add=cell)))
        code, out, err = run_cli(capsys, monkeypatch, ["dualize"], stdin_text=text)
        assert (code, out, err) == (EXIT_REFUSED, "", f"refused: {reason}\n")

    @pytest.mark.parametrize("k", [8, 9])
    def test_closed_simplex_boundary_past_the_flag_bound(self, capsys, monkeypatch, k):
        # (k+1)! full flags, refused before any is listed
        text = json.dumps({"simplices": [list(s) for s in combinations(range(k + 1), k)]})
        began = time.perf_counter()
        code, _, err = run_cli(capsys, monkeypatch, ["dualize"], stdin_text=text)
        assert time.perf_counter() - began < 1
        assert code == EXIT_REFUSED
        assert f"got {math.factorial(k + 1)}" in err


class TestCensusCommand:
    def test_k4(self, capsys, monkeypatch):
        text = json.dumps({"n": 2, "vertices": 4, "edges": [list(e) for e in K4_EDGES]})
        code, out, _ = run_cli(capsys, monkeypatch, ["census"], stdin_text=text)
        assert code == EXIT_OK
        assert "kP2(1)" in out
        assert "total: 1" in out

    def test_cube_json(self, capsys, monkeypatch):
        text = json.dumps({"n": 2, "vertices": 8, "edges": [list(e) for e in CUBE_EDGES]})
        code, out, _ = run_cli(
            capsys, monkeypatch, ["census", "--format", "json"], stdin_text=text
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        names = sorted(entry["surface"] for entry in payload)
        assert names == ["S2", "gT2(1)", "gT2(1)", "gT2(1)"]

    def test_non_integer_vertices(self, capsys, monkeypatch):
        text = json.dumps({"n": 2, "vertices": "x", "edges": [[0, 1]]})
        code, _, err = run_cli(capsys, monkeypatch, ["census"], stdin_text=text)
        assert code == EXIT_INPUT
        assert "'vertices' must be an integer" in err

    def test_non_array_edges(self, capsys, monkeypatch):
        text = json.dumps({"n": 2, "vertices": 4, "edges": 7})
        code, _, err = run_cli(capsys, monkeypatch, ["census"], stdin_text=text)
        assert code == EXIT_INPUT
        assert "'edges' must be an array" in err

    def test_parallel_edges(self, capsys, monkeypatch):
        text = json.dumps({"n": 9, "vertices": 2, "edges": [[0, 1]] * 10})
        code, out, _ = run_cli(
            capsys, monkeypatch, ["census", "--format", "json"], stdin_text=text
        )
        assert code == EXIT_OK
        assert json.loads(out) == [{
            "coloring": list(range(10)),
            "refused": "sphere recognition above dimension 2 is unsupported (n=9)",
        }]

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (0, [[0, 1]], "n must be >= 1, got 0"),
            # an odd cycle has no proper coloring, an even one has a class
            (1, [[0, 1], [1, 2], [2, 0]], "expansion needs n >= 2, got n=1"),
            (1, [[0, 1], [1, 2], [2, 3], [3, 0]], "expansion needs n >= 2, got n=1"),
        ],
    )
    def test_dimension_below_two_refused_before_enumerating(
        self, capsys, monkeypatch, n, edges, message
    ):
        def unreachable(*args):
            raise AssertionError("colorings enumerated")

        monkeypatch.setattr(census_mod, "enumerate_proper_colorings", unreachable)
        vertices = 1 + max(max(e) for e in edges)
        text = json.dumps({"n": n, "vertices": vertices, "edges": edges})
        for fmt in ("text", "json"):
            code, out, err = run_cli(
                capsys, monkeypatch, ["census", "--format", fmt], stdin_text=text
            )
            assert (code, out, err) == (EXIT_INPUT, "", f"error: {message}\n")

    def test_scale_guard(self, capsys, monkeypatch):
        big = {"n": 1, "vertices": 40,
               "edges": [[i, (i + 1) % 40] for i in range(40)]}
        code, _, err = run_cli(
            capsys, monkeypatch, ["census"], stdin_text=json.dumps(big)
        )
        assert code == EXIT_REFUSED
        assert "16" in err


# a circle in the cells format with integer ids, top_dim 1
CIRCLE_CELLS = [[0, 0, []], [1, 0, []], [2, 1, [0, 1]], [3, 1, [0, 1]]]


class TestBooleansAreNotIntegers:
    """JSON's true and false are refused wherever an integer is read."""

    @pytest.mark.parametrize("argv, document, message", [
        (["validate"],
         {"n": True, "vertices": 2, "edges": [[0, 1, "10"], [False, True, "01"]]},
         "'n' must be an integer"),
        (["validate"],
         {"n": 1, "vertices": True, "edges": [[0, 0, "10"], [0, 0, "01"]]},
         "'vertices' must be an integer"),
        (["validate"],
         {"n": 1, "vertices": 2, "edges": [[0, 1, "10"], [False, True, "01"]]},
         "edges[1]: expected [u, v, colorstring] with integers u, v"),
        (["census"],
         {"n": True, "vertices": 2, "edges": [[0, 1], [0, 1]]},
         "'n' must be an integer"),
        (["census"],
         {"n": 1, "vertices": 2, "edges": [[0, 1], [True, 0]]},
         "edges[1]: expected [u, v] or [u, v, color] with integers u, v"),
        (["dualize"],
         {"simplices": [[0, True], [True, 2], [2, 0]]},
         "'simplices' must be an array of integer arrays"),
        (["dualize"],
         {"top_dim": True, "cells": CIRCLE_CELLS},
         "'top_dim' must be an integer"),
        (["dualize"],
         {"top_dim": 1, "cells": [[0, 0, []], [1, 0, []], [2, True, [0, 1]], [3, 1, [0, 1]]]},
         "cells[2]: expected [id, int, list]"),
        (["dualize"],
         {"top_dim": 1, "cells": [[0, 0, []], [True, 0, []], [2, 1, [0, 1]], [3, 1, [0, 1]]]},
         "cells[1]: cell ids must be strings or integers"),
        (["dualize"],
         {"top_dim": 1, "cells": [[0, 0, []], [1, 0, []], [2, 1, [0, True]], [3, 1, [0, 1]]]},
         "cells[2]: cell ids must be strings or integers"),
    ])
    def test_refused_naming_the_field(self, capsys, monkeypatch, argv, document, message):
        code, out, err = run_cli(capsys, monkeypatch, argv, stdin_text=json.dumps(document))
        assert (code, out, err) == (EXIT_INPUT, "", f"error: {message}\n")

    def test_integer_circle_dualizes(self, capsys, monkeypatch):
        text = json.dumps({"top_dim": 1, "cells": CIRCLE_CELLS})
        code, _, _ = run_cli(capsys, monkeypatch, ["dualize"], stdin_text=text)
        assert code == EXIT_OK


class TestRealizeCommand:
    def test_doubling_message(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch, ["realize", "--table"],
            stdin_text=serialize(gen_nonorientable_surface(1)),
        )
        assert code == EXIT_OK
        assert "doubling required: yes" in out
        assert "corank=" in out

    def test_nongood_refused(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys, monkeypatch, ["realize"], stdin_text=serialize(nongood_cube())
        )
        assert code == EXIT_REFUSED
        assert "the coloring is not good" in err

    def test_unknown_on_refusal(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch, ["realize"],
            stdin_text=serialize(criterion_counterexample()),
        )
        assert code == EXIT_REFUSED
        assert "unknown" in out


ERROR_CLASSES = {
    name: value for name, value in vars(errors_mod).items()
    if isinstance(value, type) and issubclass(value, errors_mod.SkelexError)
}
REFUSED = {
    "Refusal", "ExpansionRefused", "NotGoodColoring", "NotCombinatorialManifold",
    "CensusLimit", "FlagLimit", "GeneratorLimit", "NestLimit",
}


class TestExitCodes:
    """A refusal exits with 1 and every other library error with 2."""

    def test_refusals_are_the_written_list(self):
        assert {
            name for name, cls in ERROR_CLASSES.items() if issubclass(cls, errors_mod.Refusal)
        } == REFUSED

    @pytest.mark.parametrize("name", sorted(ERROR_CLASSES))
    def test_exit_code_follows_the_class(self, capsys, monkeypatch, name):
        cls = ERROR_CLASSES[name]

        def command(args):
            raise cls(["why"]) if cls is errors_mod.InvalidGraph else cls("why")

        monkeypatch.setattr(cli, "_cmd_validate", command)
        code, out, err = run_cli(capsys, monkeypatch, ["validate"], stdin_text="{}")
        if name in REFUSED:
            assert (code, out, err) == (EXIT_REFUSED, "", "refused: why\n")
        else:
            assert (code, out, err) == (EXIT_INPUT, "", "error: why\n")


class TestOutFlag:
    def test_generate_writes_file(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "cube.json"
        code, out, _ = run_cli(
            capsys, monkeypatch,
            ["generate", "cube", "--n", "2", "--out", str(target)],
        )
        assert code == EXIT_OK and out == ""
        data = json.loads(target.read_text())
        assert data["vertices"] == 8

    def test_classify_writes_file(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "report.txt"
        code, _, _ = run_cli(
            capsys, monkeypatch, ["classify", "--out", str(target)],
            stdin_text=serialize(gen_cube(2)),
        )
        assert code == EXIT_OK
        assert target.read_text().splitlines()[0] == "S2"


OUT_COMMANDS = {
    "validate": (["validate"], "cube"),
    "nests": (["nests"], "cube"),
    "expand": (["expand"], "cube"),
    "classify": (["classify"], "cube"),
    "realize": (["realize", "--table"], "cube"),
    "dualize": (["dualize"], "poset"),
    "generate": (["generate", "cube", "--n", "2"], None),
    "census": (["census"], "k4"),
}


class TestUnwritableOut:
    """A target that cannot be opened is an input error, not a traceback."""

    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    @pytest.mark.parametrize("name", list(OUT_COMMANDS))
    def test_refused_with_one_line(self, capsys, monkeypatch, tmp_path, name, target):
        argv, source = OUT_COMMANDS[name]
        stdin_text = {
            "cube": serialize(gen_cube(2)),
            "poset": simplex_boundary_text(3),
            "k4": json.dumps({"n": 2, "vertices": 4, "edges": K4_EDGES}),
            None: None,
        }[source]
        out = tmp_path / "absent" / "x.json" if target == "missing directory" else tmp_path
        code, stdout, err = run_cli(
            capsys, monkeypatch, argv + ["--out", str(out)], stdin_text=stdin_text
        )
        assert code == EXIT_INPUT
        assert stdout == ""
        assert err.startswith(f"error: cannot write {out}: ")
        assert err.count("\n") == 1

    def test_refused_before_any_work(self, capsys, monkeypatch, tmp_path):
        def unreachable(n):
            raise AssertionError("the cube was generated")

        monkeypatch.setattr(generators_mod, "gen_cube", unreachable)
        out = tmp_path / "absent" / "x.json"
        code, stdout, err = run_cli(
            capsys, monkeypatch, ["generate", "cube", "--n", "13", "--out", str(out)]
        )
        assert (code, stdout) == (EXIT_INPUT, "")
        assert err.startswith(f"error: cannot write {out}: ")

    def test_refused_command_leaves_the_target_empty(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "report.txt"
        target.write_text("old contents\n")
        code, _, _ = run_cli(
            capsys, monkeypatch, ["classify", "--out", str(target)], stdin_text="{nope"
        )
        assert code == EXIT_INPUT
        assert target.read_text() == ""


class TestOutIsInput:
    """An ``--out`` naming the input file is refused before it is emptied."""

    @pytest.mark.parametrize("name", [n for n, (_, s) in OUT_COMMANDS.items() if s])
    def test_refused_and_input_kept(self, capsys, monkeypatch, tmp_path, name):
        argv, source = OUT_COMMANDS[name]
        text = {
            "cube": serialize(gen_cube(2)),
            "poset": simplex_boundary_text(3),
            "k4": json.dumps({"n": 2, "vertices": 4, "edges": K4_EDGES}),
        }[source]
        path = tmp_path / "input.json"
        path.write_text(text)
        # another spelling of the same file, so no string comparison could see it
        out = tmp_path / "." / "input.json"
        code, stdout, err = run_cli(
            capsys, monkeypatch, argv + [str(path), "--out", str(out)]
        )
        assert (code, stdout) == (EXIT_INPUT, "")
        assert err == f"error: --out {out} is the input file; it would be emptied\n"
        assert path.read_text() == text

    def test_hard_link_is_the_same_file(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(serialize(gen_cube(2)))
        link = tmp_path / "link.json"
        os.link(path, link)
        code, _, err = run_cli(
            capsys, monkeypatch, ["classify", str(path), "--out", str(link)]
        )
        assert code == EXIT_INPUT and str(link) in err
        assert json.loads(path.read_text())["vertices"] == 8

    def test_other_existing_file_is_written(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(serialize(gen_cube(2)))
        out = tmp_path / "report.txt"
        out.write_text("old\n")
        code, _, _ = run_cli(
            capsys, monkeypatch, ["classify", str(path), "--out", str(out)]
        )
        assert code == EXIT_OK and out.read_text().startswith("S2\n")


class TestCensusMachinery:
    def test_no_proper_coloring_yields_empty(self):
        # the Petersen graph is 3-regular with chromatic index 4
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        petersen = outer + spokes + inner
        assert census(petersen, 10, 2) == []
        assert list(enumerate_proper_colorings(petersen, 10, 3)) == []

    def test_k4_includes_projective_plane(self):
        entries = census(K4_EDGES, 4, 2)
        assert len(entries) == 1
        assert entries[0].report.name == "kP2(1)"

    def test_deterministic(self):
        a = census(CUBE_EDGES, 8, 2)
        b = census(CUBE_EDGES, 8, 2)
        assert [e.coloring for e in a] == [e.coloring for e in b]

    def test_colored_file_accepted_with_colors_ignored(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, monkeypatch, ["census"], stdin_text=serialize(gen_cube(2))
        )
        assert code == EXIT_OK
        assert "total: 4" in out

    def test_entries_satisfy_complex_properties(self):
        from skelex.classify import homology_mod2
        from skelex.expansion import full_expand

        for edges, vertices in ((CUBE_EDGES, 8), (K4_EDGES, 4)):
            for entry in census(edges, vertices, 2):
                g = colored_from_indices(edges, vertices, 2, entry.coloring)
                complex_ = full_expand(g).complex
                assert complex_.boundary_condition_holds()
                betti = homology_mod2(complex_).betti_mod2
                assert betti[0] == 1
                assert betti == tuple(reversed(betti))
                assert complex_.euler() == entry.report.euler

    def test_three_dimensional_census(self):
        # two vertices joined by four parallel edges: the unique pure
        # coloring closes up into a homology 3-sphere
        edges = [(0, 1)] * 4
        entries = census(edges, 2, 3)
        assert len(entries) == 1
        assert entries[0].refusal is None
        assert entries[0].report.betti_mod2 == (1, 0, 0, 1)


def test_console_pipe_end_to_end():
    """The documented composition through actual pipes."""
    import os
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    script = (
        f"{sys.executable} -m skelex.cli generate cube --n 2 | "
        f"{sys.executable} -m skelex.cli classify"
    )
    proc = subprocess.run(
        script, shell=True, capture_output=True, text=True, timeout=60, env=env
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "S2"
