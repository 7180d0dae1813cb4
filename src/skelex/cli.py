"""Command-line front end.

Subcommands compose through the shared JSON formats on stdin/stdout:

    skelex generate cube --n 2 | skelex classify
    skelex generate surface --genus 3 --non-orientable | skelex expand

Exit codes: 0 success, 1 domain refusal (an ``errors.Refusal``: the
mathematics rejects the input, or a scale guard), 2 input error
(unreadable or malformed data, an output closed before it was written,
or an ``--out`` file that cannot be opened for writing).

The ``--out`` file is opened, and truncated, before the subcommand does
any work, as a shell redirection would: a target that cannot be opened is
refused at once, and a command that fails leaves the file empty.  An
``--out`` that names the command's own input file is refused before it is
opened, so the input keeps its bytes.  JSON output is the text
``json.dumps`` writes with an indent of 1, written as it is produced
(``graph.json_pieces``).  The long listings are built as they are
written too: ``realize --table`` makes each isotropy row as it writes it,
once the whole table is checked, and ``nests`` holds one dimension's
nests at a time, dropping each before it enumerates the next.  A JSON
listing row is assembled by ``graph.row_shape``: the fields that a nest's
color subspace decides (an isotropy row's dimension, co-rank, copies and
kernel; a nest's dimension and label) are rendered once per subspace,
and each row renders only the nest's own ids.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable, Iterator, Sequence, TextIO

from . import classify as classify_mod
from . import duality, expansion, generators, graph as graph_mod, nests as nests_mod
from . import realize as realize_mod
from .census import (  # noqa: F401  (the census API, re-exported)
    DEFAULT_CENSUS_LIMIT,
    CensusEntry,
    census,
    enumerate_proper_colorings,
)
from .errors import ExpansionRefused, FormatError, NestLimit, Refusal, SkelexError

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_INPUT = 2

# the most vertex and edge ids ``nests`` lists over all its nests: cube n=10
# lists 15,728,640 in 12.8 s (JSON, 173 MB of text) or 8.6 s (text format,
# 83 MB), each at a peak RSS of 81 MB, on a 2-core x86 host; time grows
# with the count, and memory with the largest single dimension
MAX_LISTED_NEST_IDS = 1 << 24


# ----------------------------------------------------------------- I/O


def _read_text(path: str | None) -> str:
    if path in (None, "-"):
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _refuse_overwriting_input(source: str | None, target: str | None) -> None:
    """Refuse an ``--out`` that is the input file: opening it would empty it."""
    if source in (None, "-") or target in (None, "-"):
        return
    try:
        same = os.path.samefile(source, target)
    except OSError:  # one of them does not exist, so they are not one file
        return
    if same:
        raise FormatError(f"--out {target} is the input file; it would be emptied")


def _open_out(path: str | None) -> TextIO:
    if path in (None, "-"):
        return sys.stdout
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


def _emit(fh: TextIO, text: str | Iterable[str]) -> None:
    """Write ``text``, or its chunks one by one, ending in a newline."""
    last = ""
    for last in [text] if isinstance(text, str) else text:
        fh.write(last)
    if not last.endswith("\n"):
        fh.write("\n")
    fh.flush()  # a closed stdout fails here, not at interpreter exit


# ------------------------------------------------------------ renderers


def _render_surface(
    report: classify_mod.SurfaceReport, fmt: str
) -> str | Iterator[str]:
    if fmt == "json":
        return graph_mod.json_pieces({
            "name": report.name,
            "orientable": report.orientable,
            "euler": report.euler,
            "genus": report.genus,
        })
    return (
        f"{report.name}\n"
        f"orientable: {'yes' if report.orientable else 'no'}\n"
        f"euler: {report.euler}\n"
        f"genus: {report.genus}"
    )


def _render_homology(
    report: classify_mod.HomologyReport, fmt: str
) -> str | Iterator[str]:
    if fmt == "json":
        return graph_mod.json_pieces({
            "betti_mod2": list(report.betti_mod2),
            "euler": report.euler,
            "note": report.note,
        })
    lines = [
        "betti_mod2: (" + ", ".join(str(b) for b in report.betti_mod2) + ")",
        f"euler: {report.euler}",
    ]
    if report.note:
        lines.append(f"note: {report.note}")
    return "\n".join(lines)


# ------------------------------------------------------------- commands


def _cmd_validate(args) -> int:
    g = graph_mod.read_graph(_read_text(args.file))
    report = graph_mod.validate(g)
    if args.format == "json":
        _emit(args.out, graph_mod.json_pieces(
            {"valid": report.ok, "problems": list(report.problems)}
        ))
    elif report.ok:
        _emit(args.out, "valid")
    else:
        _emit(args.out, "invalid:\n" + "\n".join(f"  {p}" for p in report.problems))
    return EXIT_OK if report.ok else EXIT_REFUSED


def _cmd_nests(args) -> int:
    g = graph_mod.read_graph(_read_text(args.file))
    index = nests_mod.NestIndex(g)
    # on a valid graph each vertex lies in C(n+1, k) k-nests and each edge
    # in C(n, k-1), so all nests together list V·2^(n+1) + E·2^n ids
    ids = (g.vertex_count << g.width) + (g.edge_count << g.n)
    if ids > MAX_LISTED_NEST_IDS:
        raise NestLimit(
            f"listing nests is limited to {MAX_LISTED_NEST_IDS} vertex and edge ids,"
            f" got {ids}"
        )
    if args.dim is not None:
        nests_mod.check_dimension(args.dim, g.n)  # before any output
    listed = range(g.width) if args.dim is None else (args.dim,)
    nu = [0] * g.width  # counted as the dimensions pass

    def each_nest() -> Iterator[nests_mod.Nest]:
        # one dimension at a time: enumerated, counted, listed, then dropped
        # before the next one is enumerated
        for k in range(g.width):
            nu[k] = len(index.nests(k))
            if k in listed:
                yield from index.nests(k)
            index.drop(k)

    # both formats are built and written nest by nest, never as one text
    if args.format == "json":
        shapes = {}  # nest subspace -> the row_shape of the fields it decides

        def row(nest: nests_mod.Nest) -> str:
            shape = shapes.get(nest.color)
            if shape is None:
                shape = shapes[nest.color] = graph_mod.row_shape({
                    "dim": nest.dim,
                    "label": nests_mod.nest_label(nest),
                    "vertices": graph_mod.PER_ROW,
                    "edges": graph_mod.PER_ROW,
                })
            return shape(nest.vertex_ids, nest.edge_ids)

        _emit(args.out, graph_mod.json_pieces({
            "nests": map(row, each_nest()),
            "nu": nu,  # written once every nest is
        }))
        return EXIT_OK

    def listing() -> Iterator[str]:
        for nest in each_nest():
            vs = ",".join(str(v) for v in nest.vertex_ids)
            es = ",".join(str(e) for e in nest.edge_ids)
            yield f"k={nest.dim} label={nests_mod.nest_label(nest)} vertices={vs} edges={es}\n"
        yield "nu = (" + ", ".join(str(c) for c in nu) + ")"

    _emit(args.out, listing())
    return EXIT_OK


def _cmd_expand(args) -> int:
    g = graph_mod.read_graph(_read_text(args.file))
    outcome = expansion.full_expand(g)
    counts = outcome.complex.counts()
    if args.format == "json":
        payload = {
            "cells": list(counts),
            "euler": outcome.complex.euler(),
            "reached_dim": outcome.reached_dim,
            "completed": outcome.completed,
        }
        if outcome.obstruction is not None:
            payload["obstruction"] = outcome.obstruction.reason
            if outcome.obstruction.counts is not None:
                payload["counts"] = list(outcome.obstruction.counts)
        if args.dump:
            payload["complex"] = _dump_complex(outcome.complex)
        _emit(args.out, graph_mod.json_pieces(payload))
    else:
        lines = [
            "cells: " + " ".join(str(c) for c in counts),
            f"euler: {outcome.complex.euler()}",
            f"reached dimension: {outcome.reached_dim}",
        ]
        if outcome.obstruction is not None:
            lines.append(f"refused: {outcome.obstruction.reason}")
        _emit(args.out, "\n".join(lines))
    return EXIT_OK if outcome.completed else EXIT_REFUSED


def _dump_complex(c: expansion.CellComplex) -> list[dict]:
    return [
        {
            "dim": k,
            "index": i,
            "faces": faces,
            "nest_edges": nest.edge_ids,
            "nest_vertices": nest.vertex_ids,
        }
        for k, nests in enumerate(c.nests)
        for i, (nest, faces) in enumerate(zip(nests, c.faces(k)))
    ]


def _cmd_classify(args) -> int:
    g = graph_mod.read_graph(_read_text(args.file))
    outcome = expansion.full_expand(g)
    if not outcome.completed:
        _emit(args.out, f"refused: {outcome.obstruction.reason}")
        return EXIT_REFUSED
    if g.n == 2:
        _emit(args.out, _render_surface(
            classify_mod.classify_surface(outcome.complex), args.format
        ))
    else:
        _emit(args.out, _render_homology(
            classify_mod.homology_mod2(outcome.complex), args.format
        ))
    return EXIT_OK


def _cmd_dualize(args) -> int:
    poset = duality.parse_poset(_read_text(args.file))
    dual = duality.dual_colored_graph(poset)
    _emit(args.out, graph_mod.serialize(dual))
    return EXIT_OK


def _cmd_generate(args) -> int:
    if args.family == "cube":
        if args.n is None:
            raise FormatError("generate cube needs --n")
        g = generators.gen_cube(args.n)
    else:
        if args.genus is None:
            raise FormatError("generate surface needs --genus")
        if args.non_orientable:
            g = generators.gen_nonorientable_surface(args.genus)
        else:
            g = generators.gen_orientable_surface(args.genus)
    _emit(args.out, graph_mod.serialize(g))
    return EXIT_OK


def _cmd_census(args) -> int:
    edges, vertex_count, file_n = graph_mod.read_underlying(_read_text(args.file))
    n = args.n if args.n is not None else file_n
    if n is None:
        raise FormatError("census needs n (from the file or --n)")
    entries = census(edges, vertex_count, n)
    if args.format == "json":
        payload = []
        for e in entries:
            item: dict = {"coloring": list(e.coloring)}
            if e.refusal is not None:
                item["refused"] = e.refusal
            elif isinstance(e.report, classify_mod.SurfaceReport):
                item["surface"] = e.report.name
                item["orientable"] = e.report.orientable
                item["euler"] = e.report.euler
            else:
                item["betti_mod2"] = list(e.report.betti_mod2)
            payload.append(item)
        _emit(args.out, graph_mod.json_pieces(payload))
        return EXIT_OK
    lines = []
    for e in entries:
        if e.refusal is not None:
            lines.append(f"coloring {e.coloring_id}: refused ({e.refusal})")
        elif isinstance(e.report, classify_mod.SurfaceReport):
            lines.append(f"coloring {e.coloring_id}: {e.report.name}")
        else:
            betti = ",".join(str(b) for b in e.report.betti_mod2)
            lines.append(f"coloring {e.coloring_id}: betti_mod2=({betti})")
    lines.append(f"total: {len(entries)}")
    _emit(args.out, "\n".join(lines))
    return EXIT_OK


def _cmd_realize(args) -> int:
    g = graph_mod.read_graph(_read_text(args.file))
    index = nests_mod.NestIndex(g)
    try:
        summary = realize_mod.realizability_summary(g, index)
    except ExpansionRefused as exc:
        _emit(args.out, f"realizability: unknown (expansion refused: {exc})")
        return EXIT_REFUSED
    # the whole table is checked before the first byte is written
    records = realize_mod.isotropy_report(g, index) if args.table else []
    # nests of one color subspace share one kernel, and the co-rank and
    # copies it decides: one record stands for each kernel, rendered once
    kinds = {r.subgroup_basis: r for r in records}
    terms = {
        basis: [realize_mod.render_t_vector(m, g.width) for m in basis] for basis in kinds
    }
    # both formats build each isotropy row as it is written
    if args.format == "json":
        payload: dict = {
            "euler": summary.euler,
            "bounds_directly": summary.bounds_directly,
            "doubling_required": summary.doubling_required,
            "fixed_points": summary.fixed_point_count,
        }
        if args.table:
            shapes = {
                basis: graph_mod.row_shape({
                    "dim": r.nest.dim,
                    "edges": graph_mod.PER_ROW,
                    "corank": r.corank,
                    "copies": r.copies,
                    "kernel": terms[basis],
                })
                for basis, r in kinds.items()
            }
            payload["isotropy"] = (
                shapes[r.subgroup_basis](r.nest.edge_ids) for r in records
            )
        _emit(args.out, graph_mod.json_pieces(payload))
        return EXIT_OK

    def report() -> Iterator[str]:
        yield (
            f"euler: {summary.euler}\n"
            f"bounds directly: {'yes' if summary.bounds_directly else 'no'}\n"
            f"doubling required: {'yes' if summary.doubling_required else 'no'}\n"
            f"fixed points: {summary.fixed_point_count}"
        )
        for record in records:
            basis = ", ".join(terms[record.subgroup_basis]) or "0"
            yield (
                f"\nnest dim={record.nest.dim} edges={list(record.nest.edge_ids)}"
                f" corank={record.corank} copies={record.copies}"
                f" kernel=[{basis}]"
            )

    _emit(args.out, report())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skelex",
        description=(
            "Expand colored regular graphs into cell complexes, classify the"
            " resulting manifolds, and dualize combinatorial manifolds back"
            " into colored graphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_format=True):
        p.add_argument("file", nargs="?", default=None,
                       help="input file (default: stdin)")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        if with_format:
            p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("validate", help="check the colored-graph invariants")
    add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("nests", help="enumerate colored nests")
    add_common(p)
    p.add_argument("--dim", type=int, default=None, help="restrict to one dimension")
    p.set_defaults(func=_cmd_nests)

    p = sub.add_parser("expand", help="run the skeletal expansion")
    add_common(p)
    p.add_argument("--dump", action="store_true", help="include the full cell list")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("classify", help="classify the expanded manifold")
    add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("dualize", help="dual colored graph of a face poset")
    add_common(p, with_format=False)  # output is always the graph file format
    p.set_defaults(func=_cmd_dualize)

    p = sub.add_parser("generate", help="emit a graph family member")
    p.add_argument("family", choices=("cube", "surface"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--genus", type=int, default=None)
    p.add_argument("--non-orientable", action="store_true", dest="non_orientable")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("census", help="classify all pure colorings of a graph")
    add_common(p)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("realize", help="realizability summary")
    add_common(p)
    p.add_argument("--table", action="store_true", help="per-nest isotropy table")
    p.set_defaults(func=_cmd_realize)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        _refuse_overwriting_input(getattr(args, "file", None), args.out)
        out = args.out = _open_out(args.out)  # subcommands emit to the handle
        return args.func(args)
    except Refusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (SkelexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # stdout's leftover buffer goes to devnull: the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output closed before it was fully written", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if out is not sys.stdout:
            out.close()


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
