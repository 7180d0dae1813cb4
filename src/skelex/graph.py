"""Colored regular graphs: reading, validity and canonical form.

A graph carries ``n`` and its edges as ``(u, v, mask)`` rows of ints: the
color of an edge is a vector of GF(2)^(n+1) held as a bit mask (bit i is
the x_i coefficient), and its width n+1 is kept on the graph alone.  A
color becomes a string only where a file is read or written, by
``gf2.parse_color`` and ``gf2.color_text``.  Edge ids are list positions,
incidence is by edge-end, so parallel edges are first-class citizens;
loops are rejected because a loop would put two dependent color slots on
one vertex.  ``ColoredGraph.arcs`` is the one per-vertex view of the
incidence.

Graph file format (JSON, UTF-8)::

    {"n": 2, "vertices": 8, "edges": [[0, 1, "100"], ...]}

Color strings have length n+1, leftmost character = x0 coefficient.  The
edge array order defines edge ids.

This module is the only reader of graph files: ``read_graph`` checks the
format alone, ``parse`` adds the validity gate, and ``read_underlying``
reads the colorless graph a census takes.  ``read_object`` decodes the
top-level JSON object of graph and face-poset files alike, and
``json_pieces`` writes every JSON document skelex emits.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Callable, Hashable, Iterable

from .errors import FormatError, InvalidGraph
from .gf2 import color_text, parse_color, rank_masks

Edge = tuple[int, int, int]  # (u, v, color mask)
Arcs = tuple[tuple[tuple[int, int, int], ...], ...]  # see ColoredGraph.arcs

MAX_LISTED_PROBLEMS = 20  # a validation report lists this many, then counts the rest


@dataclass(frozen=True)
class ColoredGraph:
    n: int
    vertex_count: int
    edges: tuple[Edge, ...]

    @property
    def width(self) -> int:
        return self.n + 1

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def arcs(self) -> Arcs:
        """Per vertex, (edge id, far end, color mask) for each edge at it.

        Built afresh on each call; the graph never keeps it, since census
        entries keep their graphs.  Every endpoint must be in range and no
        edge a loop: ``validate`` builds it only once its range and loop
        checks pass, and hands it on in its report, so a ``NestIndex``
        keeps the one its validation built.
        """
        out: list[list[tuple[int, int, int]]] = [[] for _ in range(self.vertex_count)]
        for idx, (u, v, c) in enumerate(self.edges):
            out[u].append((idx, v, c))
            out[v].append((idx, u, c))
        return tuple(map(tuple, out))

    def ends(self, e: int) -> tuple[int, int]:
        u, v, _ = self.edges[e]
        return u, v

    def color(self, e: int) -> int:
        return self.edges[e][2]


def reach(
    start: Hashable, neighbors: Callable[[Hashable], Iterable[Hashable]]
) -> Iterator[Hashable]:
    """Every node reachable from ``start``, each yielded once, depth first.

    A node is yielded when it is first reached, before ``neighbors`` is
    asked about it, so a caller may act on each node as it arrives.
    """
    seen = {start}
    stack = [start]
    yield start
    while stack:
        for w in neighbors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
                yield w


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...]
    # the graph's arcs, built for the per-vertex checks; None when a check
    # before them failed
    arcs: Arcs | None = field(default=None, repr=False, compare=False)


def validate(g: ColoredGraph) -> ValidationReport:
    """Check every graph invariant, reporting each violation found."""
    problems: list[str] = []
    if g.n < 1:
        problems.append(f"n must be >= 1, got {g.n}")
    if g.vertex_count < 1:
        problems.append(f"vertex count must be >= 1, got {g.vertex_count}")
    for idx, (u, v, c) in enumerate(g.edges):
        if not (0 <= u < g.vertex_count and 0 <= v < g.vertex_count):
            problems.append(f"edge {idx}: endpoint out of range ({u}, {v})")
        if u == v:
            problems.append(f"edge {idx}: loop at vertex {u} (loops are impossible)")
        if c == 0:
            problems.append(f"edge {idx}: zero color")
        elif c < 0 or c.bit_length() > g.width:
            problems.append(f"edge {idx}: color mask {c} does not fit n+1 = {g.width} bits")
    if problems:
        return _report(problems)
    # an (n+1)-regular graph has V(n+1)/2 edges; checked before any
    # per-vertex work, so a huge declared vertex count costs nothing
    if 2 * g.edge_count != g.vertex_count * g.width:
        return ValidationReport(False, (
            f"{g.edge_count} edges cannot make {g.vertex_count} vertices"
            f" {g.width}-valent: 2·{g.edge_count} = {2 * g.edge_count}"
            f" != {g.vertex_count}·{g.width} = {g.vertex_count * g.width}",
        ))

    arcs = g.arcs()
    for v, at in enumerate(arcs):
        if len(at) != g.width:
            problems.append(f"vertex {v}: valence {len(at)}, expected {g.width}")
            continue
        if rank_masks(mask for _, _, mask in at) != g.width:
            problems.append(
                f"vertex {v}: incident colors {[color_text(c, g.width) for _, _, c in at]}"
                " are linearly dependent"
            )
    reached = sum(1 for _ in reach(0, lambda v: (x for _, x, _ in arcs[v])))
    if reached != g.vertex_count:
        problems.append("graph is not connected")
    return _report(problems, arcs)


def _report(problems: list[str], arcs: Arcs | None = None) -> ValidationReport:
    """The first ``MAX_LISTED_PROBLEMS`` problems, then one line counting the rest."""
    if len(problems) > MAX_LISTED_PROBLEMS:
        rest = len(problems) - MAX_LISTED_PROBLEMS
        problems = problems[:MAX_LISTED_PROBLEMS] + [f"and {rest} more problems"]
    return ValidationReport(not problems, tuple(problems), arcs)


def require_valid(g: ColoredGraph) -> Arcs:
    """Refuse an invalid graph; the arcs its validation built."""
    report = validate(g)
    if not report.ok:
        raise InvalidGraph(list(report.problems))
    return report.arcs


def canonicalize(g: ColoredGraph) -> ColoredGraph:
    """Normalize endpoint order and sort edges into the canonical order.

    Canonical order is lexicographic by (min endpoint, max endpoint, color
    string); parallel copies keep their relative order.
    """
    return ColoredGraph(g.n, g.vertex_count, _canonical(g)[0])


def _canonical(g: ColoredGraph) -> tuple[tuple[Edge, ...], dict[int, str]]:
    """The canonical edges, and the string of each distinct color.

    Each distinct color is rendered once, and edges sort by (low end,
    high end, rank of the color's string).
    """
    names = {c: color_text(c, g.width) for c in {c for _, _, c in g.edges}}
    rank = {c: i for i, c in enumerate(sorted(names, key=names.__getitem__))}
    rows = [(u, v, c) if u < v else (v, u, c) for u, v, c in g.edges]
    rows.sort(key=lambda r: (r[0], r[1], rank[r[2]]))
    return tuple(rows), names


def read_object(text: str) -> dict:
    """Decode a JSON document whose top level must be an object."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # deep nesting recurses
        raise FormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError("top level must be an object")
    return data


STREAMED_LEVELS = 2  # json_pieces writes each value this many levels down whole
_SCALARS = frozenset({str, int, float, bool, type(None)})
# the scalars most output is made of, written without an encoder call
_SCALAR_TEXT: dict[type, Callable[[object], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
_BRACKETS = {dict: "{}", list: "[]", tuple: "[]"}
_FLAT: list = []  # _flat's C encoder per level, made when first needed


def json_pieces(value) -> Iterator[str]:
    """The text ``json.dumps`` writes for ``value`` with an indent of 1, byte
    for byte, in pieces.

    The containers of the top two levels are written item by item, so each
    value two levels down (a nest, an isotropy row, a dumped cell, an edge
    row, a field of a census entry) is one piece, and a large listing is
    written as it is produced.  ``json.dumps`` with an indent cannot do
    that: it runs the pure-Python encoder, which collects every small chunk
    (about 330,000 for the isotropy table of gT2(512)) in one list before
    joining them, at several times the memory of the text.  A list, tuple
    or dict that holds only scalars, such as an edge row, an id list or a
    coloring, is written by one call of the C encoder.  ``value`` must hold
    no cycle.

    At the top two levels an iterator, such as a generator, is written as
    the array of the items it yields, each drawn as the writer reaches it,
    so a listing can be built row by row inside the writer's loop; an
    exhausted one is ``[]``.  A value later in the document is read only
    once the iterator is exhausted.  Below those levels an iterator is a
    ``TypeError``, as it is for ``json.dumps``.

    A row that ``row_shape`` made is written as it is.  Its fields were
    rendered by this writer at the row's depth, those its shape shares
    once for every row of that shape, so a listing whose rows repeat most
    of their fields renders each repeated field once.  Such a row may
    stand only two levels down, where rows are written.
    """
    return _pieces(value, 0)


class _Row(str):
    """The whole text of one row two levels down: only ``row_shape`` makes
    one, and the writer writes it as it is."""

    __slots__ = ()


PER_ROW = object()  # marks a field that each row of a row_shape renders itself
_FIELD_LEVEL = STREAMED_LEVELS + 1  # the depth of a row's field values
# an id list, the commonest own field, is written without an encoder call
# when it holds exact ints only
_ID_LISTS = (tuple, list)
_INTS = frozenset({int})
_ID_OPEN = "[\n" + " " * (_FIELD_LEVEL + 1)
_ID_COMMA = ",\n" + " " * (_FIELD_LEVEL + 1)
_ID_CLOSE = "\n" + " " * _FIELD_LEVEL + "]"


def row_shape(fields: dict) -> Callable[..., str]:
    """A maker of rows, each the text of the dict ``fields`` two levels down,
    with its ``PER_ROW`` values replaced, in order, by the maker's arguments.

    The key texts and the other values are rendered once, here; each row
    renders only its own values, with the same writer, and joins the texts
    into one piece.  ``json_pieces`` writes the row as the dict would be
    written, byte for byte.
    """
    inner = "\n" + " " * _FIELD_LEVEL
    parts: list[str] = []  # the shared text before, between and after own values
    text, comma = "", "{" + inner
    for key, value in fields.items():
        text += comma + _key(key) + ": "
        comma = "," + inner
        if value is PER_ROW:
            parts.append(text)
            text = ""
        else:
            text += _text(value, _FIELD_LEVEL)
    parts.append(text + ("\n" + " " * STREAMED_LEVELS + "}" if fields else "{}"))
    first, rest = parts[0], parts[1:]

    def row(*own) -> str:
        if len(own) != len(rest):
            raise TypeError(f"a row of this shape has {len(rest)} own fields, got {len(own)}")
        text = first
        for value, part in zip(own, rest):
            if type(value) in _ID_LISTS and value and _INTS.issuperset(map(type, value)):
                text += _ID_OPEN + _ID_COMMA.join(map(int.__repr__, value)) + _ID_CLOSE + part
            else:
                text += _text(value, _FIELD_LEVEL) + part
        return _Row(text)

    return row


def _pieces(value, level: int) -> Iterator[str]:
    if not (_is_nested(value) or _is_lazy(value)):
        yield _text(value, level)
        return
    inner = "\n" + " " * (level + 1)
    if isinstance(value, dict):
        opening, closing = "{", "}"
        items = ((_key(k) + ": ", v) for k, v in value.items())
    else:
        opening, closing = "[", "]"
        items = (("", v) for v in value)
    head = opening + inner
    if level + 1 < STREAMED_LEVELS:
        for prefix, item in items:
            pieces = _pieces(item, level + 1)
            yield head + prefix + next(pieces)
            yield from pieces
            head = "," + inner
    else:  # the rows: each is one piece
        for prefix, item in items:
            yield head + prefix + _text(item, level + 1)
            head = "," + inner
    if head == opening + inner:  # an iterator that yielded nothing
        yield opening + closing
    else:
        yield "\n" + " " * level + closing


def _is_lazy(value) -> bool:
    """Is ``value`` an iterator, written as an array when streamed?

    Asked only of values at the streamed levels that are not nested
    containers, so the rows of a listing never pay for it.
    """
    return type(value) not in _SCALARS and isinstance(value, Iterator)


def _is_nested(value) -> bool:
    """Is ``value`` a container with at least one container or non-JSON item?"""
    if isinstance(value, dict):
        items = value.values()
    elif isinstance(value, (list, tuple)):
        items = value
    else:
        return False
    return not _SCALARS.issuperset(map(type, items))


def _text(value, level: int) -> str:
    """The whole text of ``value`` nested in ``level`` containers.

    A container's exact type is looked up once (a subclass is found by
    ``isinstance``), whether it is flat is asked once, and a scalar item of
    a nested one is written without a further call.
    """
    kind = type(value)
    scalar = _SCALAR_TEXT.get(kind)
    if scalar is not None:
        return scalar(value)
    brackets = _BRACKETS.get(kind)
    if brackets is None:  # a subclass
        if kind is _Row:
            if level != STREAMED_LEVELS:
                raise TypeError(f"a row is written {STREAMED_LEVELS} levels down, not {level}")
            return value
        if not isinstance(value, (list, tuple, dict)):
            return _flat(value, 0)  # a subclass of a scalar type, or a TypeError
        brackets = "{}" if isinstance(value, dict) else "[]"
    if not value:
        return brackets
    keyed = brackets == "{}"
    inner = "\n" + " " * (level + 1)
    if _SCALARS.issuperset(map(type, value.values() if keyed else value)):
        body = _flat(value, level + 1)[1:-1]
    else:
        texts = []
        for k, v in value.items() if keyed else enumerate(value):  # k unused in a list
            scalar = _SCALAR_TEXT.get(type(v))
            text = scalar(v) if scalar is not None else _text(v, level + 1)
            texts.append(_key(k) + ": " + text if keyed else text)
        body = ("," + inner).join(texts)
    return f"{brackets[0]}{inner}{body}\n{' ' * level}{brackets[1]}"


def _key(key) -> str:
    """A dict key as json writes it: non-strings json allows become strings."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {type(key).__name__}"
            )
        key = _flat(key, 0)
    return encode_basestring_ascii(key)


def _flat(value, level: int) -> str:
    """``value`` in one encoder call.  The items of its one container are
    parted by a comma, a newline and ``level`` spaces, with no newline after
    the opening bracket or before the closing one."""
    while len(_FLAT) <= level:
        _FLAT.append(c_make_encoder(
            None, _unserializable, encode_basestring_ascii, None,
            ": ", ",\n" + " " * len(_FLAT), False, False, True,
        ))
    return "".join(_FLAT[level](value, 0))


def _unserializable(value):
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def is_integer(value) -> bool:
    """Is a decoded JSON value an integer?  JSON's true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _read(text: str, colored: bool) -> tuple[int | None, int, list[list]]:
    """Decode a graph file: (n, vertex count, edge items), with field diagnostics.

    Items are [u, v, color string] with integer ends; an underlying graph
    (``colored`` false) may also give [u, v] and leave ``n`` out or null.
    """
    data = read_object(text)
    for field in ("n", "vertices", "edges") if colored else ("vertices", "edges"):
        if field not in data:
            raise FormatError(f"missing field {field!r}")
    n, vertices, items = data.get("n"), data["vertices"], data["edges"]
    if not is_integer(n) and (colored or n is not None):
        raise FormatError("'n' must be an integer")
    if not is_integer(vertices):
        raise FormatError("'vertices' must be an integer")
    if not isinstance(items, list):
        raise FormatError("'edges' must be an array")
    shape = "[u, v, colorstring]" if colored else "[u, v] or [u, v, color]"
    for i, item in enumerate(items):
        if not (
            isinstance(item, list)
            and len(item) in ((3,) if colored else (2, 3))
            and is_integer(item[0])
            and is_integer(item[1])
            and (not colored or isinstance(item[2], str))
        ):
            raise FormatError(f"edges[{i}]: expected {shape} with integers u, v")
    return n, vertices, items


def read_graph(text: str) -> ColoredGraph:
    """Read the JSON graph format; graph invariants are left to ``validate``.

    Each distinct color string is parsed and width-checked once, at its
    first edge, so a bad string is named at the first edge that carries it.
    """
    n, vertices, items = _read(text, colored=True)
    colors: dict[str, int] = {}
    edges: list[Edge] = []
    for i, (u, v, literal) in enumerate(items):
        c = colors.get(literal)
        if c is None:
            try:
                c = parse_color(literal)
            except ValueError as exc:
                raise FormatError(f"edges[{i}]: {exc}") from exc
            if len(literal) != n + 1:
                raise FormatError(
                    f"edges[{i}]: color string length {len(literal)}, expected n+1 = {n + 1}"
                )
            colors[literal] = c
        edges.append((u, v, c))
    return ColoredGraph(n, vertices, tuple(edges))


def parse(text: str) -> ColoredGraph:
    """Read the JSON graph format and require a valid graph."""
    g = read_graph(text)
    require_valid(g)
    return g


def read_underlying(text: str) -> tuple[list[tuple[int, int]], int, int | None]:
    """Read the underlying graph a census takes: (edges, vertex count, n or None).

    Colored files are accepted and their colors dropped.
    """
    n, vertices, items = _read(text, colored=False)
    return [(item[0], item[1]) for item in items], vertices, n


def serialize(g: ColoredGraph) -> str:
    """Emit the canonical JSON form (canonical edge order)."""
    edges, names = _canonical(g)
    payload = {
        "n": g.n,
        "vertices": g.vertex_count,
        "edges": [[u, v, names[c]] for u, v, c in edges],
    }
    return "".join(json_pieces(payload))
