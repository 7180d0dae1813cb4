"""Spans around skelex's public functions, recorded from outside the package.

``Tracer.install`` replaces each target function at every module attribute
bound to it (``expansion.enumerate_nests`` and ``realize.full_expand`` are
the same objects as their home definitions), so calls made through any
module's globals are seen.  ``Nest.contains`` is only counted: its time
stays in the caller's self time, where the face scans that call it live.

Spans live in flat arrays until the pass ends; ``summarize`` derives self
times (span time minus the time of child spans), counters and shares.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from statistics import median
from time import perf_counter

# module -> public functions timed as spans; the names are skelex's own
TARGETS = {
    "expansion": ["full_expand", "expand2", "criterion_3d",
                  "boundary_sphere_complex", "sphere_check"],
    "nests": ["enumerate_nests", "grow_nest", "nest_counts"],
    "classify": ["homology_mod2", "classify_surface"],
    "gf2": ["rank_gf2", "span"],
    "graph": ["validate", "require_valid", "parse", "serialize", "check_good"],
    "duality": ["parse_poset", "dual_colored_graph", "flags"],
    "generators": ["gen_cube", "gen_orientable_surface", "gen_nonorientable_surface"],
    "realize": ["isotropy_report", "realizability_summary"],
    "cli": ["run", "census", "enumerate_proper_colorings"],
}
# calls whose first argument is a graph; a repeat on the same graph object
# (and the same k) within one item is redundant work
REPEAT_TRACKED = {"graph.validate", "nests.enumerate_nests"}
# spans that carry a number: matrix entries passed in, classes returned
VALUE_OF = {
    "gf2.rank_gf2": lambda args, result: len(args[0]) * len(args[0][0]) if args[0] else 0,
    "cli.census": lambda args, result: len(result),
}
GENERATORS = {"cli.enumerate_proper_colorings"}
CONTAINS = "nests.Nest.contains"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # span labels; ids stay fixed across installs
        self._clear()
        self._patches: list[tuple[object, str, object]] = []

    def _clear(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.current = -1
        self.item_id = -1
        self.contains_calls = 0
        self._seen: set[tuple[int, object]] = set()
        self._held: list[object] = []  # keeps ids in _seen from being reused

    def begin_item(self, item: int) -> None:
        self.item_id = item
        self._seen.clear()
        self._held.clear()

    # -------------------------------------------------------- spans

    def _open(self, name_id: int, value: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.current)
        self.item.append(self.item_id)
        self.value.append(value)
        self.end.append(0.0)
        self.current = i
        self.start.append(perf_counter())
        return i

    def _repeat(self, args, kwargs) -> int:
        graph = args[0] if args else kwargs.get("g")
        key = (id(graph), args[1] if len(args) > 1 else kwargs.get("k"))
        if key in self._seen:
            return 1
        self._seen.add(key)
        self._held.append(graph)
        return 0

    def _wrap(self, label: str, fn):
        if label not in self.names:
            self.names.append(label)
        name_id = self.names.index(label)
        tracer = self

        if label in GENERATORS:
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    prev = tracer.current
                    i = tracer._open(name_id, 1)  # value 1: the resume yielded
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer.value[i] = 0
                        return
                    finally:
                        tracer.end[i] = perf_counter()
                        tracer.current = prev
                    yield item

            return traced_generator

        tracked = label in REPEAT_TRACKED
        value_of = VALUE_OF.get(label)

        def traced(*args, **kwargs):
            prev = tracer.current
            i = tracer._open(name_id, tracer._repeat(args, kwargs) if tracked else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = perf_counter()
                tracer.current = prev
            if value_of is not None:
                tracer.value[i] = value_of(args, result)
            return result

        return traced

    # ------------------------------------------------------- patching

    def install(self) -> None:
        """Wrap every target at every ``skelex`` module attribute bound to it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "skelex" or name.startswith("skelex."))]
        for module_name, functions in TARGETS.items():
            home = sys.modules[f"skelex.{module_name}"]
            for function_name in functions:
                original = getattr(home, function_name, None)
                if original is None:
                    print(f"perfbench: skelex.{module_name}.{function_name} is gone;"
                          " its span is not recorded", file=sys.stderr)
                    continue
                wrapper = self._wrap(f"{module_name}.{function_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        nest_class = sys.modules["skelex.nests"].Nest
        original_contains = nest_class.contains
        tracer = self

        def contains(nest, other):
            tracer.contains_calls += 1
            return original_contains(nest, other)

        self._patch(nest_class, "contains", contains)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> "Spans":
        """Hand over the recorded spans and start empty."""
        spans = Spans(self.names[:], self.name, self.parent, self.item,
                      self.start, self.end, self.value, self.contains_calls)
        self._clear()
        return spans


class Spans:
    def __init__(self, names, name, parent, item, start, end, value, contains_calls):
        self.names, self.name, self.parent, self.item = names, name, parent, item
        self.start, self.end, self.value = start, end, value
        self.contains_calls = contains_calls
        count = len(start)
        duration = [self.end[i] - self.start[i] for i in range(count)]
        children = [0.0] * count
        for i in range(count):
            p = parent[i]
            if p >= 0:
                children[p] += duration[i]
        self.self_time = [duration[i] - children[i] for i in range(count)]

    def write_tsv(self, path, items: list[str], header: str) -> None:
        """Write every span as gzipped TSV; times in microseconds from the first."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write(f"# {header}\nspan\tname\tparent\titem\tstart_us\tduration_us\tself_us\tvalue\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t{items[self.item[i]]}"
                    f"\t{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - self.start[i]) * 1e6:.1f}"
                    f"\t{self.self_time[i] * 1e6:.1f}\t{self.value[i]}\n"
                )

    def per_item(self, items: list[str]) -> dict[str, dict[str, list[float]]]:
        """Per item and span name: [self seconds, inclusive seconds].

        Inclusive time counts only the outermost span of a name, so a
        name that calls itself is not counted twice.
        """
        table: dict[str, dict[str, list[float]]] = {}
        for i, name_id in enumerate(self.name):
            row = table.setdefault(items[self.item[i]], {}).setdefault(
                self.names[name_id], [0.0, 0.0])
            row[0] += self.self_time[i]
            p = self.parent[i]
            while p >= 0 and self.name[p] != name_id:
                p = self.parent[p]
            if p < 0:
                row[1] += self.end[i] - self.start[i]
        return {
            item: dict(sorted(rows.items(), key=lambda kv: -kv[1][0]))
            for item, rows in table.items()
        }

    def summarize(self) -> dict[str, float]:
        """The per-layer metrics of one traced pass."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        values: dict[str, int] = {}
        completed = 0
        census_id = self.names.index("cli.census") if "cli.census" in self.names else -1
        for i, name_id in enumerate(self.name):
            label = self.names[name_id]
            calls[label] = calls.get(label, 0) + 1
            self_s[label] = self_s.get(label, 0.0) + self.self_time[i]
            values[label] = values.get(label, 0) + self.value[i]
            if (label in ("classify.classify_surface", "classify.homology_mod2")
                    and self.parent[i] >= 0 and self.name[self.parent[i]] == census_id):
                completed += 1

        def share(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        metrics: dict[str, float] = {}
        for module, functions in TARGETS.items():
            for function in functions:
                label = f"{module}.{function}"
                metrics[f"{label}.calls"] = calls.get(label, 0)
                metrics[f"{label}.self_s"] = self_s.get(label, 0.0)
            metrics[f"{module}.self_s"] = sum(
                t for label, t in self_s.items() if label.split(".")[0] == module
            )
        for label in REPEAT_TRACKED:
            metrics[f"{label}.redundant_share"] = share(values.get(label, 0),
                                                        calls.get(label, 0))
        metrics["gf2.rank_gf2.entries"] = values.get("gf2.rank_gf2", 0)
        metrics[f"{CONTAINS}.calls"] = self.contains_calls
        colorings = values.get("cli.enumerate_proper_colorings", 0)
        classes = values.get("cli.census", 0)
        metrics["cli.census.colorings"] = colorings
        metrics["cli.census.classes"] = classes
        metrics["cli.census.kept_share"] = share(classes, colorings)
        metrics["cli.census.completed_share"] = share(completed, classes)
        metrics["trace.self_sum_s"] = sum(self.self_time)
        return metrics


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: median(p[key] for p in per_pass) for key in per_pass[0]}
