"""One benchmark process: set up a workload, run timed passes, check them.

Started by ``run.py``, which times the set-up from outside.  The worker
prints ``ready`` on stdout just before its first timed call, then writes
its result as JSON to ``--result``.  With ``--setup-only`` it stops after
``ready``.  It imports skelex from ``src/`` of the checkout it lives in
and refuses to run against any other copy.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

import workloads
from tracing import Tracer, median_metrics

ROOT = Path(__file__).resolve().parent.parent


def _import_cli():
    package = ROOT / "src" / "skelex"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no skelex sources at {package}")
    sys.path.insert(0, str(package.parent))
    import skelex
    from skelex import cli

    if Path(skelex.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported skelex from {skelex.__file__}, not {package}")
    return cli


def _item_ok(call, rc) -> bool:
    """Check one call's exit code and outputs; report a failure on stderr."""
    if rc != call.expect_rc:
        print(f"perfbench: {call.item}: exit {rc}, expected {call.expect_rc}", file=sys.stderr)
        return False
    try:
        call.check()
    except Exception as exc:  # any wrong or unreadable output is a failed item
        print(f"perfbench: {call.item}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return False
    return True


def run_pass(cli, calls, tracer) -> tuple[list[float], int]:
    """Time each call alone; return the call times and the failure count."""
    times, failed = [], 0
    for index, call in enumerate(calls):
        for path in call.outputs:
            path.unlink(missing_ok=True)
        gc.collect()
        if tracer is not None:
            tracer.begin_item(index)
        start = perf_counter()
        try:
            rc = cli.run(call.argv)
        except (Exception, SystemExit):  # a raised error is a failed item
            traceback.print_exc()
            rc = None
        times.append(perf_counter() - start)
        if not _item_ok(call, rc):
            failed += 1
    return times, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    cli = _import_cli()
    args.workdir.mkdir(parents=True, exist_ok=True)
    calls = workloads.build(args.workload, args.seed, args.workdir)
    tracer = Tracer() if args.trace else None
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # untraced passes only, or untraced and traced passes in turn; a pass
    # starts only if one like it fits in the time left
    passes: list[dict] = []
    layers: list[dict] = []
    spans = None
    attempted = failed = 0
    began = perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.install()
        start = perf_counter()
        try:
            times, failures = run_pass(cli, calls, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        wall = perf_counter() - start
        if traced:
            spans = tracer.take()
            layers.append(spans.summarize())
            layers[-1]["trace.pass_s"] = sum(times)
        passes.append({"traced": traced, "run_s": sum(times), "calls": times, "wall": wall})
        attempted += len(calls)
        failed += failures
        next_traced = bool(args.trace) and not traced
        similar = [p["wall"] for p in passes if p["traced"] == next_traced]
        predicted = similar[-1] if similar else wall
        both_kinds = not args.trace or len(passes) >= 2
        if both_kinds and perf_counter() - began + predicted > args.seconds:
            break

    untraced = [p["run_s"] for p in passes if not p["traced"]]
    result = {
        "attempted": attempted,
        "failed": failed,
        "items": [call.item for call in calls],
        "passes": passes,
        "run_s": median(untraced),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if args.trace:
        result["layers"] = median_metrics(layers)
        result["layers"]["trace.overhead_s"] = result["layers"]["trace.pass_s"] - result["run_s"]
        result["per_item"] = spans.per_item(result["items"])
        if args.spans is not None:
            args.spans.parent.mkdir(exist_ok=True)
            spans.write_tsv(args.spans, result["items"],
                            f"workload={args.workload} seed={args.seed} last traced pass")
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
