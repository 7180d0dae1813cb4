"""skelex benchmark: python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Runs one workload (threefold, skeleta or census) through ``skelex.cli.run``
in a fresh worker process: a closed loop with one caller and one thread,
one CLI call at a time, each checked against an answer that does not come
from skelex.  The seed only relabels the generated inputs.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of traced passes, as named in ``BENCHMARK.json`` (see README.md).
Earlier stdout lines record the environment, the pass and call times and,
when traced, each item's self and inclusive time per span; the last line
is the result object.  Exits non-zero, printing no result, when the worker
fails or the checkout holds no skelex sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_TRIALS = 9  # set-up is timed this many times per run; the median is reported
DEADLINE_S = 170  # the whole run, set-up trials included, ends within this


class WorkerFailed(Exception):
    pass


def start_worker(args, workdir: Path, result: Path | None, deadline: float
                 ) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for ``ready``; return it and its set-up time."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if result is None:
        command.append("--setup-only")
    else:
        command += ["--result", str(result)]
        if args.trace:
            command += ["--spans", str(ROOT / ".bench_out" / f"spans-{args.workload}.tsv.gz")]
    began = time.perf_counter()
    worker = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([worker.stdout], [], [], max(deadline - began, 0))
    line = worker.stdout.readline() if ready else ""
    setup_s = time.perf_counter() - began
    if line.strip() != "ready":
        finish(worker, time.perf_counter() + 1)
        raise WorkerFailed(f"worker did not get ready (exit {worker.returncode})")
    return worker, setup_s


def finish(worker: subprocess.Popen, deadline: float) -> None:
    """Wait for a worker, killing it at the deadline; raise if it failed."""
    try:
        worker.communicate(timeout=max(deadline - time.perf_counter(), 0))
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.communicate()
        raise WorkerFailed("worker timed out")
    if worker.returncode != 0:
        raise WorkerFailed(f"worker exited {worker.returncode}")


def environment(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src" / "skelex").glob("*.py")))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_start": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_skelex_lines": src_lines,
    }


def measure(args, workdir: Path) -> tuple[dict, list[float]]:
    """Run the measuring worker; untraced, time set-up in workers around it.

    Set-up trials run both before and after the measuring worker, so their
    median samples the machine at both ends of the run.
    """
    deadline = time.perf_counter() + DEADLINE_S
    setup_times = []

    def setup_trials(first: int, count: int) -> None:
        for trial in range(first, first + count):
            worker, setup_s = start_worker(args, workdir / f"setup{trial}", None, deadline)
            finish(worker, deadline)
            setup_times.append(setup_s)

    extra = 0 if args.trace else SETUP_TRIALS - 1
    setup_trials(0, extra // 2)
    result_path = workdir / "result.json"
    worker, setup_s = start_worker(args, workdir / "run", result_path, deadline)
    setup_times.append(setup_s)
    finish(worker, deadline)
    setup_trials(extra // 2, extra - extra // 2)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), setup_times


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    env = environment(args)

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, setup_times = measure(args, workdir)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is using it
            pass

    print(json.dumps({"env": env}))
    print(json.dumps({
        "items": result["items"],
        "passes": [{k: p[k] for k in ("traced", "run_s", "calls")} for p in result["passes"]],
        "setup_trials_s": setup_times,
    }))
    if args.trace:
        print(json.dumps({"per_item_self_and_inclusive_s": result["per_item"]}))
        values = result["layers"]
        reported = spec["per_layer"]
    else:
        values = {
            "run_s": result["run_s"],
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
            "ok_share": 1 - result["failed"] / result["attempted"],
        }
        reported = spec["end_to_end"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
