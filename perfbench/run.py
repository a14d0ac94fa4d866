"""Performance benchmark for mcdm-weights.

Run from the repository root:

    python3 perfbench/run.py --workload all --seed 0 --trace 0

``--seconds`` is the operation time measured per workload; it defaults to
``run_seconds`` in ``BENCHMARK.json``. Wall time per workload is longer:
set-up probes, input generation and the untimed checks come on top.

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs untraced and traced passes over the same operations and
reports per-layer self times and counts. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it holds the run's details (inputs, environment, sample
count, tail percentile, problems found).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import ctypes.util
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("tall-csv", "wide-matrix", "agreement-mc")

#: fresh interpreters timed back to back for setup_s, before the workload
#: builds its inputs, while this process is idle; the median counts
SETUP_PROBES = 15
#: the tail latency is the sample with this many samples above it
TAIL_BEYOND = 10
#: a timed pass runs at least this many operations, however short
MIN_OPS = 2 * TAIL_BEYOND + 1
#: problems quoted in the details line
MAX_PROBLEMS = 10


def _malloc_trim():
    """glibc's ``malloc_trim``, or a no-op where the C library has none."""
    libc = ctypes.CDLL(ctypes.util.find_library("c"))
    trim = getattr(libc, "malloc_trim", None)
    return (lambda: trim(0)) if trim is not None else (lambda: None)


#: hands freed heap pages back to the system, see Tally.op
release_free_memory = _malloc_trim()


def measure_setup() -> float:
    """Wall time of a fresh interpreter importing the CLI module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import mcdm_weights.cli"],
        cwd=ROOT, env=env, check=True, stdin=subprocess.DEVNULL,
    )
    return perf_counter() - start


class Tally:
    """Attempted and failed operations, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, workload, i: int, tracer: Tracer | None = None) -> float:
        """Run, time and check operation ``i``; return its duration."""
        arg = workload.args(i)
        # every operation starts from a collected heap, as a fresh CLI
        # process would, so one operation's garbage never lands on the next;
        # freed pages go back to the system, or a heap left fragmented by
        # earlier operations now and then raises the RSS peak by ~10%
        gc.collect()
        release_free_memory()
        start = perf_counter()
        try:
            if tracer is None:
                output = workload.run(arg)
            else:
                with tracer.installed():
                    output = workload.run(arg)
        except Exception as exc:
            elapsed = perf_counter() - start
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            elapsed = perf_counter() - start
            try:
                problems = workload.check(i, output)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            room = MAX_PROBLEMS - len(self.problems)
            self.problems += [f"op {i}: {p}" for p in problems[:max(room, 0)]]
        return elapsed


def timed_pass(workload, seconds: float, tally: Tally) -> tuple[list[float], int]:
    """Closed loop over operations 1, 2, ... until ``seconds`` of operation
    time and MIN_OPS ops. Returns the durations and how many failed.
    """
    failed_before = tally.failed
    durations: list[float] = []
    while sum(durations) < seconds or len(durations) < MIN_OPS:
        durations.append(tally.op(workload, len(durations) + 1))
    return durations, tally.failed - failed_before


def traced_pass(workload, seconds: float, tally: Tally) -> dict[str, tuple[float, str]]:
    """Alternate an untraced and a traced round over the same operations.

    Rounds cover operations ``0 .. trace_cycle - 1`` and repeat until
    ``seconds`` of operation time have passed; counts per operation are
    therefore exact for a given seed.
    """
    tracer = Tracer()
    cycle = range(workload.trace_cycle)
    plain = traced = 0.0
    traced_ops: list[int] = []
    while not traced_ops or plain + traced < seconds:
        plain += sum(tally.op(workload, i) for i in cycle)
        for i in cycle:
            tracer.op = len(traced_ops)
            traced_ops.append(tracer.op)
            traced += tally.op(workload, i, tracer)
    metrics = layer_metrics(tracer.spans, traced_ops)
    # traced ops/s over untraced ops/s, on equal operation counts
    metrics["trace.overhead_ratio"] = (plain / traced, "ratio")
    return metrics


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit() -> str | None:
    """Commit of the checkout, read from its own .git (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One workload in this process; returns (details, result)."""
    setup = [] if trace else [measure_setup() for _ in range(SETUP_PROBES)]
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, workdir)
        tally = Tally()
        details = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "environment": environment(), "inputs": workload.inputs,
            # high-water marks, to tell the harness's share of peak_rss_mb
            "rss_after_inputs_mb": _peak_rss_mb(),
        }
        if trace:
            layer = traced_pass(workload, seconds, tally)
            metrics = {key: {"value": v, "unit": u} for key, (v, u) in layer.items()}
        else:
            tally.op(workload, 0)  # warm-up: checked, not timed
            details["rss_after_warmup_mb"] = _peak_rss_mb()
            durations, failed = timed_pass(workload, seconds, tally)
            ordered = sorted(durations)
            n = len(ordered)
            details.update(
                samples=n,
                tail_percentile=100.0 * (n - TAIL_BEYOND) / n,
                setup_probes_s=setup,
                latencies_ms=[round(1e3 * d, 3) for d in durations],
                # printed, not bounded: they follow the host's speed spells
                # (see README, Steadiness)
                unbounded={
                    "ops_per_s": {"value": (n - failed) / sum(ordered), "unit": "1/s"},
                    "latency_p50_ms": {"value": 1e3 * statistics.median(ordered), "unit": "ms"},
                    "fail_ratio": {"value": tally.failed / tally.attempted, "unit": "ratio"},
                },
            )
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "latency_tail_ms": {"value": 1e3 * ordered[n - 1 - TAIL_BEYOND], "unit": "ms"},
                "ok_ratio": {"value": 1.0 - tally.failed / tally.attempted, "unit": "ratio"},
                "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
            }
        details["fail_ratio"] = tally.failed / tally.attempted
        details["problems"] = tally.problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only succeeds once no other run uses it
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return details, result


def run_all(args) -> tuple[list[dict], dict]:
    """Each workload in a fresh process, so peak RSS stays per workload."""
    details, merged = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        details.append(detail)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = metric
    return details, merged


def _table(details: list[dict], result: dict) -> str:
    """The result's metrics, then each workload's unbounded ones."""
    rows = dict(result["metrics"])
    for detail in details:
        for key, metric in detail.get("unbounded", {}).items():
            rows[f"{detail['workload']}/{key} (unbounded)"] = metric
    return "\n".join(
        f"  {key:<48} {metric['value']:>14.6g} {metric['unit']}" for key, metric in rows.items()
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write details and result here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "mcdm_weights" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'mcdm_weights'}", file=sys.stderr)
        return 2

    if args.workload == "all":
        details, result = run_all(args)
        print(_table(details, result))
    else:
        details, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out is not None:
        args.out.write_text(json.dumps({"details": details, "result": result}, indent=2) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
