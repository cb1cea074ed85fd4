"""Benchmark of algebroidlab: seeded workloads, time to certified verdict.

    python3 perfbench/run.py --workload jet_windows --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs as a closed loop: one client in one process, no
threads, the next problem submitted only after the previous verdict is
back.  `--trace 0` runs whole cycles of problems until `--seconds` have
passed and reports the end-to-end metrics, timed in CPU seconds of the
process (see `cpu` below); `setup_s` is the median of fifteen cold
starts, eight before the timed loop and seven after it.  `--trace 1` ignores
`--seconds`: it solves a fixed, seed-determined list of problems, each
once untraced and once traced, and reports per-layer metrics; a fixed
list keeps the counts exact and comparable between commits.  Every
verdict is checked against a known answer (see workloads.py) as soon as
it is back, outside the timed window; only a hash of each answer is
kept.  A problem that fails is counted in `failed`, never dropped or
re-seeded away.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The lines before it give
each metric with its unit, the tail percentile and its sample count, the
failed ratio, each problem kind with its input size, and the run
environment.  The benchmark builds nothing: it imports the package from
`src/` next to this directory and exits 2 if it is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
# BENCHMARK.json lists jet_windows and cli_mix only: on a shared two-core
# machine, longer runs of two workloads give steadier figures than shorter
# runs of three.  cech_pages runs by hand and with `--workload all`.
WORKLOAD_NAMES = ("jet_windows", "cech_pages", "cli_mix")
SETUP_BEFORE, SETUP_AFTER = 8, 7            # cold starts around the timed loop
TAIL_BEYOND = 10
perf = time.perf_counter
# Problems are timed in CPU seconds of this process: the program is one
# thread with no waits, so that is its time to verdict on a core of its
# own, while wall time on a shared virtual machine also counts the time
# other tenants steal from the core (seen to stretch fixed work 3x).
cpu = time.process_time


def import_package() -> bool:
    """Import algebroidlab from this checkout's sources, and nowhere else."""
    if not (SRC / "algebroidlab" / "__init__.py").is_file():
        print(f"perfbench: no algebroidlab sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import algebroidlab
    if Path(algebroidlab.__file__).resolve().parent != (SRC / "algebroidlab").resolve():
        print("perfbench: algebroidlab imported from outside the checkout", file=sys.stderr)
        return False
    return True


# ---------------------------------------------------------------- the closed loop

@dataclass
class Outcome:
    """What is kept of one solved problem: never its inputs or its answer."""

    pid: str
    kind: str
    size: dict
    seconds: float
    failure: Optional[str] = None
    digest: Optional[bytes] = None                # sha256 of the answer bytes


def _timed_solve(prob, clock, tracer):
    t0 = clock()
    root = tracer.begin_problem(prob.pid) if tracer is not None else None
    try:
        result, failure = prob.solve(), None
    except Exception as exc:                      # noqa: BLE001 - counted as failed
        result, failure = None, f"{type(exc).__name__}: {exc}"
    if tracer is not None:
        tracer.close(root)
    return result, failure, clock() - t0


def solve_one(prob, repeats: dict, clock=cpu, tracer=None) -> Outcome:
    """Solve one problem, then check its answer outside the timed window.

    With a tracer, its wrappers are installed around the solve only.  An
    exception fails the problem.  `repeats` maps each repeat key to the
    digest first seen for it; a later repeat with other bytes fails.
    """
    if tracer is None:
        result, failure, seconds = _timed_solve(prob, clock, None)
    else:
        tracer.install()
        try:
            result, failure, seconds = _timed_solve(prob, clock, tracer)
        finally:
            tracer.restore()
    digest = None
    if failure is None:
        try:
            digest = hashlib.sha256(prob.digest(result)).digest()
            failure = prob.check(result)
        except Exception as exc:                  # noqa: BLE001 - malformed output
            failure = f"output not checkable: {type(exc).__name__}: {exc}"
    if digest is not None and prob.repeat_key is not None:
        ref = repeats.setdefault(prob.repeat_key, digest)
        if failure is None and digest != ref:
            failure = "output bytes differ between repeats"
    return Outcome(prob.pid, prob.kind, prob.size, seconds, failure, digest)


def run_loop(problems, repeats: dict, clock=cpu, tracer=None) -> List[Outcome]:
    """Solve problems one after another, each checked before the next."""
    return [solve_one(prob, repeats, clock, tracer) for prob in problems]


def compare(untraced: List[Outcome], traced: List[Outcome]) -> None:
    """Fail every traced outcome whose bytes differ from its untraced twin."""
    for a, b in zip(untraced, traced):
        if b.failure is None and a.digest != b.digest:
            b.failure = "answer differs with tracing on"


class Tally:
    """Per-problem seconds and failures of a timed run.

    Memory grows only by one float per problem: outcomes are dropped once
    counted, so a faster program does not read as a larger one.
    """

    def __init__(self):
        self.seconds: List[float] = []
        self.kinds = {}                           # kind -> (size, [seconds])
        self.failures: List[Outcome] = []
        self.cycles = []                          # (problems, cpu seconds)

    def add(self, o: Outcome) -> None:
        self.seconds.append(o.seconds)
        self.kinds.setdefault(o.kind, (o.size, []))[1].append(o.seconds)
        if o.failure is not None:
            self.failures.append(o)


def timed_run(wl, seconds: float) -> Tally:
    """Whole cycles until `seconds` of wall time have passed."""
    tally = Tally()
    repeats = {}
    started = perf()
    while not tally.cycles or perf() - started < seconds:
        problems = wl.cycle(len(tally.cycles))
        busy = 0.0
        for prob in problems:
            o = solve_one(prob, repeats)
            busy += o.seconds
            tally.add(o)
        tally.cycles.append((len(problems), busy))
        del problems
    return tally


def traced_run(wl):
    """The fixed problem list, each problem solved untraced and traced.

    The two solves of one problem run back to back, in alternating order,
    so warm-up favours neither side.  Both sides are timed on the wall
    clock, the clock of the spans.
    """
    from tracing import Tracer
    tracer = Tracer()
    plain: List[Outcome] = []
    traced: List[Outcome] = []
    repeats_plain, repeats_traced = {}, {}
    for c in range(wl.trace_cycles):
        for k, (p, q) in enumerate(zip(wl.cycle(c), wl.cycle(c))):
            if k % 2:
                plain.append(solve_one(p, repeats_plain, perf))
            traced.append(solve_one(q, repeats_traced, perf, tracer))
            if not k % 2:
                plain.append(solve_one(p, repeats_plain, perf))
    compare(plain, traced)
    return plain, traced, tracer


# ---------------------------------------------------------------- set-up

def setup_seconds(workload: str, seed: int, repeats: int) -> List[float]:
    """Cold set-up times: import plus seeded input generation, each in a
    fresh interpreter, in CPU seconds of that interpreter."""
    out = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload,
                               str(seed)], cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


# ---------------------------------------------------------------- reporting

def tail(values: List[float]):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples); with too few samples, the maximum.
    """
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, n
    k = n - TAIL_BEYOND
    return s[k - 1], 100.0 * k / n, n


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu_model(), "seed": seed,
            "commit": git_commit()}


def workload_why(workload: str) -> Optional[str]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return next((w["why"] for w in spec.get("workloads", []) if w["name"] == workload), None)


def print_kinds(kinds: dict) -> None:
    for kind, (size, secs) in sorted(kinds.items()):
        print(f"kind {kind}: {len(secs)} problems, median {statistics.median(secs):.4f} s, "
              f"max {max(secs):.4f} s, size {json.dumps(size)}")


def print_failures(failures: List[Outcome]) -> int:
    for o in failures[:20]:
        print(f"FAILED {o.pid} ({o.kind}): {o.failure}")
    return len(failures)


def emit(attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))


def report_timed(wl, seed: int, seconds: float) -> None:
    setups = setup_seconds(wl.name, seed, SETUP_BEFORE)
    wall0 = perf()
    tally = timed_run(wl, seconds)
    wall = perf() - wall0
    setups += setup_seconds(wl.name, seed, SETUP_AFTER)
    secs = tally.seconds
    tail_value, tail_pct, n = tail(secs)
    metrics = {
        "setup_s": statistics.median(setups),
        "problem_p50_s": statistics.median(secs),
        "problem_tail_s": tail_value,
        # median over cycles: one slow stretch of a shared machine moves it less
        "problems_per_s": statistics.median(n / busy for n, busy in tally.cycles),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {"setup_s": "s", "problem_p50_s": "s", "problem_tail_s": "s",
             "problems_per_s": "1/s", "peak_rss_mb": "MB"}
    print_kinds(tally.kinds)
    failed = print_failures(tally.failures)
    busy = sum(b for _, b in tally.cycles)
    print(f"cycles {len(tally.cycles)}, cpu {busy:.3f} s in {wall:.3f} s of wall time, "
          "setup samples " + ", ".join(f"{s:.4f}" for s in setups))
    for k, v in metrics.items():
        print(f"{k} {v:.6g} {units[k]}")
    print(f"problem_tail_s is p{tail_pct:.1f} of {n} samples"
          + (f" ({TAIL_BEYOND} beyond it)" if n > TAIL_BEYOND else " (the maximum)"))
    print(f"failed_ratio {failed / len(secs):.6g} ({failed} of {len(secs)})")
    emit(len(secs), failed, metrics, units)


def report_traced(wl) -> None:
    from tracing import layer_metrics, module_shares
    plain, traced, tracer = traced_run(wl)
    untraced_wall = sum(o.seconds for o in plain)
    traced_wall = sum(o.seconds for o in traced)
    metrics = layer_metrics(tracer, traced_wall, untraced_wall)
    units = {k: ("s" if k.endswith("_s") else "ratio" if k.endswith("_ratio") else "count")
             for k in metrics}
    kinds = {}
    for o in traced:
        kinds.setdefault(o.kind, (o.size, []))[1].append(o.seconds)
    print_kinds(kinds)
    failed = print_failures([o for o in plain + traced if o.failure is not None])
    print(f"untraced {untraced_wall:.3f} s, traced {traced_wall:.3f} s, "
          f"{len(tracer.start)} spans")
    print("self-time share of traced wall by module: " + ", ".join(
        f"{m} {s:.1%}" for m, s in module_shares(tracer, traced_wall).items()))
    for k, v in metrics.items():
        print(f"{k} {v if isinstance(v, int) else format(v, '.6g')} {units[k]}")
    attempted = len(plain) + len(traced)
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted})")
    emit(attempted, failed, metrics, units)


def run_all(args) -> int:
    """Every workload for one seed, each in its own process."""
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT)
        code = code or proc.returncode
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not import_package():
        return 2
    from workloads import WORKLOADS
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.prepare()
        print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
        print("why " + str(workload_why(args.workload)))
        print("env " + json.dumps(environment(args.seed), sort_keys=True))
        sys.stdout.flush()
        if args.trace:
            report_traced(wl)
        else:
            report_timed(wl, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
