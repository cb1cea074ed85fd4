"""Self-check of the benchmark itself, on tiny problems and a short run.

    python3 perfbench/selfcheck.py

Exits 0 when every check holds:
  * every metric name the benchmark promises is in BENCHMARK.json with a unit,
    and a real run prints exactly those metrics for each trace mode;
  * answers and CLI stdout bytes are identical with tracing on and off;
  * every replaced function and method is the original again afterwards;
  * spans nest inside their parents, self times are non-negative and sum
    to no more than the traced wall time;
  * the exact counts repeat across two traced runs of one seed;
  * without the package sources the runner fails and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import run
import tracing

END_TO_END = ("setup_s", "problem_p50_s", "problem_tail_s", "problems_per_s", "peak_rss_mb")
PER_LAYER = (
    "linalg.apply_s", "linalg.apply_calls", "linalg.apply_mults", "linalg.apply_useful_ratio",
    "linalg.rref_s", "linalg.rref_calls", "linalg.rref_cells", "linalg.rref_rank_sum",
    "linalg.kernel_basis_s", "linalg.image_basis_s", "linalg.quotient_s",
    "linalg.echelon_add_s", "linalg.echelon_add_calls", "linalg.echelon_add_accept_ratio",
    "linalg.echelon_reduce_s", "linalg.echelon_reduce_calls",
    "linalg.matmul_s", "linalg.matmul_calls", "linalg.solve_s", "linalg.inverse_s",
    "cohomology.basis_s", "cohomology.basis_elems", "cohomology.d_matrix_s",
    "cohomology.d_matrix_calls", "cohomology.d_matrix_cells", "cohomology.d_matrix_nnz",
    "cohomology.d_matrix_repeat_ratio",
    "covers.build_s", "covers.total_dim", "covers.total_matrix_s", "covers.total_matrix_calls",
    "covers.ss_pages_s", "covers.total_betti_s", "covers.e2_oracle_s", "covers.localize_s",
    "covers.validate_family_s",
    "pullback.transversal_s", "pullback.pullback_s",
    "transport.transport_s", "transport.rk4_steps", "transport.monodromy_s",
    "exhaustion.subexhaust_s", "exhaustion.verify_s", "exhaustion.max_stage",
    "modelfile.parse_s", "modelfile.parse_calls", "modelfile.parse_bytes",
    "algebroid.validate_s", "algebroid.validate_calls", "ratpoly.mul_s", "ratpoly.mul_calls",
    "report.emit_s", "report.emit_bytes", "cli.run_command_s", "trace.overhead_ratio",
)
# counts later changes may name in advance: they must repeat exactly
EXACT = ("linalg.apply_mults", "linalg.rref_cells", "cohomology.d_matrix_nnz",
         "linalg.echelon_add_calls", "covers.total_dim")


def check(cond, what: str) -> None:
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {what}")
    print(f"ok: {what}")


def tiny_problems(workdir: Path):
    """A few small problems of every workload, rebuilt fresh on each call."""
    import workloads as w
    cli = w.CliMix(3, workdir)
    cli.prepare()
    picked = [k for k, cmd in enumerate(cli.commands)
              if cmd[0] in ("check sl2_demo.alab", "ss pair_family.alab",
                            "localize circle_family.alab", "monodromy circle_family.alab",
                            "subexhaust generated", "localize generated")]
    cli.commands = [cli.commands[k] for k in picked]
    fam = w.local_system(w._interval(2), "abelian", 1, {(0, 1): ([[F(2)]], [[F(1)]])})
    tri = w._triangle()
    rng = w._rng("selfcheck", 3, 0)
    tri_fam = w.local_system(tri, "abelian", 1, w._transitions(rng, tri, "abelian", 1))
    return [
        w.jet_problem("t.affine2", "affine2", w.affine_patch([F(2)], 3), (1, 2, 2), [1, 0, 0]),
        w.transversal_problem("t.slice", w.affine_patch([F(-1, 2)], 4), (2, 3, 2)),
        w.cech_problem("t.interval", "interval", fam, fam.cover, 0, 0),
        w.cech_problem("t.triangle", "triangle", tri_fam, tri, 1, 1),
    ] + cli.cycle(0)


def snapshot():
    """Every binding the tracer may replace: module names and hooked class dicts."""
    out = {}
    for m in tracing.package_modules():
        for key, value in vars(m).items():
            out[(m.__name__, key)] = value
    for _, mod, cls, attr, _ in tracing.HOOKS:
        if cls is not None:
            owner = getattr(sys.modules["algebroidlab." + mod], cls)
            out[(mod, cls, attr)] = owner.__dict__[attr]
    return out


def traced_pass(problems):
    tracer = tracing.Tracer()
    return tracer, run.run_loop(problems, {}, run.perf, tracer)


def check_metric_names(spec) -> None:
    units = {m["name"]: m.get("unit") for m in spec["end_to_end"] + spec["per_layer"]}
    missing = [n for n in END_TO_END + PER_LAYER if not units.get(n)]
    check(not missing, f"every promised metric is in BENCHMARK.json with a unit {missing}")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    check(setup["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s has the largest bound")


def check_tracing(workdir: Path) -> None:
    before = snapshot()
    plain = run.run_loop(tiny_problems(workdir / "a"), {})
    check(all(o.failure is None for o in plain),
          "tiny problems pass untraced " + str([(o.pid, o.failure) for o in plain
                                                if o.failure]))
    tracer, traced = traced_pass(tiny_problems(workdir / "a"))
    after = snapshot()
    changed = [k for k in before if after.get(k) is not before[k]]
    check(not changed and not tracing.leftover_wrappers(),
          f"originals restored after the traced run {changed}")
    check([o.digest for o in plain] == [o.digest for o in traced],
          "answers and CLI stdout bytes identical with tracing on and off")
    check(all(o.failure is None for o in traced), "tiny problems pass traced")
    check(not tracing.nesting_violations(tracer), "spans nest inside their parents")
    _, own = tracer.self_times()
    wall = sum(o.seconds for o in traced)
    check(min(own) > -1e-9 and sum(own) <= wall + 1e-6,
          f"self times non-negative, summing to {sum(own):.4f} s within traced wall {wall:.4f} s")
    names = {tracer.names[i] for i in tracer.name_id}
    layers = {"linalg.apply", "cohomology.d_matrix", "covers.ss_pages", "pullback.transversal",
              "transport.monodromy", "exhaustion.subexhaust", "modelfile.parse", "cli.run_command"}
    check(layers <= names, f"spans recorded in every layer {sorted(layers - names)}")
    again, _ = traced_pass(tiny_problems(workdir / "a"))
    first = tracing.layer_metrics(tracer, 1.0, 1.0)
    second = tracing.layer_metrics(again, 1.0, 1.0)
    counts = [k for k in first if not k.endswith("_s") and k != "trace.overhead_ratio"]
    check(all(first[k] == second[k] for k in counts),
          "counts repeat exactly across two runs of one seed")
    check(all(first[k] > 0 for k in EXACT), "exact counts are exercised")


def check_runner(spec, workdir: Path) -> None:
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", "cli_mix",
                               "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                              cwd=run.ROOT, capture_output=True, text=True, timeout=300)
        check(proc.returncode == 0, f"runner exits 0 with --trace {trace}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        check(set(result) == {"correct", "attempted", "failed", "metrics"} and result["correct"],
              f"runner prints a correct result with --trace {trace}")
        check(set(result["metrics"]) == {m["name"] for m in spec[group]},
              f"--trace {trace} prints exactly the {group} metrics")
    bare = workdir / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, str(bare / run.HERE.name / "run.py"), "--workload",
                           "cli_mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without the package sources the runner fails and prints no result")


def main() -> int:
    if not run.import_package():
        return 2
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workdir = run.WORKDIR / "selfcheck"
    try:
        check_metric_names(spec)
        check_tracing(workdir)
        check_runner(spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run.WORKDIR.rmdir()
        except OSError:
            pass
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
