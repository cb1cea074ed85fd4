"""Span tracing of algebroidlab, installed from outside the package.

`install` replaces public functions and methods with wrappers that record
one span per call (name, start, end, parent span, problem id) plus the
counters each layer has; `restore` puts every original back.  A function
imported by name is replaced in every module that bound it.  Per-layer
self time is a span's duration minus the durations of its child spans.

Counting work (matrix nonzeros, hashing bases) runs outside the measured
span and is recorded as a `trace.count` span beside it, so it lands in
no layer's self time; it does show in the traced wall time.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import defaultdict

perf = time.perf_counter

COUNT_SPAN = "trace.count"
ROOT_SPAN = "problem"


def _nnz(rows) -> int:
    return sum(1 for row in rows for v in row if v)


def _count_apply(tr, args, kwargs, result):
    m = args[0]
    tr.counts["linalg.apply_mults"] += m.nrows * m.ncols
    tr.counts["linalg.apply_nnz"] += _nnz(m.rows)


def _count_rref(tr, args, kwargs, result):
    m = args[0]
    tr.counts["linalg.rref_cells"] += m.nrows * m.ncols
    tr.counts["linalg.rref_rank_sum"] += len(result[1])


def _count_echelon_add(tr, args, kwargs, result):
    tr.counts["linalg.echelon_add_accepted"] += bool(result)


def _count_basis(tr, args, kwargs, result):
    tr.counts["cohomology.basis_elems"] += len(result)


def _count_d_matrix(tr, args, kwargs, result):
    cx, source, target = args[:3]
    tr.counts["cohomology.d_matrix_cells"] += len(source) * len(target)
    tr.counts["cohomology.d_matrix_nnz"] += _nnz(result.rows)
    key = (id(cx), tuple(source), tuple(target))
    if key in tr.built:
        tr.counts["cohomology.d_matrix_repeats"] += 1
    else:
        tr.built.add(key)
        tr.alive.append(cx)           # keeps id(cx) unique within the problem


def _count_build(tr, args, kwargs, result):
    tr.counts["covers.total_dim"] += sum(len(b) for b in result.bases.values())


def _count_transport(tr, args, kwargs, result):
    tr.counts["transport.rk4_steps"] += result.steps


def _count_subexhaust(tr, args, kwargs, result):
    top = max((max(seq) for seq in result.alphas.values() if seq), default=0)
    tr.counts["exhaustion.max_stage"] = max(tr.counts["exhaustion.max_stage"], top)


def _count_parse(tr, args, kwargs, result):
    tr.counts["modelfile.parse_bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _count_emit(tr, args, kwargs, result):
    tr.counts["report.emit_bytes"] += len(result)


# (span name, module, class or None, attribute, counter)
HOOKS = (
    ("linalg.apply", "linalg", "QMatrix", "apply", _count_apply),
    ("linalg.rref", "linalg", "QMatrix", "rref", _count_rref),
    ("linalg.kernel_basis", "linalg", "QMatrix", "kernel_basis", None),
    ("linalg.image_basis", "linalg", "QMatrix", "image_basis", None),
    ("linalg.matmul", "linalg", "QMatrix", "__matmul__", None),
    ("linalg.solve", "linalg", "QMatrix", "solve", None),
    ("linalg.inverse", "linalg", "QMatrix", "inverse", None),
    ("linalg.echelon_add", "linalg", "Echelon", "add", _count_echelon_add),
    ("linalg.echelon_reduce", "linalg", "Echelon", "reduce", None),
    ("linalg.quotient", "linalg", None, "quotient_dim_and_reps", None),
    ("cohomology.basis", "cohomology", "CEComplex", "window_basis", _count_basis),
    ("cohomology.basis", "cohomology", "CEComplex", "stratum_basis", _count_basis),
    ("cohomology.d_matrix", "cohomology", "CEComplex", "d_matrix", _count_d_matrix),
    ("covers.build", "covers", None, "build_double_complex", _count_build),
    ("covers.total_matrix", "covers", "CechDoubleComplex", "total_matrix", None),
    ("covers.total_betti", "covers", "CechDoubleComplex", "total_betti", None),
    ("covers.ss_pages", "covers", None, "ss_pages", None),
    ("covers.e2_oracle", "covers", None, "e2_simplicial_oracle", None),
    ("covers.localize", "covers", None, "localization_check", None),
    ("covers.validate_family", "covers", None, "validate_family", None),
    ("pullback.transversal", "pullback", None, "transversal_iso_check", None),
    ("pullback.pullback", "pullback", None, "pullback_structured", None),
    ("transport.transport", "transport", None, "parallel_transport", _count_transport),
    ("transport.monodromy", "transport", None, "monodromy_check", None),
    ("exhaustion.subexhaust", "exhaustion", None, "subexhaust", _count_subexhaust),
    ("exhaustion.verify", "exhaustion", None, "verify_interleaving", None),
    ("modelfile.parse", "modelfile", None, "parse_model", _count_parse),
    ("algebroid.validate", "algebroid", None, "validate_algebroid", None),
    ("algebroid.validate", "algebroid", None, "validate_representation", None),
    ("ratpoly.mul", "ratpoly", "TruncatedPoly", "__mul__", None),
    ("report.emit", "report", None, "emit_report", _count_emit),
    ("cli.run_command", "cli", None, "run_command", None),
)

# span names whose self time, call count or both are per-layer metrics
TIMED = sorted({h[0] for h in HOOKS})
CALLS = ("linalg.apply", "linalg.rref", "linalg.echelon_add", "linalg.echelon_reduce",
         "linalg.matmul", "cohomology.d_matrix", "covers.total_matrix",
         "modelfile.parse", "algebroid.validate", "ratpoly.mul")
COUNTS = ("linalg.apply_mults", "linalg.rref_cells", "linalg.rref_rank_sum",
          "cohomology.basis_elems", "cohomology.d_matrix_cells", "cohomology.d_matrix_nnz",
          "covers.total_dim", "transport.rk4_steps", "exhaustion.max_stage",
          "modelfile.parse_bytes", "report.emit_bytes")
# ratio name -> (numerator count, denominator: a count, else a span's calls)
RATIOS = {
    "linalg.apply_useful_ratio": ("linalg.apply_nnz", "linalg.apply_mults"),
    "linalg.echelon_add_accept_ratio": ("linalg.echelon_add_accepted", "linalg.echelon_add"),
    "cohomology.d_matrix_repeat_ratio": ("cohomology.d_matrix_repeats", "cohomology.d_matrix"),
}


class Tracer:
    """Spans of one traced run, in parallel arrays, plus per-layer counters."""

    def __init__(self):
        self.names = [ROOT_SPAN, COUNT_SPAN]
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.problem = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.problem_ids = []
        self.current = -1
        self.counts = defaultdict(int)
        self.built = set()
        self.alive = []
        self._patches = []

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.problem.append(self.current)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf()
        self.stack.pop()

    def begin_problem(self, pid: str) -> int:
        """Start a problem's root span; d_matrix repeats are counted per problem."""
        self.problem_ids.append(pid)
        self.current = len(self.problem_ids) - 1
        self.built = set()
        self.alive = []
        return self.open(0)

    # -- installing wrappers -------------------------------------------------

    def wrap(self, name: str, fn, count):
        nid = self.name_index(name)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tr.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.close(idx)
            if count is not None:
                cidx = tr.open(1)
                count(tr, args, kwargs, result)
                tr.close(cidx)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def install(self) -> None:
        """Wrap every hook; functions are replaced wherever they are bound."""
        modules = package_modules()
        for name, mod, cls, attr, count in HOOKS:
            module = sys.modules["algebroidlab." + mod]
            if cls is not None:
                owner = getattr(module, cls)
                orig = owner.__dict__[attr]
                self._patch(owner, attr, orig, self.wrap(name, orig, count))
                continue
            orig = getattr(module, attr)
            wrapped = self.wrap(name, orig, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- derived figures --------------------------------------------------------

    def self_times(self):
        """Per span index: duration minus the durations of its children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def per_name(self):
        """Summed self time and call count per span name."""
        _, own = self.self_times()
        secs = defaultdict(float)
        calls = defaultdict(int)
        for i, nid in enumerate(self.name_id):
            secs[self.names[nid]] += own[i]
            calls[self.names[nid]] += 1
        return secs, calls


def package_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "algebroidlab" or k.startswith("algebroidlab."))]


def leftover_wrappers():
    """Names in the package still bound to a wrapper (empty after restore)."""
    out = []
    for m in package_modules():
        for key, value in vars(m).items():
            if getattr(value, "__wrapped_by_perfbench__", False):
                out.append(f"{m.__name__}.{key}")
            if isinstance(value, type):
                for attr, meth in vars(value).items():
                    if getattr(meth, "__wrapped_by_perfbench__", False):
                        out.append(f"{m.__name__}.{key}.{attr}")
    return out


def nesting_violations(tr: Tracer):
    """Spans that do not lie inside their parent span."""
    bad = []
    for i, p in enumerate(tr.parent):
        if p >= 0 and not (tr.start[p] <= tr.start[i] <= tr.end[i] <= tr.end[p]):
            bad.append(i)
        if p >= 0 and tr.problem[i] != tr.problem[p]:
            bad.append(i)
    return bad


def layer_metrics(tr: Tracer, traced_wall: float, untraced_wall: float):
    """Every per-layer metric, by name, from one traced run."""
    secs, calls = tr.per_name()
    out = {}
    for name in TIMED:
        out[name + "_s"] = secs.get(name, 0.0)
    for name in CALLS:
        out[name + "_calls"] = calls.get(name, 0)
    for name in COUNTS:
        out[name] = tr.counts.get(name, 0)
    for ratio, (num, den) in RATIOS.items():
        d = tr.counts[den] if den in tr.counts else calls.get(den, 0)
        out[ratio] = tr.counts.get(num, 0) / d if d else 0.0
    out["trace.overhead_ratio"] = traced_wall / untraced_wall
    return out


def module_shares(tr: Tracer, traced_wall: float):
    """Share of the traced wall time spent in each module's own code."""
    secs, _ = tr.per_name()
    shares = defaultdict(float)
    for name, s in secs.items():
        shares[name.split(".")[0]] += s / traced_wall
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
