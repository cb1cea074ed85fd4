"""Seeded problem generators and known answers for the benchmark workloads.

A workload hands out its problems one cycle at a time.  Every cycle has
the same composition; the seed and the cycle number only pick the
rational parameters and cover shapes, so the mix stays fixed while the
inputs of `jet_windows` and `cech_pages` change from cycle to cycle
(the two product patches have no parameters and recur).  Every problem
is built from new objects.  `cli_mix` repeats one command list per cycle
on purpose: its known answer includes byte identity across repeats.

Known answers come from theory, not from this program:
  * jet windows: the formal Poincare lemma for transitive patches gives
    betti [1, 0, ...]; Kunneth gives the products with a formal line;
  * cech pages: the program's two certificates must hold and the
    localization verdict must be one of the two the theorem allows;
  * cli: exit codes predicted from the model contents (localization
    hypotheses from the fibre's known cohomology and the cover's graph),
    interleavings re-verified here from the printed stage selections.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction as F
from math import comb
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

# modules, not names: the traced run replaces functions on their modules,
# and the package's own `cohomology` attribute is the function
cli, cohomology, covers, pullback = (importlib.import_module("algebroidlab." + m)
                                     for m in ("cli", "cohomology", "covers", "pullback"))
from algebroidlab.algebroid import LieAlgebroidPatch, adjoint_representation
from algebroidlab.library import (abelian_patch, heisenberg_patch,
                                  product_with_tangent, sl2_patch)
from algebroidlab.linalg import QMatrix
from algebroidlab.ratpoly import TruncatedPoly, WeightAssignment

MODELS = Path(__file__).resolve().parent / "models"


@dataclass
class Problem:
    """One request of the closed loop.

    `solve` is the only timed call.  `digest` turns its result into the
    bytes compared across repeats and between traced and untraced runs;
    `check` returns why the result is wrong, or None.
    """

    pid: str
    kind: str
    size: Dict[str, object]
    solve: Callable[[], object]
    digest: Callable[[object], bytes]
    check: Callable[[object], Optional[str]]
    repeat_key: Optional[str] = None      # equal keys must give equal bytes


def _rng(workload: str, seed: int, cycle: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{cycle}")


# ---------------------------------------------------------------- jet windows

# slopes for the affine patches: small heights keep the cost of one
# problem within a few percent, so the mix, not the draw, sets p50
SLOPES = (F(1), F(-1), F(2), F(-2), F(3), F(1, 2), F(-1, 2), F(2, 3), F(-3, 2))


def affine_patch(slopes, jet_order: int) -> LieAlgebroidPatch:
    """Transitive patch e1 = d_x + sum_k a_k y_k d_{y_k}, e_{k+1} = d_{y_k}.

    [e1, e_{k+1}] = -a_k e_{k+1}; weights 0 on x and 1 on every y_k.
    """
    n = 1 + len(slopes)
    names = ("x", "y", "z", "w")[:n]

    def c(v):
        return TruncatedPoly.const(n, v, jet_order)

    z = c(0)
    anchor = [[c(1)] + [TruncatedPoly.monomial(n, tuple(int(i == k + 1) for i in range(n)),
                                               a, jet_order)
                        for k, a in enumerate(slopes)]]
    anchor += [[c(1) if l == k + 1 else z for l in range(n)] for k in range(n - 1)]
    structure = [[[z] * n for _ in range(n)] for _ in range(n)]
    for k, a in enumerate(slopes):
        structure[0][k + 1] = [c(-a) if m == k + 1 else z for m in range(n)]
        structure[k + 1][0] = [c(a) if m == k + 1 else z for m in range(n)]
    return LieAlgebroidPatch(names, jet_order, n, anchor, structure,
                             weights=WeightAssignment((0,) + (1,) * (n - 1)),
                             frame_weights=(0,) + (-1,) * (n - 1),
                             name="affine" + str(n))


def _jet_digest(rep) -> bytes:
    return repr([(r.degree, r.betti, r.stabilized, r.history, r.representatives)
                 for r in rep.rows]).encode()


def _jet_check(expect: List[int]):
    def check(rep) -> Optional[str]:
        got = [r.betti for r in sorted(rep.rows, key=lambda r: r.degree)]
        if got != expect:
            return f"betti {got}, theory {expect}"
        if not all(r.stabilized for r in rep.rows):
            return "window did not stabilize"
        return None
    return check


def jet_problem(pid: str, kind: str, patch: LieAlgebroidPatch, window,
                expect: List[int]) -> Problem:
    size = {"n_vars": patch.n_vars, "rank": patch.rank,
            "window": ":".join(map(str, window))}

    def solve():
        rep = cohomology.cohomology(patch, mode="jet", window=window)
        size["cochain_dims"] = [rep.dims[q] for q in sorted(rep.dims)]
        return rep

    return Problem(pid, kind, size, solve, _jet_digest, _jet_check(expect))


def transversal_problem(pid: str, patch: LieAlgebroidPatch, window) -> Problem:
    def solve():
        return pullback.transversal_iso_check(patch, None, keep=(0,), window=window)

    def digest(rep) -> bytes:
        return repr([(r.degree, r.betti_total, r.betti_slice, r.equal,
                      r.restriction_surjective) for r in rep.rows]).encode()

    def check(rep) -> Optional[str]:
        if rep.ok and all(r.equal and r.restriction_surjective for r in rep.rows):
            return None
        return "slice restriction is not an isomorphism in every degree"

    size = {"n_vars": patch.n_vars, "rank": patch.rank,
            "window": ":".join(map(str, window)), "keep": [0]}
    return Problem(pid, "transversal_w" + size["window"], size, solve, digest, check)


class JetWindows:
    """Sliding-jet cohomology; linalg and cohomology do almost all the work.

    Seven of a cycle's eleven problems are 2-variable windows, with three
    cheaper problems below them and one dearer above, so the median and
    the tail both fall inside that class whatever the number of cycles.
    """

    name = "jet_windows"
    trace_cycles = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def prepare(self) -> None:
        self.cycle(0)

    def cycle(self, c: int) -> List[Problem]:
        rng = _rng(self.name, self.seed, c)
        out = []
        for k in range(7):
            slope = rng.choice(SLOPES)
            out.append(jet_problem(f"c{c}.affine2.{k}", "affine2_w3:5:3",
                                   affine_patch([slope], 5), (3, 5, 3), [1, 0, 0]))
            if k == 0:
                out.append(transversal_problem(f"c{c}.slice", affine_patch([slope], 6),
                                               (3, 5, 3)))
        out.append(jet_problem(f"c{c}.affine3", "affine3_w1:2:2",
                               affine_patch([rng.choice(SLOPES), rng.choice(SLOPES)], 2),
                               (1, 2, 2), [1, 0, 0, 0]))
        out.append(jet_problem(f"c{c}.sl2_line", "sl2_x_line_w1:4:2",
                               product_with_tangent(sl2_patch(), ("y",), 5, (1,)),
                               (1, 4, 2), [1, 0, 0, 1, 0]))
        out.append(jet_problem(f"c{c}.heis_line", "heisenberg_x_line_w1:4:2",
                               product_with_tangent(heisenberg_patch(), ("y",), 5, (1,)),
                               (1, 4, 2), [1, 2, 2, 1, 0]))
        return out


# ---------------------------------------------------------------- cech pages

def _interval(n):
    return covers.CoverDatum(tuple(f"U{i}" for i in range(n)),
                             tuple((i, i + 1) for i in range(n - 1)))


def _circle(n):
    return covers.CoverDatum(tuple(f"U{i}" for i in range(n)),
                             tuple(sorted(tuple(sorted((i, (i + 1) % n)))
                                          for i in range(n))))


def _star(rng, n):
    hub = rng.randrange(n)
    return covers.CoverDatum(tuple(f"U{i}" for i in range(n)),
                             tuple(sorted((min(hub, i), max(hub, i))
                                          for i in range(n) if i != hub)))


def _triangle():
    return covers.CoverDatum(("A", "B", "C"), ((0, 1), (0, 2), (1, 2)), ((0, 1, 2),))


def _cover(rng, shape: str, n: int):
    if shape == "interval":
        return _interval(n)
    if shape == "circle":
        return _circle(n)
    if shape == "star":
        return _star(rng, n)
    return _triangle()


def _fibre(kind: str, rank: int) -> LieAlgebroidPatch:
    if kind == "abelian":
        return abelian_patch(rank)
    if kind == "heisenberg":
        return heisenberg_patch()
    return sl2_patch()


def _automorphism(rng, kind: str, rank: int) -> List[List[F]]:
    """A seeded automorphism of the fibre algebra, as rational rows."""
    if kind == "abelian":
        while True:
            m = [[F(rng.randint(-2, 2)) for _ in range(rank)] for _ in range(rank)]
            if QMatrix(m).rank() == rank:
                return m
    if kind == "sl2":
        lam = F(rng.choice([1, 2, 3, -1]))
        return [[F(1), F(0), F(0)], [F(0), lam, F(0)], [F(0), F(0), 1 / lam]]
    a, b = F(rng.choice([1, 2, -1])), F(rng.choice([1, 3]))
    return [[a, F(0), F(0)], [F(0), b, F(0)], [F(0), F(0), a * b]]


def _transitions(rng, cover, kind: str, rank: int, keep: float = 0.7
                 ) -> Dict[Tuple[int, int], Tuple[List[List[F]], List[List[F]]]]:
    """Seeded transitions, on a share `keep` of the overlaps; on a triangle
    they come from gauges, so the cocycle condition holds by construction."""
    out = {}
    if cover.triples:
        gauges = [QMatrix(_automorphism(rng, kind, rank)) for _ in cover.charts]
        scales = [F(rng.choice([1, 2, 3])) for _ in cover.charts]
        for (i, j) in cover.overlaps:
            out[(i, j)] = ((gauges[i] @ gauges[j].inverse()).rows,
                           [[scales[i] / scales[j]]])
    else:
        for (i, j) in cover.overlaps:
            if rng.random() < keep:
                out[(i, j)] = (_automorphism(rng, kind, rank), [[F(rng.choice([1, 2]))]])
    return out


def local_system(cover, kind: str, rank: int, trans) -> covers.LocalSystemFamily:
    if kind == "sl2_adjoint":
        g = sl2_patch()
        charts = [covers.ChartData(g, adjoint_representation(g)) for _ in cover.charts]
        return covers.LocalSystemFamily(cover, charts, {})
    fib = _fibre(kind, rank)
    charts = [covers.ChartData(fib, None) for _ in cover.charts]
    return covers.LocalSystemFamily(
        cover, charts, {k: (QMatrix(p), QMatrix(q)) for k, (p, q) in trans.items()})


def cech_problem(pid: str, kind: str, fam, cover, chart: int, deg: int) -> Problem:
    size = {"charts": len(cover.charts), "fibre_rank": fam.fibre_rank(0),
            "localize": [chart, deg]}

    def solve():
        dc = covers.build_double_complex(fam, cover)
        size["total_dim"] = sum(len(b) for b in dc.bases.values())
        pages = covers.ss_pages(dc, r_max=3)
        loc = covers.localization_check(fam, cover, chart=chart, n=deg)
        return pages, loc

    def digest(result) -> bytes:
        pages, loc = result
        return repr(([(pg.r, sorted(pg.dims.items()), sorted(pg.d_ranks.items()))
                      for pg in pages.pages], pages.total_betti,
                     sorted(pages.e2_oracle.items()), pages.convergence_ok,
                     pages.e2_ok, loc.verdict, loc.kernel_dim,
                     sorted(loc.hypotheses.items()))).encode()

    def check(result) -> Optional[str]:
        pages, loc = result
        if not pages.convergence_ok:
            return "terminal page differs from the total cohomology"
        if not pages.e2_ok:
            return "second page differs from the simplicial oracle"
        if loc.verdict not in ("injective", "hypotheses unmet"):
            return f"localization verdict {loc.verdict!r}"
        if loc.verdict == "injective" and loc.kernel_dim != 0:
            return "injective verdict with a nonzero kernel"
        return None

    return Problem(pid, kind, size, solve, digest, check)


# (shape, charts, fibre, rank): the composition of every cech cycle.  Four
# cheap slots, five of about half a second and three heavy ones, so the
# median falls inside the middle group.  Adjoint coefficients stay rare
# (one small slot), as in real use.
CECH_SLOTS = (
    ("interval", 2, "abelian", 1),
    ("circle", 3, "abelian", 1),
    ("triangle", 3, "abelian", 2),
    ("circle", 4, "abelian", 2),
    ("star", 3, "sl2", 3),
    ("star", 3, "sl2", 3),
    ("interval", 3, "heisenberg", 3),
    ("circle", 3, "sl2", 3),
    ("circle", 3, "sl2", 3),
    ("circle", 3, "heisenberg", 3),
    ("star", 4, "sl2", 3),
    ("interval", 2, "sl2_adjoint", 3),
)


class CechPages:
    """Seeded local-system families: double complex, pages, localization."""

    name = "cech_pages"
    trace_cycles = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def prepare(self) -> None:
        self.cycle(0)

    def cycle(self, c: int) -> List[Problem]:
        rng = _rng(self.name, self.seed, c)
        out = []
        for k, (shape, n, kind, rank) in enumerate(CECH_SLOTS):
            cover = _cover(rng, shape, n)
            trans = {} if kind == "sl2_adjoint" else _transitions(rng, cover, kind, rank)
            fam = local_system(cover, kind, rank, trans)
            out.append(cech_problem(f"c{c}.s{k}", f"{shape}{n}_{kind}{rank}", fam, cover,
                                    rng.randrange(n), rng.randrange(3)))
        rng.shuffle(out)
        return out


# ---------------------------------------------------------------- cli mix

# criterion-10 command matrix without its jet-window line:
# (argv after the program name, expected exit code)
CLI_MATRIX = (
    (["check", "sl2_demo.alab"], 0),
    (["check", "plane_jet.alab"], 0),
    (["check", "sl2_line.alab"], 0),
    (["check", "circle_family.alab"], 0),
    (["check", "pair_family.alab"], 0),
    (["check", "exhaustion_pair.alab"], 0),
    (["cohomology", "sl2_demo.alab", "--name", "sl2"], 0),
    (["cohomology", "sl2_demo.alab", "--name", "sl2", "--rep", "adjoint"], 0),
    (["cohomology", "sl2_line.alab"], 0),
    (["pullback", "sl2_line.alab", "--map", "point", "--point", "1/2"], 0),
    (["pullback", "sl2_line.alab", "--map", "rescale", "--t", "1/3"], 0),
    (["transversal", "sl2_line.alab"], 0),
    (["ss", "circle_family.alab"], 0),
    (["ss", "pair_family.alab"], 0),
    (["localize", "circle_family.alab", "--at", "0", "--deg", "1"], 3),
    (["localize", "pair_family.alab", "--at", "0", "--deg", "0"], 0),
    (["transport", "circle_family.alab"], 0),
    (["monodromy", "circle_family.alab"], 0),
    (["subexhaust", "exhaustion_pair.alab", "--steps", "6"], 0),
)
FORMATS = ("text", "csv", "structured")

# oracles of models/exhaustion_pair.alab: (dst, src) -> (prefix, slope, offset)
PAIR_ORACLES = {(1, 0): ((), 1, 1), (0, 1): ((), 1, 2)}

FIBRE_BETTI = {"abelian": lambda r: [comb(r, q) for q in range(r + 1)],
               "sl2": lambda r: [1, 0, 0, 1]}


def _oracle_value(oracle, n: int) -> int:
    prefix, slope, offset = oracle
    return prefix[n - 1] if n <= len(prefix) else slope * n + offset


def interleaving_failure(stages: Dict[int, List[int]], overlaps, oracles) -> Optional[str]:
    """Independent re-check of a printed stage selection."""
    for i, seq in stages.items():
        if not seq or seq[0] < 1 or any(a >= b for a, b in zip(seq, seq[1:])):
            return f"selection of chart {i} is not strictly increasing"
    for (i, j) in overlaps:
        for a in stages[i]:
            for b in stages[j]:
                if not (_oracle_value(oracles[(j, i)], a) <= b
                        or _oracle_value(oracles[(i, j)], b) <= a):
                    return f"stages {a} of chart {i} and {b} of chart {j} interleave"
    return None


# (charts, overlaps, tail slope of every oracle) of the generated cli
# exhaustions.  The graph and the slopes set the cost, since stage values
# compound through every refinement pass, so they are fixed; the seed
# picks only prefix values and offsets, which leave the cost unchanged.
CLI_EXHAUSTION_SLOTS = (
    (2, ((0, 1),), 2),
    (2, ((0, 1),), 0),
    (3, ((0, 1), (1, 2)), 1),
    (3, ((0, 1), (0, 2), (1, 2)), 1),
    (4, ((0, 1), (1, 2), (2, 3)), 1),
    (4, ((0, 1), (0, 2), (0, 3)), 1),
)
ORACLE_PREFIX = 2


def _seeded_oracle(rng, slope: int):
    """A valid oracle with a prefix of ORACLE_PREFIX values and the given slope."""
    v = rng.randrange(1, 4)
    prefix = [v, v + rng.randrange(0, 3)]
    offset = rng.randrange(1, 4)
    first_tail = slope * (ORACLE_PREFIX + 1) + offset
    if first_tail < prefix[-1]:
        offset += prefix[-1] - first_tail
    return tuple(prefix), slope, offset


def exhaustion_text(rng, n_charts: int, overlaps, slope: int) -> Tuple[str, dict]:
    """A seeded exhaustion model on a fixed chart graph."""
    oracles = {}
    for (i, j) in overlaps:
        oracles[(i, j)] = _seeded_oracle(rng, slope)
        oracles[(j, i)] = _seeded_oracle(rng, slope)
    lines = ["version 1", "", "exhaustion generated {",
             "  charts = " + ", ".join(f"C{k}" for k in range(n_charts)),
             "  overlaps = " + ", ".join(f"({i},{j})" for i, j in overlaps)]
    for (dst, src), (prefix, slope, offset) in sorted(oracles.items()):
        clauses = ([f"prefix {', '.join(map(str, prefix))}"] if prefix else [])
        clauses += [f"slope {slope}", f"offset {offset}"]
        lines.append(f"  mu[{dst}][{src}] = " + " ; ".join(clauses))
    lines.append("}")
    return "\n".join(lines) + "\n", {"charts": n_charts, "overlaps": list(overlaps),
                                      "oracles": oracles}


def _matrix_text(rows) -> str:
    return " ; ".join(", ".join(str(v) for v in row) for row in rows)


def family_text(rng, shape: str, n: int, kind: str, rank: int, chart: int,
                deg: int) -> Tuple[str, dict]:
    """A seeded local-system model with `check`, `ss` and `localize` targets.

    Every overlap carries a transition, so the seed picks only its entries.
    """
    cover = _cover(rng, shape, n)
    trans = _transitions(rng, cover, kind, rank, keep=1.0)
    lines = ["version 1", "", "algebroid fib {", f"  rank = {rank}"]
    if kind == "sl2":
        lines += ["  bracket[0][1] = 0, 2, 0", "  bracket[0][2] = 0, 0, -2",
                  "  bracket[1][2] = 1, 0, 0"]
    lines += ["}", "", "cover base {",
              "  charts = " + ", ".join(cover.charts),
              "  overlaps = " + ", ".join(f"({i},{j})" for i, j in cover.overlaps)]
    if cover.triples:
        lines.append("  triples = " + ", ".join(f"({i},{j},{k})" for i, j, k in cover.triples))
    lines += ["}", "", "family sys {", "  cover = base"]
    lines += [f"  fibre[{i}] = fib" for i in range(n)]
    for (i, j), (p, q) in sorted(trans.items()):
        lines.append(f"  transition[{i}][{j}] = {_matrix_text(p)}")
        if q != [[1]]:
            lines.append(f"  transition_rep[{i}][{j}] = {_matrix_text(q)}")
    lines.append("}")
    betti = FIBRE_BETTI[kind](rank)

    def h(q):
        return betti[q] if 0 <= q < len(betti) else 0

    tree = len(cover.overlaps) == n - 1 and not cover.triples
    met = all(h(q) == 0 for q in range(deg - 1)) and (h(deg - 1) == 0 or tree)
    return "\n".join(lines) + "\n", {"chart": chart, "deg": deg,
                                      "localize_exit": 0 if met else 3}


# (shape, charts, fibre, rank, localize chart, localize degree) of the
# generated cli families: small, so that the median command stays at
# parse -> validate -> report
CLI_FAMILY_SLOTS = (("interval", 2, "abelian", 2, 0, 1), ("interval", 3, "abelian", 1, 1, 0),
                    ("circle", 3, "abelian", 1, 2, 1))


def _table(payload: dict, name: str) -> Optional[dict]:
    return next((t for t in payload["tables"] if t["name"] == name), None)


def _certificate_failure(argv: List[str], payload: dict, extra: dict) -> Optional[str]:
    """Check a structured report: a pass/match verdict must carry its proof."""
    cmd, verdict = argv[0], payload["verdict"]
    if cmd == "check":
        rows = _table(payload, "checks")["rows"]
        if verdict == "pass" and not all(r[2] == "yes" for r in rows):
            return "check passed with a failing row"
    elif cmd == "ss" and verdict == "pass" and payload["witnesses"]:
        return "ss passed with a certificate witness"
    elif cmd == "localize" and verdict == "injective":
        row = _table(payload, "localization")["rows"][0]
        if row[4] != "0":
            return "injective verdict with a nonzero kernel"
    elif cmd == "transport" and verdict == "pass":
        row = _table(payload, "transport")["rows"][0]
        if row[3] != "yes":
            return "transport passed without an invertible frame map"
    elif cmd == "monodromy" and verdict == "match":
        if not all(r[3] == "yes" for r in _table(payload, "comparison")["rows"]):
            return "monodromy match with unequal degrees"
    elif cmd == "subexhaust" and verdict == "pass":
        stages = {k: [int(v) for v in row[1].split(", ")]
                  for k, row in enumerate(_table(payload, "stages")["rows"])}
        steps = int(argv[argv.index("--steps") + 1])
        if any(len(seq) != steps for seq in stages.values()):
            return "wrong number of stages"
        return interleaving_failure(stages, extra["overlaps"], extra["oracles"])
    return None


def cli_problem(pid: str, kind: str, argv: List[str], fmt: str, expect_exit: int,
                extra: dict, size: dict) -> Problem:
    full = argv + ["--format", fmt]

    def solve():
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(full)
        out.flush()
        return code, out.buffer.getvalue()

    def digest(result) -> bytes:
        code, data = result
        return b"%d\n" % code + data

    def check(result) -> Optional[str]:
        code, data = result
        if code != expect_exit:
            return f"exit {code}, expected {expect_exit}"
        if b"internal error" in data:
            return "internal error report"
        if not data:
            return "empty report"
        if fmt == "structured":
            return _certificate_failure(argv, json.loads(data), extra)
        return None

    return Problem(pid, kind, size, solve, digest, check, repeat_key=" ".join(full))


class CliMix:
    """In-process `cli.main` on fixed and seeded model files, all formats."""

    name = "cli_mix"
    trace_cycles = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.commands: List[Tuple[str, List[str], int, dict, dict]] = []

    def prepare(self) -> None:
        """Write the model files; the command list follows from them."""
        rng = _rng(self.name, self.seed, 0)
        self.workdir.mkdir(parents=True, exist_ok=True)
        for src in sorted(MODELS.glob("*.alab")):
            shutil.copyfile(src, self.workdir / src.name)
        cmds = []
        for argv, code in CLI_MATRIX:
            path = self.workdir / argv[1]
            extra = {"overlaps": [(0, 1)], "oracles": PAIR_ORACLES}
            cmds.append((" ".join(argv[:2]), [argv[0], str(path)] + argv[2:], code, extra,
                         {"model_bytes": path.stat().st_size}))
        for k, (n, overlaps, slope) in enumerate(CLI_EXHAUSTION_SLOTS):
            text, extra = exhaustion_text(rng, n, overlaps, slope)
            path = self.workdir / f"exhaustion_{k}.alab"
            path.write_text(text, encoding="utf-8")
            top = max(_oracle_value(o, 8) for o in extra["oracles"].values())
            cmds.append(("subexhaust generated", ["subexhaust", str(path), "--steps", "8"],
                         0, extra, {"model_bytes": len(text), "charts": extra["charts"],
                                    "oracle_max_at_8": top}))
        for k, (shape, n, kind, rank, chart, deg) in enumerate(CLI_FAMILY_SLOTS):
            text, extra = family_text(rng, shape, n, kind, rank, chart, deg)
            path = self.workdir / f"family_{k}.alab"
            path.write_text(text, encoding="utf-8")
            size = {"model_bytes": len(text), "charts": n, "fibre_rank": rank}
            cmds.append(("check generated", ["check", str(path)], 0, extra, size))
            cmds.append(("ss generated", ["ss", str(path)], 0, extra, size))
            cmds.append(("localize generated",
                         ["localize", str(path), "--at", str(extra["chart"]),
                          "--deg", str(extra["deg"])], extra["localize_exit"], extra, size))
        self.commands = cmds

    def cycle(self, c: int) -> List[Problem]:
        out = []
        for k, (kind, argv, code, extra, size) in enumerate(self.commands):
            for fmt in FORMATS:
                out.append(cli_problem(f"c{c}.k{k}.{fmt}", kind, argv, fmt, code,
                                       extra, size))
        return out


WORKLOADS = {w.name: w for w in (JetWindows, CechPages, CliMix)}
