"""Parallel transport of a moving Lie fibre along the unit interval.

The fibre structure constants and representation matrices depend
polynomially on a time variable; a generator matrix moves the frame by
the linear flow dPhi/dt = omega(t) Phi.  On top of the integrator sit
loop monodromy on cohomology, trivialization data at checkpoints, and
the flat cohomology bundle over a chart graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .algebroid import (LieAlgebroidPatch, Representation, validate_algebroid,
                        validate_representation)
from .cohomology import lie_algebra_cohomology
from .covers import (ChartData, CoverDatum, LocalSystemFamily, _chart_cohomology,
                     _chart_forest, _edge_maps, _holonomy, _induced_on_cohomology,
                     _morphism_failure, _require_valid_family)
from .errors import LabError, StructuralError, ValidationFailure
from .library import lie_algebra_patch
from .linalg import QMatrix
from .ratpoly import TruncatedPoly, parse_poly


class IntegrationError(LabError):
    """Step refinement hit its cap before the defect criterion was met."""


# frozen-time samples for the Lie axioms
TIME_SAMPLES = (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                Fraction(3, 4), Fraction(1))
RATIONALIZE_DEN = 10 ** 6
RATIONALIZE_TOL = 1e-10
_APPROX_DEN = 10 ** 12


def _as_tpoly(entry) -> TruncatedPoly:
    if isinstance(entry, TruncatedPoly):
        if entry.n != 1:
            raise StructuralError("time coefficients must be univariate")
        return entry
    if isinstance(entry, str):
        return parse_poly(entry, ("t",))
    return TruncatedPoly.const(1, Fraction(entry))


@dataclass
class PathFamily:
    """Moving Lie fibre over the unit time interval.

    structure[i][j][k] is the coefficient of the k-th frame element in
    [e_i, e_j], a polynomial in time.  omega is the rank x rank generator
    of the frame motion.  Optional representation data travels with its
    own generator omega_rep of size rep_rank x rep_rank.
    """

    rank: int
    structure: List[List[List[TruncatedPoly]]]
    omega: List[List[TruncatedPoly]]
    gammas: Optional[List[List[List[TruncatedPoly]]]] = None
    omega_rep: Optional[List[List[TruncatedPoly]]] = None
    name: str = ""

    def __post_init__(self):
        r = self.rank
        if len(self.structure) != r or any(
                len(plane) != r or any(len(row) != r for row in plane)
                for plane in self.structure):
            raise StructuralError("structure must be rank x rank x rank")
        if len(self.omega) != r or any(len(row) != r for row in self.omega):
            raise StructuralError("generator must be rank x rank")
        self.structure = [[[_as_tpoly(e) for e in row] for row in plane]
                          for plane in self.structure]
        self.omega = [[_as_tpoly(e) for e in row] for row in self.omega]
        if (self.gammas is None) != (self.omega_rep is None):
            raise StructuralError("representation data needs both gammas and omega_rep")
        if self.gammas is not None:
            m = len(self.omega_rep)
            if any(len(row) != m for row in self.omega_rep):
                raise StructuralError("representation generator must be square")
            if len(self.gammas) != r or any(
                    len(g) != m or any(len(row) != m for row in g)
                    for g in self.gammas):
                raise StructuralError("gammas must be rank entries of size m x m")
            self.gammas = [[[_as_tpoly(e) for e in row] for row in g]
                           for g in self.gammas]
            self.omega_rep = [[_as_tpoly(e) for e in row] for row in self.omega_rep]

    @classmethod
    def from_brackets(cls, rank: int, brackets: Dict[Tuple[int, int], Sequence],
                      omega, gammas=None, omega_rep=None, name: str = "") -> "PathFamily":
        """Build from {(i, j): [e_i, e_j] coefficients} for i < j."""
        z = TruncatedPoly.zero(1)
        c = [[[z for _ in range(rank)] for _ in range(rank)] for _ in range(rank)]
        for (i, j), entries in brackets.items():
            if not 0 <= i < j < rank:
                raise StructuralError(f"bracket key ({i}, {j}) must satisfy i < j < rank")
            if len(entries) != rank:
                raise StructuralError("bracket value must list all frame coefficients")
            for k, e in enumerate(entries):
                p = _as_tpoly(e)
                c[i][j][k] = p
                c[j][i][k] = -p
        return cls(rank, c, omega, gammas, omega_rep, name)

    @property
    def rep_rank(self) -> int:
        return len(self.omega_rep) if self.omega_rep is not None else 0

    def structure_at(self, t) -> List[List[List[Fraction]]]:
        pt = (Fraction(t),)
        return [[[e.evaluate(pt) for e in row] for row in plane]
                for plane in self.structure]

    def gammas_at(self, t) -> Optional[List[List[List[Fraction]]]]:
        if self.gammas is None:
            return None
        pt = (Fraction(t),)
        return [[[e.evaluate(pt) for e in row] for row in g] for g in self.gammas]

    def algebra_at(self, t) -> LieAlgebroidPatch:
        return lie_algebra_patch(self.structure_at(t), name=self.name)

    def rep_at(self, t) -> Optional[Representation]:
        if self.gammas is None:
            return None
        g = self.gammas_at(t)
        m = self.rep_rank
        gam = [[[TruncatedPoly.const(0, g[i][a][b], 0) for b in range(m)]
                for a in range(m)] for i in range(self.rank)]
        return Representation(self.algebra_at(t), m, gam)

    def is_loop(self) -> bool:
        if self.structure_at(0) != self.structure_at(1):
            return False
        if self.gammas is not None and self.gammas_at(0) != self.gammas_at(1):
            return False
        return True


# -- identities tying the motion to the generator ------------------------------------------


def _structure_flat_residuals(pf: PathFamily) -> List[Tuple[int, int, int]]:
    # residual of dc_ijk/dt = sum_l (w_kl c_ijl - w_li c_ljk - w_lj c_ilk)
    r = pf.rank
    c, w = pf.structure, pf.omega
    bad = []
    for i in range(r):
        for j in range(r):
            for k in range(r):
                acc = c[i][j][k].deriv(0)
                for l in range(r):
                    acc = acc - w[k][l] * c[i][j][l]
                    acc = acc + w[l][i] * c[l][j][k]
                    acc = acc + w[l][j] * c[i][l][k]
                if not acc.is_zero():
                    bad.append((i, j, k))
    return bad


def _rep_flat_residuals(pf: PathFamily) -> List[Tuple[int, int, int]]:
    # residual of dG_i/dt = w_rep G_i - G_i w_rep - sum_l w_li G_l
    r, m = pf.rank, pf.rep_rank
    g, w, wr = pf.gammas, pf.omega, pf.omega_rep
    bad = []
    for i in range(r):
        for a in range(m):
            for b in range(m):
                acc = g[i][a][b].deriv(0)
                for x in range(m):
                    acc = acc - wr[a][x] * g[i][x][b]
                    acc = acc + g[i][a][x] * wr[x][b]
                for l in range(r):
                    acc = acc + w[l][i] * g[l][a][b]
                if not acc.is_zero():
                    bad.append((i, a, b))
    return bad


@dataclass
class PathFamilyReport:
    frozen_ok: List[Tuple[Fraction, bool]]
    flat_structure: bool
    flat_rep: Optional[bool]

    @property
    def ok(self) -> bool:
        return (all(ok for _, ok in self.frozen_ok) and self.flat_structure
                and self.flat_rep is not False)


def validate_path_family(pf: PathFamily) -> PathFamilyReport:
    """Frozen Lie axioms at rational time samples plus the exact polynomial
    identities that make the frame flow carry brackets to brackets."""
    frozen = []
    for t in TIME_SAMPLES:
        a = pf.algebra_at(t)
        ok = validate_algebroid(a).ok
        if ok and pf.gammas is not None:
            ok = validate_representation(pf.rep_at(t)).ok
        frozen.append((t, ok))
    flat_c = not _structure_flat_residuals(pf)
    flat_g = None if pf.gammas is None else not _rep_flat_residuals(pf)
    return PathFamilyReport(frozen, flat_c, flat_g)


def _require_valid(pf: PathFamily) -> None:
    report = validate_path_family(pf)
    bad = [t for t, ok in report.frozen_ok if not ok]
    if bad:
        raise ValidationFailure("frozen fibre violates the Lie axioms",
                                {"kind": "frozen_axioms", "t": str(bad[0])})
    if not report.flat_structure or report.flat_rep is False:
        raise ValidationFailure("structure motion does not match the generator",
                                {"kind": "not_flat"})


# -- the integrator -------------------------------------------------------------------------


def _term_table(mat: Sequence[Sequence[TruncatedPoly]]):
    return [[[(e[0], float(cf)) for e, cf in p.sorted_terms()] for p in row]
            for row in mat]


Matrix = List[List[float]]


def _eval_table(table, t: float) -> Matrix:
    return [[sum(cf * t ** e for e, cf in terms) for terms in row] for row in table]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _axpy(y: Matrix, h: float, k: Matrix) -> Matrix:
    return [[u + h * v for u, v in zip(ry, rk)] for ry, rk in zip(y, k)]


def _omega(table):
    """t -> the generator's matrix at t; a constant one is evaluated once."""
    if any(e for row in table for terms in row for e, _ in terms):
        return lambda t: _eval_table(table, t)
    m = _eval_table(table, 0.0)
    return lambda t: m


def _rk4_flow(tables, sizes, n_steps: int, save_at) -> Dict[int, List[Matrix]]:
    h = 1.0 / n_steps
    h2, h6 = h / 2, h / 6
    omegas = [_omega(table) for table in tables]
    states = [[[float(i == j) for j in range(s)] for i in range(s)] for s in sizes]
    saved: Dict[int, List[Matrix]] = {}
    if 0 in save_at:
        saved[0] = list(states)
    for s in range(n_steps):
        t = s * h
        for which, omega in enumerate(omegas):
            y = states[which]
            m2 = omega(t + h2)
            k1 = _mat_mul(omega(t), y)
            k2 = _mat_mul(m2, _axpy(y, h2, k1))
            k3 = _mat_mul(m2, _axpy(y, h2, k2))
            k4 = _mat_mul(omega(t + h), _axpy(y, h, k3))
            states[which] = [[v + h6 * (a + 2 * b + 2 * c + d)
                              for v, a, b, c, d in zip(*rows)]
                             for rows in zip(y, k1, k2, k3, k4)]
        if s + 1 in save_at:
            saved[s + 1] = list(states)
    return saved


def _float_structure(pf: PathFamily, t: Fraction) -> List[Matrix]:
    return [[[float(v) for v in row] for row in plane] for plane in pf.structure_at(t)]


def _float_gammas(pf: PathFamily, t: Fraction) -> Optional[List[Matrix]]:
    g = pf.gammas_at(t)
    if g is None:
        return None
    return [[[float(v) for v in row] for row in gi] for gi in g]


def _iso_defect(pf: PathFamily, t: Fraction, phi: Matrix, q: Optional[Matrix],
                c0: List[Matrix], g0: Optional[List[Matrix]]) -> float:
    """Largest entry of phi[e_a, e_b]_0 - [phi e_a, phi e_b]_t over the
    frame pairs, and with a representation of gamma_t(phi e_a) q - q gamma_0(e_a)."""
    r = pf.rank
    ct = _float_structure(pf, t)
    worst = 0.0
    for a in range(r):
        for b in range(r):
            for k in range(r):
                lhs = sum(phi[k][m] * c0[a][b][m] for m in range(r))
                rhs = sum(phi[i][a] * phi[j][b] * ct[i][j][k]
                          for i in range(r) for j in range(r))
                worst = max(worst, abs(lhs - rhs))
    if q is not None:
        gt = _float_gammas(pf, t)
        for a in range(r):
            moved = [[sum(phi[l][a] * gt[l][x][y] for l in range(r))
                      for y in range(len(q))] for x in range(len(q))]
            mq, qg = _mat_mul(moved, q), _mat_mul(q, g0[a])
            worst = max([worst] + [abs(x - y) for rx, ry in zip(mq, qg)
                                   for x, y in zip(rx, ry)])
    return worst


def _integrate_with_refinement(pf: PathFamily, tol: float,
                               checkpoints: Sequence[Fraction],
                               max_steps: int):
    """RK4 steps, doubled until the isomorphism defect at the checkpoints
    and t = 1 is at most tol: the step count, the saved states, the largest
    defect and the defect at each checkpoint."""
    if not (math.isfinite(tol) and tol > 0):
        raise StructuralError("tolerance must be finite and positive")
    if max_steps < 1:
        raise StructuralError("steps must be positive")
    _require_valid(pf)
    cps = sorted({Fraction(t) for t in checkpoints} | {Fraction(1)})
    base = 1
    for t in cps:
        base = base * t.denominator // math.gcd(base, t.denominator)
    tables = [_term_table(pf.omega)]
    sizes = [pf.rank]
    if pf.omega_rep is not None:
        tables.append(_term_table(pf.omega_rep))
        sizes.append(pf.rep_rank)
    c0 = _float_structure(pf, Fraction(0))
    g0 = _float_gammas(pf, Fraction(0))
    n = base
    while n < 16:
        n *= 2
    while True:
        save = {int(t * n) for t in cps} | {0}
        saved = _rk4_flow(tables, sizes, n, save)
        defects = {}
        for t in cps:
            state = saved[int(t * n)]
            qv = state[1] if pf.omega_rep is not None else None
            defects[t] = _iso_defect(pf, t, state[0], qv, c0, g0)
        defect = max([0.0, *defects.values()])
        if defect <= tol:
            return n, saved, defect, defects
        n *= 2
        if n > max_steps:
            raise IntegrationError(
                f"isomorphism defect {defect:.3e} above tolerance {tol:.3e} "
                f"at {n // 2} steps")


# -- rationalization and exact certification ------------------------------------------------


def _rationalize_matrix(m: Matrix, den: int = RATIONALIZE_DEN,
                        tol: float = RATIONALIZE_TOL) -> Optional[List[List[Fraction]]]:
    rows = []
    for row in m:
        out = []
        for x in row:
            fr = Fraction(x).limit_denominator(den)
            if abs(float(fr) - x) > tol:
                return None
            out.append(fr)
        rows.append(out)
    return rows


def _best_rational(m: Matrix) -> List[List[Fraction]]:
    return [[Fraction(x).limit_denominator(_APPROX_DEN) for x in row]
            for row in m]


def _certified_maps(pf: PathFamily, t: Fraction, phi_f: Matrix,
                    q_f: Optional[Matrix]
                    ) -> Tuple[QMatrix, Optional[QMatrix], bool, bool]:
    """Float frame (and fibre) maps at time t as exact matrices, certified
    exact when they rationalize and carry the frozen fibre at time 0 to the
    one at t by the fibre-morphism check of `covers`, else the nearest
    bounded-denominator fractions; with both verdicts (exact, invertible).
    The fibre-morphism check is linear in the fibre map, so it never fixes
    its scale; a fibre map is certified only where the flow fixes it: a
    vanishing omega_rep keeps it the identity, which it must then equal."""
    phi_rows = _rationalize_matrix(phi_f)
    q_rows = _rationalize_matrix(q_f) if q_f is not None else None
    exact = (phi_rows is not None
             and (q_f is None or (q_rows == QMatrix.identity(pf.rep_rank).rows
                                  and all(e.is_zero() for row in pf.omega_rep for e in row)))
             and _morphism_failure(ChartData(pf.algebra_at(0), pf.rep_at(0)),
                                   ChartData(pf.algebra_at(t), pf.rep_at(t)),
                                   QMatrix(phi_rows),
                                   QMatrix(q_rows) if q_rows is not None else None) is None)
    if not exact:
        phi_rows = _best_rational(phi_f)
        q_rows = _best_rational(q_f) if q_f is not None else None
    phi_q = QMatrix(phi_rows)
    q_q = QMatrix(q_rows) if q_rows is not None else None
    inv = phi_q.rank() == pf.rank and (q_q is None or q_q.rank() == pf.rep_rank)
    return phi_q, q_q, exact, inv


# -- transport ------------------------------------------------------------------------------


@dataclass
class TransportResult:
    steps: int
    tol: float
    defect: float
    exact: bool
    is_loop: bool
    phi: QMatrix
    phi_float: List[List[float]]
    q_rep: Optional[QMatrix]
    det_nonzero: bool
    mon: Optional[Dict[int, QMatrix]]


DEFAULT_CHECKPOINTS = (Fraction(1, 2), Fraction(1))


def parallel_transport(pf: PathFamily, tol: float = 1e-8,
                       max_steps: int = 1 << 16) -> TransportResult:
    """Time-1 frame map by classical fourth order steps, doubling the step
    count until the bracket defect at the checkpoints is below tol.

    When every entry of the result sits within 1e-10 of a fraction with
    denominator at most 10**6 and the exact bracket identity then holds,
    the result is certified exact and the loop action on cohomology is
    computed in exact arithmetic.
    """
    n, saved, defect, _ = _integrate_with_refinement(pf, tol, DEFAULT_CHECKPOINTS,
                                                     max_steps)
    phi_f = saved[n][0]
    q_f = saved[n][1] if pf.omega_rep is not None else None
    phi_q, q_q, exact, det_ok = _certified_maps(pf, Fraction(1), phi_f, q_f)
    loop = pf.is_loop()
    mon = _loop_monodromy(pf, phi_q, q_q) if loop and det_ok else None
    return TransportResult(n, tol, defect, exact, loop, phi_q, phi_f, q_q,
                           det_ok, mon)


def _loop_monodromy(pf: PathFamily, phi_q: QMatrix,
                    q_q: Optional[QMatrix]) -> Dict[int, QMatrix]:
    # inverse pullback along the time-1 map, degree by degree
    lc = lie_algebra_cohomology(pf.algebra_at(Fraction(0)), pf.rep_at(Fraction(0)))
    qm = q_q if q_q is not None else QMatrix.identity(1)
    return {q: _induced_on_cohomology(phi_q, qm, lc, lc, q) for q in range(pf.rank + 1)}


def reverse_path(pf: PathFamily) -> PathFamily:
    """The same motion run backwards: coefficients in 1 - t, negated generator."""
    def flip(p):
        return _compose_one_minus_t(p)

    def nflip(p):
        return -_compose_one_minus_t(p)

    structure = [[[flip(e) for e in row] for row in plane] for plane in pf.structure]
    omega = [[nflip(e) for e in row] for row in pf.omega]
    gammas = None
    omega_rep = None
    if pf.gammas is not None:
        gammas = [[[flip(e) for e in row] for row in g] for g in pf.gammas]
        omega_rep = [[nflip(e) for e in row] for row in pf.omega_rep]
    return PathFamily(pf.rank, structure, omega, gammas, omega_rep,
                      name=pf.name + "~" if pf.name else "")


def _compose_one_minus_t(p: TruncatedPoly) -> TruncatedPoly:
    s = TruncatedPoly.const(1, 1) - TruncatedPoly.var(1, 0)
    acc = TruncatedPoly.zero(1)
    for (e,), cf in p.sorted_terms():
        acc = acc + (s ** e).scale(cf)
    return acc


# -- trivialization over the interval --------------------------------------------------------


@dataclass
class TrivializationCheckpoint:
    t: Fraction
    phi: QMatrix
    q_rep: Optional[QMatrix]
    defect: float
    exact: bool
    invertible: bool


@dataclass
class TrivializationReport:
    steps: int
    tol: float
    checkpoints: List[TrivializationCheckpoint]
    ok: bool


def trivialize_via_transport(pf: PathFamily, tol: float = 1e-8,
                             checkpoints=(Fraction(0), Fraction(1, 2), Fraction(1)),
                             max_steps: int = 1 << 16) -> TrivializationReport:
    """Frame maps at the requested times, each certified against the frozen
    structure there; together they trivialize the family over the interval."""
    cps = sorted({Fraction(t) for t in checkpoints})
    for t in cps:
        if not 0 <= t <= 1:
            raise StructuralError("checkpoints must lie in [0, 1]")
    n, saved, _, defects = _integrate_with_refinement(pf, tol, cps, max_steps)
    rows_out = []
    all_ok = True
    for t in cps:
        state = saved[int(t * n)]
        phi_f = state[0]
        q_f = state[1] if pf.omega_rep is not None else None
        phi_q, q_q, exact, inv = _certified_maps(pf, t, phi_f, q_f)
        ok = defects[t] <= tol and inv
        all_ok = all_ok and ok
        rows_out.append(TrivializationCheckpoint(t, phi_q, q_q, defects[t], exact, inv))
    return TrivializationReport(n, tol, rows_out, all_ok)


# -- loop monodromy two ways ------------------------------------------------------------------


@dataclass
class MonodromyReport:
    match: bool
    matched_exactly: bool
    exact_transport: bool
    max_diff: float
    loop: Tuple[int, ...]
    by_degree: Dict[int, Tuple[QMatrix, QMatrix]]
    steps: int


def monodromy_check(pf: PathFamily, lsf: LocalSystemFamily,
                    tol: float = 1e-8) -> MonodromyReport:
    """Loop holonomy computed two ways and compared degree by degree.

    The chart route composes the transition-induced maps on cohomology
    around the cyclic cover in increasing index order.  The transport
    route takes the inverse pullback along the integrated time-1 map.
    """
    _require_valid_family(lsf)
    tr = parallel_transport(pf, tol)
    if not tr.is_loop:
        raise StructuralError("path family endpoints carry different structure")
    cover = lsf.cover
    ncharts = len(cover.charts)
    if ncharts < 3:
        raise StructuralError("cyclic presentation needs at least three charts")
    expected = sorted([(i, i + 1) for i in range(ncharts - 1)] + [(0, ncharts - 1)])
    if sorted(cover.overlaps) != expected:
        raise StructuralError("cover is not a cyclic chain in index order")
    base = lsf.charts[0].algebra
    if base.rank != pf.rank:
        raise StructuralError("basepoint chart rank differs from the fibre rank")
    base_c = [[[base.structure[i][j][k].constant_term() for k in range(pf.rank)]
               for j in range(pf.rank)] for i in range(pf.rank)]
    if base_c != pf.structure_at(Fraction(0)):
        raise StructuralError("basepoint chart does not carry the time-0 fibre")
    lcs = _chart_cohomology(lsf)
    loop = tuple(range(ncharts)) + (0,)
    edge = _edge_maps(lsf, lcs)
    by_deg: Dict[int, Tuple[QMatrix, QMatrix]] = {}
    max_diff = 0.0
    match = True
    exactly = True
    for q in range(pf.rank + 1):
        hol = _holonomy(edge, loop, q)
        monq = tr.mon[q]
        by_deg[q] = (hol, monq)
        if hol.nrows != monq.nrows:
            match = False
            exactly = False
            continue
        diff = 0.0
        for ra, rb in zip(hol.rows, monq.rows):
            for x, y in zip(ra, rb):
                diff = max(diff, abs(float(x - y)))
        max_diff = max(max_diff, diff)
        exactly = exactly and hol == monq
        match = match and diff <= tol
    return MonodromyReport(match, exactly, tr.exact, max_diff, loop, by_deg,
                           tr.steps)


# -- the flat cohomology bundle over a chart graph --------------------------------------------


@dataclass
class GaussManinBundle:
    vertex_betti: Dict[int, Tuple[int, ...]]
    edge_maps: Dict[Tuple[int, int], Dict[int, QMatrix]]
    degree_preserving: bool
    flat_over_triples: bool
    cycle_holonomies: List[Tuple[Tuple[int, ...], Dict[int, QMatrix]]]


def gauss_manin(lsf: LocalSystemFamily,
                cover: Optional[CoverDatum] = None) -> GaussManinBundle:
    """Per-chart cohomology with transition-induced edge maps.

    Edge maps are checked to be degree-preserving isomorphisms; holonomy
    is reported around every declared triangle (where it must be the
    identity) and around a cycle basis of the chart graph.
    """
    _require_valid_family(lsf, cover)
    cover = lsf.cover
    lcs = _chart_cohomology(lsf)
    vertex = {i: tuple(lc.betti) for i, lc in enumerate(lcs)}
    edge = _edge_maps(lsf, lcs)
    edge_maps: Dict[Tuple[int, int], Dict[int, QMatrix]] = {}
    deg_ok = True
    for (i, j) in cover.overlaps:
        per: Dict[int, QMatrix] = {}
        for q in range(len(lcs[i].betti)):
            m = edge(i, j, q)
            bi = lcs[i].betti[q]
            bj = lcs[j].betti[q] if q < len(lcs[j].betti) else 0
            if bi != bj or m.rank() != bi:
                deg_ok = False
            per[q] = m
        edge_maps[(i, j)] = per
    if not deg_ok:
        raise ValidationFailure("an edge map fails to be a graded isomorphism",
                                {"kind": "not_iso"})
    flat = True
    for (i, j, k) in cover.triples:
        for q in range(len(lcs[i].betti)):
            hol = _holonomy(edge, (i, j, k, i), q)
            if not (hol - QMatrix.identity(hol.nrows)).is_zero():
                flat = False
    cycle_hol = [(nodes, {q: _holonomy(edge, nodes, q)
                          for q in range(len(lcs[nodes[0]].betti))})
                 for nodes in _chart_forest(cover)[1]]
    return GaussManinBundle(vertex, edge_maps, deg_ok, flat, cycle_hol)

