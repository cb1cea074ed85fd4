"""Parallel transport of a moving Lie fibre along the unit interval.

The fibre structure constants and representation matrices depend
polynomially on a time variable; a generator matrix moves the frame by
the linear flow dPhi/dt = omega(t) Phi.  The family is a Lie algebroid
over the line t: the fibre frame plus a horizontal section h with anchor
d/dt, whose bracket with the fibre frame is -omega.  It is validated by
the algebroid and representation checks of that patch, where the Jacobi
identity and the curvature through h say the motion is flat, and the
frozen fibre at time t is one `ChartData`.  The flow is its Peano-Baker
series summed over Q[t]: exact when the series terminates, else a
rational centre with a certified tail radius.  On top of it sit loop
monodromy on cohomology, trivialization data at checkpoints, and the
flat cohomology bundle over a chart graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebroid import (LieAlgebroidPatch, Representation, ValidationReport,
                        trivial_representation, validate_algebroid, validate_representation)
from .cohomology import lie_algebra_cohomology
from .covers import (ChartData, CoverDatum, LocalSystemFamily, _chart_cohomology,
                     _chart_forest, _edge_maps, _fibre_table, _holonomy,
                     _induced_on_cohomology, _morphism_failure)
from .errors import LabError, StructuralError, ValidationFailure
from .linalg import QMatrix
from .ratpoly import TruncatedPoly, _poly_mat_mul, parse_poly


class IntegrationError(LabError):
    """The series term budget ran out before the tail bound met the tolerance."""


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

    def line_patch(self) -> Tuple[LieAlgebroidPatch, Optional[Representation]]:
        """The family as an algebroid over the line t, with its representation.

        The frame is e_1 .. e_rank followed by the horizontal section h, with
        anchor h -> d/dt, [e_i, e_j] as given and [h, e_i] = -sum_k omega_ki e_k;
        the connection is nabla_(e_i) = G_i and nabla_h = -omega_rep.  The
        Jacobi identity and the curvature through h say the motion is flat.
        The jet order is three times the largest t-degree d of the data (at
        least 3), so the certified order is at least 2d and every residual
        is checked in full.
        """
        r, z = self.rank, TruncatedPoly.zero(1)
        data = [e for table in (self.structure, self.gammas or [])
                for plane in table for row in plane for e in row]
        data += [e for w in (self.omega, self.omega_rep or []) for row in w for e in row]
        order = 3 * max([1] + [e.total_degree() for e in data])
        col = [[self.omega[k][i] for k in range(r)] + [z] for i in range(r)]   # [e_i, h]
        c = [[self.structure[i][j] + [z] for j in range(r)] + [col[i]] for i in range(r)]
        c.append([[-e for e in col[i]] for i in range(r)] + [[z] * (r + 1)])
        anchor = [[z] for _ in range(r)] + [[TruncatedPoly.const(1, 1)]]
        algebra = LieAlgebroidPatch(("t",), order, r + 1, anchor, c, name=self.name)
        if self.gammas is None:
            return algebra, None
        nabla_h = [[-e for e in row] for row in self.omega_rep]
        return algebra, Representation(algebra, self.rep_rank, self.gammas + [nabla_h])

    def fibre_at(self, t) -> ChartData:
        """The frozen fibre at time t as constant data over a point, with its
        representation built over that same patch."""
        def frozen(table):
            return [[[TruncatedPoly.const(0, e.evaluate((Fraction(t),)), 0) for e in row]
                     for row in plane] for plane in table]

        algebra = LieAlgebroidPatch((), 0, self.rank, [[] for _ in range(self.rank)],
                                    frozen(self.structure), name=self.name)
        return ChartData(algebra, None if self.gammas is None else
                         Representation(algebra, self.rep_rank, frozen(self.gammas)))

    def is_loop(self) -> bool:
        return self.fibre_at(0) == self.fibre_at(1)


def validate_path_family(pf: PathFamily) -> ValidationReport:
    """The algebroid checks of the family's line patch, then the flatness of
    its representation, if any, in one report."""
    algebra, rep = pf.line_patch()
    reports = [validate_algebroid(algebra)]
    if rep is not None:
        reports.append(validate_representation(rep))
    return ValidationReport(all(vr.ok for vr in reports),
                            min(vr.certified_order for vr in reports),
                            [c for vr in reports for c in vr.checks])


def _require_valid(pf: PathFamily) -> None:
    """Raise on the first failing identity: one through the horizontal
    section h (frame index rank + 1) says the motion is not flat, any other
    that the frozen fibre is not a Lie algebra with a flat connection."""
    bad = validate_path_family(pf).failing()
    if not bad:
        return
    witness = bad[0].witness
    if pf.rank + 1 in witness["indices"]:
        raise ValidationFailure("structure motion does not match the generator",
                                {"kind": "not_flat", **witness})
    raise ValidationFailure("frozen fibre violates the Lie axioms",
                            {"kind": "frozen_axioms", **witness})


# -- the flow -------------------------------------------------------------------------------


def _peano_baker(omega: List[List[TruncatedPoly]], tol: Fraction, max_steps: int):
    """Flow of dPhi/dt = omega(t) Phi, Phi(0) = I, on [0, 1] as the sum of
    the Peano-Baker terms P_0 = I, P_k = int_0^t omega P_(k-1): the
    polynomial matrix sum_(j<=K) P_j, the index K and its radius.

    The radius is 0 when P_K vanishes; the sum is then the flow, and
    its equation is checked as a polynomial identity.  Otherwise the radius
    bounds every entry of the tail on [0, 1] by M^(K+1)/(K+1)! e^M, with
    e^M <= 3^ceil(M) and M the largest row sum of coefficient sizes of
    omega; summing stops at the first K whose radius is at most tol.
    """
    r = len(omega)
    ident = QMatrix.identity(r).rows
    phi = term = [[TruncatedPoly.const(1, x) for x in row] for row in ident]
    m = max((sum(abs(c) for p in row for c in p.c.values()) for row in omega),
            default=Fraction(0))
    growth = None
    for k in range(1, max_steps + 1):
        term = [[TruncatedPoly(1, {(e + 1,): c / (e + 1) for (e,), c in p.c.items()})
                 for p in row] for row in _poly_mat_mul(omega, term)]
        if not any(p for row in term for p in row):
            derivative = [[p.deriv(0) for p in row] for row in phi]
            if ([[p.constant_term() for p in row] for row in phi] != ident
                    or derivative != _poly_mat_mul(omega, phi)):
                raise LabError("terminated series fails dPhi/dt = omega Phi")
            return phi, k, Fraction(0)
        phi = [[a + b for a, b in zip(x, y)] for x, y in zip(phi, term)]
        if m >= max_steps + 1:
            # M^(K+1)/(K+1)! >= 1 for every K within the budget, so every
            # radius exceeds 1; an omega whose values generate a nilpotent
            # algebra has terminated by K = r
            if k >= r:
                raise IntegrationError(
                    f"series tail bound exceeds 1 within {max_steps} terms: "
                    f"generator norm {float(m):.3e}")
            continue
        if growth is None:
            growth = 3 ** math.ceil(m)
        radius = m ** (k + 1) / math.factorial(k + 1) * growth
        if radius <= tol:
            return phi, k, radius
    raise IntegrationError(f"series tail bound above tolerance {float(tol):.3e} "
                           f"after {max_steps} terms")


def _flows(pf: PathFamily, tol: float, max_steps: int):
    """Series flows of the valid family's frame and, with a representation,
    of its rep frame: their polynomial matrices, the largest term index and
    the largest radius."""
    if not (math.isfinite(tol) and tol > 0):
        raise StructuralError("tolerance must be finite and positive")
    if max_steps < 1:
        raise StructuralError("steps must be positive")
    _require_valid(pf)
    gens = [pf.omega] if pf.omega_rep is None else [pf.omega, pf.omega_rep]
    flows = [_peano_baker(w, Fraction(tol), max_steps) for w in gens]
    return ([phi for phi, _, _ in flows], max(k for _, k, _ in flows),
            max(radius for _, _, radius in flows))


def _certified_maps(pf: PathFamily, t: Fraction, polys, radius: Fraction
                    ) -> Tuple[QMatrix, Optional[QMatrix], bool, bool]:
    """Frame (and fibre) maps at time t from the series flows, with both
    verdicts (exact, invertible).  Exact needs every series terminated
    (radius 0) and the maps to carry the frozen fibre at time 0 to the one
    at t by the fibre-morphism check of `covers`."""
    maps = [QMatrix([[p.evaluate((t,)) for p in row] for row in phi]) for phi in polys]
    phi_q, q_q = maps[0], maps[1] if len(maps) > 1 else None
    exact = (radius == 0
             and _morphism_failure(pf.fibre_at(0), pf.fibre_at(t), phi_q, q_q) is None)
    inv = phi_q.rank() == pf.rank and (q_q is None or q_q.rank() == pf.rep_rank)
    return phi_q, q_q, exact, inv


# -- transport ------------------------------------------------------------------------------


@dataclass
class TransportResult:
    steps: int
    tol: float
    defect: Fraction
    exact: bool
    is_loop: bool
    phi: QMatrix
    q_rep: Optional[QMatrix]
    det_nonzero: bool
    mon: Optional[Dict[int, QMatrix]]


def parallel_transport(pf: PathFamily, tol: float = 1e-8,
                       max_steps: int = 1 << 16) -> TransportResult:
    """Time-1 frame map from the Peano-Baker series of the frame flow,
    summed over Q[t] with at most max_steps terms.

    steps is the largest term count and defect the largest certified
    radius of the frame and rep-frame series.  When both series terminate
    the map is exact, and the loop action on cohomology is the exact one;
    otherwise it is induced by the centre of the radius-defect ball.
    """
    polys, steps, radius = _flows(pf, tol, max_steps)
    phi_q, q_q, exact, det_ok = _certified_maps(pf, Fraction(1), polys, radius)
    loop = pf.is_loop()
    mon = _loop_monodromy(pf, phi_q, q_q) if loop and det_ok else None
    return TransportResult(steps, tol, radius, exact, loop, phi_q, q_q, det_ok, mon)


def _loop_monodromy(pf: PathFamily, phi_q: QMatrix,
                    q_q: Optional[QMatrix]) -> Dict[int, QMatrix]:
    # inverse pullback along the time-1 map, degree by degree
    fibre = pf.fibre_at(0)
    lc = lie_algebra_cohomology(fibre.algebra, fibre.rep)
    qm = q_q if q_q is not None else QMatrix.identity(1)
    return {q: _induced_on_cohomology(phi_q, qm, lc, lc, q) for q in range(pf.rank + 1)}


def reverse_path(pf: PathFamily) -> PathFamily:
    """The same motion run backwards: coefficients in 1 - t, negated generator."""
    flip = _compose_one_minus_t
    structure = [[[flip(e) for e in row] for row in plane] for plane in pf.structure]
    omega = [[-flip(e) for e in row] for row in pf.omega]
    gammas = omega_rep = None
    if pf.gammas is not None:
        gammas = [[[flip(e) for e in row] for row in g] for g in pf.gammas]
        omega_rep = [[-flip(e) for e in row] for row in pf.omega_rep]
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
    defect: Fraction
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
    """Frame maps at the requested times, each the series flow evaluated
    there and certified against the frozen structure there; together they
    trivialize the family over the interval.  The one series radius bounds
    every checkpoint."""
    cps = sorted({Fraction(t) for t in checkpoints})
    for t in cps:
        if not 0 <= t <= 1:
            raise StructuralError("checkpoints must lie in [0, 1]")
    polys, steps, radius = _flows(pf, tol, max_steps)
    rows_out = []
    for t in cps:
        phi_q, q_q, exact, inv = _certified_maps(pf, t, polys, radius)
        rows_out.append(TrivializationCheckpoint(t, phi_q, q_q, radius, exact, inv))
    return TrivializationReport(steps, tol, rows_out,
                                all(cp.invertible for cp in rows_out))


# -- loop monodromy two ways ------------------------------------------------------------------


@dataclass
class MonodromyReport:
    match: bool
    matched_exactly: bool
    exact_transport: bool
    max_diff: Fraction
    radius: Fraction
    loop: Tuple[int, ...]
    by_degree: Dict[int, Tuple[QMatrix, QMatrix]]
    steps: int


def monodromy_check(pf: PathFamily, lsf: LocalSystemFamily,
                    tol: float = 1e-8) -> MonodromyReport:
    """Loop holonomy computed two ways and compared degree by degree.

    The chart route composes the transition-induced maps on cohomology
    around the cyclic cover in increasing index order.  The transport
    route takes the inverse pullback along the time-1 map of the series
    flow.  With an exact transport the two match when they are equal;
    otherwise when their largest entry gap is at most tol, and radius is
    the certified radius of the series.
    """
    lcs = _chart_cohomology(lsf)
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
    if lsf.fibre_rank(0) != pf.rank:
        raise StructuralError("basepoint chart rank differs from the fibre rank")
    # no representation means the trivial rank-1 coefficients, as in cohomology
    base, start = (_fibre_table(cd.algebra, cd.rep or trivial_representation(cd.algebra))
                   for cd in (lsf.charts[0], pf.fibre_at(0)))
    if base != start:
        raise StructuralError("basepoint chart does not carry the time-0 fibre")
    loop = tuple(range(ncharts)) + (0,)
    edge = _edge_maps(lsf, lcs)
    by_deg: Dict[int, Tuple[QMatrix, QMatrix]] = {}
    same_dims = True
    gap = Fraction(0)
    for q in range(pf.rank + 1):
        hol, monq = by_deg[q] = (_holonomy(edge, loop, q), tr.mon[q])
        if hol.nrows != monq.nrows:
            same_dims = False
            continue
        gap = max([gap] + [abs(x - y) for ra, rb in zip(hol.rows, monq.rows)
                           for x, y in zip(ra, rb)])
    match = same_dims and (gap == 0 if tr.exact else gap <= Fraction(tol))
    return MonodromyReport(match, match and tr.exact, tr.exact, gap, tr.defect,
                           loop, by_deg, tr.steps)


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
    lcs = _chart_cohomology(lsf, cover)
    cover = lsf.cover
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

