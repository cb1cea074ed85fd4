"""Structured maps into an algebroid patch: transversality and pullbacks.

Supported map shapes:

* identity: returns the data unchanged.
* projection: add fibre coordinates.
* slice (coordinate inclusion): set a declared set of coordinates to zero.
* point: inclusion of a rational point; the pullback is the isotropy there.
* rescale: fix base coordinates and scale the positive-weight ones by a
  rational t; for t = 0 the scaled coordinates are set to zero and lifted
  back as fibre directions.

Every kind but the identity is one construction, the bundle picture: the
map is written in coordinates (each old coordinate a multiple of a new one
or a constant), and the pullback is the kernel of [dphi | -anchor o phi]
on the pairs (X, u) of a tangent vector and a pulled-back section, as
computed by algebroid.kernel_subalgebroid: a frame solved through a unit
pivot submatrix at the origin, its bracket closure up to the certified
order, its anchor and the carried connection.

Transversality at a point is the exact rank condition: image of the map
differential plus image of the anchor spans the tangent space.  Along a
slice the convention is origin plus symbolic generic rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .algebroid import LieAlgebroidPatch, Representation, _submersion_ranks, kernel_subalgebroid
from .cohomology import (CEComplex, _boundaries, _check_window, _degree_list,
                         _weight_cohomology, _windowed_row, weight_cohomology)
from .errors import LabError, StructuralError, ValidationFailure
from .linalg import SparseRow, _axpy
from .ratpoly import TruncatedPoly, WeightAssignment, minors, poly_matrix_rank


@dataclass
class StructuredMap:
    """A map with enough declared structure to pull algebroids back."""

    kind: str
    keep: Tuple[int, ...] = ()                  # slice: kept coordinate indices
    at: Tuple[Fraction, ...] = ()               # point: the rational point
    fibre_names: Tuple[str, ...] = ()           # projection: appended coordinates
    fibre_weights: Optional[Tuple[int, ...]] = None
    t: Optional[Fraction] = None                # rescale: scaling factor
    scaled: Tuple[int, ...] = ()                # rescale: scaled coordinate indices

    KINDS = ("identity", "projection", "slice", "point", "rescale")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise StructuralError(f"unknown structured map kind {self.kind!r}")


@dataclass
class TransversalityReport:
    transverse: bool
    details: List[dict] = field(default_factory=list)
    certificate: Optional[List[List[Fraction]]] = None


def _slice_images(n: int, keep: Sequence[int]) -> List[Tuple]:
    """Coordinate images of the slice: x_l -> y_(position of l in keep) for
    a kept l, x_l -> 0 otherwise."""
    return [(1, (keep.index(l),)) if l in keep else (0, ()) for l in range(n)]


def _slice_block(a: LieAlgebroidPatch, removed: Sequence[int], keep: Sequence[int]
                 ) -> List[List[TruncatedPoly]]:
    """Removed-coordinate components of the anchor, restricted to the slice.

    Rows are removed coordinates, columns frame elements; entries live in
    the slice ring (kept variables only).
    """
    images = _slice_images(a.n_vars, keep)
    return [[a.anchor[i][l].substitute(len(keep), images) for i in range(a.rank)]
            for l in removed]


def _positive_weight(a: LieAlgebroidPatch) -> List[int]:
    """Coordinates of positive weight: the ones scaling moves."""
    return [] if a.weights is None else [l for l, w in enumerate(a.weights.weights) if w > 0]


def _rescaled(phi: StructuredMap, a: LieAlgebroidPatch) -> List[int]:
    """The coordinates a rescale map scales: the declared ones, else every
    coordinate of positive weight."""
    if phi.t is None:
        raise StructuralError("rescale map needs a scale factor")
    return _coordinate_subset(phi.scaled, a, "scaled") or _positive_weight(a)


def _coordinate_subset(idxs: Sequence[int], a: LieAlgebroidPatch, what: str) -> List[int]:
    idxs = list(idxs)
    if any(not 0 <= l < a.n_vars for l in idxs) or len(set(idxs)) != len(idxs):
        raise StructuralError(f"bad {what} coordinate set")
    return idxs


def transversality_check(phi: StructuredMap, a: LieAlgebroidPatch) -> TransversalityReport:
    """Does the image of the map differential plus the anchor image span
    the tangent space?  A point is checked exactly there; a slice at the
    origin and on the symbolic generic stratum."""
    n = a.n_vars
    if phi.kind in ("identity", "projection"):
        return TransversalityReport(True, [{"stratum": "all", "reason": "submersion"}])

    if phi.kind == "point":
        pt = phi.at if phi.at else tuple(Fraction(0) for _ in range(n))
        if len(pt) != n:
            raise StructuralError("point has wrong arity for the patch")
        m = a.anchor_at(pt).transpose()     # coords x frame
        rank = m.rank()
        ok = rank == n
        cert = m.image_basis() if ok else None
        return TransversalityReport(ok, [{"stratum": str(tuple(map(str, pt))),
                                          "rank": rank, "needed": n}], cert)

    if phi.kind == "slice":
        keep = _coordinate_subset(phi.keep, a, "kept")
        removed = [l for l in range(n) if l not in keep]
        if not removed:
            return TransversalityReport(True, [{"stratum": "all", "reason": "identity slice"}])
        strata = [("origin", [Fraction(0)] * len(keep)), ("generic", None)]
        details = [{"stratum": label, "rank": rank, "needed": len(removed)}
                   for label, rank in _submersion_ranks(_slice_block(a, removed, keep), strata)]
        return TransversalityReport(all(d["rank"] == len(removed) for d in details), details)

    if phi.kind == "rescale":
        scaled = _rescaled(phi, a)
        if phi.t != 0:
            return TransversalityReport(True, [{"stratum": "all",
                                                "reason": f"diffeomorphism (t = {phi.t})"}])
        keep = [l for l in range(n) if l not in scaled]
        return transversality_check(StructuredMap("slice", keep=tuple(keep)), a)

    raise StructuralError(f"unhandled kind {phi.kind!r}")


@dataclass
class PullbackReport:
    kind: str
    rank: int
    transversality: Optional[TransversalityReport]
    frame_note: List[str] = field(default_factory=list)


def pullback_structured(phi: StructuredMap, a: LieAlgebroidPatch,
                        rho: Optional[Representation] = None
                        ) -> Tuple[LieAlgebroidPatch, Optional[Representation], PullbackReport]:
    """Pull the algebroid (and optionally a representation) back along phi.

    Every kind but the identity is one bundle-picture kernel, _pullback.
    Raises ValidationFailure when the required transversality fails.
    """
    if phi.kind == "identity":
        rep = PullbackReport("identity", a.rank, TransversalityReport(True))
        return a, rho, rep

    if phi.kind == "slice":
        return _pullback_slice(phi, a, rho)[:3]

    n = a.n_vars
    if phi.kind == "point":
        trans = _require_transverse(phi, a, "anchor is not surjective at the point")
        pt = phi.at if phi.at else tuple(Fraction(0) for _ in range(n))
        out, rho2, _, _ = _pullback(a, rho, (), None, [(v, ()) for v in pt],
                                    _named(a, "isotropy"), False, isotropy=True)
        note = [f"isotropy rank {out.rank} at {tuple(str(v) for v in pt)}"]
        return out, rho2, PullbackReport("point", out.rank, trans, note)

    if phi.kind == "projection":
        names = a.var_names + tuple(phi.fibre_names)
        if len(set(names)) != len(names):
            raise StructuralError("fibre coordinate names collide with the base chart")
        weights = None
        if phi.fibre_weights is not None and (a.weights is not None or n == 0):
            base_w = a.weights.weights if a.weights is not None else ()
            weights = WeightAssignment(base_w + tuple(phi.fibre_weights))
        out, rho2, _, _ = _pullback(a, rho, names, weights, [(1, (l,)) for l in range(n)],
                                    _named(a, "lift"), weights is not None)
        note = [f"lifted frame ({a.rank}) plus fibre tangent frame ({len(phi.fibre_names)})"]
        return out, rho2, PullbackReport("projection", out.rank, TransversalityReport(True), note)

    if phi.kind == "rescale":
        scaled = _rescaled(phi, a)
        t = Fraction(phi.t)
        if t:
            images = [(t if l in scaled else 1, (l,)) for l in range(n)]
            name = (a.name + f".rescale({t})") if a.name else "rescale"
            out, rho2, _, _ = _pullback(a, rho, a.var_names, a.weights, images, name,
                                        a.frame_weights is not None)
            return out, rho2, PullbackReport("rescale", out.rank, TransversalityReport(True),
                                             [f"diffeomorphic rescale by t = {t}"])
        # zero scale: fix the scaled coordinates at zero and lift them back
        trans = _require_transverse(phi, a, "slice is not transverse to the anchor image")
        keep = [l for l in range(n) if l not in scaled]
        out, rho2, pivots, _ = _pullback(a, rho, *_zero_chart(a, keep, scaled),
                                         _named(a, "slice.lift"), a.weights is not None)
        note = ["zero scale: slice to the fixed locus, then lift", _pivot_note(pivots)]
        return out, rho2, PullbackReport("rescale", out.rank, trans, note)

    raise StructuralError(f"unhandled kind {phi.kind!r}")


def _named(a: LieAlgebroidPatch, suffix: str) -> str:
    return f"{a.name}.{suffix}" if a.name else suffix


def _pivot_note(pivots: Sequence[int]) -> str:
    return f"kernel frame solved through pivot frame elements {[p + 1 for p in pivots]}"


def _require_transverse(phi: StructuredMap, a: LieAlgebroidPatch, message: str
                        ) -> TransversalityReport:
    trans = transversality_check(phi, a)
    if not trans.transverse:
        raise ValidationFailure(message, {"kind": "not_transverse", "details": trans.details})
    return trans


def _zero_chart(a: LieAlgebroidPatch, keep: Sequence[int], lifted: Sequence[int] = ()):
    """Names, weights and coordinate images of the map that keeps the
    coordinates keep, sets the others to zero and adds the coordinates
    lifted back as new directions that no old coordinate follows."""
    chart = list(keep) + list(lifted)
    weights = WeightAssignment(tuple(a.weights.weights[l] for l in chart)) \
        if a.weights is not None else None
    return tuple(a.var_names[l] for l in chart), weights, _slice_images(a.n_vars, keep)


def _pullback_slice(phi: StructuredMap, a: LieAlgebroidPatch,
                    rho: Optional[Representation]):
    """Slice pullback, and the kernel frame in a's frame as a fourth value."""
    trans = _require_transverse(phi, a, "slice is not transverse to the anchor image")
    out, rho2, pivots, frame = _pullback(a, rho, *_zero_chart(a, phi.keep), _named(a, "slice"),
                                         a.frame_weights is not None)
    return out, rho2, PullbackReport("slice", out.rank, trans, [_pivot_note(pivots)]), frame


def _pullback(a: LieAlgebroidPatch, rho: Optional[Representation], names: Tuple[str, ...],
              weights: Optional[WeightAssignment], images: Sequence, name: str,
              frame_weighted: bool, isotropy: bool = False):
    """The pullback along the coordinate map x_m = images[m] (as in
    TruncatedPoly.substitute) from the chart names: the pairs (X, u) of
    TM' + phi*A with dphi(X) = anchor(u), the kernel of [dphi | -anchor o phi].

    The big frame is the fields d/dy_l that some x_m follows, a's frame
    (zero anchor, bracket c o phi, connection gamma o phi), then the fields
    that phi collapses; frame_weighted records the weights of the kept
    columns (-w_l along d/dy_l).  An isotropy is a Lie algebra at jet
    order 0 with no grading.  Returns the patch, the representation, and
    the pivots and kernel frame in a's frame.
    """
    n, r, n2 = a.n_vars, a.rank, len(names)
    cap = 0 if isotropy else a.jet_order

    def pull(p: TruncatedPoly) -> TruncatedPoly:
        return p.substitute(n2, images).truncate(cap)

    dphi = [[TruncatedPoly.var(n, m).substitute(n2, images).deriv(l) for l in range(n2)]
            for m in range(n)]
    followed = [l for l in range(n2) if any(row[l] for row in dphi)]
    # the coordinate of each big frame field, None along a's frame
    fields = followed + [None] * r + [l for l in range(n2) if l not in followed]
    nf, rb = len(followed), len(fields)
    z, one = TruncatedPoly.zero(n2, cap), TruncatedPoly.const(n2, 1, cap)
    anchor = [[one if j == l else z for j in range(n2)] for l in fields]
    structure = [[[z] * rb for _ in range(rb)] for _ in range(rb)]
    for i in range(r):
        for j in range(r):
            structure[nf + i][nf + j][nf:nf + r] = map(pull, a.structure[i][j])
    block = [[-pull(a.anchor[c - nf][m]) if l is None else dphi[m][l]
              for c, l in enumerate(fields)] for m in range(n)]
    gammas = None
    if rho is not None:
        zg = [[z] * rho.rank for _ in range(rho.rank)]
        gammas = [zg] * nf + [[list(map(pull, row)) for row in g] for g in rho.gammas] \
            + [zg] * (rb - nf - r)
    k = kernel_subalgebroid(LieAlgebroidPatch(names, cap, rb, anchor, structure), block,
                            a.certified_order(), gammas)

    w = weights.weights if weights is not None else (0,) * n2
    col_weights = [a.frame_weight(c - nf) if l is None else -w[l] for c, l in enumerate(fields)]
    fw = tuple(col_weights[t] for t in k.free) if frame_weighted else None
    out = LieAlgebroidPatch(names, cap, len(k.frame), k.anchor, k.structure,
                            weights=weights, frame_weights=fw, name=name)
    rho2 = None if rho is None else Representation(
        out, rho.rank, k.gammas, fibre_weights=None if isotropy else rho.fibre_weights,
        name=rho.name)
    return (out, rho2, [p - nf for p in k.pivots if p >= nf],
            [row[nf:nf + r] for row in k.frame])


# -- the rescaling tri-equivalence ---------------------------------------------------


@dataclass
class RescalingReport:
    zero_section_transverse: bool
    all_scales_transverse: bool
    family_fibrewise_transverse: bool
    agree: bool
    strata: List[dict] = field(default_factory=list)


def rescaling_family(a: LieAlgebroidPatch) -> RescalingReport:
    """Three computations that the scaling normal form says must agree:

    (i) the zero section is transverse to the anchor image;
    (ii) every scale map m_t is transverse (symbolic t, exact t = 0);
    (iii) the pulled-back family over the t-line is fibrewise transverse,
          phrased as rank agreement of the fibre solvability system.
    """
    if a.weights is None:
        raise StructuralError("rescaling family needs a weight assignment")
    n = a.n_vars
    scaled = _positive_weight(a)
    base = [l for l in range(n) if l not in scaled]
    strata: List[dict] = []

    # (i) zero-section transversality: removed block at fibre = 0.
    zero_section = [("origin", [Fraction(0)] * len(base)), ("generic", None)]
    r0, rg = (rank for _, rank in _submersion_ranks(_slice_block(a, scaled, base), zero_section))
    verdict_i = (r0 == len(scaled)) and (rg == len(scaled))
    strata.append({"check": "zero_section", "origin_rank": r0, "generic_rank": rg,
                   "needed": len(scaled)})

    # (ii) scale maps: work in variables (x, y, t).
    nt = n + 1
    t_idx = n
    m_t = [(1, (l, t_idx) if l in scaled else (l,)) for l in range(n)]

    def at_scaled(p: TruncatedPoly) -> TruncatedPoly:
        # p(x, t*y) as an exact polynomial in (x, y, t)
        return p.truncate(None).substitute(nt, m_t)

    zt = TruncatedPoly.zero(nt)
    onet = TruncatedPoly.const(nt, 1)
    tvar = TruncatedPoly.var(nt, t_idx)
    dm_cols = []
    for l in range(n):
        col = [zt] * n
        col[l] = tvar if l in scaled else onet
        dm_cols.append(col)
    anchor_cols = [[at_scaled(a.anchor[i][l]) for l in range(n)] for i in range(a.rank)]
    m2 = [[dm_cols[c][row] for c in range(n)] + [anchor_cols[i][row] for i in range(a.rank)]
          for row in range(n)]
    rank_sym = poly_matrix_rank(m2)
    strata.append({"check": "scale_maps", "stratum": "generic (x, y, t)",
                   "rank": rank_sym, "needed": n})
    # t = 0 exactly: dm_0 has the base unit columns only and the anchor is
    # taken at (x, 0), which leaves the zero-section block and its ranks.
    verdict_ii = (rank_sym == n) and (r0 == len(scaled)) and (rg == len(scaled))
    strata.append({"check": "scale_maps", "stratum": "t = 0",
                   "origin_rank": r0, "generic_rank": rg, "needed": len(scaled)})

    # (iii) fibrewise transversality over the t-line: the time direction is
    # reachable iff the fibre coordinate vector lies in the span of t-scaled
    # fibre units and the scaled-coordinate anchor block (the last column is
    # that target), on the generic stratum and with t -> 0 substituted.
    fib_rows = [[(tvar if li == lj else zt) for lj in range(len(scaled))]
                + [at_scaled(a.anchor[i][l]) for i in range(a.rank)]
                + [TruncatedPoly.var(nt, l)]
                for li, l in enumerate(scaled)]
    t_to_zero = [(1, (l,)) for l in range(n)] + [(0, ())]
    verdict_iii = True
    for label, rows in (("generic (x, y, t)", fib_rows),
                        ("t = 0", [[e.substitute(n, t_to_zero) for e in row]
                                   for row in fib_rows])):
        rank_no_y = poly_matrix_rank([row[:-1] for row in rows])
        rank_with_y = poly_matrix_rank(rows)
        strata.append({"check": "family_fibres", "stratum": label,
                       "rank": rank_no_y, "rank_with_target": rank_with_y})
        verdict_iii = verdict_iii and rank_no_y == rank_with_y

    agree = verdict_i == verdict_ii == verdict_iii
    if not agree:
        raise LabError(
            f"rescaling equivalences disagree: {(verdict_i, verdict_ii, verdict_iii)}; "
            f"strata: {strata}")
    return RescalingReport(verdict_i, verdict_ii, verdict_iii, agree, strata)


# -- scaling homotopy -------------------------------------------------------------------


@dataclass
class EulerSection:
    """Section coefficients whose anchor is the weighted Euler vector field."""

    coeffs: List[TruncatedPoly]


def standard_euler_section(a: LieAlgebroidPatch) -> EulerSection:
    """For patches whose final frame elements are the coordinate vector
    fields (tangent blocks), scale those by the coordinate weights."""
    if a.weights is None:
        raise StructuralError("patch has no weight assignment")
    n = a.n_vars
    coeffs = [TruncatedPoly.zero(n, a.jet_order) for _ in range(a.rank)]
    offset = a.rank - n
    if offset < 0:
        raise StructuralError("frame too small for a tangent block")
    for l, w in enumerate(a.weights.weights):
        if w:
            coeffs[offset + l] = TruncatedPoly.var(n, l, a.jet_order).scale(w)
    return EulerSection(coeffs)


@dataclass
class EulerReport:
    anchor_is_euler_field: bool
    identity_checked_elements: int
    identity_ok: bool
    vanishing_weights_ok: bool
    failures: List[dict] = field(default_factory=list)


def euler_homotopy_verify(a: LieAlgebroidPatch, rho: Optional[Representation],
                          euler: Optional[EulerSection] = None,
                          max_deg: int = 4, degrees: Optional[Sequence[int]] = None
                          ) -> EulerReport:
    """Verify the contraction homotopy behind weighted vanishing.

    Checks, exactly: the section's anchor is the Euler field; the
    anticommutator of the differential with contraction by the section
    acts on every basis cochain as multiplication by its weight; and the
    cross-check that nonzero-weight strata report zero cohomology.
    """
    if a.weights is None:
        raise StructuralError("patch has no weight assignment")
    cx = CEComplex(a, rho)
    cx.require_graded()
    if euler is None:
        euler = standard_euler_section(a)
    if len(euler.coeffs) != a.rank:
        raise StructuralError("section coefficient arity mismatch")
    n = a.n_vars
    failures: List[dict] = []

    anchor_ok = True
    for l in range(n):
        acc = TruncatedPoly.zero(n)
        for i in range(a.rank):
            acc = acc + euler.coeffs[i].truncate(None) * a.anchor[i][l].truncate(None)
        want = TruncatedPoly.var(n, l).scale(a.weights.weights[l])
        if acc != want:
            anchor_ok = False
            failures.append({"kind": "anchor", "coordinate": a.var_names[l]})
    if not anchor_ok:
        raise ValidationFailure("section anchor is not the weighted Euler field",
                                {"kind": "not_euler", "failures": failures})

    degrees = _degree_list(degrees, a.rank)
    checked = 0
    identity_ok = True
    for q in degrees:
        for elem in cx.window_basis(q, max_deg):
            w = cx.element_weight(elem)
            lhs: Dict = {}
            for key, val in cx.contract_with(euler.coeffs, elem).items():
                _axpy(lhs, val, cx.d_of_element(key))
            for key, val in cx.d_of_element(elem).items():
                _axpy(lhs, val, cx.contract_with(euler.coeffs, key))
            want = {elem: Fraction(w)} if w else {}
            checked += 1
            if lhs != want:
                identity_ok = False
                failures.append({"kind": "cartan", "element": elem, "weight": w,
                                 "got": sorted(lhs.items())[:3]})
    vanish_ok = True
    wrep = weight_cohomology(a, rho, window=(max(min(1, max_deg), max_deg - 2), max_deg, 2))
    for row in wrep.rows:
        if row.weight != 0 and row.betti != 0 and (row.exact or row.stabilized):
            vanish_ok = False
            failures.append({"kind": "vanishing", "degree": row.degree,
                             "weight": row.weight, "betti": row.betti})
    return EulerReport(anchor_ok, checked, identity_ok, vanish_ok, failures)


# -- transversal restriction isomorphism -------------------------------------------------


@dataclass
class TransversalIsoRow:
    degree: int
    betti_total: int
    betti_slice: int
    equal: bool
    restriction_surjective: bool


@dataclass
class TransversalIsoReport:
    ok: bool
    rows: List[TransversalIsoRow]
    slice_rank: int
    window: Tuple[int, int, int]


def _restrict_cochain(a: LieAlgebroidPatch, vec: SparseRow, basis: List, q: int,
                      keep: Sequence[int], minor, r2: int, index: Dict) -> SparseRow:
    """Evaluate a sparse degree-q cochain on the slice kernel frame and
    restrict coefficients to the slice ring, as a sparse cochain.

    minor(jt, wedge) is the frame-coefficient minor at slice frame rows jt
    and big frame columns wedge; index numbers the slice window basis."""
    images = _slice_images(a.n_vars, keep)
    out: SparseRow = {}
    for j, coeff in vec.items():
        mono, wedge, beta = basis[j]
        mono_slice = TruncatedPoly.monomial(a.n_vars, mono, 1).substitute(len(keep), images)
        if mono_slice.is_zero():
            continue
        for jt in combinations(range(r2), q):
            det = minor(jt, wedge)
            if det.is_zero():
                continue
            for m2, v in (det * mono_slice).c.items():
                key = (m2, jt, beta)
                if key not in index:
                    raise StructuralError("restricted cochain leaves the window")
                out[index[key]] = out.get(index[key], 0) + coeff * v
    return {i: x for i, x in out.items() if x}


def transversal_iso_check(a: LieAlgebroidPatch, rho: Optional[Representation],
                          keep: Sequence[int],
                          window: Tuple[int, int, int] = (3, 5, 3)
                          ) -> TransversalIsoReport:
    """Restriction to a transversal slice: equal betti numbers per degree
    and surjectivity of the restriction on representative cocycles.

    betti_total sums the weight strata of the total complex; betti_slice
    is the slice's jet cohomology on the window, the number
    `jet_cohomology` of the slice patch prints for the last window N = b."""
    _check_window(window)
    # the pullback frame in big coordinates evaluates cochains on the slice
    sliced, rho_s, _rep, frame = _pullback_slice(
        StructuredMap("slice", keep=tuple(keep)), a, rho)

    minor = minors([[e.truncate(None) for e in row] for row in frame],
                   TruncatedPoly.const(len(keep), 1))
    cx = CEComplex(a, rho)
    cx.require_graded()
    slice_cx = CEComplex(sliced, rho_s)
    end = window[1]
    rows: List[TransversalIsoRow] = []
    for q in range(max(a.rank, sliced.rank) + 1):
        betti_s = _windowed_row(slice_cx, q, None, window)[0].betti
        # total side: sum the weight strata at the same degree
        wrep = _weight_cohomology(cx, [q], window)
        betti_a = sum(row.betti for row in wrep.rows if row.degree == q)
        # restriction surjectivity on representatives: the rank of the
        # restricted cocycles modulo the slice boundaries at this window;
        # onto a zero slice class space it holds with nothing to restrict
        surjective = True
        if betti_s:
            basis_s = slice_cx.window_basis(q, end)
            bnd_ech = _boundaries(slice_cx, slice_cx.window_basis(
                q - 1, end + slice_cx.degree_shift() + 1) if q else [], basis_s)
            basis_big = cx.window_basis(q, end)
            cocycles = cx.cocycles(basis_big, cx.window_basis(q + 1, end + cx.degree_shift()))
            index = {e: i for i, e in enumerate(basis_s)}
            img_rank = sum(bnd_ech.add(_restrict_cochain(a, zvec, basis_big, q, keep, minor,
                                                         len(frame), index)) is not None
                           for zvec in cocycles)
            surjective = img_rank >= betti_s
        rows.append(TransversalIsoRow(q, betti_a, betti_s, betti_a == betti_s, surjective))
    ok = all(r.equal and r.restriction_surjective for r in rows)
    return TransversalIsoReport(ok, rows, sliced.rank, window)
