"""Structured maps into an algebroid patch: transversality and pullbacks.

Supported map shapes, each with an explicit pullback construction:

* identity: returns a copy of the data.
* projection: add fibre coordinates; the pullback is the original frame
  lifted horizontally plus the tangent frame of the new fibre directions.
* slice (coordinate inclusion): set a declared set of coordinates to zero;
  the pullback is the vertical subalgebroid of the normal anchor block
  (the removed coordinates), over the slice ring.
* point: inclusion of a rational point; the pullback is the vertical
  subalgebroid of the normal anchor block of the patch evaluated there
  (every coordinate is normal), i.e. the isotropy Lie algebra.
* rescale: fix base coordinates and scale the positive-weight ones by a
  rational t; for t = 0 this is the composite slice-then-projection.

Slice and point pullbacks are both the kernel of a submersion by the
algebroid, computed by algebroid.kernel_subalgebroid: a frame solved
through a unit pivot submatrix at the origin, its bracket closure up to
the certified order, its anchor and the carried connection.

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
from .cohomology import (CEComplex, _check_window, _degree_list, _weight_cohomology,
                         _window_boundaries, weight_cohomology)
from .errors import LabError, StructuralError, ValidationFailure
from .linalg import SparseRow, _axpy, quotient_dim_and_reps
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


def _slice_block(a: LieAlgebroidPatch, removed: Sequence[int], keep: Sequence[int]
                 ) -> List[List[TruncatedPoly]]:
    """Removed-coordinate components of the anchor, restricted to the slice.

    Rows are removed coordinates, columns frame elements; entries live in
    the slice ring (kept variables only).
    """
    return [[a.anchor[i][l].restrict(keep) for i in range(a.rank)] for l in removed]


def transversality_check(phi: StructuredMap, a: LieAlgebroidPatch,
                         point: Optional[Sequence] = None) -> TransversalityReport:
    """Does the image of the map differential plus the anchor image span
    the tangent space?  point=None checks the origin and the symbolic
    generic stratum; a rational point checks exactly there."""
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
        keep = list(phi.keep)
        removed = [l for l in range(n) if l not in keep]
        if not removed:
            return TransversalityReport(True, [{"stratum": "all", "reason": "identity slice"}])
        if point is None:
            strata = [("origin", [Fraction(0)] * len(keep)), ("generic", None)]
        elif len(point) != len(keep):
            raise StructuralError("slice point must use kept coordinates")
        else:
            strata = [(str(tuple(map(str, point))), point)]
        details = [{"stratum": label, "rank": rank, "needed": len(removed)}
                   for label, rank in _submersion_ranks(_slice_block(a, removed, keep), strata)]
        return TransversalityReport(all(d["rank"] == len(removed) for d in details), details)

    if phi.kind == "rescale":
        if phi.t is None:
            raise StructuralError("rescale map needs a scale factor")
        if phi.t != 0:
            return TransversalityReport(True, [{"stratum": "all",
                                                "reason": f"diffeomorphism (t = {phi.t})"}])
        keep = [l for l in range(n) if l not in set(phi.scaled)]
        return transversality_check(StructuredMap("slice", keep=tuple(keep)), a, point)

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

    Raises ValidationFailure when the required transversality fails.
    """
    if phi.kind == "identity":
        rep = PullbackReport("identity", a.rank, TransversalityReport(True))
        return a, rho, rep

    if phi.kind == "projection":
        return _pullback_projection(phi, a, rho)

    if phi.kind == "slice":
        return _pullback_slice(phi, a, rho)[:3]

    if phi.kind == "point":
        return _pullback_point(phi, a, rho)

    if phi.kind == "rescale":
        return _pullback_rescale(phi, a, rho)

    raise StructuralError(f"unhandled kind {phi.kind!r}")


def _pullback_projection(phi: StructuredMap, a: LieAlgebroidPatch,
                         rho: Optional[Representation]):
    n, r = a.n_vars, a.rank
    extra = len(phi.fibre_names)
    names = a.var_names + tuple(phi.fibre_names)
    if len(set(names)) != len(names):
        raise StructuralError("fibre coordinate names collide with the base chart")
    n2 = n + extra
    cap = a.jet_order
    mapping = list(range(n))
    z = TruncatedPoly.zero(n2, cap)
    one = TruncatedPoly.const(n2, 1, cap)
    anchor = [[a.anchor[i][l].remap(n2, mapping).truncate(cap) for l in range(n)]
              + [z] * extra for i in range(r)]
    anchor += [[one if l == n + f else z for l in range(n2)] for f in range(extra)]
    r2 = r + extra
    structure = [[[z for _ in range(r2)] for _ in range(r2)] for _ in range(r2)]
    for i in range(r):
        for j in range(r):
            for k in range(r):
                structure[i][j][k] = a.structure[i][j][k].remap(n2, mapping).truncate(cap)
    weights = None
    fw = None
    if phi.fibre_weights is not None and (a.weights is not None or n == 0):
        base_w = a.weights.weights if a.weights is not None else ()
        weights = WeightAssignment(base_w + tuple(phi.fibre_weights))
        base_fw = a.frame_weights if a.frame_weights is not None else (0,) * r
        fw = base_fw + tuple(-w for w in phi.fibre_weights)
    out = LieAlgebroidPatch(names, cap, r2, anchor, structure, weights=weights,
                            frame_weights=fw, name=(a.name + ".lift") if a.name else "lift")
    rho2 = None
    if rho is not None:
        m = rho.rank
        gam = [[[rho.gammas[i][al][be].remap(n2, mapping).truncate(cap)
                 for be in range(m)] for al in range(m)] for i in range(r)]
        zg = TruncatedPoly.zero(n2, cap)
        gam += [[[zg for _ in range(m)] for _ in range(m)] for _ in range(extra)]
        rho2 = Representation(out, m, gam, fibre_weights=rho.fibre_weights, name=rho.name)
    rep = PullbackReport("projection", r2, TransversalityReport(True),
                         [f"lifted frame ({r}) plus fibre tangent frame ({extra})"])
    return out, rho2, rep


def _pullback_slice(phi: StructuredMap, a: LieAlgebroidPatch,
                    rho: Optional[Representation]):
    """Slice pullback, and the kernel frame in the big frame as a fourth value."""
    n = a.n_vars
    keep = list(phi.keep)
    if any(not 0 <= l < n for l in keep) or len(set(keep)) != len(keep):
        raise StructuralError("bad kept coordinate set")
    removed = [l for l in range(n) if l not in keep]
    trans = transversality_check(phi, a)
    if not trans.transverse:
        raise ValidationFailure("slice is not transverse to the anchor image",
                                {"kind": "not_transverse", "details": trans.details})
    cap = a.jet_order
    r = a.rank
    names = tuple(a.var_names[l] for l in keep)

    def res(p: TruncatedPoly) -> TruncatedPoly:
        return p.restrict(keep).truncate(cap)

    # Restricted big algebroid over the slice ring: anchor keeps only slice
    # columns (kernel sections have no removed components on the slice).
    big = LieAlgebroidPatch(
        names, cap, r, [[res(a.anchor[i][l]) for l in keep] for i in range(r)],
        [[[res(e) for e in col] for col in plane] for plane in a.structure])
    k = kernel_subalgebroid(
        big, _slice_block(a, removed, keep), a.certified_order(),
        None if rho is None else [[[res(g) for g in row] for row in gam]
                                  for gam in rho.gammas])
    weights = WeightAssignment(tuple(a.weights.weights[l] for l in keep)) \
        if a.weights is not None else None
    fw = tuple(a.frame_weight(t) for t in k.free) if a.frame_weights is not None else None
    out = LieAlgebroidPatch(names, cap, len(k.frame), k.anchor, k.structure,
                            weights=weights, frame_weights=fw,
                            name=(a.name + ".slice") if a.name else "slice")
    rho2 = None if rho is None else Representation(
        out, rho.rank, k.gammas, fibre_weights=rho.fibre_weights, name=rho.name)
    note = [f"kernel frame solved through pivot frame elements "
            f"{[p + 1 for p in k.pivots]}"]
    return out, rho2, PullbackReport("slice", out.rank, trans, note), k.frame


def _pullback_point(phi: StructuredMap, a: LieAlgebroidPatch,
                    rho: Optional[Representation]):
    n = a.n_vars
    pt = phi.at if phi.at else tuple(Fraction(0) for _ in range(n))
    trans = transversality_check(StructuredMap("point", at=tuple(pt)), a)
    if not trans.transverse:
        raise ValidationFailure("anchor is not surjective at the point",
                                {"kind": "not_transverse", "details": trans.details})

    r = a.rank
    z0 = TruncatedPoly.zero(0, 0)

    def at_pt(p: TruncatedPoly) -> TruncatedPoly:
        return TruncatedPoly.const(0, p.evaluate(pt), 0) if p else z0

    # The patch evaluated at the point: a Lie algebra whose isotropy is the
    # kernel of the evaluated anchor (one block row per coordinate).
    big = LieAlgebroidPatch((), 0, r, [[] for _ in range(r)],
                            [[[at_pt(e) for e in col] for col in plane]
                             for plane in a.structure])
    k = kernel_subalgebroid(
        big, [[at_pt(a.anchor[i][l]) for i in range(r)] for l in range(n)], 0,
        None if rho is None else [[[at_pt(g) for g in row] for row in gam]
                                  for gam in rho.gammas])
    r2 = len(k.frame)
    out = LieAlgebroidPatch((), 0, r2, k.anchor, k.structure,
                            name=(a.name + ".isotropy") if a.name else "isotropy")
    rho2 = None if rho is None else Representation(out, rho.rank, k.gammas, name=rho.name)
    note = [f"isotropy rank {r2} at {tuple(str(v) for v in pt)}"]
    return out, rho2, PullbackReport("point", r2, trans, note)


def _pullback_rescale(phi: StructuredMap, a: LieAlgebroidPatch,
                      rho: Optional[Representation]):
    if phi.t is None:
        raise StructuralError("rescale map needs a scale factor")
    scaled = list(phi.scaled) if phi.scaled else (
        [] if a.weights is None else [l for l, w in enumerate(a.weights.weights) if w > 0])
    if phi.t == 0:
        keep = tuple(l for l in range(a.n_vars) if l not in set(scaled))
        sliced, rho_s, rep_s, _ = _pullback_slice(StructuredMap("slice", keep=keep), a, rho)
        names = tuple(a.var_names[l] for l in scaled)
        fibw = tuple(a.weights.weights[l] for l in scaled) if a.weights is not None else None
        proj = StructuredMap("projection", fibre_names=names, fibre_weights=fibw)
        out, rho2, rep_p = _pullback_projection(proj, sliced, rho_s)
        note = ["zero scale: slice to the fixed locus, then lift"] + rep_s.frame_note
        return out, rho2, PullbackReport("rescale", out.rank, rep_s.transversality, note)
    t = Fraction(phi.t)
    cap = a.jet_order

    def subs(p: TruncatedPoly) -> TruncatedPoly:
        q = p
        for l in scaled:
            q = q.scale_var(l, t)
        return q

    anchor = []
    for i in range(a.rank):
        row = []
        for l in range(a.n_vars):
            e = subs(a.anchor[i][l])
            if l in scaled:
                e = e.scale(1 / t)
            row.append(e)
        anchor.append(row)
    structure = [[[subs(a.structure[i][j][k]) for k in range(a.rank)]
                  for j in range(a.rank)] for i in range(a.rank)]
    out = LieAlgebroidPatch(a.var_names, cap, a.rank, anchor, structure,
                            weights=a.weights, frame_weights=a.frame_weights,
                            name=(a.name + f".rescale({t})") if a.name else "rescale")
    rho2 = None
    if rho is not None:
        gam = [[[subs(rho.gammas[i][al][be]) for be in range(rho.rank)]
                for al in range(rho.rank)] for i in range(a.rank)]
        rho2 = Representation(out, rho.rank, gam, fibre_weights=rho.fibre_weights,
                              name=rho.name)
    return out, rho2, PullbackReport("rescale", a.rank, TransversalityReport(True),
                                     [f"diffeomorphic rescale by t = {t}"])


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
    scaled = [l for l, w in enumerate(a.weights.weights) if w > 0]
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
    mapping = list(range(n))

    def at_scaled(p: TruncatedPoly) -> TruncatedPoly:
        # p(x, t*y) as an exact polynomial in (x, y, t)
        return p.truncate(None).remap(nt, mapping).scale_vars_by_var(
            [l for l in scaled], t_idx)

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
    # fibre units and the scaled-coordinate anchor block.
    fib_rows = [[(tvar if li == lj else zt) for lj in range(len(scaled))]
                + [at_scaled(a.anchor[i][scaled[li]]) for i in range(a.rank)]
                for li in range(len(scaled))]
    y_col = [TruncatedPoly.var(nt, scaled[li]) for li in range(len(scaled))]
    rank_no_y = poly_matrix_rank(fib_rows)
    rank_with_y = poly_matrix_rank([row + [y_col[li]] for li, row in enumerate(fib_rows)])
    strata.append({"check": "family_fibres", "stratum": "generic (x, y, t)",
                   "rank": rank_no_y, "rank_with_target": rank_with_y})
    verdict_iii = rank_no_y == rank_with_y

    # t = 0 stratum of the same system: anchor at (x, 0), kept at arity n.
    def at_zero(p: TruncatedPoly) -> TruncatedPoly:
        q = p.truncate(None)
        kept = [l for l in range(n) if l not in scaled]
        return q.restrict(kept).remap(n, kept)

    rows0 = [[TruncatedPoly.zero(n)] * len(scaled)
             + [at_zero(a.anchor[i][scaled[li]]) for i in range(a.rank)]
             for li in range(len(scaled))]
    ycol0 = [TruncatedPoly.var(n, scaled[li]) for li in range(len(scaled))]
    rank0_no_y = poly_matrix_rank(rows0)
    rank0_with_y = poly_matrix_rank([row + [ycol0[li]] for li, row in enumerate(rows0)])
    strata.append({"check": "family_fibres", "stratum": "t = 0",
                   "rank": rank0_no_y, "rank_with_target": rank0_with_y})
    verdict_iii = verdict_iii and (rank0_no_y == rank0_with_y)

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
    out: SparseRow = {}
    for j, coeff in vec.items():
        mono, wedge, beta = basis[j]
        mono_slice = TruncatedPoly.monomial(a.n_vars, mono, 1).restrict(keep)
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
    and surjectivity of the restriction on representative cocycles."""
    _check_window(window)
    # the pullback frame in big coordinates evaluates cochains on the slice
    sliced, rho_s, _rep, frame = _pullback_slice(
        StructuredMap("slice", keep=tuple(keep)), a, rho)

    minor = minors([[e.truncate(None) for e in row] for row in frame],
                   TruncatedPoly.const(len(keep), 1))
    cx = CEComplex(a, rho)
    cx.require_graded()
    slice_cx = CEComplex(sliced, rho_s)
    start, end, span = window
    rows: List[TransversalIsoRow] = []
    shift = max(cx.degree_shift(), slice_cx.degree_shift())
    for q in range(max(a.rank, sliced.rank) + 1):
        # slice side: one boundary echelon at the larger shift serves both
        # the slice betti number (on a copy) and the restriction rank
        basis_s = slice_cx.window_basis(q, end)
        bnd_ech = _window_boundaries(slice_cx, q, end, None, basis_s, shift)
        d_s = slice_cx.d_matrix(basis_s, slice_cx.window_basis(q + 1, end + shift))
        betti_s, _ = quotient_dim_and_reps(d_s.echelon().kernel(), bnd_ech.copy())
        # total side: sum the weight strata at the same degree
        wrep = _weight_cohomology(cx, None, [q], window)
        betti_a = sum(row.betti for row in wrep.rows if row.degree == q)
        # restriction surjectivity on representatives: the rank of the
        # restricted cocycles modulo the slice boundaries at this window
        basis_big = cx.window_basis(q, end)
        cocycles = cx.d_matrix(basis_big, cx.window_basis(q + 1, end + shift)).echelon().kernel()
        index = {e: i for i, e in enumerate(basis_s)}
        img_rank = sum(bnd_ech.add(_restrict_cochain(a, zvec, basis_big, q, keep, minor,
                                                     len(frame), index)) is not None
                       for zvec in cocycles)
        surjective = img_rank >= betti_s
        rows.append(TransversalIsoRow(q, betti_a, betti_s, betti_a == betti_s, surjective))
    ok = all(r.equal and r.restriction_surjective for r in rows)
    return TransversalIsoReport(ok, rows, sliced.rank, window)
