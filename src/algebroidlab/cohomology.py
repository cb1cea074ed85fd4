"""Chevalley-Eilenberg cochain complexes of algebroid patches.

Cochains in degree q are sums  f * e^I (x) f_beta  with f a polynomial
coefficient, I an ascending q-tuple of frame indices and f_beta a fibre
frame section of the representation.  The differential follows the Koszul
rule: an insertion part (anchor derivative plus connection action) and a
contraction part (structure constants replacing a wedge pair).

Two computation modes:

* weight mode: data must be weight-homogeneous, the differential then
  preserves the cochain weight and each (degree, weight) stratum is an
  honest subcomplex.  When every coordinate has positive weight the
  stratum is finite dimensional and the answer is exact; transversal
  (weight zero) coordinates are handled through a degree window with a
  stabilization flag, like jet mode.

* jet mode: cochain coefficients are windowed by total degree.  The
  differential is computed exactly from window N into window N + shift,
  so d after d is exactly zero; boundaries are intersected back into the
  window.  Betti numbers are reported per window with a stabilization
  flag over the requested span.  One routine, `_windowed_row`, runs this
  window loop N = a..b for jet mode and for the windowed weight strata
  alike.  Each complex memoizes the differential of every basis element,
  so the elements shared by windows, degrees and the cocycle and boundary
  steps are differentiated once.  Everything stays on sparse rows until a
  representative is printed.  The cocycles are the kernel read off the
  reduced sparse rows of d (`d_matrix`, which is built sparse and made
  dense only for a reader of its rows).  The boundaries of one window
  come from one sparse elimination: the rows d(eta) of all windowed
  primitives, with the coordinates outside the window ordered first, so
  the reduced rows pivoted inside the window span the images that vanish
  outside it.  The cocycles are then reduced into that same echelon, and
  only the accepted residuals, the representatives, are made dense.

The basis order is canonical: wedge tuple (lexicographic), then fibre
index, then monomial in graded-lex order.  All representative cocycles
are reduced-echelon with respect to this order, which makes reports
deterministic byte for byte: the reduced row echelon basis of a span is
unique, whatever order the elimination took.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .algebroid import LieAlgebroidPatch, Representation, grading_violations, trivial_representation
from .errors import StructuralError, ValidationFailure
from .linalg import Echelon, QMatrix, SparseRow, quotient_dim_and_reps
from .ratpoly import TruncatedPoly, format_poly, monomials_up_to

Exponent = Tuple[int, ...]
BasisElement = Tuple[Exponent, Tuple[int, ...], int]    # (monomial, wedge, fibre)
Cochain = Dict[BasisElement, Fraction]

QZERO = Fraction(0)


def wedge_tuples(rank: int, q: int) -> List[Tuple[int, ...]]:
    return [tuple(c) for c in combinations(range(rank), q)]


def _insert_sign(j: int, wedge: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
    """Sign and result of sorting e^j into e^wedge; 0 sign if j is present."""
    if j in wedge:
        return 0, wedge
    below = sum(1 for i in wedge if i < j)
    out = tuple(sorted(wedge + (j,)))
    return (-1) ** below, out


class CEComplex:
    """Differential engine for one patch and representation."""

    def __init__(self, a: LieAlgebroidPatch, rho: Optional[Representation] = None):
        if rho is None:
            rho = trivial_representation(a, 1)
        if rho.algebroid is not a:
            # Allow equal-but-distinct objects; shapes must agree.
            if rho.algebroid.rank != a.rank or rho.algebroid.n_vars != a.n_vars:
                raise StructuralError("representation is over a different patch")
        self.a = a
        self.rho = rho
        # Exact copies of the data, free of jet caps: the differential is
        # computed in the plain polynomial ring so d o d = 0 on the nose.
        self._anchor = [[e.truncate(None) for e in row] for row in a.anchor]
        self._structure = [[[e.truncate(None) for e in col] for col in plane]
                           for plane in a.structure]
        self._gammas = [[[e.truncate(None) for e in row] for row in g] for g in rho.gammas]
        degs = [0]
        degs += [e.total_degree() - 1 for row in self._anchor for e in row if not e.is_zero()]
        degs += [e.total_degree() for plane in self._structure for col in plane
                 for e in col if not e.is_zero()]
        degs += [e.total_degree() for g in self._gammas for row in g
                 for e in row if not e.is_zero()]
        self._shift = max(degs)
        self._d: Dict[BasisElement, Cochain] = {}

    # -- degrees and weights -----------------------------------------------------

    def degree_shift(self) -> int:
        """Max increase of coefficient degree under the differential."""
        return self._shift

    def element_weight(self, elem: BasisElement) -> int:
        if self.a.weights is None and self.a.n_vars > 0:
            raise StructuralError("patch has no weight assignment")
        mono, wedge, beta = elem
        w = self.a.weights.monomial_weight(mono) if self.a.weights is not None else 0
        w -= sum(self.a.frame_weight(i) for i in wedge)
        w += self.rho.fibre_weight(beta)
        return w

    def require_graded(self) -> None:
        bad = grading_violations(self.a, self.rho)
        if bad:
            raise ValidationFailure("structure data is not weight-homogeneous",
                                    {"kind": "not_graded", "violations": bad})

    # -- bases ---------------------------------------------------------------------

    def window_basis(self, q: int, max_deg: int, weight: Optional[int] = None
                     ) -> List[BasisElement]:
        """Canonically ordered basis of degree-q cochains with coefficient
        degree <= max_deg, optionally restricted to one weight stratum."""
        out: List[BasisElement] = []
        monos = monomials_up_to(self.a.n_vars, max_deg)
        for wedge in wedge_tuples(self.a.rank, q):
            for beta in range(self.rho.rank):
                for mono in monos:
                    elem = (mono, wedge, beta)
                    if weight is not None and self.element_weight(elem) != weight:
                        continue
                    out.append(elem)
        return out

    def stratum_basis(self, q: int, weight: int) -> List[BasisElement]:
        """Complete basis of a finite weight stratum.

        Valid when every coordinate has positive weight: a monomial of
        weight w then has total degree at most w.
        """
        ws = self.a.weights
        if self.a.n_vars > 0 and (ws is None or min(ws.weights) < 1):
            raise StructuralError("stratum is not finite; use a degree window")
        out: List[BasisElement] = []
        for wedge in wedge_tuples(self.a.rank, q):
            for beta in range(self.rho.rank):
                need = weight + sum(self.a.frame_weight(i) for i in wedge) \
                    - self.rho.fibre_weight(beta)
                if need < 0:
                    continue
                for mono in monomials_up_to(self.a.n_vars, need):
                    mw = ws.monomial_weight(mono) if ws is not None else 0
                    if mw == need:
                        out.append((mono, wedge, beta))
        return out

    # -- the differential -------------------------------------------------------------

    def d_of_element(self, elem: BasisElement) -> Cochain:
        """Differential of one basis element, built once per complex.

        The cochain is shared by every caller and must not be mutated.
        """
        d = self._d.get(elem)
        if d is None:
            d = self._d[elem] = self._build_d(elem)
        return d

    def _build_d(self, elem: BasisElement) -> Cochain:
        mono, wedge, beta = elem
        a, n = self.a, self.a.n_vars
        poly_mono = TruncatedPoly.monomial(n, mono, 1)
        out: Cochain = {}

        def add(p: TruncatedPoly, wedge2: Tuple[int, ...], beta2: int, scale: int):
            if scale == 0 or p.is_zero():
                return
            for m2, v in p.c.items():
                key = (m2, wedge2, beta2)
                s = out.get(key, QZERO) + v * scale
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s

        # Insertions: anchor derivative and connection action.
        for j in range(a.rank):
            sign, wedge2 = _insert_sign(j, wedge)
            if sign == 0:
                continue
            deriv = TruncatedPoly.zero(n)
            for l in range(n):
                if not self._anchor[j][l].is_zero() and mono[l]:
                    deriv = deriv + self._anchor[j][l] * poly_mono.deriv(l)
            add(deriv, wedge2, beta, sign)
            for gamma in range(self.rho.rank):
                g = self._gammas[j][gamma][beta]
                if not g.is_zero():
                    add(g * poly_mono, wedge2, gamma, sign)

        # Contractions: replace e^k inside the wedge by a structure pair.
        for pos_k, k in enumerate(wedge):
            rest = wedge[:pos_k] + wedge[pos_k + 1:]
            sigma = (-1) ** pos_k
            for u in range(a.rank):
                if u != k and u in rest:
                    continue
                for v in range(u + 1, a.rank):
                    if v != k and v in rest:
                        continue
                    c_uv_k = self._structure[u][v][k]
                    if c_uv_k.is_zero():
                        continue
                    wedge2 = tuple(sorted(rest + (u, v)))
                    if len(wedge2) != len(rest) + 2:
                        continue
                    pa = wedge2.index(u)
                    pb = wedge2.index(v)
                    add(c_uv_k * poly_mono, wedge2, beta, sigma * (-1) ** (pa + pb))
        return out

    def d_matrix(self, source: List[BasisElement], target: List[BasisElement]) -> QMatrix:
        """The differential from span(source) to span(target), one row per
        target element and one column per source element, built sparse."""
        index = {elem: i for i, elem in enumerate(target)}
        rows: List[SparseRow] = [{} for _ in target]
        for j, elem in enumerate(source):
            for key, val in self.d_of_element(elem).items():
                i = index.get(key)
                if i is None:
                    raise StructuralError(
                        f"differential leaves the target window at {key}")
                rows[i][j] = val
        return QMatrix.of_sparse(rows, len(source))

    # -- interior contraction (for the scaling homotopy) ------------------------------

    def contract_with(self, coeffs: Sequence[TruncatedPoly], elem: BasisElement) -> Cochain:
        mono, wedge, beta = elem
        n = self.a.n_vars
        poly_mono = TruncatedPoly.monomial(n, mono, 1)
        out: Cochain = {}
        for pos, i in enumerate(wedge):
            u = coeffs[i]
            if u.is_zero():
                continue
            p = u.truncate(None) * poly_mono
            rest = wedge[:pos] + wedge[pos + 1:]
            for m2, v in p.c.items():
                key = (m2, rest, beta)
                s = out.get(key, QZERO) + v * (-1) ** pos
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return out


# -- reports ------------------------------------------------------------------------


@dataclass
class CohomologyRow:
    degree: int
    betti: int
    weight: Optional[int] = None
    window: Optional[Tuple[int, int, int]] = None
    stabilized: bool = True
    exact: bool = True
    history: List[Tuple[int, int]] = field(default_factory=list)   # (window N, betti)
    representatives: List[str] = field(default_factory=list)


@dataclass
class CohomologyReport:
    mode: str
    rows: List[CohomologyRow]
    dims: Dict[int, int] = field(default_factory=dict)

    def betti_by_degree(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for row in self.rows:
            out[row.degree] = out.get(row.degree, 0) + row.betti
        return out


def format_element(elem: BasisElement, var_names: Sequence[str], fibre_rank: int) -> str:
    mono, wedge, beta = elem
    p = TruncatedPoly.monomial(len(var_names), mono, 1)
    parts = []
    body = format_poly(p, var_names)
    if body != "1" or (not wedge and fibre_rank <= 1):
        parts.append(body)
    if wedge:
        parts.append("e[" + ",".join(str(i + 1) for i in wedge) + "]")
    if fibre_rank > 1:
        parts.append(f"f[{beta + 1}]")
    return " ".join(parts)


def format_cochain(vec: Sequence[Fraction], basis: List[BasisElement],
                   var_names: Sequence[str], fibre_rank: int) -> str:
    from .ratpoly import format_rational
    parts: List[str] = []
    for coeff, elem in zip(vec, basis):
        if coeff == 0:
            continue
        body = format_element(elem, var_names, fibre_rank)
        if coeff == 1:
            parts.append(("+ " if parts else "") + body)
        elif coeff == -1:
            parts.append(("- " if parts else "-") + body)
        else:
            mag = format_rational(abs(coeff))
            head = "+ " if coeff > 0 and parts else ("- " if parts else ("-" if coeff < 0 else ""))
            parts.append(f"{head}{mag}*{body}")
    return " ".join(parts) if parts else "0"


# -- betti computations ----------------------------------------------------------------


def _boundaries(cx: CEComplex, primitives: List[BasisElement],
                basis_q: List[BasisElement]) -> Echelon:
    """Reduced row echelon span, in basis_q coordinates, of the boundaries
    of span(primitives) that lie inside span(basis_q).

    The row d(eta) of every primitive eta goes into one echelon, with each
    coordinate outside basis_q at a negative column, so those are
    eliminated first and the rows pivoted inside basis_q span exactly the
    images that vanish outside it."""
    inside = {elem: i for i, elem in enumerate(basis_q)}
    outside: Dict[BasisElement, int] = {}
    ech = Echelon(len(basis_q))
    for eta in primitives:
        row = {}
        for key, val in cx.d_of_element(eta).items():
            col = inside.get(key)
            row[~outside.setdefault(key, len(outside)) if col is None else col] = val
        ech.add(row)
    return ech


def _window_boundaries(cx: CEComplex, q: int, n_deg: int, weight: Optional[int],
                       basis_q: List[BasisElement], shift: int) -> Echelon:
    """`_boundaries` of the degree-(q-1) primitives with coefficients of
    degree <= n_deg + shift + 1 into the window basis_q.  shift bounds the
    degree increase of the differential."""
    primitives = cx.window_basis(q - 1, n_deg + shift + 1, weight) if q else []
    return _boundaries(cx, primitives, basis_q)


def _windowed_row(cx: CEComplex, q: int, weight: Optional[int],
                  window: Tuple[int, int, int]) -> Tuple[CohomologyRow, int]:
    """Degree-q row over the jet windows N = a..b of window (a, b, s), and
    the basis size of the last window.

    The betti estimate on window N counts cocycles with coefficients of
    degree <= N modulo the boundaries of windowed primitives that land
    inside the window.  The row is stabilized when the last s estimates
    agree, and carries the representatives of the last window."""
    start, end, span = window
    shift = cx.degree_shift()
    history: List[Tuple[int, int]] = []
    for n_deg in range(start, end + 1):
        basis = cx.window_basis(q, n_deg, weight)
        d = cx.d_matrix(basis, cx.window_basis(q + 1, n_deg + shift, weight))
        betti, reps = quotient_dim_and_reps(
            d.echelon().kernel(), _window_boundaries(cx, q, n_deg, weight, basis, shift))
        history.append((n_deg, betti))
    tail = [b for _, b in history[-span:]]
    reps_str = [format_cochain(v, basis, cx.a.var_names, cx.rho.rank) for v in reps]
    return CohomologyRow(q, betti, weight, window, len(tail) == span and len(set(tail)) == 1,
                         exact=False, history=history, representatives=reps_str), len(basis)


def _check_window(window: Tuple[int, int, int]) -> None:
    """A window a:b:s runs N = a..b with 0 <= a <= b and flags a value as
    stabilized over the last s >= 1 of them."""
    start, end, span = window
    if start < 0 or end < start or span < 1:
        raise StructuralError(f"bad window {window}")


def jet_cohomology(a: LieAlgebroidPatch, rho: Optional[Representation] = None,
                   window: Tuple[int, int, int] = (2, 5, 3),
                   degrees: Optional[Sequence[int]] = None) -> CohomologyReport:
    """Betti numbers per degree across a sliding jet window.

    window = (start, end, span): compute on each N in [start, end] and flag
    a degree as stabilized when the last `span` values agree.
    """
    cx = CEComplex(a, rho)
    _check_window(window)
    degrees = list(degrees) if degrees is not None else list(range(a.rank + 1))
    rows: List[CohomologyRow] = []
    dims: Dict[int, int] = {}
    for q in degrees:
        row, dims[q] = _windowed_row(cx, q, None, window)
        rows.append(row)
    return CohomologyReport("jet", rows, dims)


def weight_cohomology(a: LieAlgebroidPatch, rho: Optional[Representation] = None,
                      weights: Optional[Sequence[int]] = None,
                      degrees: Optional[Sequence[int]] = None,
                      window: Tuple[int, int, int] = (2, 5, 3)) -> CohomologyReport:
    """Exact betti numbers per (degree, weight) stratum.

    Structure data must be weight-homogeneous.  Strata are exact when all
    coordinates carry positive weight (or there are none); otherwise the
    weight-zero directions are windowed with a stabilization flag.
    """
    cx = CEComplex(a, rho)
    cx.require_graded()
    return _weight_cohomology(cx, weights, degrees, window)


def _weight_cohomology(cx: CEComplex, weights: Optional[Sequence[int]],
                       degrees: Optional[Sequence[int]], window: Tuple[int, int, int]
                       ) -> CohomologyReport:
    """weight_cohomology on a graded complex, so callers can share its
    differential cache."""
    _check_window(window)
    a = cx.a
    degrees = list(degrees) if degrees is not None else list(range(a.rank + 1))
    if weights is None:
        offsets = []
        for q in degrees:
            for wedge in wedge_tuples(a.rank, q):
                for beta in range(cx.rho.rank):
                    offsets.append(-sum(a.frame_weight(i) for i in wedge)
                                   + cx.rho.fibre_weight(beta))
        lo = min(offsets, default=0)
        hi = max(offsets, default=0)
        mono_w = (max(a.weights.weights, default=0) if a.weights else 0) * window[1]
        weights = list(range(lo, hi + mono_w + 1))
    finite = a.n_vars == 0 or (a.weights is not None and min(a.weights.weights) >= 1)
    rows: List[CohomologyRow] = []
    dims: Dict[int, int] = {}
    for q in degrees:
        for w in weights:
            if finite:
                basis = cx.stratum_basis(q, w)
                betti, reps = quotient_dim_and_reps(
                    cx.d_matrix(basis, cx.stratum_basis(q + 1, w)).echelon().kernel(),
                    _boundaries(cx, cx.stratum_basis(q - 1, w) if q else [], basis))
                if not basis and betti == 0 and w != 0:
                    continue
                rows.append(CohomologyRow(
                    q, betti, w, None, True, exact=True,
                    representatives=[format_cochain(v, basis, a.var_names, cx.rho.rank)
                                     for v in reps]))
                dims[q] = dims.get(q, 0) + len(basis)
            else:
                row, size = _windowed_row(cx, q, w, window)
                if size == 0 and all(b == 0 for _, b in row.history) and w != 0:
                    continue
                rows.append(row)
                dims[q] = dims.get(q, 0) + size
    return CohomologyReport("weight", rows, dims)


def cohomology(a: LieAlgebroidPatch, rho: Optional[Representation] = None,
               mode: str = "weight", window: Tuple[int, int, int] = (2, 5, 3),
               degrees: Optional[Sequence[int]] = None,
               weights: Optional[Sequence[int]] = None) -> CohomologyReport:
    if mode == "jet":
        return jet_cohomology(a, rho, window, degrees)
    if mode == "weight":
        return weight_cohomology(a, rho, weights, degrees, window)
    raise StructuralError(f"unknown cohomology mode {mode!r}")


def ce_differential(a: LieAlgebroidPatch, rho: Optional[Representation], q: int,
                    max_deg: Optional[int] = None) -> Tuple[QMatrix, List[BasisElement], List[BasisElement]]:
    """Matrix of the degree-q differential on a degree window, with bases."""
    cx = CEComplex(a, rho)
    cap = a.jet_order if max_deg is None else max_deg
    source = cx.window_basis(q, cap)
    target = cx.window_basis(q + 1, cap + cx.degree_shift())
    return cx.d_matrix(source, target), source, target


# -- constant-coefficient fast path -----------------------------------------------------


@dataclass
class LieCohomology:
    betti: List[int]
    bases: List[List[BasisElement]]
    matrices: List[QMatrix]                  # d_q: C^q -> C^{q+1}
    representatives: List[List[List[Fraction]]]


def lie_algebra_cohomology(a: LieAlgebroidPatch, rho: Optional[Representation] = None
                           ) -> LieCohomology:
    """Full CE cohomology of a constant-coefficient Lie algebra patch."""
    if a.n_vars != 0:
        raise StructuralError("constant-coefficient path requires a point base")
    cx = CEComplex(a, rho)
    r = a.rank
    bases = [cx.window_basis(q, 0) for q in range(r + 2)]
    mats = [cx.d_matrix(bases[q], bases[q + 1]) for q in range(r + 1)]
    betti: List[int] = []
    reps: List[List[List[Fraction]]] = []
    for q in range(r + 1):
        boundaries = mats[q - 1].column_echelon() if q else Echelon(len(bases[0]))
        b, rp = quotient_dim_and_reps(mats[q].echelon().kernel(), boundaries)
        betti.append(b)
        reps.append(rp)
    return LieCohomology(betti, bases[:r + 1], mats, reps)
