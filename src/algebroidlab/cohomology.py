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
  stabilization flag, like jet mode.  Weight mode, like jet mode and
  `lie_algebra_cohomology`, refuses a complex on which d o d is not 0
  (`CEComplex._certify`), so every betti number it prints is one of a
  complex.

* jet mode: cochain coefficients are windowed by total degree.  The
  differential is computed exactly from window N into window N + shift;
  boundaries are intersected back into the window.  Betti numbers are
  reported per window with a stabilization flag over the requested span.
  One routine, `_windowed_row`, gives the windows N = a..b for jet mode
  and for the windowed weight strata alike.  The windows nest, so they are
  counted, not eliminated one by one: one degree-ordered pass per (degree,
  weight), memoized on the complex, feeds d of the basis up to coefficient
  degree b + shift + 1 in ascending coefficient degree to one
  `persistence_pairs` elimination over target columns numbered from the
  highest coefficient degree down.  Its (source degree, pivot degree)
  pairs give the rank of d on every window, and, read from the pass one
  degree lower, the boundaries that land inside every window, the last
  one included.  A pass feeds no row for an element that the pass one
  degree lower pivots on (clearing; Chen and Kerber 2011), which leaves
  every count unchanged on a complex; so before its first pass a complex
  checks d o d = 0 exactly, once (`CEComplex._certify`).  The last window
  N = b is eliminated canonically only in the degrees where its betti
  number is not 0, since only those print representatives.  Its cocycles
  are the kernel read off the reduced sparse rows of d (`cocycles`).  Its
  boundaries come from one sparse elimination: the rows d(eta) of all
  windowed primitives, with the coordinates outside the window ordered
  first, so the reduced rows pivoted inside the window span the images
  that vanish outside it.  The cocycles are then reduced into that same
  echelon, and only the accepted residuals, the representatives, are made
  dense.

Each complex compiles its static data once, to integer scalars under one
denominator D, the lcm of the denominators of every anchor, structure and
connection coefficient.  D * d applies, to each monomial cochain
f e^I (x) f_beta, a term table built from the uncapped data on the first
use of (I, beta): exponent sums and one integer multiplication per term,
no polynomial objects and no Fraction.  D * d of every basis element is
memoized; the certificate, the degree passes, the boundaries and the
kernel reads (`cocycles`) eliminate it as it is, since spans, pivots,
reduced rows and kernels do not depend on the scale.  The exact d is made
only where it is read: `d_of_element`, `d_matrix` and the `not_complex`
witness divide by D (by D^2 for d o d).  The Euler contraction applies an
exact table of the same kind, and the degree shift is read off the tables.
Each window basis is built once per (degree, coefficient degree) and split
into weight buckets when a stratum of it is first asked for.

The basis order is canonical: wedge tuple (lexicographic), then fibre
index, then monomial in graded-lex order.  All representative cocycles
are reduced-echelon with respect to this order, which makes reports
deterministic byte for byte: the reduced row echelon basis of a span is
unique, whatever order the elimination took.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations
from math import lcm
from operator import add
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .algebroid import LieAlgebroidPatch, Representation, grading_violations, trivial_representation
from .errors import StructuralError, ValidationFailure
from .linalg import (Echelon, IntRow, QMatrix, SparseRow, _axpy, persistence_pairs,
                     quotient_dim_and_reps)
from .ratpoly import TruncatedPoly, _monomial_table, format_poly

Exponent = Tuple[int, ...]
BasisElement = Tuple[Exponent, Tuple[int, ...], int]    # (monomial, wedge, fibre)
Cochain = Dict[BasisElement, Fraction]
IntCochain = Dict[BasisElement, int]                    # D times a cochain
# (derivative index or None, coefficient exponent, scalar, target wedge, target fibre)
Term = Tuple[Optional[int], Exponent, int, Tuple[int, ...], int]
# (ascending basis degrees, persistence pairs as (source degree, pivot degree),
#  pivot elements)
DegreePass = Tuple[List[int], List[Tuple[int, int]], Set[BasisElement]]


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
    """Differential engine for one patch and representation, with the
    memos of the module docstring."""

    def __init__(self, a: LieAlgebroidPatch, rho: Optional[Representation] = None):
        if rho is None:
            rho = trivial_representation(a, 1)
        if rho.algebroid is not a:
            # Allow equal-but-distinct objects; shapes must agree.
            if rho.algebroid.rank != a.rank or rho.algebroid.n_vars != a.n_vars:
                raise StructuralError("representation is over a different patch")
        self.a = a
        self.rho = rho
        # D: every data coefficient times D is an integer (see `_table`)
        self._den = lcm(*{x.denominator for e in chain(
            *a.anchor, *chain(*a.structure), *chain(*rho.gammas)) for x in e.c.values()})
        self._shift: Optional[int] = None
        self._tables: Dict[Tuple[Tuple[int, ...], int], List[Term]] = {}
        self._bases: Dict[Tuple[int, int], List[BasisElement]] = {}
        self._buckets: Dict[Tuple[int, int], Dict[int, List[BasisElement]]] = {}
        self._d: Dict[BasisElement, IntCochain] = {}
        self._passes: Dict[Tuple[int, Optional[int], int], DegreePass] = {}
        self._low_weight: Dict[int, Optional[int]] = {}
        self._certified = False

    # -- degrees and weights -----------------------------------------------------

    def degree_shift(self) -> int:
        """Max increase of coefficient degree under d, read off the tables
        of degrees 0 and 1, which hold every data entry d uses."""
        if self._shift is None:
            self._shift = max([0] + [sum(t[1]) for q in (0, 1)
                                     for wedge in wedge_tuples(self.a.rank, q)
                                     for beta in range(self.rho.rank)
                                     for t in self._table(wedge, beta)])
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
        degree <= max_deg, optionally restricted to one weight stratum, as
        a list the caller owns."""
        return list(self._window(q, max_deg, weight))

    def _window(self, q: int, max_deg: int, weight: Optional[int]) -> List[BasisElement]:
        """The memoized window_basis, shared by every caller."""
        key = (q, max_deg)
        if key not in self._bases:
            monos = _monomial_table(self.a.n_vars, max_deg)
            self._bases[key] = [(mono, wedge, beta) for wedge in wedge_tuples(self.a.rank, q)
                                for beta in range(self.rho.rank) for mono in monos]
        if weight is None:
            return self._bases[key]
        if key not in self._buckets:
            buckets = self._buckets[key] = {}
            for elem in self._bases[key]:
                buckets.setdefault(self.element_weight(elem), []).append(elem)
        return self._buckets[key].get(weight, [])

    def stratum_basis(self, q: int, weight: int) -> List[BasisElement]:
        """Complete basis of a finite weight stratum.

        Valid when every coordinate has positive weight: a monomial of
        weight w then has total degree at most w, so the stratum is a weight
        bucket of the window as deep as the largest monomial weight it needs.
        """
        ws = self.a.weights
        if self.a.n_vars > 0 and (ws is None or min(ws.weights) < 1):
            raise StructuralError("stratum is not finite; use a degree window")
        # each (wedge, fibre) needs monomial weight `weight` minus that of its constant
        if q not in self._low_weight:
            self._low_weight[q] = min(map(self.element_weight, self._window(q, 0, None)),
                                      default=None)
        low = self._low_weight[q]
        return list(self._window(q, 0 if low is None else max(weight - low, 0), weight))

    # -- the differential -------------------------------------------------------------

    def d_of_element(self, elem: BasisElement) -> Cochain:
        """Differential of one basis element, exact, as a new cochain."""
        den = self._den
        return {key: Fraction(x, den) for key, x in self._int_d(elem).items()}

    def _int_d(self, elem: BasisElement) -> IntCochain:
        """D * d of one basis element, built once per complex; the cochain
        is shared by every caller and must not be mutated."""
        d = self._d.get(elem)
        if d is None:
            d = self._d[elem] = self._build_d(elem)
        return d

    def _build_d(self, elem: BasisElement) -> IntCochain:
        mono, wedge, beta = elem
        return _apply(self._table(wedge, beta), mono)

    def _table(self, wedge: Tuple[int, ...], beta: int) -> List[Term]:
        """The terms of D * d on f e^wedge (x) f_beta, compiled once from the
        uncapped data, so d o d = 0 holds on the nose when the data satisfy
        the algebroid identities (`_certify` checks it)."""
        terms = self._tables.get((wedge, beta))
        if terms is not None:
            return terms
        a, den = self.a, self._den

        def scaled(p: TruncatedPoly):
            return ((m, v.numerator * (den // v.denominator)) for m, v in p.c.items())
        terms = self._tables[(wedge, beta)] = []
        # Insertions: anchor derivative and connection action.
        for j in range(a.rank):
            sign, wedge2 = _insert_sign(j, wedge)
            if sign == 0:
                continue
            for l, e in enumerate(a.anchor[j]):
                for m, v in scaled(e):
                    exp = tuple(x - (i == l) for i, x in enumerate(m))
                    terms.append((l, exp, sign * v, wedge2, beta))
            for gamma in range(self.rho.rank):
                for m, v in scaled(self.rho.gammas[j][gamma][beta]):
                    terms.append((None, m, sign * v, wedge2, gamma))
        # Contractions: replace e^k inside the wedge by a structure pair.
        for pos_k, k in enumerate(wedge):
            rest = wedge[:pos_k] + wedge[pos_k + 1:]
            sigma = (-1) ** pos_k
            for u in range(a.rank):
                if u != k and u in rest:
                    continue
                for v in range(u + 1, a.rank):
                    c_uv_k = a.structure[u][v][k]
                    if (v != k and v in rest) or c_uv_k.is_zero():
                        continue
                    wedge2 = tuple(sorted(rest + (u, v)))
                    if len(wedge2) != len(rest) + 2:
                        continue
                    sign = sigma * (-1) ** (wedge2.index(u) + wedge2.index(v))
                    for m, c in scaled(c_uv_k):
                        terms.append((None, m, sign * c, wedge2, beta))
        return terms

    def d_matrix(self, source: List[BasisElement], target: List[BasisElement]) -> QMatrix:
        """The exact differential from span(source) to span(target), one row
        per target element and one column per source element, built sparse."""
        den = self._den
        return QMatrix.of_sparse([{j: Fraction(x, den) for j, x in row.items()}
                                  for row in self._int_rows(source, target)], len(source))

    def cocycles(self, source: List[BasisElement], target: List[BasisElement]
                 ) -> List[SparseRow]:
        """`Echelon.kernel` of d from span(source) to span(target): the
        canonical kernel basis, eliminated from the integer rows of D * d."""
        return Echelon(len(source), self._int_rows(source, target)).kernel()

    def _int_rows(self, source: List[BasisElement], target: List[BasisElement]
                  ) -> List[IntRow]:
        """D * d from span(source) to span(target) as sparse integer rows,
        one per target element."""
        index = {elem: i for i, elem in enumerate(target)}
        rows: List[IntRow] = [{} for _ in target]
        for j, elem in enumerate(source):
            for key, val in self._int_d(elem).items():
                i = index.get(key)
                if i is None:
                    raise StructuralError(
                        f"differential leaves the target window at {key}")
                rows[i][j] = val
        return rows

    def _certify(self) -> None:
        """Check d o d = 0 exactly, once per complex, on the integer
        D^2 * (d o d); a witness prints d o d itself.

        d o d is a differential operator of order <= 2 with polynomial
        coefficients, so it vanishes if it vanishes on x^m e^I (x) f_beta
        for every wedge I, fibre index beta and monomial of degree <= 2."""
        if self._certified:
            return
        for q in range(self.a.rank - 1):        # d o d vanishes into degrees > rank
            for elem in self._window(q, 2, None):
                dd: IntCochain = {}
                for key, val in self._int_d(elem).items():
                    _axpy(dd, val, self._int_d(key))
                if dd:
                    names, fibre_rank = self.a.var_names, self.rho.rank
                    keys, den2 = sorted(dd), self._den ** 2
                    raise ValidationFailure("differential does not square to zero", {
                        "kind": "not_complex", "degree": q,
                        "element": format_element(elem, names, fibre_rank),
                        "d_of_d": format_cochain([Fraction(dd[k], den2) for k in keys], keys,
                                                 names, fibre_rank)})
        self._certified = True

    def _degree_pass(self, q: int, weight: Optional[int], top: int) -> DegreePass:
        """The coefficient degrees of the basis of C^q_{<=top}, ascending,
        the persistence pairs (source degree, pivot degree) of d on it, and
        the elements of C^{q+1} that the pass pivots on.

        d(e) enters one `persistence_pairs` pass in ascending coefficient
        degree of e, over the target window numbered by (-coefficient
        degree, canonical position), so every prefix of sources of degree
        <= M has its reduced image pivoted at degree <= N exactly on the
        part that vanishes above degree N.  No row enters for a pivot e of
        the pass one degree lower: its accepted row R is a boundary, so
        d(R) = 0, and every other term of R has degree <= deg e; the
        pivots being distinct, d(e) lies in the span of d of the fed
        sources of degree <= deg e, and the span at every degree boundary
        is unchanged.  That needs d o d = 0, which `_certify` checks before
        the first pass.  Memoized per (q, weight, top)."""
        key = (q, weight, top)
        if key not in self._passes:
            self._certify()
            cleared = self._degree_pass(q - 1, weight, top)[2] if q else set()
            source = sorted(self._window(q, top, weight), key=_degree)
            fed = [e for e in source if e not in cleared]
            target = sorted(self._window(q + 1, top + self.degree_shift(), weight),
                            key=lambda e: -_degree(e))
            col = {elem: k for k, elem in enumerate(target)}
            rows = ({col[c]: x for c, x in self._int_d(e).items()} for e in fed)
            pairs = [(fed[i], target[p]) for i, p in persistence_pairs(len(target), rows)]
            self._passes[key] = ([_degree(e) for e in source],
                                [(_degree(e), _degree(pivot)) for e, pivot in pairs],
                                {pivot for _, pivot in pairs})
        return self._passes[key]

    # -- interior contraction (for the scaling homotopy) ------------------------------

    def contract_with(self, coeffs: Sequence[TruncatedPoly], elem: BasisElement) -> Cochain:
        """Interior product of one basis element with the section coeffs."""
        mono, wedge, beta = elem
        return _apply([(None, m, -v if pos % 2 else v, wedge[:pos] + wedge[pos + 1:], beta)
                       for pos, i in enumerate(wedge) for m, v in coeffs[i].c.items()], mono)


def _degree(elem: BasisElement) -> int:
    """The coefficient degree of a basis element."""
    return sum(elem[0])


def _apply(terms: List[Term], mono: Exponent) -> Cochain:
    """The cochain of a term table on the monomial x^mono: each term adds
    scalar * x^(mono + exponent), times mono[l] for a derivative along x_l;
    cancelled entries are dropped."""
    out: Cochain = {}
    for l, exp, val, wedge2, beta2 in terms:
        if l is not None:
            if not mono[l]:
                continue
            val = val * mono[l]
        key = (tuple(map(add, mono, exp)), wedge2, beta2)
        s = out.get(key)
        if s is None:
            out[key] = val
        else:
            s += val
            if s:
                out[key] = s
            else:
                del out[key]
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
        for key, val in cx._int_d(eta).items():
            col = inside.get(key)
            row[~outside.setdefault(key, len(outside)) if col is None else col] = val
        ech.add(row)
    return ech


def _windowed_row(cx: CEComplex, q: int, weight: Optional[int],
                  window: Tuple[int, int, int]) -> Tuple[CohomologyRow, int]:
    """Degree-q row over the jet windows N = a..b of window (a, b, s), and
    the basis size of the last window.

    The betti estimate on window N counts cocycles with coefficients of
    degree <= N modulo the boundaries of windowed primitives, of degree
    <= N + shift + 1, that land inside the window.  Every window is counted
    off the persistence pairs of degrees q and q - 1
    (`CEComplex._degree_pass`); the last window is eliminated canonically,
    for its representatives, only when its betti number is not 0.  The row
    is stabilized when the last s estimates agree."""
    start, end, span = window
    shift = cx.degree_shift()
    # sources up to b + shift + 1 serve both degrees' windows up to b
    degrees, cocycle_pairs, _ = cx._degree_pass(q, weight, end + shift + 1)
    boundary_pairs = cx._degree_pass(q - 1, weight, end + shift + 1)[1] if q else []
    history: List[Tuple[int, int]] = []
    for n_deg in range(start, end + 1):
        rank = sum(1 for src, _ in cocycle_pairs if src <= n_deg)
        bounded = sum(1 for src, piv in boundary_pairs
                      if src <= n_deg + shift + 1 and piv <= n_deg)
        history.append((n_deg, bisect_right(degrees, n_deg) - rank - bounded))
    betti = history[-1][1]
    reps_str: List[str] = []
    if betti:
        basis = cx.window_basis(q, end, weight)
        cocycles = cx.cocycles(basis, cx.window_basis(q + 1, end + shift, weight))
        primitives = cx.window_basis(q - 1, end + shift + 1, weight) if q else []
        _, reps = quotient_dim_and_reps(cocycles, _boundaries(cx, primitives, basis))
        reps_str = [format_cochain(v, basis, cx.a.var_names, cx.rho.rank) for v in reps]
    tail = [b for _, b in history[-span:]]
    return CohomologyRow(q, betti, weight, window, len(tail) == span and len(set(tail)) == 1,
                         exact=False, history=history, representatives=reps_str
                         ), bisect_right(degrees, end)


def _check_window(window: Tuple[int, int, int]) -> None:
    """A window a:b:s runs N = a..b with 0 <= a <= b and flags a value as
    stabilized over the last s >= 1 of them."""
    start, end, span = window
    if start < 0 or end < start or span < 1:
        raise StructuralError(f"bad window {window}")


def _degree_list(degrees: Optional[Sequence[int]], rank: int) -> List[int]:
    """The requested cochain degrees, by default 0..rank; none may be negative."""
    out = list(degrees) if degrees is not None else list(range(rank + 1))
    if any(q < 0 for q in out):
        raise StructuralError("negative degree")
    return out


def jet_cohomology(a: LieAlgebroidPatch, rho: Optional[Representation] = None,
                   window: Tuple[int, int, int] = (2, 5, 3),
                   degrees: Optional[Sequence[int]] = None) -> CohomologyReport:
    """Betti numbers per degree across a sliding jet window.

    window = (start, end, span): compute on each N in [start, end] and flag
    a degree as stabilized when the last `span` values agree.
    """
    cx = CEComplex(a, rho)
    _check_window(window)
    degrees = _degree_list(degrees, a.rank)
    rows: List[CohomologyRow] = []
    dims: Dict[int, int] = {}
    for q in degrees:
        row, dims[q] = _windowed_row(cx, q, None, window)
        rows.append(row)
    return CohomologyReport("jet", rows, dims)


def weight_cohomology(a: LieAlgebroidPatch, rho: Optional[Representation] = None,
                      degrees: Optional[Sequence[int]] = None,
                      window: Tuple[int, int, int] = (2, 5, 3)) -> CohomologyReport:
    """Exact betti numbers per (degree, weight) stratum.

    Structure data must be weight-homogeneous.  Strata are exact when all
    coordinates carry positive weight (or there are none); otherwise the
    weight-zero directions are windowed with a stabilization flag.
    """
    cx = CEComplex(a, rho)
    cx.require_graded()
    return _weight_cohomology(cx, degrees, window)


def _weight_cohomology(cx: CEComplex, degrees: Optional[Sequence[int]],
                       window: Tuple[int, int, int]) -> CohomologyReport:
    """weight_cohomology on a graded complex, so callers can share its
    differential cache; the complex is certified first."""
    _check_window(window)
    cx._certify()
    a = cx.a
    degrees = _degree_list(degrees, a.rank)
    # the weights of the constant-coefficient elements
    offsets = [cx.element_weight(e) for q in degrees for e in cx._window(q, 0, None)]
    lo, hi = min(offsets, default=0), max(offsets, default=0)
    mono_w = (max(a.weights.weights, default=0) if a.weights else 0) * window[1]
    weights = range(lo, hi + mono_w + 1)
    finite = a.n_vars == 0 or (a.weights is not None and min(a.weights.weights) >= 1)
    rows: List[CohomologyRow] = []
    dims: Dict[int, int] = {}
    for q in degrees:
        for w in weights:
            if finite:
                basis = cx.stratum_basis(q, w)
                betti, reps = quotient_dim_and_reps(
                    cx.cocycles(basis, cx.stratum_basis(q + 1, w)),
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
               degrees: Optional[Sequence[int]] = None) -> CohomologyReport:
    if mode == "jet":
        return jet_cohomology(a, rho, window, degrees)
    if mode == "weight":
        return weight_cohomology(a, rho, degrees, window)
    raise StructuralError(f"unknown cohomology mode {mode!r}")


# -- constant-coefficient fast path -----------------------------------------------------


@dataclass
class LieCohomology:
    betti: List[int]
    bases: List[List[BasisElement]]
    matrices: List[QMatrix]                  # d_q: C^q -> C^{q+1}
    representatives: List[List[List[Fraction]]]


def lie_algebra_cohomology(a: LieAlgebroidPatch, rho: Optional[Representation] = None
                           ) -> LieCohomology:
    """Full CE cohomology of a constant-coefficient Lie algebra patch, on a
    certified complex."""
    if a.n_vars != 0:
        raise StructuralError("constant-coefficient path requires a point base")
    cx = CEComplex(a, rho)
    cx._certify()
    r = a.rank
    bases = [cx.window_basis(q, 0) for q in range(r + 2)]
    mats = [cx.d_matrix(bases[q], bases[q + 1]) for q in range(r + 1)]
    betti: List[int] = []
    reps: List[List[List[Fraction]]] = []
    for q in range(r + 1):
        b, rp = quotient_dim_and_reps(cx.cocycles(bases[q], bases[q + 1]),
                                      _boundaries(cx, bases[q - 1] if q else [], bases[q]))
        betti.append(b)
        reps.append(rp)
    return LieCohomology(betti, bases[:r + 1], mats, reps)
