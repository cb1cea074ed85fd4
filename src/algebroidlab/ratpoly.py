"""Exact sparse polynomial arithmetic over the rationals, with jet truncation.

A polynomial in n variables is stored as a dictionary mapping exponent
tuples to Fraction coefficients.  The zero polynomial is the empty dict.
Monomials are canonically ordered graded-lexicographically: first by total
degree, then by the exponent tuple itself.

Every polynomial optionally carries a jet order ``cap``: coefficients of
total degree above the cap are unknown and dropped.  Products of two capped
polynomials are re-truncated to the smaller cap, which is exactly the jet
semantics (the degree <= N part of a product is determined by the degree
<= N parts of the factors).  ``cap=None`` means no truncation.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import LabError

Exponent = Tuple[int, ...]

QZERO = Fraction(0)
QONE = Fraction(1)


def grlex_key(mono: Exponent) -> Tuple[int, Exponent]:
    """Sort key realizing the graded lexicographic order (ascending)."""
    return (sum(mono), mono)


def monomials_up_to(n_vars: int, max_deg: int) -> List[Exponent]:
    """All exponent tuples in n_vars variables of total degree <= max_deg.

    Returned in ascending graded-lex order; for zero variables the single
    empty monomial is returned.
    """
    return list(_monomial_table(n_vars, max_deg))


@lru_cache(maxsize=64)
def _monomial_table(n_vars: int, max_deg: int) -> Tuple[Exponent, ...]:
    """`monomials_up_to` as a shared tuple, built once per size."""
    if n_vars == 0:
        return ((),)
    out: List[Exponent] = []
    for deg in range(max_deg + 1):
        batch = set()
        for combo in combinations_with_replacement(range(n_vars), deg):
            exp = [0] * n_vars
            for idx in combo:
                exp[idx] += 1
            batch.add(tuple(exp))
        out.extend(sorted(batch))
    return tuple(out)


def _merge_cap(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class TruncatedPoly:
    """Sparse rational polynomial with an optional jet-order cap."""

    __slots__ = ("n", "cap", "c")

    def __init__(self, n_vars: int, coeffs: Optional[Dict[Exponent, Fraction]] = None,
                 cap: Optional[int] = None):
        self.n = n_vars
        self.cap = cap
        c: Dict[Exponent, Fraction] = {}
        if coeffs:
            for mono, val in coeffs.items():
                v = Fraction(val)
                if v == 0:
                    continue
                if len(mono) != n_vars:
                    raise ValueError(f"exponent {mono} has wrong arity for {n_vars} vars")
                if cap is not None and sum(mono) > cap:
                    continue
                c[tuple(mono)] = v
        self.c = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def _wrap(cls, n_vars: int, coeffs: Dict[Exponent, Fraction], cap: Optional[int]
              ) -> "TruncatedPoly":
        """Adopt a fresh dict of nonzero Fractions already within the cap.

        Arithmetic results meet these conditions by construction, so they
        skip the coefficient checks of __init__."""
        p = cls.__new__(cls)
        p.n, p.cap, p.c = n_vars, cap, coeffs
        return p

    @classmethod
    def zero(cls, n_vars: int, cap: Optional[int] = None) -> "TruncatedPoly":
        return cls(n_vars, None, cap)

    @classmethod
    def const(cls, n_vars: int, value, cap: Optional[int] = None) -> "TruncatedPoly":
        return cls(n_vars, {(0,) * n_vars: Fraction(value)}, cap)

    @classmethod
    def var(cls, n_vars: int, idx: int, cap: Optional[int] = None) -> "TruncatedPoly":
        if not 0 <= idx < n_vars:
            raise ValueError(f"variable index {idx} out of range for {n_vars} vars")
        exp = [0] * n_vars
        exp[idx] = 1
        return cls(n_vars, {tuple(exp): QONE}, cap)

    @classmethod
    def monomial(cls, n_vars: int, exp: Exponent, coeff, cap: Optional[int] = None) -> "TruncatedPoly":
        return cls(n_vars, {tuple(exp): Fraction(coeff)}, cap)

    # -- basic predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.c

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return self.n == other.n and self.c == other.c

    def __repr__(self) -> str:
        names = tuple(f"x{i+1}" for i in range(self.n))
        return f"TruncatedPoly({format_poly(self, names)!r}, cap={self.cap})"

    def constant_term(self) -> Fraction:
        return self.c.get((0,) * self.n, QZERO)

    def total_degree(self) -> int:
        """Max total degree of stored monomials; -1 for the zero polynomial."""
        if not self.c:
            return -1
        return max(sum(m) for m in self.c)

    def sorted_terms(self) -> List[Tuple[Exponent, Fraction]]:
        return sorted(self.c.items(), key=lambda kv: grlex_key(kv[0]))

    def leading_term(self) -> Tuple[Exponent, Fraction]:
        """Graded-lex largest monomial and its coefficient; polynomial must be nonzero."""
        mono = max(self.c, key=grlex_key)
        return mono, self.c[mono]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "TruncatedPoly") -> "TruncatedPoly":
        return self._sum(other, operator.add)

    def __sub__(self, other: "TruncatedPoly") -> "TruncatedPoly":
        return self._sum(other, operator.sub)

    def _sum(self, other: "TruncatedPoly", op) -> "TruncatedPoly":
        """self op other at the smaller cap; only a summand with a larger
        cap can bring terms above it."""
        self._check_arity(other)
        out = dict(self.c)
        for mono, val in other.c.items():
            s = op(out.get(mono, QZERO), val)
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
        cap = _merge_cap(self.cap, other.cap)
        if cap is not None and (self.cap != cap or other.cap != cap):
            out = {m: v for m, v in out.items() if sum(m) <= cap}
        return TruncatedPoly._wrap(self.n, out, cap)

    def __neg__(self) -> "TruncatedPoly":
        return TruncatedPoly._wrap(self.n, {m: -v for m, v in self.c.items()}, self.cap)

    def scale(self, value) -> "TruncatedPoly":
        v = Fraction(value)
        if v == 0:
            return TruncatedPoly.zero(self.n, self.cap)
        return TruncatedPoly._wrap(self.n, {m: c * v for m, c in self.c.items()}, self.cap)

    def __mul__(self, other: "TruncatedPoly") -> "TruncatedPoly":
        self._check_arity(other)
        cap = _merge_cap(self.cap, other.cap)
        out: Dict[Exponent, Fraction] = {}
        for ma, ca in self.c.items():
            da = sum(ma)
            for mb, cb in other.c.items():
                if cap is not None and da + sum(mb) > cap:
                    continue
                mono = tuple(a + b for a, b in zip(ma, mb))
                s = out.get(mono, QZERO) + ca * cb
                if s == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = s
        return TruncatedPoly._wrap(self.n, out, cap)

    def __pow__(self, k: int) -> "TruncatedPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = TruncatedPoly.const(self.n, 1, self.cap)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def _check_arity(self, other: "TruncatedPoly") -> None:
        if self.n != other.n:
            raise ValueError(f"arity mismatch: {self.n} vs {other.n} variables")

    # -- calculus and substitution -------------------------------------------

    def deriv(self, idx: int) -> "TruncatedPoly":
        """Partial derivative with respect to variable idx.  Keeps the cap."""
        out: Dict[Exponent, Fraction] = {}
        for mono, val in self.c.items():
            e = mono[idx]
            if e == 0:
                continue
            new = list(mono)
            new[idx] = e - 1
            out[tuple(new)] = val * e
        return TruncatedPoly._wrap(self.n, out, self.cap)

    def truncate(self, cap: Optional[int]) -> "TruncatedPoly":
        return TruncatedPoly(self.n, self.c, cap)

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.n:
            raise ValueError("evaluation point has wrong arity")
        pt = [Fraction(p) for p in point]
        total = QZERO
        for mono, val in self.c.items():
            term = val
            for base, e in zip(pt, mono):
                if e:
                    term *= base ** e
            total += term
        return total

    def substitute(self, n_new: int, images: Sequence[Tuple]) -> "TruncatedPoly":
        """Compose with a monomial coordinate map from a ring with n_new
        variables.

        images[i] = (s, idxs) sends x_i to s * prod(y_l for l in idxs), and
        to the constant s when idxs is empty.  Keeps the cap.
        """
        if len(images) != self.n:
            raise ValueError("images have wrong arity")
        out: Dict[Exponent, Fraction] = {}
        for mono, val in self.c.items():
            exp = [0] * n_new
            for (s, idxs), e in zip(images, mono):
                if e:
                    if not s:
                        break   # the term vanishes
                    if s != 1:
                        val = val * Fraction(s) ** e
                    for l in idxs:
                        exp[l] += e
            else:
                mono2 = tuple(exp)
                out[mono2] = out[mono2] + val if mono2 in out else val
        cap = self.cap
        return TruncatedPoly._wrap(n_new, {m: v for m, v in out.items()
                                           if v and (cap is None or sum(m) <= cap)}, cap)

    # -- weight grading --------------------------------------------------------

    def homogeneous_weight(self, weights: Sequence[int]) -> Optional[int]:
        """The single weight of all monomials, or None if mixed.  Zero poly -> 0."""
        seen = None
        for mono in self.c:
            w = sum(wl * e for wl, e in zip(weights, mono))
            if seen is None:
                seen = w
            elif seen != w:
                return None
        return 0 if seen is None else seen


@dataclass(frozen=True)
class WeightAssignment:
    """Integer weights, one per coordinate, all nonnegative.

    Coordinates of weight zero span the transversal directions; the weight
    of a monomial is the weight-dot-exponent sum.
    """

    weights: Tuple[int, ...]

    def __post_init__(self):
        if any(w < 0 for w in self.weights):
            raise ValueError("coordinate weights must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.weights)

    def monomial_weight(self, mono: Exponent) -> int:
        return sum(w * e for w, e in zip(self.weights, mono))


# -- parsing and formatting ----------------------------------------------------


class PolyParseError(ValueError):
    """Raised on malformed polynomial text; carries a column offset."""

    def __init__(self, message: str, col: int):
        super().__init__(message)
        self.col = col


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}: {exc}") from None


def parse_poly(text: str, var_names: Sequence[str], cap: Optional[int] = None) -> TruncatedPoly:
    """Parse terms like ``3/2*x^2*y - x + 1`` over the named variables."""
    n = len(var_names)
    name_to_idx = {name: i for i, name in enumerate(var_names)}
    coeffs: Dict[Exponent, Fraction] = {}
    s = text.strip()
    if not s:
        raise PolyParseError("empty polynomial", 0)

    # Split into signed terms at top-level + and -.
    terms: List[Tuple[int, str, int]] = []  # (sign, term text, column)
    sign = 1
    buf: List[str] = []
    col0 = 0
    for i, ch in enumerate(s + "+"):
        if ch in "+-":
            chunk = "".join(buf).strip()
            if chunk:
                terms.append((sign, chunk, col0))
                sign = 1
            if ch == "-":
                sign = -sign
            buf = []
            col0 = i + 1
        else:
            buf.append(ch)
    if not terms:
        raise PolyParseError("no terms found", 0)

    for tsign, term, col in terms:
        coeff = Fraction(tsign)
        exp = [0] * n
        for factor in term.split("*"):
            factor = factor.strip()
            if not factor:
                raise PolyParseError("empty factor (doubled '*'?)", col)
            if factor[0].isdigit():
                try:
                    coeff *= Fraction(factor)
                    continue
                except (ValueError, ZeroDivisionError):
                    raise PolyParseError(f"bad numeric factor {factor!r}", col) from None
            name, _, power = factor.partition("^")
            name = name.strip()
            if name not in name_to_idx:
                raise PolyParseError(f"unknown variable {name!r}", col)
            if power:
                try:
                    e = int(power)
                except ValueError:
                    raise PolyParseError(f"bad exponent {power!r}", col) from None
                if e < 0:
                    raise PolyParseError(f"negative exponent in {factor!r}", col)
            else:
                e = 1
            exp[name_to_idx[name]] += e
        mono = tuple(exp)
        if cap is not None and sum(mono) > cap:
            raise PolyParseError(f"term exceeds jet order {cap}", col)
        total = coeffs.get(mono, QZERO) + coeff
        if total == 0:
            coeffs.pop(mono, None)
        else:
            coeffs[mono] = total
    return TruncatedPoly(n, coeffs, cap)


def format_rational(q: Fraction) -> str:
    """p/q in lowest terms, or p for an integer.

    Raises LabError, naming the limit, when the numerator or denominator
    has more digits than `sys.get_int_max_str_digits()` lets Python print."""
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise LabError(f"rational too large to print: its numerator or denominator has more "
                       f"than {limit} digits (sys.get_int_max_str_digits() = {limit})") from None


def format_poly(p: TruncatedPoly, var_names: Sequence[str]) -> str:
    """Canonical text form: graded-lex ascending terms joined by signs."""
    if p.is_zero():
        return "0"
    pieces: List[str] = []
    for mono, coeff in p.sorted_terms():
        factors: List[str] = []
        for name, e in zip(var_names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = format_rational(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = format_rational(mag) + "*" + "*".join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)


# -- exact division and generic rank over the polynomial ring -------------------


def poly_divide_exact(f: TruncatedPoly, g: TruncatedPoly) -> TruncatedPoly:
    """Quotient f/g when g divides f exactly; raises ValueError otherwise.

    Works by repeated leading-term division in graded-lex order, which
    terminates with zero remainder precisely for exact divisors.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    rem = TruncatedPoly(f.n, f.c, None)
    lg, cg = g.leading_term()
    quot: Dict[Exponent, Fraction] = {}
    while not rem.is_zero():
        lf, cf = rem.leading_term()
        diff = tuple(a - b for a, b in zip(lf, lg))
        if any(d < 0 for d in diff):
            raise ValueError("polynomial division is not exact")
        q = cf / cg
        quot[diff] = quot.get(diff, QZERO) + q
        rem = rem - TruncatedPoly.monomial(f.n, diff, q) * g.truncate(None)
    return TruncatedPoly(f.n, quot, None)


def poly_matrix_rank(rows: List[List[TruncatedPoly]]) -> int:
    """Rank over the fraction field (generic rank) of a polynomial matrix.

    Fraction-free Bareiss elimination.  When an interior division happens
    not to be exact (possible once rows have been rescaled after a fallback)
    the whole row is kept unscaled instead; scaling a row by a nonzero
    polynomial never changes the rank over the fraction field.
    """
    if not rows or not rows[0]:
        return 0
    m = [[e.truncate(None) for e in row] for row in rows]
    nrows, ncols = len(m), len(m[0])
    n_vars = m[0][0].n
    one = TruncatedPoly.const(n_vars, 1)
    prev = one
    rank = 0
    pr = 0
    for col in range(ncols):
        pivot = None
        for r in range(pr, nrows):
            if not m[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            continue
        m[pr], m[pivot] = m[pivot], m[pr]
        piv = m[pr][col]
        for r in range(pr + 1, nrows):
            raw = [piv * m[r][c2] - m[r][col] * m[pr][c2] for c2 in range(col + 1, ncols)]
            if prev != one:
                try:
                    raw = [poly_divide_exact(e, prev) if not e.is_zero() else e for e in raw]
                except ValueError:
                    pass  # keep the unscaled row; rank is unaffected
            for off, e in enumerate(raw):
                m[r][col + 1 + off] = e
            m[r][col] = TruncatedPoly.zero(n_vars)
        prev = piv
        rank += 1
        pr += 1
        if pr == nrows:
            break
    return rank


def poly_matrix_inverse_unit(rows: List[List[TruncatedPoly]], cap: int) -> List[List[TruncatedPoly]]:
    """Inverse of a square polynomial matrix whose value at 0 is invertible,
    computed in the jet ring of order cap via a Neumann series."""
    from .linalg import QMatrix  # local import to avoid a cycle

    k = len(rows)
    if k == 0:
        return []
    n_vars = rows[0][0].n
    b0 = QMatrix([[e.constant_term() for e in row] for row in rows])
    b0_inv = b0.inverse()
    if b0_inv is None:
        raise ValueError("matrix value at the origin is singular")
    # G = I - B0^{-1} B has entries with zero constant term.
    b0i_rows = [[TruncatedPoly.const(n_vars, x, cap) for x in row] for row in b0_inv.rows]
    prod = _poly_mat_mul(b0i_rows, [[e.truncate(cap) for e in row] for row in rows])
    gmat = [[(TruncatedPoly.const(n_vars, 1 if i == j else 0, cap) - prod[i][j])
             for j in range(k)] for i in range(k)]
    acc = [[TruncatedPoly.const(n_vars, 1 if i == j else 0, cap) for j in range(k)]
           for i in range(k)]
    power = acc
    for _ in range(cap):
        power = _poly_mat_mul(power, gmat)
        if all(e.is_zero() for row in power for e in row):
            break
        acc = [[acc[i][j] + power[i][j] for j in range(k)] for i in range(k)]
    return _poly_mat_mul(acc, b0i_rows)


def pivot_kernel_frame(block: List[List[TruncatedPoly]], ncols: int, n_vars: int, cap: int
                       ) -> Tuple[List[int], List[int], List[List[TruncatedPoly]]]:
    """Pivot columns, free columns and a kernel frame of a polynomial block
    that is surjective at the origin, in the jet ring of order cap.

    The pivots are those of the block's value at the origin, so the pivot
    submatrix is a unit.  Each frame element has 1 at its own free column,
    0 at the other free columns, and pivot entries solving block . v = 0.
    A block with no rows gives the identity frame on ncols columns.
    """
    from .linalg import QMatrix  # local import to avoid a cycle

    _, pivots = QMatrix([[e.constant_term() for e in row] for row in block], ncols).rref()
    pivot_set = set(pivots)
    free = [i for i in range(ncols) if i not in pivot_set]
    sub_inv = poly_matrix_inverse_unit([[row[p] for p in pivots] for row in block], cap)
    solved = _poly_mat_mul(sub_inv, [[row[t] for t in free] for row in block])
    z = TruncatedPoly.zero(n_vars, cap)
    frame: List[List[TruncatedPoly]] = []
    for k, t in enumerate(free):
        coeffs = [z] * ncols
        coeffs[t] = TruncatedPoly.const(n_vars, 1, cap)
        for srow, p in enumerate(pivots):
            coeffs[p] = -solved[srow][k]
        frame.append(coeffs)
    return pivots, free, frame


def minors(m: Sequence[Sequence], one) -> Callable[[Tuple[int, ...], Tuple[int, ...]], object]:
    """minor(rows, cols): the determinant of m at equal-length index tuples.

    Entries are Fractions or uncapped TruncatedPolys and one is the unit of
    their ring.  Each minor is expanded along its first row once and
    memoized, so minors that share trailing rows share their subminors.
    """
    zero = one - one
    memo: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], object] = {}

    def minor(rows: Tuple[int, ...], cols: Tuple[int, ...]):
        if not rows:
            return one
        if len(rows) == 1:
            return m[rows[0]][cols[0]]
        key = (rows, cols)
        if key not in memo:
            head, acc = m[rows[0]], zero
            for k, c in enumerate(cols):
                if head[c]:
                    term = head[c] * minor(rows[1:], cols[:k] + cols[k + 1:])
                    acc = acc - term if k % 2 else acc + term
            memo[key] = acc
        return memo[key]

    return minor


def _poly_mat_mul(a: List[List[TruncatedPoly]], b: List[List[TruncatedPoly]]) -> List[List[TruncatedPoly]]:
    """Product of polynomial matrices; zero entries contribute nothing."""
    cols = len(b[0]) if b else 0
    out = []
    for row_a in a:
        row = [TruncatedPoly.zero(row_a[0].n, row_a[0].cap) for _ in range(cols)]
        for l, x in enumerate(row_a):
            if x.is_zero():
                continue
            for j, y in enumerate(b[l]):
                if not y.is_zero():
                    row[j] = row[j] + x * y
        out.append(row)
    return out
