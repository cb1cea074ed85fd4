"""Exact linear algebra over the rationals.

Every entry is exact, a Fraction or an integer; there is no floating point
in this module.  There is one stored form of a matrix and one elimination
engine.  A `QMatrix` holds only sparse rows, {column: Fraction} dicts of
the nonzero entries; its products, differences and applications accumulate
those rows, and its dense `rows` are a read-out for reports.  `Echelon` is
a reduced row echelon span kept fraction-free: each vector enters with its
denominators cleared, and its rows are primitive integer multiples of the
reduced rational rows, which are made only where they are read; the CE
differential hands it integer rows (D * d, see `cohomology`), so no
Fraction is made on the way in either.  Rank, kernel, image, rref, solve
and inverse of a `QMatrix` are all one `Echelon` pass over its rows
(augmented for solve and inverse).  `Echelon.kernel` reads the null
space off the reduced rows, `quotient_dim_and_reps` reduces sparse cycles
against a boundary echelon, and `persistence_pairs` records the pivot of
each accepted row of a filtration-ordered pass, making no Fraction at
all.  The reduced row echelon form of a matrix is unique, so pivots,
kernel and image bases, solutions, inverses and quotient representatives
do not depend on the order of elimination and are reproducible byte for
byte.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

QZERO = Fraction(0)
QONE = Fraction(1)

Vector = List[Fraction]
SparseRow = Dict[int, Fraction]
IntRow = Dict[int, int]


class QMatrix:
    """Rational matrix stored as sparse rows.

    Each row is a {column: Fraction} dict of its nonzero entries; no zero
    is stored, so two matrices are equal exactly when their shapes and
    sparse rows are.  `rows` reads the matrix out as dense rows, made anew
    on every read, for reports and other readers outside this module.  A
    matrix is not changed after it is made.
    """

    __slots__ = ("_sparse", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence], ncols: Optional[int] = None):
        dense = [[Fraction(v) for v in row] for row in rows]
        self.nrows = len(dense)
        self.ncols = len(dense[0]) if dense else (0 if ncols is None else ncols)
        if any(len(r) != self.ncols for r in dense):
            raise ValueError("ragged rows")
        self._sparse = [{j: x for j, x in enumerate(r) if x} for r in dense]

    @classmethod
    def of_sparse(cls, rows: List[SparseRow], ncols: int) -> "QMatrix":
        """Wrap sparse rows over the columns 0..ncols-1, without copying.

        The rows must hold no zero entry."""
        out = cls.__new__(cls)
        out._sparse, out.nrows, out.ncols = rows, len(rows), ncols
        return out

    @property
    def rows(self) -> List[Vector]:
        return [_dense(row, self.ncols) for row in self._sparse]

    def sparse_rows(self) -> List[SparseRow]:
        """The rows as new sparse vectors."""
        return [dict(row) for row in self._sparse]

    def sparse_columns(self) -> List[SparseRow]:
        """The columns as new sparse vectors."""
        cols: List[SparseRow] = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self._sparse):
            for j, x in row.items():
                cols[j][i] = x
        return cols

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls.of_sparse([{i: QONE} for i in range(n)], n)

    @classmethod
    def from_columns(cls, cols: Sequence[Vector], nrows: Optional[int] = None) -> "QMatrix":
        return cls(cols, nrows or 0).transpose()

    def column(self, j: int) -> Vector:
        return [row.get(j, QZERO) for row in self._sparse]

    def transpose(self) -> "QMatrix":
        return QMatrix.of_sparse(self.sparse_columns(), self.nrows)

    def is_zero(self) -> bool:
        return not any(self._sparse)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) \
            and self._sparse == other._sparse

    def __repr__(self) -> str:
        return f"QMatrix({self.nrows}x{self.ncols})"

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        out = self.sparse_rows()
        for v, row in zip(out, other._sparse):
            _axpy(v, -QONE, row)
        return QMatrix.of_sparse(out, self.ncols)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        out: List[SparseRow] = []
        for row in self._sparse:
            v: SparseRow = {}
            for k, x in row.items():
                _axpy(v, x, other._sparse[k])
            out.append(v)
        return QMatrix.of_sparse(out, other.ncols)

    def apply(self, vec: Sequence) -> Vector:
        if len(vec) != self.ncols:
            raise ValueError("vector arity mismatch")
        support = {j: Fraction(b) for j, b in enumerate(vec) if b}
        return [sum((x * support[j] for j, x in row.items() if j in support), QZERO)
                for row in self._sparse]

    # -- reductions -------------------------------------------------------------

    def rref(self) -> Tuple["QMatrix", List[int]]:
        """Reduced row echelon form and the list of pivot columns.

        The rows are inserted into one Echelon; the reduced rows come first
        in pivot order, followed by zero rows up to the original height.
        """
        ech = self.echelon()
        rows = [ech.row(p) for p in ech.pivots] + [{} for _ in range(self.nrows - ech.rank)]
        return QMatrix.of_sparse(rows, self.ncols), list(ech.pivots)

    def echelon(self) -> "Echelon":
        """The reduced row echelon span of the rows."""
        return Echelon(self.ncols, self.sparse_rows())

    def rank(self) -> int:
        return self.echelon().rank

    def kernel_basis(self) -> List[Vector]:
        """Canonical basis of the null space: `Echelon.kernel` of the rows, made dense."""
        return [_dense(v, self.ncols) for v in self.echelon().kernel()]

    def image_basis(self) -> List[Vector]:
        """Basis of the column space: the original pivot columns."""
        return [self.column(j) for j in self.echelon().pivots]

    def solve(self, b: Sequence) -> Optional[Vector]:
        """One solution x of self @ x = b, or None if inconsistent.

        The rows augmented by b are eliminated in one Echelon; b is
        consistent when no pivot lands in its column, and then x is that
        column read at the pivots."""
        bb = [Fraction(v) for v in b]
        if len(bb) != self.nrows:
            raise ValueError("rhs arity mismatch")
        n = self.ncols
        aug = self.sparse_rows()
        for row, val in zip(aug, bb):
            if val:
                row[n] = val
        ech = Echelon(n + 1, aug)
        if n in ech._row_at:
            return None
        x = [QZERO] * n
        for p in ech.pivots:
            x[p] = ech.row(p).get(n, QZERO)
        return x

    def inverse(self) -> Optional["QMatrix"]:
        """The inverse, or None if singular: the rows augmented by the
        identity are eliminated in one Echelon."""
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = self.sparse_rows()
        for i, row in enumerate(aug):
            row[n + i] = QONE
        ech = Echelon(2 * n, aug)
        if ech.pivots != list(range(n)):
            return None
        return QMatrix.of_sparse([{c - n: x for c, x in ech.row(p).items() if c >= n}
                                  for p in ech.pivots], n)


class Echelon:
    """Reduced row echelon span with sparse integer rows, built one vector at a time.

    Each row is a {column: int} dict of its nonzero entries: a primitive
    integer vector (content 1) whose pivot entry is positive, a nonzero
    multiple of the reduced rational row, so it is 0 at every other pivot
    (fraction-free elimination; Bareiss 1968).  `pivots` is ascending.
    The rational row at pivot p is row / row[p]; `row` reads it out, and
    so do `kernel` and `quotient_dim_and_reps`.  The columns of a vector
    are 0..dim-1.  A sparse row may also carry negative columns, for
    coordinates to eliminate: they order before every other column, so the
    rows pivoted at 0..dim-1 are the reduced basis of the part of the span
    that vanishes at those coordinates, and `kernel` skips the rows pivoted
    at negative columns.  Vectors enter with rational or integer entries
    (the rows of the CE differential are integer) and are consumed.
    """

    def __init__(self, dim: int, rows: Iterable[SparseRow] = ()):
        self.dim = dim
        self.pivots: List[int] = []
        self._row_at: Dict[int, IntRow] = {}        # pivot -> primitive integer row
        for row in rows:
            self.add(row)

    def reduce(self, v: SparseRow) -> IntRow:
        """A residual of the sparse vector v against the span, computed in place.

        The denominators of v are cleared first; each pivot p of v is then
        cancelled by v <- a*v - v[p]*row_p, with a the pivot entry of row_p
        (both divided by their gcd).  That leaves v unchanged up to scale
        at every other pivot, so the result is a nonzero integer multiple of
        the rational residual, and empty exactly when v lies in the span.
        """
        den = lcm(*[x.denominator for x in v.values()])
        for c, x in v.items():
            v[c] = x.numerator * (den // x.denominator)
        rows = self._row_at
        for p in [p for p in v if p in rows]:
            _cancel(v, p, rows[p])
        return v

    def add(self, v: SparseRow) -> Optional[IntRow]:
        """Insert the sparse vector v (consumed).

        Returns the new primitive row if v enlarged the span, else None.  The
        row is the echelon's own: later insertions back-substitute into it.
        """
        v = self.reduce(v)
        if not v:
            return None
        pivot = min(v)
        _make_primitive(v, pivot)
        # Back-substitute into existing rows to keep the echelon reduced.
        for p, row in self._row_at.items():
            if pivot in row:
                _cancel(row, pivot, v)
                _make_primitive(row, p)
        insort(self.pivots, pivot)
        self._row_at[pivot] = v
        return v

    def row(self, pivot: int) -> SparseRow:
        """The reduced rational row at a pivot: 1 there, 0 at every other pivot."""
        row = self._row_at[pivot]
        a = row[pivot]
        return {c: Fraction(x, a) for c, x in row.items()}

    def kernel(self) -> List[SparseRow]:
        """Canonical basis of the null space of the rows pivoted at 0..dim-1,
        as sparse vectors; the rows pivoted at negative columns are skipped.

        One vector per free column in 0..dim-1, in column order: 1 at its
        free column, 0 at the other free columns and minus the reduced row
        entries at the pivots.  A row pivoted at p >= 0 holds only columns
        >= p, so each entry besides its pivot sits at a free column.
        """
        basis = {j: {j: QONE} for j in range(self.dim) if j not in self._row_at}
        for p in self.pivots:
            if p >= 0:
                for c, x in self.row(p).items():
                    if c != p:
                        basis[c][p] = -x
        return list(basis.values())

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _cancel(v: IntRow, p: int, row: IntRow) -> None:
    """v <- a*v - b*row in place, with a/b = row[p]/v[p] in lowest terms, so
    v vanishes at p; integer rows only."""
    a, b = row[p], v[p]
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    if a != 1:
        for c in v:
            v[c] *= a
    _axpy(v, -b, row)


def _make_primitive(v: IntRow, pivot: int) -> None:
    """Divide the integer row v in place by its content, signed so that
    v[pivot] > 0."""
    g = gcd(*v.values())
    if v[pivot] < 0:
        g = -g
    if g != 1:
        for c in v:
            v[c] //= g


def _dense(v: SparseRow, dim: int) -> Vector:
    out = [QZERO] * dim
    for c, x in v.items():
        out[c] = x
    return out


def _axpy(v: SparseRow, f: Fraction, row: SparseRow) -> None:
    """v += f * row in place, dropping entries that cancel."""
    for c, x in row.items():
        if c in v:
            y = v[c] + f * x
            if y:
                v[c] = y
            else:
                del v[c]
        else:
            v[c] = f * x


def persistence_pairs(dim: int, rows: Iterable[SparseRow]) -> List[Tuple[int, int]]:
    """(index, pivot) of every row that enlarges the span as the rows enter
    one Echelon in order; the rows are consumed.

    Fed in filtration order, with the columns numbered from the latest
    filtration step down, the pivot of each accepted row is the earliest
    coordinate its reduced image reaches: its persistence partner
    (Edelsbrunner, Letscher and Zomorodian 2002).  The pivots of the
    accepted rows of any prefix are the pivots of its reduced span."""
    ech = Echelon(dim)
    pairs = []
    for i, row in enumerate(rows):
        new = ech.add(row)
        if new is not None:
            pairs.append((i, min(new)))
    return pairs


def quotient_dim_and_reps(cycles: Iterable[SparseRow], boundaries: "Echelon"
                          ) -> Tuple[int, List[Vector]]:
    """Dimension and canonical representatives of span(cycles)/span(boundaries).

    The cycles are sparse vectors over the columns 0..dim-1 of the
    boundary echelon; both are consumed.  Boundaries must lie inside the
    cycle span (not checked here).  The representatives are the residuals
    of the cycles after reduction modulo the boundary span, taken in
    order, each reduced against the previously accepted ones and scaled to
    leading entry 1.  One reduced echelon holds both, so each residual is
    the unique vector of its coset that vanishes at every pivot; only the
    accepted residuals are made dense.
    """
    reps: List[Vector] = []
    for z in cycles:
        row = boundaries.add(z)
        if row is not None:
            reps.append(_dense(boundaries.row(min(row)), boundaries.dim))
    return len(reps), reps
