"""Exact linear algebra over the rationals.

All computations run on Fraction entries; there is no floating point in
this module.  There is one elimination engine, `Echelon`: a reduced row
echelon span whose rows are sparse {column: Fraction} dicts.  Kernels and
subquotients are computed there on sparse rows: `Echelon.kernel` reads the
null space off the reduced rows, and `quotient_dim_and_reps` reduces sparse
cycles against a boundary echelon.  `QMatrix` gives its readers dense
rows; its rank, kernel, image, solve and inverse feed its rows into an
`Echelon` and densify the answer.  A `QMatrix` made from sparse rows keeps
them, so its eliminations never scan a dense row, and makes its dense rows
only when a reader asks for them.  The reduced row echelon form of a matrix
is unique, so pivots, kernel and image bases, solutions, inverses and
quotient representatives do not depend on the order of elimination and are
reproducible byte for byte.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

QZERO = Fraction(0)
QONE = Fraction(1)

Vector = List[Fraction]
SparseRow = Dict[int, Fraction]


class NotAComplexError(ValueError):
    """Composite of two maps expected to vanish does not.

    Carries the first nonzero witness entry as (row, col, value).
    """

    def __init__(self, witness: Tuple[int, int, Fraction]):
        row, col, value = witness
        super().__init__(
            f"not a complex: composite has nonzero entry {value} at row {row}, column {col}")
        self.witness = witness


class QMatrix:
    """Rational matrix; `rows` are its dense rows of Fractions.

    A matrix made by `of_sparse` holds sparse rows and makes its dense rows
    on first use.  A matrix is not changed after it is made.
    """

    __slots__ = ("_rows", "_sparse", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence] , ncols: Optional[int] = None):
        self._rows = [[Fraction(v) for v in row] for row in rows]
        self._sparse: Optional[List[SparseRow]] = None
        self.nrows = len(self._rows)
        if self.nrows:
            self.ncols = len(self._rows[0])
            if any(len(r) != self.ncols for r in self._rows):
                raise ValueError("ragged rows")
        else:
            self.ncols = 0 if ncols is None else ncols

    @classmethod
    def of_fractions(cls, rows: List[Vector], ncols: int) -> "QMatrix":
        """Wrap rows whose entries are already Fractions, without copying."""
        out = cls.__new__(cls)
        out._rows, out._sparse, out.nrows, out.ncols = rows, None, len(rows), ncols
        return out

    @classmethod
    def of_sparse(cls, rows: List[SparseRow], ncols: int) -> "QMatrix":
        """Wrap sparse rows over the columns 0..ncols-1, without copying."""
        out = cls.__new__(cls)
        out._rows, out._sparse, out.nrows, out.ncols = None, rows, len(rows), ncols
        return out

    @property
    def rows(self) -> List[Vector]:
        if self._rows is None:
            self._rows = [_dense(row, self.ncols) for row in self._sparse]
        return self._rows

    def sparse_rows(self) -> List[SparseRow]:
        """The rows as new sparse vectors."""
        if self._sparse is not None:
            return [dict(row) for row in self._sparse]
        return [{j: x for j, x in enumerate(row) if x} for row in self._rows]

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "QMatrix":
        return cls([[QZERO] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[QONE if i == j else QZERO for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_columns(cls, cols: Sequence[Vector], nrows: Optional[int] = None) -> "QMatrix":
        return cls(cols, nrows or 0).transpose()

    def column(self, j: int) -> Vector:
        return [row[j] for row in self.rows]

    def transpose(self) -> "QMatrix":
        rows = self.rows
        return QMatrix.of_fractions([[row[j] for row in rows] for j in range(self.ncols)],
                                    self.nrows)

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.rows for v in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self.rows == other.rows

    def __repr__(self) -> str:
        return f"QMatrix({self.nrows}x{self.ncols})"

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return QMatrix([[a - b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.rows, other.rows)], self.ncols)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        bt = other.transpose().rows
        return QMatrix.of_fractions([[sum((a * b for a, b in zip(row, col) if a and b), QZERO)
                                      for col in bt] for row in self.rows], other.ncols)

    def apply(self, vec: Sequence) -> Vector:
        if len(vec) != self.ncols:
            raise ValueError("vector arity mismatch")
        # differentials are sparse: convert and multiply only nonzero pairs
        support = [(j, Fraction(b)) for j, b in enumerate(vec) if b]
        return [sum((row[j] * b for j, b in support if row[j]), QZERO) for row in self.rows]

    # -- reductions -------------------------------------------------------------

    def rref(self) -> Tuple["QMatrix", List[int]]:
        """Reduced row echelon form and the list of pivot columns.

        The rows are inserted into one Echelon; the reduced rows come first
        in pivot order, followed by zero rows up to the original height.
        """
        ech = self.echelon()
        rows = ech.dense_rows() + [[QZERO] * self.ncols for _ in range(self.nrows - ech.rank)]
        return QMatrix.of_fractions(rows, self.ncols), list(ech.pivots)

    def echelon(self) -> "Echelon":
        """The reduced row echelon span of the rows."""
        return Echelon(self.ncols, self.sparse_rows())

    def column_echelon(self) -> "Echelon":
        """The reduced row echelon span of the columns."""
        cols: List[SparseRow] = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.sparse_rows()):
            for j, x in row.items():
                cols[j][i] = x
        return Echelon(self.nrows, cols)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> List[Vector]:
        """Canonical basis of the null space: `Echelon.kernel` of the rows, made dense."""
        return [_dense(v, self.ncols) for v in self.echelon().kernel()]

    def image_basis(self) -> List[Vector]:
        """Basis of the column space: the original pivot columns."""
        _, pivots = self.rref()
        return [self.column(j) for j in pivots]

    def solve(self, b: Sequence) -> Optional[Vector]:
        """One solution x of self @ x = b, or None if inconsistent."""
        bb = [Fraction(v) for v in b]
        if len(bb) != self.nrows:
            raise ValueError("rhs arity mismatch")
        aug = QMatrix([row + [val] for row, val in zip(self.rows, bb)], self.ncols + 1)
        red, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        x = [QZERO] * self.ncols
        for r, pc in enumerate(pivots):
            x[pc] = red.rows[r][self.ncols]
        return x

    def inverse(self) -> Optional["QMatrix"]:
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = QMatrix([self.rows[i] + [QONE if j == i else QZERO for j in range(n)]
                       for i in range(n)], 2 * n)
        red, pivots = aug.rref()
        if pivots != list(range(n)):
            return None
        return QMatrix([red.rows[i][n:] for i in range(n)], n)


class Echelon:
    """Reduced row echelon span with sparse rows, built one vector at a time.

    Each row is a {column: Fraction} dict of its nonzero entries, equal to 1
    at its own pivot and 0 at every other pivot.  `pivots` is ascending.
    The columns of a vector are 0..dim-1.  A sparse row may also carry
    negative columns, for coordinates to eliminate: they order before every
    other column, and `dense_rows` leaves out the rows pivoted there, so
    its rows are the reduced basis of the part of the span that vanishes
    at those coordinates.  The initial sparse rows are consumed.
    """

    def __init__(self, dim: int, rows: Iterable[SparseRow] = ()):
        self.dim = dim
        self.pivots: List[int] = []
        self._rows: Dict[int, SparseRow] = {}      # pivot -> row
        for row in rows:
            self.add(row)

    def reduce(self, v: SparseRow) -> SparseRow:
        """Residual of the sparse vector v against the span, computed in place.

        Subtracting the row of one pivot leaves v unchanged at every other
        pivot, so the factors are the entries of v at the pivots.
        """
        rows = self._rows
        for p in [p for p in v if p in rows]:
            _axpy(v, -v[p], rows[p])
        return v

    def add(self, v: SparseRow) -> Optional[SparseRow]:
        """Insert the sparse vector v (consumed).

        Returns the new reduced row if v enlarged the span, else None.  The
        row is the echelon's own: later insertions back-substitute into it.
        """
        v = self.reduce(v)
        if not v:
            return None
        pivot = min(v)
        inv = 1 / v[pivot]
        v = {c: x * inv for c, x in v.items()}
        # Back-substitute into existing rows to keep the echelon reduced.
        for row in self._rows.values():
            if pivot in row:
                _axpy(row, -row[pivot], v)
        insort(self.pivots, pivot)
        self._rows[pivot] = v
        return v

    def dense_rows(self) -> List[Vector]:
        """The reduced rows with a pivot in 0..dim-1, as dense vectors, in pivot order."""
        return [_dense(self._rows[p], self.dim) for p in self.pivots if p >= 0]

    def kernel(self) -> List[SparseRow]:
        """Canonical basis of the null space of `dense_rows`, as sparse vectors.

        One vector per free column in 0..dim-1, in column order: 1 at its
        free column, 0 at the other free columns and minus the row entries
        at the pivots.  A row pivoted at p >= 0 holds only columns >= p, so
        each entry besides its pivot sits at a free column.
        """
        basis = {j: {j: QONE} for j in range(self.dim) if j not in self._rows}
        for p in self.pivots:
            if p >= 0:
                for c, x in self._rows[p].items():
                    if c != p:
                        basis[c][p] = -x
        return list(basis.values())

    @property
    def rank(self) -> int:
        return len(self.pivots)


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
            reps.append(_dense(row, boundaries.dim))
    return len(reps), reps


def kernel_quotient_dims(d_in: QMatrix, d_out: QMatrix) -> Dict[str, object]:
    """Exact homology data of the two-step complex  . --d_in--> . --d_out--> .

    Verifies d_out @ d_in = 0 first and raises NotAComplexError with the
    first nonzero entry as a witness otherwise.  Returns kernel dimension,
    image dimension, quotient dimension, and canonical bases.
    """
    if d_in.ncols and d_out.ncols != d_in.nrows:
        raise ValueError("chain maps are not composable")
    comp = d_out @ d_in
    for i, row in enumerate(comp.rows):
        for j, v in enumerate(row):
            if v != 0:
                raise NotAComplexError((i, j, v))
    cocycles = d_out.echelon().kernel()
    kernel = [_dense(v, d_out.ncols) for v in cocycles]
    image = d_in.image_basis()
    boundaries = d_in.column_echelon() if d_in.ncols else Echelon(d_out.ncols)
    betti, reps = quotient_dim_and_reps(cocycles, boundaries)
    return {
        "kernel_dim": len(kernel),
        "image_dim": len(image),
        "betti": betti,
        "kernel_basis": kernel,
        "image_basis": image,
        "representatives": reps,
    }
