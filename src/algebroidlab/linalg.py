"""Exact linear algebra over the rationals.

All computations run on Fraction entries; there is no floating point in
this module.  There is one elimination engine, `Echelon`: a reduced row
echelon span whose rows are sparse {column: Fraction} dicts.  `QMatrix`
keeps dense rows for its readers, and `QMatrix.rref` feeds those rows into
an `Echelon`, so rank, kernel, image, solve and inverse all reduce there.
The reduced row echelon form of a matrix is unique, so pivots, kernel and
image bases, solutions, inverses and quotient representatives do not
depend on the order of elimination and are reproducible byte for byte.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

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
    """Dense rational matrix; rows of Fractions."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence] , ncols: Optional[int] = None):
        self.rows = [[Fraction(v) for v in row] for row in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise ValueError("ragged rows")
        else:
            self.ncols = 0 if ncols is None else ncols

    @classmethod
    def of_fractions(cls, rows: List[Vector], ncols: int) -> "QMatrix":
        """Wrap rows whose entries are already Fractions, without copying."""
        out = cls.__new__(cls)
        out.rows = rows
        out.nrows = len(rows)
        out.ncols = ncols
        return out

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "QMatrix":
        return cls([[QZERO] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[QONE if i == j else QZERO for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_columns(cls, cols: Sequence[Vector], nrows: Optional[int] = None) -> "QMatrix":
        if not cols:
            return cls.zeros(nrows or 0, 0)
        height = len(cols[0])
        if height == 0:
            return cls.zeros(0, len(cols))
        return cls([[col[i] for col in cols] for i in range(height)])

    def column(self, j: int) -> Vector:
        return [row[j] for row in self.rows]

    def transpose(self) -> "QMatrix":
        return QMatrix([[self.rows[i][j] for i in range(self.nrows)]
                        for j in range(self.ncols)], self.nrows)

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
        out = []
        for row in self.rows:
            out_row = []
            for col in bt:
                acc = QZERO
                for a, b in zip(row, col):
                    if a and b:
                        acc += a * b
                out_row.append(acc)
            out.append(out_row)
        return QMatrix(out, other.ncols)

    def apply(self, vec: Sequence) -> Vector:
        v = [Fraction(x) for x in vec]
        if len(v) != self.ncols:
            raise ValueError("vector arity mismatch")
        # differentials are sparse: multiply only nonzero pairs
        support = [(j, b) for j, b in enumerate(v) if b]
        return [sum((row[j] * b for j, b in support if row[j]), QZERO) for row in self.rows]

    # -- reductions -------------------------------------------------------------

    def rref(self) -> Tuple["QMatrix", List[int]]:
        """Reduced row echelon form and the list of pivot columns.

        The rows are inserted into one Echelon; the reduced rows come first
        in pivot order, followed by zero rows up to the original height.
        """
        ech = Echelon(self.ncols)
        for row in self.rows:
            ech.add_sparse({j: x for j, x in enumerate(row) if x})
        rows = ech.dense_rows() + [[QZERO] * self.ncols for _ in range(self.nrows - ech.rank)]
        return QMatrix.of_fractions(rows, self.ncols), list(ech.pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> List[Vector]:
        """Basis of the null space; one vector per free column, in column order.

        Each basis vector has entry 1 at its free column and zeros at the
        other free columns, which makes the basis canonical.
        """
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        basis: List[Vector] = []
        for j in free:
            vec = [QZERO] * self.ncols
            vec[j] = QONE
            for r, pc in enumerate(pivots):
                vec[pc] = -red.rows[r][j]
            basis.append(vec)
        return basis

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
    at those coordinates.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.pivots: List[int] = []
        self._rows: Dict[int, SparseRow] = {}      # pivot -> row

    def _reduce(self, v: SparseRow) -> SparseRow:
        """Residual of v against the span, computed in place.

        Subtracting the row of one pivot leaves v unchanged at every other
        pivot, so the factors are the entries of v at the pivots.
        """
        rows = self._rows
        for p in [p for p in v if p in rows]:
            _axpy(v, -v[p], rows[p])
        return v

    def add_sparse(self, v: SparseRow) -> Optional[int]:
        """Insert the sparse vector v (consumed).

        Returns the pivot of its new row if v enlarged the span, else None.
        """
        v = self._reduce(v)
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
        return pivot

    def reduce(self, vec: Sequence) -> Vector:
        """Residual of vec after elimination against the current span."""
        return self._dense(self._reduce(_sparse(vec)))

    def add(self, vec: Sequence) -> bool:
        """Insert vec into the span; True if it enlarged the span."""
        return self.add_sparse(_sparse(vec)) is not None

    def dense_rows(self) -> List[Vector]:
        """The reduced rows with a pivot in 0..dim-1, as dense vectors, in pivot order."""
        return [self._dense(self._rows[p]) for p in self.pivots if p >= 0]

    def _dense(self, v: SparseRow) -> Vector:
        out = [QZERO] * self.dim
        for c, x in v.items():
            out[c] = x
        return out

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _sparse(vec: Sequence) -> SparseRow:
    return {j: Fraction(x) for j, x in enumerate(vec) if x}


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


def quotient_dim_and_reps(cycles: List[Vector], boundaries: List[Vector], dim: int
                          ) -> Tuple[int, List[Vector]]:
    """Dimension and canonical representatives of span(cycles)/span(boundaries).

    Boundaries must lie inside the cycle span (not checked here).  The
    representatives are the residuals of the cycle basis vectors after
    reduction modulo the boundary span, taken in order, each reduced
    against the previously accepted ones and scaled to leading entry 1.
    One reduced echelon holds both, so each residual is the unique vector
    of its coset that vanishes at every pivot.
    """
    ech = Echelon(dim)
    for b in boundaries:
        ech.add(b)
    reps: List[Vector] = []
    for z in cycles:
        resid = ech.reduce(z)
        pivot = next((i for i, x in enumerate(resid) if x != 0), None)
        if pivot is None:
            continue
        inv = 1 / resid[pivot]
        reps.append([x * inv for x in resid])
        ech.add(reps[-1])
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
    kernel = d_out.kernel_basis()
    image = d_in.image_basis()
    dim = d_out.ncols
    betti, reps = quotient_dim_and_reps(kernel, image, dim)
    return {
        "kernel_dim": len(kernel),
        "image_dim": len(image),
        "betti": betti,
        "kernel_basis": kernel,
        "image_basis": image,
        "representatives": reps,
    }
