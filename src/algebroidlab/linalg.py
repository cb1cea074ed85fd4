"""Exact linear algebra over the rationals.

All computations run on Fraction entries; there is no floating point in
this module.  There is one stored form and one elimination engine.  A
`QMatrix` holds only sparse rows, {column: Fraction} dicts of the nonzero
entries; its products, differences and applications accumulate those rows,
and its dense `rows` are a read-out for reports.  `Echelon` is a reduced
row echelon span over the same sparse rows: rank, kernel, image, rref,
solve and inverse of a `QMatrix` are all one `Echelon` pass over its rows
(augmented for solve and inverse).  `Echelon.kernel` reads the null space
off the reduced rows, `quotient_dim_and_reps` reduces sparse cycles
against a boundary echelon, and `persistence_pairs` records the pivot of
each accepted row of a filtration-ordered pass.  The reduced row echelon
form of a matrix is unique, so pivots, kernel and image bases, solutions,
inverses and quotient representatives do not depend on the order of
elimination and are reproducible byte for byte.
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
    def zeros(cls, nrows: int, ncols: int) -> "QMatrix":
        return cls.of_sparse([{} for _ in range(nrows)], ncols)

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
        rows = [ech._row_at[p] for p in ech.pivots] + [{} for _ in range(self.nrows - ech.rank)]
        return QMatrix.of_sparse(rows, self.ncols), list(ech.pivots)

    def echelon(self) -> "Echelon":
        """The reduced row echelon span of the rows."""
        return Echelon(self.ncols, self.sparse_rows())

    def column_echelon(self) -> "Echelon":
        """The reduced row echelon span of the columns."""
        return Echelon(self.nrows, self.sparse_columns())

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
            x[p] = ech._row_at[p].get(n, QZERO)
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
        return QMatrix.of_sparse([{c - n: x for c, x in ech._row_at[p].items() if c >= n}
                                  for p in ech.pivots], n)


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
        self._row_at: Dict[int, SparseRow] = {}      # pivot -> row
        for row in rows:
            self.add(row)

    def reduce(self, v: SparseRow) -> SparseRow:
        """Residual of the sparse vector v against the span, computed in place.

        Subtracting the row of one pivot leaves v unchanged at every other
        pivot, so the factors are the entries of v at the pivots.
        """
        rows = self._row_at
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
        for row in self._row_at.values():
            if pivot in row:
                _axpy(row, -row[pivot], v)
        insort(self.pivots, pivot)
        self._row_at[pivot] = v
        return v

    def copy(self) -> "Echelon":
        """An independent echelon with the same rows."""
        return Echelon(self.dim, [dict(self._row_at[p]) for p in self.pivots])

    def dense_rows(self) -> List[Vector]:
        """The reduced rows with a pivot in 0..dim-1, as dense vectors, in pivot order."""
        return [_dense(self._row_at[p], self.dim) for p in self.pivots if p >= 0]

    def kernel(self) -> List[SparseRow]:
        """Canonical basis of the null space of `dense_rows`, as sparse vectors.

        One vector per free column in 0..dim-1, in column order: 1 at its
        free column, 0 at the other free columns and minus the row entries
        at the pivots.  A row pivoted at p >= 0 holds only columns >= p, so
        each entry besides its pivot sits at a free column.
        """
        basis = {j: {j: QONE} for j in range(self.dim) if j not in self._row_at}
        for p in self.pivots:
            if p >= 0:
                for c, x in self._row_at[p].items():
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
    for i, row in enumerate((d_out @ d_in)._sparse):
        if row:
            j = min(row)
            raise NotAComplexError((i, j, row[j]))
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
