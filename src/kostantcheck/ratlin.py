"""Exact linear algebra over the rationals.

Everything in this package ultimately reduces to row operations on matrices
of exact entries, so this module keeps the conventions in one place:

* matrices are dense lists of row lists whose entries are ``int`` or
  ``fractions.Fraction`` (the two mix exactly); :func:`rref`,
  :func:`kernel_basis`, :func:`solve` and :attr:`Subspace.rows` return
  ``Fraction`` by contract, integral entries included; nothing else in the
  package coerces a value, so everywhere else a value keeps the type that
  arithmetic gave it and a ``Fraction`` comes only from a true quotient;
* elimination is fraction-free: each row is scaled to coprime integers and
  reduced Gauss–Jordan over Python ``int`` (integer-preserving elimination
  as in Bareiss 1968, with each updated row divided by the gcd of its
  entries), and only the finished echelon rows are divided by their pivots,
  so the inner loop never builds a ``Fraction``;
* a row update touches the nonzero support of the pivot row, so the
  structural zeros that dominate the operator blocks cost nothing;
* the canonical witness for a subspace is its reduced row-echelon basis as
  primitive integer rows with positive pivots, which is unique, so subspace
  equality is equality of ``int`` lists; ``Fraction`` rows are derived;
* each subspace comes from one elimination: :func:`null_space` of the
  column-reversed matrix, :meth:`Subspace.intersect` of the Zassenhaus stack
  [[U | U], [V | 0]]; the rows of both come out reduced row-echelon and go
  to ``Subspace._trusted``, private to this module, with no second elimination,
  and canonical rows made elsewhere are validated by :meth:`Subspace.echelon`;
* there are no tolerances anywhere — a residual either is zero or is not.

``solve`` returns ``None`` for an inconsistent system; callers that need to
signal infeasibility (the normalization solver) propagate that ``None``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = list[Fraction]
Matrix = list[list[Fraction]]


def zero_vector(n: int) -> Vector:
    return [Fraction(0)] * n


def mat_vec(mat: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]) -> Vector:
    return [sum((row[j] * vec[j] for j in range(len(vec)) if vec[j]), Fraction(0)) for row in mat]


def _integer_row(row: Sequence[int | Fraction]) -> list[int]:
    """A positive rational multiple of ``row`` with coprime integer entries."""
    if all(type(x) is int for x in row):
        ints = list(row)
    else:
        den = lcm(*[x.denominator for x in row])
        ints = [x.numerator * (den // x.denominator) for x in row]
    content = gcd(*ints)
    return [x // content for x in ints] if content > 1 else ints


def _eliminate(rows: list[list[int]]) -> list[int]:
    """The integer Gauss–Jordan elimination of :func:`rref`, in place on
    coprime integer rows; returns the pivot columns, one per leading row,
    and leaves each leading row primitive with a positive pivot."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivot_cols: list[int] = []
    for col in range(ncols):
        lead = len(pivot_cols)
        pivot = next((r for r in range(lead, nrows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[lead], rows[pivot] = rows[pivot], rows[lead]
        prow = rows[lead]
        p = prow[col]
        support = [j for j in range(col, ncols) if prow[j]]
        for r in range(nrows):
            row = rows[r]
            f = row[col]
            if f and r != lead:
                g = gcd(p, f)
                a, b = p // g, f // g
                if a != 1:
                    row = [a * x for x in row]
                for j in support:
                    row[j] -= b * prow[j]
                content = gcd(*row)
                rows[r] = [x // content for x in row] if content > 1 else row
        pivot_cols.append(col)
        if lead + 1 == nrows:
            break
    for r, pc in enumerate(pivot_cols):
        if rows[r][pc] < 0:
            rows[r] = [-x for x in rows[r]]
    return pivot_cols


def rref(mat: Sequence[Sequence[int | Fraction]]) -> tuple[Matrix, int]:
    """Reduced row-echelon form.

    Returns ``(R, rank)`` where ``R`` has the same shape as ``mat`` and every
    entry is a ``Fraction`` (zero entries may share one object).  The input
    is not mutated.  Each row is first scaled to coprime integers; a row
    ``r`` is then cleared at a pivot ``p`` of the pivot row ``q`` as
    ``(p/g)·r − (r_col/g)·q`` with ``g = gcd(p, r_col)``, subtracting only
    over the nonzero support of ``q``, and divided by the gcd of its
    entries.  The rows stay integer throughout; dividing each pivot row by
    its pivot at the end gives the reduced form, which is unique, so it is
    the same as that of rational Gauss–Jordan elimination.
    """
    rows = [_integer_row(row) for row in mat]
    pivot_cols = _eliminate(rows)
    ncols = len(rows[0]) if rows else 0
    zero = Fraction(0)
    out = [[Fraction(x, row[pc]) if x else zero for x in row]
           for row, pc in zip(rows, pivot_cols)]
    out.extend([zero] * ncols for _ in range(len(rows) - len(pivot_cols)))
    return out, len(pivot_cols)


def kernel_basis(mat: Sequence[Sequence[Fraction]]) -> list[Vector]:
    """Basis form of the right null space {x : mat·x = 0}.

    One basis vector per free column, with a 1 in that column; this is the
    standard back-substituted basis, hence deterministic.  All-zero rows
    constrain nothing and are dropped before elimination.  The reference
    for :func:`null_space`, except that no rows give an empty list here.
    """
    if not mat:
        return []
    ncols = len(mat[0])
    reduced, rk = rref([row for row in mat if any(row)])
    pivot_cols: list[int] = []
    for r in range(rk):
        pivot_cols.append(next(c for c in range(ncols) if reduced[r][c]))
    pivot_set = set(pivot_cols)
    basis: list[Vector] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = zero_vector(ncols)
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivot_cols):
            vec[pc] = -reduced[r][free]
        basis.append(vec)
    return basis


def null_space(mat: Sequence[Sequence[int | Fraction]], ncols: int) -> "Subspace":
    """The right null space {x : mat·x = 0} of Q^ncols, from one elimination.

    The column-reversed matrix is eliminated once.  Its back-substituted
    kernel basis, read in the original column order, has a leading 1 at each
    free column and other entries only at pivot columns to its right, so it
    is already reduced row-echelon, and primitive once scaled by the lcm of
    its denominators.  No rows give all of Q^ncols.
    """
    if any(len(row) != ncols for row in mat):
        raise ValueError("row has wrong length")
    rows = [_integer_row(row[::-1]) for row in mat if any(row)]
    pivot_cols, last = _eliminate(rows), ncols - 1
    free = sorted(set(range(ncols)).difference(last - pc for pc in pivot_cols))
    basis = []
    for f in free:
        used = [(last - pc, row[last - f], row[pc])
                for row, pc in zip(rows, pivot_cols) if row[last - f]]
        den = lcm(*[p // gcd(x, p) for _, x, p in used])
        vec = [0] * ncols
        vec[f] = den
        for col, x, p in used:
            vec[col] = -x * den // p
        basis.append(vec)
    return Subspace._trusted(ncols, basis, free)


def solve(mat: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vector | None:
    """One exact solution of mat·x = rhs, or ``None`` if the system is
    inconsistent (free variables are set to zero)."""
    if len(mat) != len(rhs):
        raise ValueError("matrix/right-hand-side size mismatch")
    if not mat:
        return []
    ncols = len(mat[0])
    augmented = [list(row) + [b] for row, b in zip(mat, rhs)]
    reduced, rk = rref(augmented)
    sol = zero_vector(ncols)
    for r in range(rk):
        pc = next(c for c in range(ncols + 1) if reduced[r][c])
        if pc == ncols:
            return None
        sol[pc] = reduced[r][ncols]
    return sol


class Subspace:
    """A linear subspace of Q^ambient, held in reduced row-echelon form.

    The canonical witness is ``int_rows``: the echelon basis as primitive
    integer rows, each positive at its pivot column, where the other rows
    are zero.  It is unique, so two Subspaces are equal as objects iff they
    are equal as subspaces; ``rows`` divides each row by its pivot, on first
    read.  Construction row-reduces the spanning vectors in one elimination;
    :meth:`insert` extends the span one vector at a time.
    """

    __slots__ = ("ambient", "int_rows", "pivots", "_rows")

    def __init__(self, ambient: int, vectors: Iterable[Sequence[int | Fraction]] = ()) -> None:
        vectors = list(vectors)
        if any(len(v) != ambient for v in vectors):
            raise ValueError("vector has wrong ambient dimension")
        rows = [_integer_row(v) for v in vectors if any(v)]
        self.ambient, self.pivots, self._rows = ambient, _eliminate(rows), None
        self.int_rows = rows[:len(self.pivots)]

    @classmethod
    def echelon(cls, ambient: int, int_rows: Iterable[Sequence[int]]) -> "Subspace":
        """The Subspace with canonical basis ``int_rows``, validated in
        O(rank·ambient) instead of eliminated: primitive ``int`` rows, positive
        at increasing pivots, each pivot column zero in the other rows."""
        rows = [list(row) for row in int_rows]
        pivots = [next((j for j, x in enumerate(row) if x), -1) for row in rows]
        if any(len(row) != ambient or not all(type(x) is int for x in row) for row in rows):
            raise ValueError("echelon row must be int of the ambient length")
        if any(pc < 0 or row[pc] < 0 for row, pc in zip(rows, pivots)):
            raise ValueError("echelon row needs a positive pivot")
        if any(gcd(*row) != 1 for row in rows):
            raise ValueError("echelon row is not primitive")
        if any(a >= b for a, b in zip(pivots, pivots[1:])):
            raise ValueError("echelon pivots must increase")
        if any(sum(1 for pc in pivots if row[pc]) != 1 for row in rows):
            raise ValueError("echelon pivot column is not reduced")
        return cls._trusted(ambient, rows, pivots)

    @classmethod
    def _trusted(cls, ambient: int, int_rows: list[list[int]], pivots: list[int]) -> "Subspace":
        """A Subspace from canonical integer rows made inside this module."""
        space = object.__new__(cls)
        space.ambient, space.int_rows, space.pivots, space._rows = ambient, int_rows, pivots, None
        return space

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> list[Vector]:
        """The reduced row-echelon basis as ``Fraction`` rows with pivot 1."""
        if self._rows is None:
            zero = Fraction(0)
            self._rows = [[Fraction(x, row[pc]) if x else zero for x in row]
                          for row, pc in zip(self.int_rows, self.pivots)]
        return self._rows

    def _combine(self, coeffs: Sequence[int], out: list[int]) -> list[int]:
        """den·out + Σ coeffs[i]·(den/p_i)·int_rows[i], where p_i is the pivot
        entry of row i and den the lcm of the p_i that are used."""
        used = [(c, row, pc) for c, row, pc in zip(coeffs, self.int_rows, self.pivots) if c]
        den = lcm(*[row[pc] for _, row, pc in used])
        if den != 1:
            out = [den * x for x in out]
        for c, row, pc in used:
            m = c * (den // row[pc])
            for j in range(pc, self.ambient):
                if row[j]:
                    out[j] += m * row[j]
        return out

    def insert(self, vec: Sequence[int | Fraction]) -> bool:
        """Add ``vec`` to the span; returns True if the dimension grew.

        The only mutator: call it only on a space you built yourself, since
        the spaces of ``kostant.hodge`` are shared by identical blocks."""
        dim = self.dim
        grown = Subspace(self.ambient, self.int_rows + [vec])
        self.int_rows, self.pivots, self._rows = grown.int_rows, grown.pivots, None
        return self.dim > dim

    def contains(self, vec: Sequence[int | Fraction]) -> bool:
        """The basis is reduced, so ``vec`` is in the span iff it is the
        combination with coefficient vec[pivot_i]/p_i on row i."""
        if len(vec) != self.ambient:
            raise ValueError("vector has wrong ambient dimension")
        out = _integer_row(vec)
        return not any(self._combine([-out[pc] for pc in self.pivots], out))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.int_rows)

    def sum_with(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        return Subspace(self.ambient, self.int_rows + other.int_rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """U ∩ V by Zassenhaus: one elimination of [[U | U], [V | 0]].

        The echelon rows whose left half vanished have right halves in U ∩ V
        that span it, and they are already its reduced row-echelon basis.
        """
        if self.ambient != other.ambient:
            raise ValueError("ambient dimension mismatch")
        d = self.ambient
        rows = [r + r for r in self.int_rows]
        rows += [v + [0] * d for v in other.int_rows]
        meet, pivots = [], []
        for row, pc in zip(rows, _eliminate(rows)):
            if pc >= d:
                meet.append(row[d:])
                pivots.append(pc - d)
        return Subspace._trusted(d, meet, pivots)

    def combinations(self, coords: "Subspace") -> "Subspace":
        """The span of Σ k_i·rows[i] over k in ``coords``: both bases are
        reduced row-echelon, so these combinations are too, with pivots
        ``pivots[p]`` for ``p`` in ``coords.pivots``."""
        if coords.ambient != self.dim:
            raise ValueError("coordinates have wrong ambient dimension")
        out = [_integer_row(self._combine(k, [0] * self.ambient)) for k in coords.int_rows]
        return Subspace._trusted(self.ambient, out, [self.pivots[p] for p in coords.pivots])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.int_rows == other.int_rows

    def __hash__(self) -> int:
        return hash((self.ambient, tuple(map(tuple, self.int_rows))))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"
