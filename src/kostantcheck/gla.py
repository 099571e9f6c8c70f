"""Block-graded special linear algebras sl(m) with exact structure constants.

A composition (c_1, …, c_r) of m partitions the index range and induces the
parabolic |k|-grading of sl(m): an elementary matrix E_ab sits in degree
blockindex(b) − blockindex(a), so the strictly lower block triangle is the
negative part, the block diagonal is degree 0, and the parabolic p is the
non-negative part (block upper triangular).

Elements are stored sparsely as ``{(row, col): value}`` with exact entries
(``int`` or ``fractions.Fraction``, which mix exactly)
and zero values never kept; this keeps brackets of (near-)elementary
matrices O(1) instead of O(m³), which is what makes the exhaustive
differential sweeps cheap.  Basis elements and structure constants are
``int``, so brackets of basis elements stay in integer arithmetic, and no
function here coerces a value: coordinates, classes and lifts keep the type
that arithmetic gave them.

Fixed ordered basis of sl(m) (this order is a package-wide convention —
serialized coordinates and chain-space coordinates all refer to it):

1. strictly-lower block positions, row-major — so the first dim(g/p)
   coordinates of an element are literally the coordinates of its class in
   g/p with respect to the quotient basis {X^i};
2. strictly-upper block positions, row-major;
3. off-diagonal positions inside a diagonal block, row-major;
4. H_k = E_kk − E_{k+1,k+1} for k = 0..m−2.

The quotient basis X^i is the class of the elementary matrix at the i-th
strictly-lower position; its dual under the trace pairing tr(xy) is
Z_i = the transposed elementary matrix, and span{Z_i} = p_+.  We use the
trace form rather than the Killing form: they differ by the scalar 2m,
which cancels in every kernel/image/decomposition computed here, and the
trace form makes the dual-basis correspondence hold simultaneously in two
algebras of different size, which the cross-algebra identities need.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, cached_property
from typing import Sequence

# A g-element: sparse matrix {(row, col): nonzero exact value}.
SparseMat = dict

Weight = tuple


def smat_scale(x: SparseMat, c) -> SparseMat:
    return {pos: c * v for pos, v in x.items()} if c else {}


def smat_add_into(acc: SparseMat, x: SparseMat, coeff=1) -> None:
    """acc += coeff·x, dropping entries that cancel; a new key takes the term as is."""
    if not coeff:
        return
    # An int coefficient 1 leaves v and its type as they are: skip the product.
    unit = type(coeff) is int and coeff == 1
    for pos, v in x.items():
        term = v if unit else coeff * v
        old = acc.get(pos)
        new = term if old is None else old + term
        if new:
            acc[pos] = new
        else:
            acc.pop(pos, None)


def smat_sub(x: SparseMat, y: SparseMat) -> SparseMat:
    out = dict(x)
    smat_add_into(out, y, -1)
    return out


def smat_bracket(x: SparseMat, y: SparseMat) -> SparseMat:
    """Matrix commutator xy − yx on sparse matrices."""
    out: SparseMat = {}
    for (a, b), xv in x.items():
        for (c, d), yv in y.items():
            if b == c:
                pos = (a, d)
                old = out.get(pos)
                new = xv * yv if old is None else old + xv * yv
                if new:
                    out[pos] = new
                else:
                    out.pop(pos, None)
            if d == a:
                pos = (c, b)
                old = out.get(pos)
                new = -(yv * xv) if old is None else old - yv * xv
                if new:
                    out[pos] = new
                else:
                    out.pop(pos, None)
    return out


def smat_trace_pair(x: SparseMat, y: SparseMat) -> int | Fraction:
    """tr(xy) = Σ x_ab · y_ba."""
    total = 0
    for (a, b), xv in x.items():
        yv = y.get((b, a))
        if yv:
            total += xv * yv
    return total


def smat_trace(x: SparseMat) -> int | Fraction:
    return sum(v for (a, b), v in x.items() if a == b)


def elementary(a: int, b: int) -> SparseMat:
    return {(a, b): 1}


class GradedSL:
    """sl(m) with the block grading induced by a composition of m.

    Instances are immutable; obtain them through :func:`graded_sl`, which
    caches per composition so derived tables (pair-bracket lookups, the
    Jacobi certificate) are shared.
    """

    def __init__(self, blocks: tuple[int, ...]) -> None:
        if any(c <= 0 for c in blocks):
            raise ValueError("composition entries must be positive")
        self.blocks = tuple(blocks)
        self.m = sum(blocks)
        self.block_of: list[int] = []
        for bi, size in enumerate(blocks):
            self.block_of.extend([bi] * size)

        m, block_of = self.m, self.block_of
        self.neg_positions = [(a, b) for a in range(m) for b in range(m)
                              if block_of[a] > block_of[b]]
        self.pos_positions = [(a, b) for a in range(m) for b in range(m)
                              if block_of[a] < block_of[b]]
        inblock = [(a, b) for a in range(m) for b in range(m)
                   if a != b and block_of[a] == block_of[b]]

        self.basis_labels: list[tuple] = (
            [("E", a, b) for a, b in self.neg_positions]
            + [("E", a, b) for a, b in self.pos_positions]
            + [("E", a, b) for a, b in inblock]
            + [("H", k) for k in range(m - 1)]
        )
        self.dim = m * m - 1
        assert len(self.basis_labels) == self.dim
        self.dim_neg = len(self.neg_positions)
        self.index_of_position: dict[tuple[int, int], int] = {}
        for i, lab in enumerate(self.basis_labels):
            if lab[0] == "E":
                self.index_of_position[(lab[1], lab[2])] = i
        self.index_of_neg = {pos: i for i, pos in enumerate(self.neg_positions)}
        self.depth = block_of[-1] - block_of[0]

    # --- basis elements -------------------------------------------------

    def basis_mat(self, idx: int) -> SparseMat:
        lab = self.basis_labels[idx]
        if lab[0] == "E":
            return elementary(lab[1], lab[2])
        k = lab[1]
        return {(k, k): 1, (k + 1, k + 1): -1}

    def x_mat(self, i: int) -> SparseMat:
        """The chosen lift of the quotient basis vector X^i."""
        a, b = self.neg_positions[i]
        return elementary(a, b)

    def z_mat(self, i: int) -> SparseMat:
        """Dual basis vector Z_i ∈ p_+ of X^i under the trace pairing."""
        a, b = self.neg_positions[i]
        return elementary(b, a)

    # --- grading ----------------------------------------------------------

    def degree_of_position(self, a: int, b: int) -> int:
        return self.block_of[b] - self.block_of[a]

    def grading_component(self, x: SparseMat, k: int) -> SparseMat:
        return {(a, b): v for (a, b), v in x.items()
                if self.degree_of_position(a, b) == k}

    def degrees_present(self, x: SparseMat) -> list[int]:
        return sorted({self.degree_of_position(a, b) for (a, b) in x})

    # --- coordinates ------------------------------------------------------

    def sparse_coords(self, x: SparseMat) -> list[tuple[int, int | Fraction]]:
        """Nonzero coordinates ``(index, value)`` in the fixed basis, by
        index, with values as stored; requires trace zero."""
        out = []
        diag = {}
        index_of_position = self.index_of_position
        for (a, b), v in x.items():
            if a == b:
                diag[a] = v
            else:
                out.append((index_of_position[(a, b)], v))
        if diag:
            # H_k-coordinates are the partial sums of the diagonal, zero
            # before its first nonzero entry.
            base = self.dim - (self.m - 1)
            running = 0
            for k in range(min(diag), self.m - 1):
                running += diag.get(k, 0)
                if running:
                    out.append((base + k, running))
            if running + diag.get(self.m - 1, 0):
                raise ValueError("element has nonzero trace")
        out.sort()
        return out

    def coords(self, x: SparseMat) -> list[int | Fraction]:
        """Coordinates in the fixed basis: :meth:`sparse_coords`, dense."""
        out: list[int | Fraction] = [0] * self.dim
        for i, v in self.sparse_coords(x):
            out[i] = v
        return out

    def from_coords(self, vec: Sequence) -> SparseMat:
        if len(vec) != self.dim:
            raise ValueError("coordinate vector has wrong length")
        out: SparseMat = {}
        for idx, v in enumerate(vec):
            if v:
                smat_add_into(out, self.basis_mat(idx), v)
        return out

    def class_mod_p(self, x: SparseMat) -> list[int | Fraction]:
        """Coordinates of x + p in the quotient basis {X^i}, values as stored."""
        out: list[int | Fraction] = [0] * self.dim_neg
        index_of_neg = self.index_of_neg
        for pos, v in x.items():
            i = index_of_neg.get(pos)
            if i is not None:
                out[i] = v
        return out

    def lift_from_class(self, coeffs: Sequence) -> SparseMat:
        out: SparseMat = {}
        for i, c in enumerate(coeffs):
            if c:
                out[self.neg_positions[i]] = c
        return out

    # --- brackets -----------------------------------------------------------

    @cached_property
    def action_coords(self) -> tuple[list[list[list[tuple[int, int]]]], ...]:
        """(X, Z) with X[x][v] = sparse_coords([X^x, basis_v]) and
        Z[t][v] = sparse_coords([Z_t, basis_v]).  Drives the first sums of
        ∂ and ∂* on basis chains."""
        basis = [self.basis_mat(v) for v in range(self.dim)]
        return tuple([[self.sparse_coords(smat_bracket(lift(i), b)) for b in basis]
                      for i in range(self.dim_neg)] for lift in (self.x_mat, self.z_mat))

    @cached_property
    def neg_pair_coords(self) -> dict[int, list[tuple[int, int, int]]]:
        """s ↦ [(a, b, c)] with a < b and c = coefficient of X^s in the
        class of [X^a, X^b] mod p.  Drives the second sum of ∂."""
        table: dict[int, list[tuple[int, int, int]]] = {}
        for a in range(self.dim_neg):
            xa = self.x_mat(a)
            for b in range(a + 1, self.dim_neg):
                w = smat_bracket(xa, self.x_mat(b))
                for s, pos in enumerate(self.neg_positions):
                    c = w.get(pos)
                    if c:
                        table.setdefault(s, []).append((a, b, c))
        return table

    @cached_property
    def pos_pair_coords(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        """(i, j) with i < j ↦ [(t, c)] expanding [Z_i, Z_j] = Σ c·Z_t.
        Drives the second sum of the codifferential."""
        table: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for i in range(self.dim_neg):
            zi = self.z_mat(i)
            for j in range(i + 1, self.dim_neg):
                w = smat_bracket(zi, self.z_mat(j))
                hits = [(t, w[(b, a)]) for t, (a, b) in enumerate(self.neg_positions)
                        if (b, a) in w]
                if hits:
                    table[(i, j)] = hits
        return table

    def __repr__(self) -> str:
        return f"GradedSL(blocks={self.blocks})"


@lru_cache(maxsize=None)
def graded_sl(blocks: tuple[int, ...]) -> GradedSL:
    return GradedSL(blocks)


@lru_cache(maxsize=None)
def jacobi_holds(m: int) -> bool:
    """Exhaustive Jacobi identity over all basis triples of sl(m).

    The bracket does not depend on a grading, so one certificate per m
    covers every composition.  Triples with i < j < k suffice because the
    Jacobi expression is alternating in its three slots.
    """
    alg = graded_sl((1, m - 1))  # any composition; basis spans sl(m)
    basis = [alg.basis_mat(i) for i in range(alg.dim)]
    dim = alg.dim
    pair: dict[tuple[int, int], SparseMat] = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            br = smat_bracket(basis[i], basis[j])
            if br:
                pair[(i, j)] = br

    def pair_bracket(i: int, j: int) -> SparseMat:
        if i < j:
            return pair.get((i, j), {})
        if i > j:
            return smat_scale(pair.get((j, i), {}), -1)
        return {}

    for i in range(dim):
        bi = basis[i]
        for j in range(i + 1, dim):
            bj = basis[j]
            for k in range(j + 1, dim):
                acc = smat_bracket(bi, pair_bracket(j, k))
                smat_add_into(acc, smat_bracket(bj, pair_bracket(k, i)))
                smat_add_into(acc, smat_bracket(basis[k], pair_bracket(i, j)))
                if acc:
                    return False
    return True


def grading_axiom_holds(alg: GradedSL) -> bool:
    """[g_i, g_j] ⊆ g_{i+j}, exhaustively on homogeneous basis pairs."""
    labels = alg.basis_labels
    degs = []
    for lab in labels:
        degs.append(alg.degree_of_position(lab[1], lab[2]) if lab[0] == "E" else 0)
    for i in range(alg.dim):
        bi = alg.basis_mat(i)
        for j in range(alg.dim):
            br = smat_bracket(bi, alg.basis_mat(j))
            if any(d != degs[i] + degs[j] for d in alg.degrees_present(br)):
                return False
    return True


def negative_part_generated_by_deg_minus_one(alg: GradedSL) -> bool:
    """g_- is generated by g_{−1} as a Lie algebra (bracket-generating)."""
    from .ratlin import Subspace

    deg_minus_one = [alg.x_mat(i) for i in range(alg.dim_neg)
                     if alg.degree_of_position(*alg.neg_positions[i]) == -1]
    total_neg = alg.dim_neg
    span = Subspace(alg.dim)
    layer = list(deg_minus_one)
    for x in layer:
        span.insert(alg.coords(x))
    while layer:
        new_layer = []
        for x in layer:
            for y in deg_minus_one:
                br = smat_bracket(y, x)
                if br and span.insert(alg.coords(br)):
                    new_layer.append(br)
        layer = new_layer
    return span.dim == total_neg
