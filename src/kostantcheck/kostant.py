"""Chain spaces L(Λ^k g/p, g) with the differential pair (∂, ∂*).

A degree-k cochain is stored as its values on strictly increasing index
tuples over the quotient basis {X^i} of g/p; the alternating multilinear
extension is implicit.  ``Cochain.add_term`` raises ``ValueError`` on any
other key; ``apply_insertion`` and the oracle ``penrose.reassemble``, whose
arguments arrive out of order, place them with the reordering sign
themselves.  Under the trace-form identification (g/p)* ≅ p_+ the same data
is the chain Σ_{T} Z_{t_1}∧…∧Z_{t_k} ⊗ φ(T), and both operators below are
written on that representation:

* ``partial`` (∂) is the Lie-algebra homology differential of g_- with
  coefficients in g,

      (∂φ)(X^0,…,X^k) = Σ_i (−1)^i [X^i, φ(…X̂^i…)]
                        + Σ_{i<j} (−1)^{i+j} φ([X^i,X^j] mod p, …),

  where bracket arguments are taken mod p (the chosen lifts span g_-, so
  nothing is lost);

* ``costar`` (∂*) is the boundary operator of p_+ with coefficients in g,

      ∂*(Z_0∧…∧Z_k ⊗ A) = Σ_i (−1)^{i+1} (…Ẑ_i…) ⊗ [Z_i, A]
                          + Σ_{i<j} (−1)^{i+j} [Z_i,Z_j]∧(…Ẑ_iẐ_j…) ⊗ A,

  normalized so that wedge coefficients on increasing tuples equal cochain
  values.  With this normalization the degree-2 evaluation form reads
  (∂*φ)(X) = Σ_i [Z_i, φ(X, X^i)] − ½ Σ_i φ([Z_i, X̃] mod p, X^i) for any
  lift X̃ (half the scale of the unnormalized evaluation formula; the
  choice cancels in every kernel, image, and decomposition).

Both operators commute with the torus of diagonal matrices, so every
linear-algebra question is solved block-per-weight; chain spaces of a few
thousand dimensions then decompose into blocks of at most a few dozen.
``BlockStructure`` holds that layout as integer arrays over label ids
g = k·dim g + v, one per chain-basis element Z_T ⊗ basis_v with T the k-th
tuple, so its memory is a few bytes per label and no (T, v) object is kept.
Many blocks pose the same problem, so ``hodge`` solves once per distinct
set of operator blocks and lets identical blocks share their Subspace
objects; ``ChainModule`` operations compute each distinct pair once.
One table of terms, ``_exterior_table``, defines both operators: the tuple
and sign of every term on each Z_T.  ``partial`` and ``costar`` apply it to
cochains, and ``operator_block`` reads it, with the algebra's bracket
tables, into the weight blocks that ``block_product`` multiplies.  The
Hodge decomposition, the module maps of ``norm-modules``, the ∂*∂ solve
of ``feff.normalize_step`` and the ∂*∂* = 0 sweep of ``codiff-lift`` read
blocks; every other check applies the cochain operators.  The signs are
pinned by an independent term-by-term reference, ``reference_partial`` and
``reference_costar`` in ``test_kostant.py``, against which the tier-1 tests
compare the cochain operators and every block column.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from typing import Callable, Iterable, Sequence

from .gla import (
    GradedSL,
    SparseMat,
    Weight,
    graded_sl,
    smat_add_into,
    smat_bracket,
    smat_scale,
)
from .ratlin import Subspace, null_space


class Cochain:
    """Alternating multilinear map (g/p)^k → g on a fixed graded algebra."""

    __slots__ = ("alg", "deg", "data")

    def __init__(self, alg: GradedSL, deg: int,
                 data: dict[tuple[int, ...], SparseMat] | None = None) -> None:
        self.alg = alg
        self.deg = deg
        self.data: dict[tuple[int, ...], SparseMat] = {}
        if data:
            for T, mat in data.items():
                self.add_term(T, mat)

    def add_term(self, T: tuple[int, ...], mat: SparseMat, coeff=1) -> None:
        """Accumulate coeff·(value at T).  T must be strictly increasing, in
        the g/p basis range and ``deg`` long; any other tuple is a
        ``ValueError``."""
        if len(T) != self.deg:
            raise ValueError("index tuple has wrong length for this degree")
        if any(s >= t for s, t in zip(T, T[1:])):
            raise ValueError("index tuple is not strictly increasing")
        if T and (T[0] < 0 or T[-1] >= self.alg.dim_neg):
            raise ValueError("index outside the g/p basis range")
        if not mat or not coeff:
            return
        target = self.data.setdefault(T, {})
        smat_add_into(target, mat, coeff)
        if not target:
            del self.data[T]

    def add_into(self, other: "Cochain", coeff=1) -> "Cochain":
        """In place: self += coeff·other; returns self.

        The stored tuples of ``other`` are already sorted and in range, so
        its values are accumulated directly, without checking them again.
        """
        if other.alg.blocks != self.alg.blocks or other.deg != self.deg:
            raise ValueError("cochain context mismatch")
        if not coeff:
            return self
        terms = other.data.items()
        if other is self:
            terms = [(T, dict(mat)) for T, mat in terms]
        data = self.data
        for T, mat in terms:
            target = data.setdefault(T, {})
            smat_add_into(target, mat, coeff)
            if not target:
                del data[T]
        return self

    def add(self, other: "Cochain", coeff=1) -> "Cochain":
        out = Cochain(self.alg, self.deg)
        out.data = {T: dict(mat) for T, mat in self.data.items()}
        return out.add_into(other, coeff)

    def scale(self, coeff) -> "Cochain":
        out = Cochain(self.alg, self.deg)
        if coeff:
            out.data = {T: smat_scale(mat, coeff) for T, mat in self.data.items()}
        return out

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cochain):
            return NotImplemented
        return (self.alg.blocks == other.alg.blocks and self.deg == other.deg
                and self.data == other.data)

    def __repr__(self) -> str:
        return f"Cochain(deg={self.deg}, terms={len(self.data)})"


def basis_cochain(alg: GradedSL, deg: int, indices: tuple[int, ...], v_idx: int) -> Cochain:
    return Cochain(alg, deg, {indices: alg.basis_mat(v_idx)})


def partial(c: Cochain) -> Cochain:
    """The homology differential ∂: degree k → k+1."""
    return _apply_exterior(c, 1)


def costar(c: Cochain) -> Cochain:
    """The Kostant codifferential ∂*: degree k → k−1 (wedge normalization)."""
    if c.deg < 1:
        raise ValueError("costar needs degree ≥ 1")
    return _apply_exterior(c, -1)


def _apply_exterior(c: Cochain, step: int) -> Cochain:
    """∂ (``step`` 1) or ∂* (``step`` −1) of c from :func:`_exterior_table`:
    each stored u at T adds, times the sign, to every S of T's row, bracketed
    with X^x (∂) or Z_x (∂*) unless x is None; no tuple needs sorting."""
    alg = c.alg
    mats = _exterior_mats(alg.blocks, step)
    table = _exterior_table(alg.blocks, c.deg, step)
    out = Cochain(alg, c.deg + step)
    data = out.data
    for T, u in c.data.items():
        for x, S, sign in table[T]:
            mat = u if x is None else smat_bracket(mats[x], u)
            if mat:
                target = data.setdefault(S, {})
                smat_add_into(target, mat, sign)
                if not target:
                    del data[S]
    return out


@lru_cache(maxsize=None)
def _exterior_mats(blocks: tuple[int, ...], step: int) -> tuple[SparseMat, ...]:
    """X^x (∂, ``step`` 1) or Z_x (∂*, −1) per grading; shared, so never mutated."""
    alg = graded_sl(blocks)
    return tuple(map(alg.x_mat if step == 1 else alg.z_mat, range(alg.dim_neg)))


@lru_cache(maxsize=None)
def _lift_classes(blocks: tuple[int, ...]) -> tuple[tuple, ...]:
    """The second-sum table of the degree-2 evaluation form: row x lists
    ``(i, ((a, −c/2), …))`` for each i whose bracket [Z_i, X^x] with the
    chosen lift ``x_mat(x)`` has the nonzero class Σ_a c·X^a mod p.  A lift
    changed by an element of p gives the same table, since [Z_i, p] ⊆ p;
    ``codiff-lift`` checks that inclusion."""
    alg = graded_sl(blocks)
    z_mats = [alg.z_mat(i) for i in range(alg.dim_neg)]
    rows = []
    for x in range(alg.dim_neg):
        lift = alg.x_mat(x)
        row = []
        for i, z in enumerate(z_mats):
            cls = tuple((a, Fraction(-cf, 2))
                        for a, cf in enumerate(alg.class_mod_p(smat_bracket(z, lift))) if cf)
            if cls:
                row.append((i, cls))
        rows.append(tuple(row))
    return tuple(rows)


def costar_two_form(c: Cochain) -> Cochain:
    """Degree-2 evaluation form of ∂*, usable as an independent oracle:

        (∂*φ)(X) = Σ_i [Z_i, φ(X, X^i)] − ½ Σ_i φ([Z_i, X̃] mod p, X^i).

    The classes [Z_i, X̃^x] mod p come from one table per grading, built on
    first use from the chosen lifts.  Nothing here reads the tables of
    :func:`costar`.
    """
    if c.deg != 2:
        raise ValueError("evaluation form is for degree 2")
    alg = c.alg
    # Every term whose φ-value is not a stored pair is 0.
    values = _values_by_argument(c)
    out = Cochain(alg, 1)
    for x, row in enumerate(_lift_classes(alg.blocks)):
        acc: SparseMat = {}
        for i, (u, sign) in values.get(x, {}).items():
            smat_add_into(acc, smat_bracket(alg.z_mat(i), u), sign)
        for i, cls in row:
            if i in values:
                for a, half in cls:
                    hit = values.get(a, {}).get(i)
                    if hit:
                        smat_add_into(acc, hit[0], hit[1] * half)
        out.add_term((x,), acc)
    return out


def _values_by_argument(c: Cochain) -> dict[int, dict[int, tuple[SparseMat, int]]]:
    """s ↦ {w: (u, sign)} with c(X^s, X^w) = sign·u, over the stored pairs
    {s, w} of a degree-2 cochain; every other value of c is 0."""
    out: dict[int, dict[int, tuple[SparseMat, int]]] = {}
    for (s, t), u in c.data.items():
        out.setdefault(s, {})[t] = (u, 1)
        out.setdefault(t, {})[s] = (u, -1)
    return out


def laplacian(c: Cochain) -> Cochain:
    """Kostant Laplacian □ = ∂∘∂* + ∂*∘∂."""
    return partial(costar(c)).add(costar(partial(c)))


@dataclass(frozen=True)
class InsertionTable:
    """φ's side of the cyclic insertion ι_φψ: ``rows`` holds ``(a, b, class)``
    for each stored pair a < b of φ whose value has a nonzero class
    Σ_s c·X^s mod p, the class as ``((s, c), …)``; ``support`` is the set of
    every such s.  Built by :func:`insertion_table`; valid only for the
    grading ``blocks``."""

    blocks: tuple[int, ...]
    rows: tuple[tuple[int, int, tuple[tuple[int, Fraction], ...]], ...]
    support: frozenset[int]


def insertion_table(phi: Cochain) -> InsertionTable:
    """First step of ι_φψ: the classes of φ's stored values, which depend on
    φ alone, so a sweep over many ψ builds them once per φ."""
    if phi.deg != 2:
        raise ValueError("insertion is defined for two degree-2 cochains")
    rows = []
    for (a, b), u in phi.data.items():
        cls = tuple((s, cf) for s, cf in enumerate(phi.alg.class_mod_p(u)) if cf)
        if cls:
            rows.append((a, b, cls))
    return InsertionTable(phi.alg.blocks, tuple(rows),
                          frozenset(s for _, _, cls in rows for s, _ in cls))


def apply_insertion(table: InsertionTable, psi: Cochain) -> Cochain:
    """Second step of ι_φψ: the table of φ applied to ψ.

    ψ(X^s, X^w) is nonzero only when {s, w} is a stored pair of ψ, so each
    class index s of φ meets only the w paired with s in ψ.  ψ must live on
    φ's grading (``ValueError`` otherwise); if no stored tuple of ψ holds an
    index of ``table.support``, the result is exactly zero.
    """
    if psi.deg != 2:
        raise ValueError("insertion is defined for two degree-2 cochains")
    if psi.alg.blocks != table.blocks:
        raise ValueError("cochain context mismatch")
    values = _values_by_argument(psi)
    out = Cochain(psi.alg, 3)
    # Every cyclic term ψ(φ(X^a, X^b) mod p, X^w) comes from a row (a, b) of
    # the table as the value at (a, b, w); on the increasing triple it changes
    # sign only for a < w < b, one transposition away ((w, a, b) is cyclic).
    for a, b, cls in table.rows:
        accs: dict[int, SparseMat] = {}
        for s, cf in cls:
            for w, (u, sign) in values.get(s, {}).items():
                if w != a and w != b:
                    smat_add_into(accs.setdefault(w, {}), u, sign * cf)
        for w in sorted(accs):
            if w < a:
                out.add_term((w, a, b), accs[w])
            elif w < b:
                out.add_term((a, w, b), accs[w], -1)
            else:
                out.add_term((a, b, w), accs[w])
    return out


def index_positions(cochains: Sequence[Cochain]) -> dict[int, list[int]]:
    """i ↦ the increasing positions r of the cochains with i in a stored tuple."""
    out: dict[int, list[int]] = {}
    for r, c in enumerate(cochains):
        for i in {i for T in c.data for i in T}:
            out.setdefault(i, []).append(r)
    return out


def insertion_partners(table: InsertionTable, positions: dict[int, list[int]]) -> list[int]:
    """The increasing positions, in the list indexed by ``positions``, of the
    cochains ψ for which ι_φψ can be nonzero: those with an index of φ's class
    support in a stored tuple.  For every other ψ each term
    ψ(φ(X^a, X^b) mod p, X^w) has its first argument outside ψ's stored
    indices, so ι_φψ = 0 exactly."""
    return sorted({r for s in table.support for r in positions.get(s, ())})


def homogeneity_split(c: Cochain) -> dict[int, Cochain]:
    """Split into components of fixed homogeneity.

    An elementary term Z_{t_1}∧…∧Z_{t_k} ⊗ u with u of grading degree d is
    homogeneous of homogeneity d − Σ_i deg(X^{t_i}); a cochain of
    homogeneity l maps g^{i_1}×…×g^{i_k} into g^{i_1+…+i_k+l}.
    """
    alg = c.alg
    out: dict[int, Cochain] = {}
    for T, u in c.data.items():
        arg_deg = sum(alg.degree_of_position(*alg.neg_positions[t]) for t in T)
        # Distinct d give distinct nonzero components and h: each (h, T) is new.
        for d in alg.degrees_present(u):
            h = d - arg_deg
            if h not in out:
                out[h] = Cochain(alg, c.deg)
            out[h].data[T] = alg.grading_component(u, d)
    return out


def homogeneity(c: Cochain) -> int | None:
    """Largest l with c(g^{i_1},…) ⊆ g^{i_1+…+l}; None for the zero cochain
    (every homogeneity holds vacuously — reported as the sentinel "all")."""
    split = homogeneity_split(c)
    return min(split) if split else None


# ---------------------------------------------------------------------------
# Chain-space coordinates, weight blocks, and submodules
# ---------------------------------------------------------------------------


def chain_tuples(alg: GradedSL, deg: int) -> list[tuple[int, ...]]:
    return list(combinations(range(alg.dim_neg), deg))


def chain_total_dim(alg: GradedSL, deg: int) -> int:
    count = 1
    for i in range(deg):
        count = count * (alg.dim_neg - i) // (i + 1)
    return count * alg.dim


class BlockStructure:
    """Weight-block layout of the degree-k chain space.

    Coordinates are labeled (T, v) with T an increasing tuple and v an index
    into the fixed sl(m) basis; the weight of the label is the weight of
    Z_{t_1}∧…∧Z_{t_k} ⊗ basis_v.  Both ∂ and ∂* preserve this grading.

    A label is stored as its id g = k·dim g + v, where k = ``index[T]`` is
    the position of T in ``tuples`` (:func:`chain_tuples`).  ``weights``
    lists the blocks in order of first appearance over the ids and
    ``number[w]`` is the position of w there.  ``order`` holds the ids
    grouped by block, increasing within each, so labels run T-major within
    a block; block b is ``order[start[b]:start[b + 1]]``.  ``block_of[g]``
    is the position in ``weights`` of g's block and ``slot[g]`` the position
    of g in it.  The weights of the labels at T are computed once per
    distinct weight of Z_T.  No per-label object is kept, and per block
    only its weight and one offset: the four integer arrays take 16 bytes
    per label, where a (T, v) tuple and a dict entry would take over 100,
    and the degree-3 chain spaces at n = 6–8 have 10⁵ labels and more each
    (312,000 for (2, 1, 8)).  :meth:`labels` decodes a block's (T, v).
    """

    def __init__(self, alg: GradedSL, deg: int) -> None:
        self.alg = alg
        self.deg = deg
        self.tuples = chain_tuples(alg, deg)
        self.index = {T: k for k, T in enumerate(self.tuples)}
        self.weights: list[Weight] = []
        self.number: dict[Weight, int] = {}
        self.block_of = array("i", [0]) * (len(self.tuples) * alg.dim)
        self.slot = array("i", [0]) * len(self.block_of)
        # The weight of basis_v is e_a − e_b for E_ab and 0 for H.
        value_shifts = [(lab[1], lab[2]) if lab[0] == "E" else None
                        for lab in alg.basis_labels]
        # Z_T weight ↦ the block number of each label (T, v), in v order.
        numbers_at: dict[Weight, list[int]] = {}
        sizes: list[int] = []
        block_of, slot = self.block_of, self.slot
        for k, T in enumerate(self.tuples):
            base = [0] * alg.m
            for t in T:
                a, b = alg.neg_positions[t]
                base[b] += 1          # weight of Z_t = e_b − e_a
                base[a] -= 1
            numbers = numbers_at.get(tuple(base))
            if numbers is None:
                numbers = numbers_at[tuple(base)] = []
                for shift in value_shifts:
                    w = list(base)
                    if shift is not None:
                        w[shift[0]] += 1
                        w[shift[1]] -= 1
                    w = tuple(w)
                    if w not in self.number:
                        self.number[w] = len(self.weights)
                        self.weights.append(w)
                        sizes.append(0)
                    numbers.append(self.number[w])
            g = k * alg.dim
            for number in numbers:
                block_of[g] = number
                slot[g] = sizes[number]
                sizes[number] += 1
                g += 1
        self.start = array("i", accumulate(sizes, initial=0))
        # A stable sort by block keeps the ids of each block increasing.
        self.order = array("i", sorted(range(len(block_of)), key=block_of.__getitem__))

    def members(self, w: Weight) -> array:
        """The ids of block w in block order; empty for a weight with no block."""
        b = self.number.get(w)
        return self.order[self.start[b]:self.start[b + 1]] if b is not None else array("i")

    def block_dim(self, w: Weight) -> int:
        b = self.number.get(w)
        return self.start[b + 1] - self.start[b] if b is not None else 0

    def labels(self, w: Weight) -> list[tuple[tuple[int, ...], int]]:
        """The labels (T, v) of block w, in block order."""
        dim = self.alg.dim
        return [(self.tuples[g // dim], g % dim) for g in self.members(w)]


@lru_cache(maxsize=None)
def block_structure(blocks: tuple[int, ...], deg: int) -> BlockStructure:
    return BlockStructure(graded_sl(blocks), deg)


def blocked_coords(c: Cochain) -> dict[Weight, list[int | Fraction]]:
    """Coordinates of a cochain, one dense vector per weight block, as stored."""
    structure = block_structure(c.alg.blocks, c.deg)
    index, block_of, slot = structure.index, structure.block_of, structure.slot
    weights, start, dim = structure.weights, structure.start, c.alg.dim
    out: dict[int, list[int | Fraction]] = {}
    for T, u in c.data.items():
        base = index[T] * dim
        for v, cf in c.alg.sparse_coords(u):
            number = block_of[base + v]
            vec = out.get(number)
            if vec is None:
                vec = out[number] = [0] * (start[number + 1] - start[number])
            vec[slot[base + v]] = cf
    return {weights[number]: vec for number, vec in out.items()}


def cochain_from_block(alg: GradedSL, deg: int, w: Weight, vec: Sequence) -> Cochain:
    """The cochain of block coordinates ``vec``, integral ones stored as ``int``."""
    structure = block_structure(alg.blocks, deg)
    out = Cochain(alg, deg)
    for cf, g in zip(vec, structure.members(w)):
        if cf:
            k, v = divmod(g, alg.dim)
            out.add_term(structure.tuples[k], alg.basis_mat(v),
                         cf.numerator if cf.denominator == 1 else cf)
    return out


def coordinate_subspace(alg: GradedSL, indices: Iterable[int]) -> Subspace:
    """The span of the basis elements ``indices`` of g, in its coordinates."""
    return Subspace.echelon(alg.dim, ([int(j == i) for j in range(alg.dim)]
                                      for i in sorted(set(indices))))


class ChainModule:
    """A submodule of a chain space, stored as one Subspace per weight block.

    The per-block reduced echelon bases make equality, membership, sums and
    intersections exact and cheap even when the ambient chain space has
    thousands of coordinates.  A tensor module ⊕_T Z_T ⊗ B_T, each B_T ⊆ g
    spanned by weight vectors, gets them by construction (:meth:`from_tensor`;
    :meth:`from_values` is the coordinate case, each B_T spanned by basis
    elements): block labels run T-major, so the rows of each B_T placed at
    the labels (T, v) are the canonical rows.
    """

    def __init__(self, name: str, alg: GradedSL, deg: int,
                 spaces: dict[Weight, Subspace] | None = None) -> None:
        self.name = name
        self.alg = alg
        self.deg = deg
        self.spaces: dict[Weight, Subspace] = {
            w: s for w, s in (spaces or {}).items() if s.dim > 0}

    @classmethod
    def from_cochains(cls, name: str, alg: GradedSL, deg: int,
                      cochains: Iterable[Cochain]) -> "ChainModule":
        """The span of the cochains, by one elimination per weight block."""
        structure = block_structure(alg.blocks, deg)
        vectors: dict[Weight, list[list[int | Fraction]]] = {}
        for c in cochains:
            for w, vec in blocked_coords(c).items():
                vectors.setdefault(w, []).append(vec)
        return cls(name, alg, deg, {w: Subspace(structure.block_dim(w), vecs)
                                    for w, vecs in vectors.items()})

    @classmethod
    def from_tensor(cls, name: str, alg: GradedSL, deg: int,
                    parts: Iterable[tuple[tuple[int, ...], Subspace]]) -> "ChainModule":
        """⊕ Z_T ⊗ B_T over the pairs (T, B_T) of ``parts``, each B_T a
        Subspace of g with weight vectors as its canonical rows.  A repeated T
        or a row mixing weights is a ``ValueError``; no row is split."""
        parts = list(parts)
        if len({T for T, _ in parts}) != len(parts):
            raise ValueError("a tuple is repeated in a tensor module")
        structure = block_structure(alg.blocks, deg)
        block_of, slot = structure.block_of, structure.slot
        weights, start = structure.weights, structure.start
        rows: dict[int, list[list[int]]] = {}
        # The nonzero entries of each factor's rows; factors repeat over T.
        entries: dict[int, list[list[tuple[int, int]]]] = {}
        for T, space in parts:
            if space.ambient != alg.dim:
                raise ValueError("tensor factor is not a subspace of g")
            if id(space) not in entries:
                entries[id(space)] = [[(v, x) for v, x in enumerate(b) if x]
                                      for b in space.int_rows]
            base = structure.index[T] * alg.dim
            for b in entries[id(space)]:
                number = block_of[base + b[0][0]]
                if any(block_of[base + v] != number for v, _ in b):
                    raise ValueError(f"a row of the factor at {T} mixes weights")
                row = [0] * (start[number + 1] - start[number])
                for v, x in b:
                    row[slot[base + v]] = x
                rows.setdefault(number, []).append(row)
        # Rows positive at their pivots: decreasing order is increasing pivot.
        return cls(name, alg, deg, {weights[number]: Subspace.echelon(len(vecs[0]),
                                                                      sorted(vecs, reverse=True))
                                    for number, vecs in rows.items()})

    @classmethod
    def from_values(cls, name: str, alg: GradedSL, deg: int,
                    values_of: Callable[[tuple[int, ...]], Iterable[int]]) -> "ChainModule":
        """⊕_T Z_T ⊗ span{basis_v : v ∈ values_of(T)} over the degree-``deg``
        tuples T, with one :func:`coordinate_subspace` per distinct value set.
        A value index outside ``range(alg.dim)`` is a ``ValueError``."""
        factors: dict[frozenset[int], Subspace] = {}
        parts = []
        for T in chain_tuples(alg, deg):
            values = frozenset(values_of(T))
            if not values:
                continue
            if values not in factors:
                if not all(0 <= v < alg.dim for v in values):
                    raise ValueError(f"a value index at {T} is not a basis index of g")
                factors[values] = coordinate_subspace(alg, values)
            parts.append((T, factors[values]))
        return cls.from_tensor(name, alg, deg, parts)

    @property
    def dim(self) -> int:
        return sum(s.dim for s in self.spaces.values())

    def contains(self, c: Cochain) -> bool:
        if c.alg.blocks != self.alg.blocks or c.deg != self.deg:
            return False
        return all(self.contains_block(w, vec) for w, vec in blocked_coords(c).items())

    def contains_block(self, w: Weight, vec: Sequence[int | Fraction]) -> bool:
        """Whether the weight-w block vector ``vec`` lies in the module."""
        space = self.spaces.get(w)
        return space.contains(vec) if space is not None else not any(vec)

    def is_contained_in(self, other: "ChainModule") -> bool:
        # Every stored space is nonzero, so a block missing from other fails.
        done: dict = {}
        return all(w in other.spaces and _once(done, Subspace.contains_subspace,
                                               other.spaces[w], space)
                   for w, space in self.spaces.items())

    def sum_with(self, other: "ChainModule", name: str | None = None) -> "ChainModule":
        spaces, done = dict(self.spaces), {}
        for w, space in other.spaces.items():
            spaces[w] = _once(done, Subspace.sum_with, spaces[w], space) if w in spaces else space
        return ChainModule(name or f"{self.name}+{other.name}", self.alg, self.deg, spaces)

    def intersect(self, other: "ChainModule", name: str | None = None) -> "ChainModule":
        spaces, done = {}, {}
        for w, space in self.spaces.items():
            if w in other.spaces:
                spaces[w] = _once(done, Subspace.intersect, space, other.spaces[w])
        return ChainModule(name or f"{self.name}∩{other.name}", self.alg, self.deg, spaces)

    def basis_cochains(self) -> list[Cochain]:
        out = []
        for w in sorted(self.spaces):
            for row in self.spaces[w].rows:
                out.append(cochain_from_block(self.alg, self.deg, w, row))
        return out

    def same_space(self, other: "ChainModule") -> bool:
        return (self.alg.blocks == other.alg.blocks and self.deg == other.deg
                and self.spaces == other.spaces)

    def __repr__(self) -> str:
        return f"ChainModule({self.name!r}, deg={self.deg}, dim={self.dim})"


def _once(done: dict, op: Callable, a: Subspace, b: Subspace):
    """op(a, b), looked up in ``done`` by the pair of objects, which the
    caller keeps alive: blocks that share their spaces (see :func:`hodge`)
    compute each distinct pair once."""
    key = (id(a), id(b))
    if key not in done:
        done[key] = op(a, b)
    return done[key]


def operator_block(structure_in: BlockStructure, structure_out: BlockStructure,
                   w: Weight) -> list[list[int]]:
    """Matrix of ∂ (one degree up) or ∂* (one degree down) on one weight block.

    Rows index the target block, columns the source block; an empty source
    or target block yields a matrix with zero columns or rows.  The column
    of a label (T, v) is the image of Z_T ⊗ basis_v: the exterior part of
    Z_T, from :func:`_exterior_table`, with the bracket action of the
    algebra (``action_coords``) on basis_v.  Entries are ``int``.
    """
    step = structure_out.deg - structure_in.deg
    if step not in (1, -1):
        raise ValueError("operator_block maps one degree up (∂) or one down (∂*)")
    alg = structure_in.alg
    action = alg.action_coords[0 if step == 1 else 1]
    table = _exterior_table(alg.blocks, structure_in.deg, step)
    dim, tuples = alg.dim, structure_in.tuples
    index, block_of, slot = structure_out.index, structure_out.block_of, structure_out.slot
    cols = structure_in.members(w)
    targets = structure_out.members(w)
    # Every term must land in w's block of the target, if it has one.
    number = block_of[targets[0]] if targets else -1
    mat = [[0] * len(cols) for _ in targets]
    for col, g in enumerate(cols):
        k, v = divmod(g, dim)
        for x, S, sign in table[tuples[k]]:
            base = index[S] * dim
            for idx, cf in action[x][v] if x is not None else ((v, 1),):
                if block_of[base + idx] != number:
                    raise AssertionError("operator did not preserve the weight")
                mat[slot[base + idx]][col] += sign * cf
    return mat


@lru_cache(maxsize=None)
def _exterior_table(blocks: tuple[int, ...], deg: int, step: int) -> dict[tuple[int, ...], list]:
    """The definition of ∂ (``step`` 1) and ∂* (``step`` −1) in the chain
    representation: T ↦ the terms (x, S, c) of the operator on Z_T ⊗ A for
    each degree-``deg`` tuple T, each c times A bracketed with X^x (∂) or
    Z_x (∂*), or A itself when x is None (the second sum), on the increasing
    tuple S.  Rows list the first sum, then the second, in the order of the
    displayed formulas."""
    alg = graded_sl(blocks)
    table = {}
    for T in chain_tuples(alg, deg):
        if step == 1:
            terms = [(x, T[:p] + (x,) + T[p:], -1 if p % 2 else 1)
                     for x in range(alg.dim_neg) if x not in T for p in (bisect_left(T, x),)]
            for q, s in enumerate(T):
                rest = T[:q] + T[q + 1:]
                for a, b, cf in alg.neg_pair_coords.get(s, ()):
                    if a not in rest and b not in rest:
                        S = tuple(sorted(rest + (a, b)))
                        terms.append((None, S, -cf if (S.index(a) + S.index(b) + q) % 2 else cf))
        else:
            terms = [(t, T[:i] + T[i + 1:], 1 if i % 2 else -1) for i, t in enumerate(T)]
            for i, j in combinations(range(len(T)), 2):
                rest = T[:i] + T[i + 1:j] + T[j + 1:]
                for s, cf in alg.pos_pair_coords.get((T[i], T[j]), ()):
                    if s not in rest:
                        k = bisect_left(rest, s)
                        terms.append((None, rest[:k] + (s,) + rest[k:],
                                      -cf if (i + j + k) % 2 else cf))
        table[T] = terms
    return table


def block_product(left: Sequence[Sequence[int | Fraction]],
                  right: Sequence[Sequence[int | Fraction]],
                  ncols: int) -> list[list[int | Fraction]]:
    """left·right, summed over the nonzero entries of both factors only.

    ``ncols`` is the column count of ``right``, which may have no rows (a
    factor through an empty weight block); the product then is zero.
    """
    right_nz = [[(j, y) for j, y in enumerate(row) if y] for row in right]
    out = [[0] * ncols for _ in left]
    for out_row, left_row in zip(out, left):
        for k, x in enumerate(left_row):
            if x:
                for j, y in right_nz[k]:
                    out_row[j] += x * y
    return out


@dataclass(frozen=True)
class HodgeData:
    """The Hodge decomposition of one chain degree.  Weight blocks with the
    same operators share their Subspace objects, so none may be mutated."""

    im_costar: ChainModule
    ker_box: ChainModule
    im_partial: ChainModule
    ker_costar: ChainModule
    ker_partial: ChainModule
    total_dim: int


@lru_cache(maxsize=None)
def hodge(blocks: tuple[int, ...], deg: int = 2) -> HodgeData:
    """im∂* ⊕ ker□ ⊕ im∂ at the given degree, one weight block at a time.

    The five spaces are solved once per distinct key: the three block
    dimensions (an empty operator block ``[]`` keeps no column count) and
    the four operator blocks, 170 keys for 635 degree-2 blocks of (2, 5).
    A later block with the same key takes the same Subspace objects, which
    are the exact solution of its own operators.
    """
    alg = graded_sl(blocks)
    below = block_structure(blocks, deg - 1)
    here = block_structure(blocks, deg)
    above = block_structure(blocks, deg + 1)
    # In HodgeData's field order: im∂*, ker□, im∂, ker∂*, ker∂.
    modules: tuple[dict[Weight, Subspace], ...] = ({}, {}, {}, {}, {})
    solved: dict[tuple, tuple[Subspace, ...]] = {}
    for w in here.weights:
        dim_here = here.block_dim(w)
        d_up = operator_block(here, above, w)
        s_down = operator_block(here, below, w)
        d_in = operator_block(below, here, w)
        s_in = operator_block(above, here, w)
        key = (below.block_dim(w), dim_here, above.block_dim(w),
               *(tuple(map(tuple, mat)) for mat in (d_up, s_down, d_in, s_in)))
        spaces = solved.get(key)
        if spaces is None:
            # □ = ∂∘∂* + ∂*∘∂ on this block: d_in·s_down + s_in·d_up.
            box = [[x + y for x, y in zip(r1, r2)]
                   for r1, r2 in zip(block_product(d_in, s_down, dim_here),
                                     block_product(s_in, d_up, dim_here))]
            spaces = solved[key] = (Subspace(dim_here, zip(*s_in)), null_space(box, dim_here),
                                    Subspace(dim_here, zip(*d_in)), null_space(s_down, dim_here),
                                    null_space(d_up, dim_here))
        for module, space in zip(modules, spaces):
            module[w] = space
    names = ("im costar", "ker box", "im partial", "ker costar", "ker partial")
    return HodgeData(*(ChainModule(name, alg, deg, module)
                       for name, module in zip(names, modules)),
                     total_dim=chain_total_dim(alg, deg))
