"""Tests for the graded sl(m) model.

Index convention in this file: positions are 0-based, so the sl(2)-triple
bracket usually written [E_12, E_21] = E_11 − E_22 reads
[E_01, E_10] = E_00 − E_11 here.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from kostantcheck.gla import (
    elementary,
    graded_sl,
    grading_axiom_holds,
    jacobi_holds,
    negative_part_generated_by_deg_minus_one,
    smat_add_into,
    smat_bracket,
    smat_trace_pair,
)

F = Fraction


def from_dense(mat: list[list[Fraction]]) -> dict:
    """The sparse matrix of a dense one: its nonzero entries by position."""
    return {(i, j): v for i, row in enumerate(mat) for j, v in enumerate(row) if v}


def to_dense(x: dict, m: int) -> list[list[Fraction]]:
    """The dense m×m matrix of a sparse one, zero off its stored entries."""
    out = [[Fraction(0)] * m for _ in range(m)]
    for (a, b), v in x.items():
        out[a][b] = v
    return out


def weight(m: int, a: int, b: int) -> tuple[int, ...]:
    """The torus weight e_a − e_b of the matrix position (a, b) in sl(m)."""
    w = [0] * m
    w[a] += 1
    w[b] -= 1
    return tuple(w)


ALL_GRADINGS_N2 = [(1, 1, 2), (2, 2), (2, 3), (2, 1, 2)]


def reference_coords(alg, x: dict) -> list[Fraction]:
    """Dense coordinates straight from the basis definition: off-diagonal
    entries at their basis index, and H_k = E_kk − E_{k+1,k+1} weighted by
    the partial sums of the diagonal."""
    out = [F(0)] * alg.dim
    for k, label in enumerate(alg.basis_labels):
        if label[0] == "E":
            out[k] = F(x.get((label[1], label[2]), 0))
        else:
            out[k] = sum((F(x.get((j, j), 0)) for j in range(label[1] + 1)), F(0))
    return out


def random_traceless(rng: random.Random, m: int) -> dict:
    """Sparse trace-zero matrix with int and non-integer Fraction entries."""
    x: dict = {}
    for _ in range(rng.randint(1, 6)):
        a, b = rng.randrange(m), rng.randrange(m)
        v = rng.choice([rng.randint(-3, 3), F(rng.randint(-5, 5), rng.randint(1, 4))])
        if v:
            x[(a, b)] = v
    trace = sum((v for (a, b), v in x.items() if a == b), 0)
    last = x.get((m - 1, m - 1), 0) - trace
    if last:
        x[(m - 1, m - 1)] = last
    else:
        x.pop((m - 1, m - 1), None)
    return x


def test_bracket_sl2_triple() -> None:
    assert smat_bracket(elementary(0, 1), elementary(1, 0)) == {
        (0, 0): F(1),
        (1, 1): F(-1),
    }


def test_bracket_disjoint_indices() -> None:
    assert smat_bracket(elementary(0, 1), elementary(0, 2)) == {}


def test_bracket_antisymmetry_random() -> None:
    rng = random.Random(5)
    for _ in range(20):
        m = rng.randint(3, 5)
        x = {(rng.randrange(m), rng.randrange(m)): F(rng.randint(-4, 4)) for _ in range(4)}
        y = {(rng.randrange(m), rng.randrange(m)): F(rng.randint(-4, 4)) for _ in range(4)}
        x = {p: v for p, v in x.items() if v}
        y = {p: v for p, v in y.items() if v}
        flipped = smat_bracket(y, x)
        acc = smat_bracket(x, y)
        smat_add_into(acc, flipped)
        assert acc == {}


def test_add_into_keeps_the_value_types_of_the_product() -> None:
    """coeff·v decides each new value's type, also for coefficient 1."""
    x = {(0, 1): 2, (1, 0): F(3, 2)}
    for coeff in (1, F(1), -1, 2):
        acc: dict = {}
        smat_add_into(acc, x, coeff)
        assert acc == {pos: coeff * v for pos, v in x.items()}
        assert [type(v) for v in acc.values()] == [type(coeff * v) for v in x.values()]
    acc = {(0, 1): -2, (1, 1): 7}
    smat_add_into(acc, x)
    assert acc == {(1, 1): 7, (1, 0): F(3, 2)}


def random_sparse(rng: random.Random, m: int) -> dict:
    """Sparse m×m matrix with int and Fraction entries (some integral), no
    stored zeros."""
    x: dict = {}
    for _ in range(rng.randint(0, 2 * m)):
        v = rng.choice([rng.randint(-3, 3), F(rng.randint(-5, 5), rng.randint(1, 2))])
        if v:
            x[(rng.randrange(m), rng.randrange(m))] = v
    return x


def dense(x: dict, m: int) -> list[list]:
    return [[x.get((i, j), 0) for j in range(m)] for i in range(m)]


def test_add_into_matches_dense_and_keeps_the_product_type() -> None:
    rng = random.Random(101)
    for _ in range(300):
        m = rng.randint(1, 4)
        acc, x = random_sparse(rng, m), random_sparse(rng, m)
        coeff = rng.choice([1, -1, 2, 0, F(1), F(-3, 2)])
        want = [[a + coeff * b for a, b in zip(ra, rb)]
                for ra, rb in zip(dense(acc, m), dense(x, m))]
        fresh = {pos: coeff * v for pos, v in x.items() if pos not in acc}
        smat_add_into(acc, x, coeff)
        assert dense(acc, m) == want and all(acc.values())
        assert all(type(acc[pos]) is type(v) for pos, v in fresh.items() if v)


def test_bracket_matches_dense_and_keeps_the_product_type() -> None:
    rng = random.Random(103)
    for _ in range(300):
        m = rng.randint(1, 4)
        x, y = random_sparse(rng, m), random_sparse(rng, m)
        xd, yd = dense(x, m), dense(y, m)
        want = [[sum(xd[i][k] * yd[k][j] - yd[i][k] * xd[k][j] for k in range(m))
                 for j in range(m)] for i in range(m)]
        products: dict = {}
        for (a, b), xv in x.items():
            for (c, d), yv in y.items():
                if b == c:
                    products.setdefault((a, d), []).append(xv * yv)
                if d == a:
                    products.setdefault((c, b), []).append(yv * xv)
        got = smat_bracket(x, y)
        assert dense(got, m) == want and all(got.values())
        for pos, v in got.items():
            # A mixed entry may cancel to zero and restart with either type.
            types = {type(p) for p in products[pos]}
            if len(types) == 1:
                assert type(v) in types


def test_jacobi_exhaustive_sl4() -> None:
    assert jacobi_holds(4)


def test_sparse_bracket_matches_dense_commutator() -> None:
    rng = random.Random(9)
    m = 4
    for _ in range(15):
        xd = [[F(rng.randint(-3, 3)) for _ in range(m)] for _ in range(m)]
        yd = [[F(rng.randint(-3, 3)) for _ in range(m)] for _ in range(m)]
        dense = [[sum(xd[i][k] * yd[k][j] - yd[i][k] * xd[k][j] for k in range(m))
                  for j in range(m)] for i in range(m)]
        sparse = smat_bracket(from_dense(xd), from_dense(yd))
        assert to_dense(sparse, m) == dense


class TestGrading:
    def test_block_degrees_1_1_n(self) -> None:
        alg = graded_sl((1, 1, 2))
        # top-right corner position (0, 2) spans two block steps
        assert alg.degree_of_position(0, 2) == 2
        assert alg.degree_of_position(1, 0) == -1
        assert alg.degree_of_position(2, 3) == 0

    def test_grading_component_picks_blocks(self) -> None:
        alg = graded_sl((1, 1, 2))
        x = elementary(0, 2)
        assert alg.grading_component(x, 2) == x
        assert alg.grading_component(x, 1) == {}
        diag = {(0, 0): F(1), (1, 1): F(-1)}
        assert alg.grading_component(diag, 0) == diag
        assert alg.degrees_present(diag) == [0]

    def test_components_sum_back(self) -> None:
        alg = graded_sl((2, 1, 2))
        rng = random.Random(13)
        x = {(rng.randrange(5), rng.randrange(5)): F(rng.randint(-4, 4)) for _ in range(8)}
        x = {p: v for p, v in x.items() if v}
        acc: dict = {}
        for d in range(-alg.depth, alg.depth + 1):
            smat_add_into(acc, alg.grading_component(x, d))
        assert acc == x

    @pytest.mark.parametrize("blocks", ALL_GRADINGS_N2)
    def test_grading_axiom_exhaustive(self, blocks: tuple[int, ...]) -> None:
        assert grading_axiom_holds(graded_sl(blocks))

    @pytest.mark.parametrize("blocks", ALL_GRADINGS_N2)
    def test_bracket_generating(self, blocks: tuple[int, ...]) -> None:
        assert negative_part_generated_by_deg_minus_one(graded_sl(blocks))


class TestQuotientBasis:
    def test_first_dual_pair_1_1_n(self) -> None:
        alg = graded_sl((1, 1, 2))
        assert alg.neg_positions[0] == (1, 0)
        assert alg.x_mat(0) == elementary(1, 0)
        assert alg.z_mat(0) == elementary(0, 1)

    def test_dual_pair_count_2_n(self) -> None:
        alg = graded_sl((2, 3))
        xs = [alg.x_mat(i) for i in range(alg.dim_neg)]
        zs = [alg.z_mat(i) for i in range(alg.dim_neg)]
        assert alg.dim_neg == 6
        assert len(xs) == len(zs) == 6

    @pytest.mark.parametrize("blocks", ALL_GRADINGS_N2)
    def test_duality_matrix_is_identity(self, blocks: tuple[int, ...]) -> None:
        alg = graded_sl(blocks)
        xs = [alg.x_mat(i) for i in range(alg.dim_neg)]
        zs = [alg.z_mat(i) for i in range(alg.dim_neg)]
        for i, z in enumerate(zs):
            for j, x in enumerate(xs):
                assert smat_trace_pair(z, x) == (1 if i == j else 0)

    @pytest.mark.parametrize("blocks", ALL_GRADINGS_N2)
    def test_pairing_kills_parabolic(self, blocks: tuple[int, ...]) -> None:
        """tr(p_+ · p) = 0, so the pairing descends to g/p."""
        alg = graded_sl(blocks)
        parabolic = [alg.basis_mat(i) for i, lab in enumerate(alg.basis_labels)
                     if lab[0] == "H"
                     or alg.degree_of_position(lab[1], lab[2]) >= 0]
        for i in range(alg.dim_neg):
            z = alg.z_mat(i)
            assert all(smat_trace_pair(z, y) == 0 for y in parabolic)


class TestCoordinates:
    def test_h_coords_are_partial_sums(self) -> None:
        alg = graded_sl((1, 1, 2))
        x = {(0, 0): F(1), (1, 1): F(2), (3, 3): F(-3)}
        coords = alg.coords(x)
        assert coords[-3:] == [F(1), F(3), F(3)]
        assert alg.from_coords(coords) == x

    def test_round_trip_random(self) -> None:
        rng = random.Random(17)
        for blocks in ALL_GRADINGS_N2:
            alg = graded_sl(blocks)
            for _ in range(10):
                vec = [F(rng.randint(-5, 5)) for _ in range(alg.dim)]
                x = alg.from_coords(vec)
                assert alg.coords(x) == vec

    def test_nonzero_trace_rejected(self) -> None:
        alg = graded_sl((2, 2))
        with pytest.raises(ValueError):
            alg.coords({(0, 0): F(1)})

    @pytest.mark.parametrize("blocks", [(2, 3), (1, 1, 3)])
    def test_sparse_coords_are_the_nonzero_coordinates(self, blocks) -> None:
        alg = graded_sl(blocks)
        rng = random.Random(23)
        elements = [alg.basis_mat(i) for i in range(alg.dim)]
        for _ in range(40):
            x = random_traceless(rng, alg.m)
            elements.append(x)
        for x in elements:
            expected = reference_coords(alg, x)
            assert alg.sparse_coords(x) == [(i, v) for i, v in enumerate(expected) if v]
            assert alg.coords(x) == expected

    def test_nonzero_trace_rejected_by_sparse_coords(self) -> None:
        alg = graded_sl((1, 1, 3))
        for x in ({(0, 0): F(1)}, {(4, 4): 2}, {(1, 1): F(1, 2), (2, 2): F(-1, 2), (3, 3): 1},
                  {(0, 1): 3, (4, 4): F(-1, 3)}):
            with pytest.raises(ValueError):
                alg.sparse_coords(x)
            with pytest.raises(ValueError):
                alg.coords(x)

    def test_basis_elements_and_their_brackets_are_integer(self) -> None:
        alg = graded_sl((2, 3))
        basis = [alg.basis_mat(i) for i in range(alg.dim)]
        assert all(type(v) is int for x in basis for v in x.values())
        for x in basis:
            for y in basis:
                assert all(type(v) is int for v in smat_bracket(x, y).values())
                assert all(type(v) is int for _, v in alg.sparse_coords(smat_bracket(x, y)))

    def test_quotient_coords_prefix(self) -> None:
        """Coordinates of the class mod p are the leading block of coords."""
        rng = random.Random(19)
        for blocks in ALL_GRADINGS_N2:
            alg = graded_sl(blocks)
            vec = [F(rng.randint(-5, 5)) for _ in range(alg.dim)]
            x = alg.from_coords(vec)
            assert alg.class_mod_p(x) == vec[: alg.dim_neg]
            assert alg.class_mod_p(alg.lift_from_class(alg.class_mod_p(x))) \
                == alg.class_mod_p(x)


class TestWeights:
    def test_weight_additivity_under_bracket(self) -> None:
        alg = graded_sl((1, 1, 2))
        rng = random.Random(23)
        m = alg.m
        for _ in range(30):
            a, b = rng.randrange(m), rng.randrange(m)
            c, d = rng.randrange(m), rng.randrange(m)
            if a == b or c == d:
                continue
            br = smat_bracket(elementary(a, b), elementary(c, d))
            wsum = tuple(p + q for p, q in zip(weight(m, a, b), weight(m, c, d)))
            for (r, s) in br:
                if r != s:
                    assert weight(m, r, s) == wsum
        # a diagonal bracket result carries weight zero
        assert weight(m, 0, 1) == (1, -1, 0, 0)


class TestPairTables:
    def test_neg_pair_table_frozen_entry(self) -> None:
        """[X^0, X^2] = [E_10, E_20·…] — in the (1,1,2) grading the bracket
        of E_10 and E_21 is −E_20 = −X^1."""
        alg = graded_sl((1, 1, 2))
        assert alg.neg_positions[2] == (2, 1)
        hits = alg.neg_pair_coords[1]
        assert (0, 2, F(-1)) in hits

    def test_pos_pair_table_frozen_entry(self) -> None:
        """[Z_0, Z_2] = [E_01, E_12] = E_02 = Z_1."""
        alg = graded_sl((1, 1, 2))
        assert alg.pos_pair_coords[(0, 2)] == [(1, F(1))]

    @pytest.mark.parametrize("blocks", ALL_GRADINGS_N2)
    def test_pair_tables_match_direct_brackets(self, blocks: tuple[int, ...]) -> None:
        alg = graded_sl(blocks)
        for a in range(alg.dim_neg):
            for b in range(a + 1, alg.dim_neg):
                br = smat_bracket(alg.x_mat(a), alg.x_mat(b))
                cls = alg.class_mod_p(br)
                for s, c in enumerate(cls):
                    hits = alg.neg_pair_coords.get(s, [])
                    found = next((h[2] for h in hits if h[:2] == (a, b)), F(0))
                    assert found == c
                zbr = smat_bracket(alg.z_mat(a), alg.z_mat(b))
                expansion: dict = {}
                for t, c in alg.pos_pair_coords.get((a, b), []):
                    smat_add_into(expansion, alg.z_mat(t), c)
                assert expansion == zbr
        for x in range(alg.dim_neg):
            for v in range(alg.dim):
                for table, y in ((alg.action_coords[0], alg.x_mat(x)),
                                 (alg.action_coords[1], alg.z_mat(x))):
                    dense = [F(0)] * alg.dim
                    for idx, c in table[x][v]:
                        assert c and type(c) is int
                        dense[idx] = c
                    assert dense == reference_coords(alg, smat_bracket(y, alg.basis_mat(v)))
