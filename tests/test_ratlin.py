"""Tests for exact rational linear algebra.

The independent oracles here are classical formulas that do not share code
with the implementation: cofactor determinants for rank decisions, the
Grassmann dimension formula for sums/intersections, and hand-reduced
echelon forms for small frozen matrices.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from kostantcheck.ratlin import (
    Subspace,
    kernel_basis,
    mat_vec,
    null_space,
    rref,
    solve,
    zero_vector,
)

F = Fraction


def reduce(space: Subspace, vec: list[Fraction]) -> list[Fraction]:
    """Reference residual of ``vec`` after eliminating every pivot of the
    reduced basis rows of ``space``."""
    out = [F(x) for x in vec]
    for row, pc in zip(space.rows, space.pivots):
        f = out[pc]
        if f:
            out = [x - f * r for x, r in zip(out, row)]
    return out


def det_cofactor(mat: list[list[Fraction]]) -> Fraction:
    """Independent determinant oracle by Laplace expansion."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = F(0)
    for j in range(n):
        if mat[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * det_cofactor(minor)
    return total


def random_matrix(rng: random.Random, nrows: int, ncols: int) -> list[list[Fraction]]:
    return [[F(rng.randint(-9, 9)) for _ in range(ncols)] for _ in range(nrows)]


def test_rref_frozen_example() -> None:
    reduced, rk = rref([[F(2), F(4), F(-2)], [F(1), F(2), F(0)], [F(3), F(6), F(-2)]])
    assert rk == 2
    assert reduced == [
        [F(1), F(2), F(0)],
        [F(0), F(0), F(1)],
        [F(0), F(0), F(0)],
    ]


def test_rref_identity_fixed_point() -> None:
    eye = [[F(int(i == j)) for j in range(4)] for i in range(4)]
    reduced, rk = rref(eye)
    assert reduced == eye and rk == 4


def test_rref_idempotent() -> None:
    rng = random.Random(7)
    for _ in range(20):
        mat = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        once, rk1 = rref(mat)
        twice, rk2 = rref(once)
        assert once == twice and rk1 == rk2


def test_rank_against_determinant_oracle() -> None:
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        mat = random_matrix(rng, n, n)
        if det_cofactor(mat) != 0:
            assert rref(mat)[1] == n
        else:
            assert rref(mat)[1] < n


def test_rank_row_column_symmetric() -> None:
    rng = random.Random(13)
    for _ in range(25):
        mat = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        transpose = [list(col) for col in zip(*mat)]
        assert rref(mat)[1] == rref(transpose)[1]


def test_kernel_frozen_example() -> None:
    basis = kernel_basis([[F(1), F(2), F(3)]])
    assert basis == [[F(-2), F(1), F(0)], [F(-3), F(0), F(1)]]


def test_kernel_vectors_annihilated_and_independent() -> None:
    rng = random.Random(17)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 6)
        mat = random_matrix(rng, nrows, ncols)
        basis = kernel_basis(mat)
        assert len(basis) == ncols - rref(mat)[1]
        for vec in basis:
            assert mat_vec(mat, vec) == zero_vector(nrows)
        if basis:
            assert rref(basis)[1] == len(basis)


def dense_rref(mat: list[list[Fraction]]) -> tuple[list[list[Fraction]], int]:
    """Reference elimination that updates every entry of every row."""
    rows = [list(row) for row in mat]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    lead = 0
    for col in range(ncols):
        pivot = next((r for r in range(lead, nrows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[lead], rows[pivot] = rows[pivot], rows[lead]
        rows[lead] = [x / rows[lead][col] for x in rows[lead]]
        for r in range(nrows):
            if r != lead:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[lead])]
        lead += 1
    return rows, lead


def sparse_matrix(rng: random.Random, nrows: int, ncols: int) -> list[list[Fraction]]:
    """Mostly-zero integer matrix with some all-zero rows, like an operator block."""
    return [[F(0)] * ncols if rng.random() < 0.3 else
            [F(rng.randint(-3, 3)) if rng.random() < 0.3 else F(0) for _ in range(ncols)]
            for _ in range(nrows)]


def test_rref_with_zero_rows_matches_dense_elimination() -> None:
    mat = [[F(0), F(0), F(0)], [F(0), F(2), F(4)], [F(0), F(0), F(0)], [F(3), F(0), F(3)]]
    assert rref(mat) == ([[F(1), F(0), F(1)], [F(0), F(1), F(2)],
                          [F(0), F(0), F(0)], [F(0), F(0), F(0)]], 2)
    rng = random.Random(37)
    for _ in range(60):
        mat = sparse_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        assert rref(mat) == dense_rref(mat)


def test_rref_does_not_mutate_its_input() -> None:
    mat = [[F(2), F(4)], [F(1), F(3)]]
    rref(mat)
    assert mat == [[F(2), F(4)], [F(1), F(3)]]


def test_all_zero_matrix() -> None:
    zero = [[F(0)] * 3 for _ in range(2)]
    assert rref(zero) == (zero, 0)
    assert kernel_basis(zero) == [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]


def test_kernel_of_sparse_matrices_with_zero_rows() -> None:
    rng = random.Random(41)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        mat = sparse_matrix(rng, nrows, ncols)
        basis = kernel_basis(mat)
        assert rref(mat)[1] + len(basis) == ncols
        for vec in basis:
            assert mat_vec(mat, vec) == zero_vector(nrows)
        if basis:
            assert rref(basis)[1] == len(basis)


def test_solve_feasible_and_infeasible() -> None:
    mat = [[F(1), F(2)], [F(2), F(4)]]
    assert solve(mat, [F(3), F(6)]) == [F(3), F(0)]
    assert solve(mat, [F(3), F(7)]) is None
    assert solve([[F(2)]], [F(5)]) == [F(5, 2)]


def test_solve_random_consistency() -> None:
    rng = random.Random(19)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
        mat = random_matrix(rng, nrows, ncols)
        x = [F(rng.randint(-5, 5)) for _ in range(ncols)]
        rhs = mat_vec(mat, x)
        found = solve(mat, rhs)
        assert found is not None
        assert mat_vec(mat, found) == rhs


class TestSubspace:
    def test_membership_and_dim(self) -> None:
        space = Subspace(3, [[F(1), F(0), F(1)], [F(0), F(1), F(1)]])
        assert space.dim == 2
        assert space.contains([F(2), F(3), F(5)])
        assert not space.contains([F(0), F(0), F(1)])

    def test_canonical_under_shuffled_spanning_sets(self) -> None:
        rng = random.Random(29)
        for _ in range(15):
            vectors = [[F(rng.randint(-4, 4)) for _ in range(5)] for _ in range(4)]
            space = Subspace(5, vectors)
            shuffled = list(vectors)
            rng.shuffle(shuffled)
            # also throw in a linear combination; the span is unchanged
            shuffled.append([3 * a - b for a, b in zip(vectors[0], vectors[1])])
            other = Subspace(5, shuffled)
            assert space == other
            assert space.rows == other.rows

    def test_grassmann_dimension_formula(self) -> None:
        rng = random.Random(31)
        for _ in range(20):
            ambient = rng.randint(2, 6)
            u = Subspace(ambient, [[F(rng.randint(-3, 3)) for _ in range(ambient)]
                                   for _ in range(rng.randint(1, ambient))])
            v = Subspace(ambient, [[F(rng.randint(-3, 3)) for _ in range(ambient)]
                                   for _ in range(rng.randint(1, ambient))])
            total = u.sum_with(v)
            meet = u.intersect(v)
            assert total.dim + meet.dim == u.dim + v.dim
            assert u.contains_subspace(meet) and v.contains_subspace(meet)
            assert total.contains_subspace(u) and total.contains_subspace(v)

    def test_intersect_frozen(self) -> None:
        u = Subspace(3, [[F(1), F(0), F(0)], [F(0), F(1), F(0)]])
        v = Subspace(3, [[F(0), F(1), F(0)], [F(0), F(0), F(1)]])
        meet = u.intersect(v)
        assert meet.dim == 1
        assert meet.rows == [[F(0), F(1), F(0)]]

    def test_reduce_is_zero_exactly_on_members(self) -> None:
        space = Subspace(4, [[F(1), F(2), F(0), F(0)], [F(0), F(0), F(1), F(-1)]])
        member, other = [F(3), F(6), F(2), F(-2)], [F(1), F(0), F(0), F(0)]
        assert reduce(space, member) == zero_vector(4) and space.contains(member)
        assert any(reduce(space, other)) and not space.contains(other)

    def test_insert_reports_growth(self) -> None:
        space = Subspace(2)
        assert space.insert([F(1), F(1)]) is True
        assert space.insert([F(2), F(2)]) is False
        assert space.insert([F(1), F(0)]) is True
        assert space.dim == 2

    def test_ambient_mismatch_raises(self) -> None:
        space = Subspace(3)
        with pytest.raises(ValueError):
            space.contains([F(1), F(2)])


def rational_matrix(rng: random.Random, nrows: int, ncols: int) -> list[list[Fraction]]:
    """Sparse matrix with non-integer rational entries and some all-zero rows."""
    return [[F(0)] * ncols if rng.random() < 0.2 else
            [F(rng.randint(-7, 7), rng.randint(1, 6)) if rng.random() < 0.6 else F(0)
             for _ in range(ncols)]
            for _ in range(nrows)]


def mixed_entries(rng: random.Random, mat: list[list[Fraction]]) -> list[list[int | Fraction]]:
    """The same matrix with some integral entries given as plain ints."""
    return [[int(x) if x.denominator == 1 and rng.random() < 0.5 else x for x in row]
            for row in mat]


def assert_fraction_free_rref_matches_reference(mat: list[list], ref_input: list[list[Fraction]]) -> None:
    before = [list(row) for row in mat]
    reduced, rk = rref(mat)
    expected, expected_rank = dense_rref(ref_input)
    assert (reduced, rk) == (expected, expected_rank)
    assert all(type(x) is Fraction for row in reduced for x in row)
    assert mat == before and all(type(x) is type(y) for r, s in zip(mat, before)
                                 for x, y in zip(r, s))


def test_fraction_free_rref_on_rational_entries_matches_dense_elimination() -> None:
    rng = random.Random(43)
    for _ in range(80):
        mat = rational_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        assert_fraction_free_rref_matches_reference(mat, mat)


def test_fraction_free_rref_on_mixed_int_and_fraction_input() -> None:
    rng = random.Random(47)
    for _ in range(80):
        mat = rational_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        assert_fraction_free_rref_matches_reference(mixed_entries(rng, mat), mat)
    ints = [[0, 2, 4], [0, 0, 0], [3, 0, 3], [1, 2, 5]]
    assert_fraction_free_rref_matches_reference(ints, [[F(x) for x in row] for row in ints])


def test_fraction_free_rref_on_zero_rows_and_all_zero_matrices() -> None:
    for nrows, ncols in [(1, 1), (3, 2), (2, 5)]:
        zero = [[0] * ncols for _ in range(nrows)]
        assert_fraction_free_rref_matches_reference(zero, [[F(0)] * ncols for _ in range(nrows)])
    mat = [[F(0), F(0)], [F(1, 2), F(-1, 3)], [F(0), F(0)], [F(-3, 4), F(1, 2)]]
    assert_fraction_free_rref_matches_reference(mat, mat)
    assert rref(mat) == ([[F(1), F(-2, 3)], [F(0)] * 2, [F(0)] * 2, [F(0)] * 2], 1)


def inserted_one_by_one(ambient: int, vectors: list[list]) -> Subspace:
    space = Subspace(ambient)
    for vec in vectors:
        space.insert(vec)
    return space


def spanning_vectors(rng: random.Random, ambient: int) -> list[list]:
    """Random vectors plus zero vectors and linear combinations of earlier ones."""
    vectors: list[list] = []
    for _ in range(rng.randint(0, ambient + 2)):
        kind = rng.random()
        if kind < 0.15:
            vectors.append([0] * ambient)
        elif kind < 0.35 and vectors:
            a, b = rng.choice(vectors), rng.choice(vectors)
            c = F(rng.randint(-3, 3), rng.randint(1, 3))
            vectors.append([x + c * y for x, y in zip(a, b)])
        else:
            vectors.append([F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.5
                            else rng.randint(-2, 2) for _ in range(ambient)])
    return vectors


class TestBulkSubspace:
    def test_matches_vector_by_vector_insertion(self) -> None:
        rng = random.Random(53)
        for _ in range(60):
            ambient = rng.randint(1, 6)
            vectors = spanning_vectors(rng, ambient)
            bulk = Subspace(ambient, vectors)
            one_by_one = inserted_one_by_one(ambient, vectors)
            assert bulk.rows == one_by_one.rows
            assert bulk.pivots == one_by_one.pivots
            assert all(type(x) is Fraction for row in bulk.rows for x in row)

    def test_dependent_and_zero_vectors_add_nothing(self) -> None:
        vectors = [[F(0), F(0), F(0)], [F(1), F(2), F(3)], [F(2), F(4), F(6)], [0, 0, 0]]
        space = Subspace(3, vectors)
        assert space.dim == 1 and space.pivots == [0]
        assert space.rows == [[F(1), F(2), F(3)]]
        assert Subspace(3, [[0, 0, 0]]).dim == 0

    def test_wrong_length_vector_raises(self) -> None:
        with pytest.raises(ValueError):
            Subspace(3, [[F(1), F(0), F(0)], [F(1), F(2)]])
        with pytest.raises(ValueError):
            Subspace(2, [[0, 0, 0]])

    def test_sum_matches_insertion_based_sum(self) -> None:
        rng = random.Random(59)
        for _ in range(40):
            ambient = rng.randint(1, 6)
            u = Subspace(ambient, spanning_vectors(rng, ambient))
            v = Subspace(ambient, spanning_vectors(rng, ambient))
            expected = inserted_one_by_one(ambient, u.rows + v.rows)
            total = u.sum_with(v)
            assert total.rows == expected.rows and total.pivots == expected.pivots
            # the operands keep their own rows
            assert u == Subspace(ambient, u.rows) and v == Subspace(ambient, v.rows)


def reference_null_space(mat: list[list], ncols: int) -> Subspace:
    """The null space through the basis form: no rows constrain nothing."""
    if not mat:
        return Subspace(ncols, [[int(i == j) for j in range(ncols)] for i in range(ncols)])
    return Subspace(ncols, kernel_basis(mat))


def reference_intersect(u: Subspace, v: Subspace) -> Subspace:
    """U ∩ V through the kernel of the column-stacked bases, recombined and
    reduced again."""
    a, b = u.rows, v.rows
    if not a or not b:
        return Subspace(u.ambient)
    stacked = [[a[i][r] for i in range(len(a))] + [b[j][r] for j in range(len(b))]
               for r in range(u.ambient)]
    vectors = []
    for k in kernel_basis(stacked):
        vec = zero_vector(u.ambient)
        for c, row in zip(k[:len(a)], a):
            vec = [x + c * y for x, y in zip(vec, row)]
        vectors.append(vec)
    return Subspace(u.ambient, vectors)


def assert_same_echelon(got: Subspace, want: Subspace) -> None:
    assert got.ambient == want.ambient
    assert got.rows == want.rows and got.pivots == want.pivots
    assert all(type(x) is Fraction for row in got.rows for x in row)


class TestNullSpace:
    def test_matches_the_basis_form_on_sparse_matrices(self) -> None:
        rng = random.Random(61)
        for _ in range(150):
            nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
            mat = rng.choice([sparse_matrix, rational_matrix])(rng, nrows, ncols)
            if rng.random() < 0.5:
                mat = mixed_entries(rng, mat)
            assert_same_echelon(null_space(mat, ncols), reference_null_space(mat, ncols))

    def test_integer_operator_like_blocks(self) -> None:
        rng = random.Random(67)
        for _ in range(100):
            ncols = rng.randint(1, 9)
            mat = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(ncols)]
                   for _ in range(rng.randint(1, 9))]
            assert_same_echelon(null_space(mat, ncols), reference_null_space(mat, ncols))

    def test_edge_shapes(self) -> None:
        eye3 = [[F(int(i == j)) for j in range(3)] for i in range(3)]
        assert null_space([[0, 0, 0], [0, 0, 0]], 3).rows == eye3
        assert null_space([], 3).rows == eye3
        assert null_space([], 0).dim == 0
        assert null_space([[2, 1], [1, 1]], 2).dim == 0
        assert null_space([[F(1, 2)], [F(0)]], 1).dim == 0
        assert null_space([[0], [0]], 1).rows == [[F(1)]]
        assert_same_echelon(null_space([[1, 2, 3]], 3), reference_null_space([[1, 2, 3]], 3))
        with pytest.raises(ValueError):
            null_space([[1, 2]], 3)

    def test_frozen_echelon_basis(self) -> None:
        # x0 + 2 x1 + 3 x3 = 0 and x2 − x3 = 0, solved for the last columns.
        space = null_space([[1, 2, 0, 3], [0, 0, 1, -1]], 4)
        assert space.pivots == [0, 1]
        assert space.rows == [[F(1), F(0), F(-1, 3), F(-1, 3)],
                              [F(0), F(1), F(-2, 3), F(-2, 3)]]


def random_space(rng: random.Random, ambient: int, kind: str) -> Subspace:
    if kind == "zero":
        return Subspace(ambient)
    if kind == "whole":
        return Subspace(ambient, [[int(i == j) for j in range(ambient)] for i in range(ambient)])
    return Subspace(ambient, spanning_vectors(rng, ambient))


class TestIntersect:
    def test_matches_the_kernel_route(self) -> None:
        rng = random.Random(71)
        kinds = ("zero", "whole", "span", "span", "span")
        for _ in range(150):
            ambient = rng.randint(1, 7)
            u = random_space(rng, ambient, rng.choice(kinds))
            v = random_space(rng, ambient, rng.choice(kinds))
            assert_same_echelon(u.intersect(v), reference_intersect(u, v))

    def test_disjoint_nested_equal_and_zero(self) -> None:
        e = [[int(i == j) for j in range(5)] for i in range(5)]
        low = Subspace(5, [e[0], [1, 1, 0, 0, 0]])
        high = Subspace(5, [[0, 0, 1, 2, 0], e[4]])
        nested = Subspace(5, [[1, 1, 0, 0, 0]])
        diag = Subspace(5, [[1, 1, 1, 1, 1], [0, 1, 2, 3, 4]])
        zero = Subspace(5)
        for u, v in [(low, high), (low, nested), (nested, low), (low, low),
                     (diag, low), (diag, high), (zero, low), (low, zero)]:
            assert_same_echelon(u.intersect(v), reference_intersect(u, v))
        assert low.intersect(high).dim == 0
        assert low.intersect(nested) == nested and nested.intersect(low) == nested
        assert low.intersect(low) == low
        assert zero.intersect(low).dim == 0 and low.intersect(zero).dim == 0

    def test_combinations_of_an_echelon_basis(self) -> None:
        rng = random.Random(73)
        for _ in range(100):
            ambient = rng.randint(1, 7)
            space = Subspace(ambient, spanning_vectors(rng, ambient))
            coords = Subspace(space.dim, spanning_vectors(rng, space.dim)) if space.dim \
                else Subspace(0)
            spanned = [[sum((k * row[j] for k, row in zip(krow, space.rows)), F(0))
                        for j in range(ambient)] for krow in coords.rows]
            assert_same_echelon(space.combinations(coords), Subspace(ambient, spanned))


def assert_canonical(space: Subspace) -> None:
    """Primitive integer rows with positive pivots, zero at every other
    pivot, and ``rows`` the same basis divided by the pivots."""
    assert len(space.int_rows) == len(space.pivots) == space.dim
    for k, (row, pc) in enumerate(zip(space.int_rows, space.pivots)):
        assert len(row) == space.ambient and all(type(x) is int for x in row)
        assert gcd(*row) == 1 and row[pc] > 0 and not any(row[:pc])
        assert all(other[pc] == 0 for i, other in enumerate(space.int_rows) if i != k)
    assert space.rows == [[F(x, row[pc]) for x in row]
                          for row, pc in zip(space.int_rows, space.pivots)]
    assert all(type(x) is Fraction for row in space.rows for x in row)


def routes_to(space: Subspace, vectors: list[list]) -> list[Subspace]:
    """The same subspace, spanned by ``vectors``, built by every constructor."""
    d = space.ambient
    whole = Subspace(d, [[int(i == j) for j in range(d)] for i in range(d)])
    half = len(vectors) // 2
    annihilator = null_space(space.rows, d)
    return [Subspace(d, vectors), inserted_one_by_one(d, vectors),
            null_space(annihilator.rows, d),
            space.intersect(whole), whole.intersect(space), space.intersect(space),
            Subspace(d, vectors[:half]).sum_with(Subspace(d, vectors[half:])),
            space.sum_with(Subspace(d)), whole.combinations(space),
            space.combinations(Subspace(space.dim, [[int(i == j) for j in range(space.dim)]
                                                    for i in range(space.dim)]))]


class TestIntegerSubspace:
    def test_rows_are_the_rref_of_the_spanning_set(self) -> None:
        rng = random.Random(79)
        for _ in range(120):
            ambient = rng.randint(1, 7)
            vectors = (spanning_vectors(rng, ambient) if rng.random() < 0.5 else
                       mixed_entries(rng, rational_matrix(rng, rng.randint(0, 7), ambient)))
            space = Subspace(ambient, vectors)
            reduced, rk = rref(vectors)
            assert space.rows == reduced[:rk] and space.dim == rk
            assert_canonical(space)

    def test_equality_and_hash_agree_across_constructors(self) -> None:
        rng = random.Random(83)
        for _ in range(60):
            ambient = rng.randint(1, 6)
            vectors = spanning_vectors(rng, ambient)
            space = Subspace(ambient, vectors)
            for other in routes_to(space, vectors):
                assert_canonical(other)
                assert other == space and hash(other) == hash(space)
                assert (other.rows, other.pivots) == (space.rows, space.pivots)
            if space.dim < ambient:
                outside = next(e for e in ([int(i == j) for j in range(ambient)]
                                           for i in range(ambient)) if not space.contains(e))
                assert space.sum_with(Subspace(ambient, [outside])) != space

    def test_insert_after_reading_rows_and_comparing(self) -> None:
        rng = random.Random(89)
        for _ in range(60):
            ambient = rng.randint(1, 6)
            vectors = spanning_vectors(rng, ambient) + spanning_vectors(rng, ambient)
            k = rng.randint(0, len(vectors))
            space = Subspace(ambient, vectors[:k])
            assert space.rows == Subspace(ambient, vectors[:k]).rows
            assert space == Subspace(ambient, vectors[:k])
            for vec in vectors[k:]:
                space.insert(vec)
            fresh = Subspace(ambient, vectors)
            assert space == fresh and hash(space) == hash(fresh)
            assert (space.rows, space.pivots) == (fresh.rows, fresh.pivots)
            assert_canonical(space)

    def test_contains_agrees_with_a_zero_residual(self) -> None:
        rng = random.Random(97)
        for _ in range(80):
            ambient = rng.randint(1, 7)
            space = Subspace(ambient, spanning_vectors(rng, ambient))
            members = []
            for _ in range(3):
                coeffs = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in space.rows]
                members.append([sum((c * row[j] for c, row in zip(coeffs, space.rows)), F(0))
                                for j in range(ambient)])
            others = rational_matrix(rng, 4, ambient)
            for vec in members + others:
                assert space.contains(vec) == (not any(reduce(space, vec)))
            assert all(space.contains(vec) for vec in members)


class TestEchelonConstructor:
    def test_accepts_the_canonical_rows_of_an_elimination(self) -> None:
        rng = random.Random(101)
        for _ in range(80):
            ambient = rng.randint(1, 7)
            space = Subspace(ambient, spanning_vectors(rng, ambient))
            rebuilt = Subspace.echelon(ambient, space.int_rows)
            assert_canonical(rebuilt)
            assert rebuilt == space and rebuilt.pivots == space.pivots
        assert Subspace.echelon(3, []) == Subspace(3)

    @pytest.mark.parametrize("rows,match", [
        ([[2, 0, 4]], "not primitive"),
        ([[0, -1, 3]], "positive pivot"),
        ([[0, 0, 0]], "positive pivot"),
        ([[1, 2, 0], [0, 1, 1]], "not reduced"),
        ([[0, 1, 0], [1, 0, 0]], "pivots must increase"),
        ([[1, 0, 0], [1, 0, 0]], "pivots must increase"),
        ([[1, 0]], "ambient length"),
        ([[F(1), 0, 0]], "ambient length"),
    ])
    def test_rejects_rows_that_are_not_canonical(self, rows, match) -> None:
        with pytest.raises(ValueError, match=match):
            Subspace.echelon(3, rows)
