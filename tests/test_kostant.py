"""Tests for the differential pair (∂, ∂*), Hodge theory, and insertions.

Frozen values were computed by hand from the displayed formulas:

* ∂* on Z_0∧Z_1 ⊗ (E_00−E_11) in the (1,1,2) grading, where Z_0 = E_01 and
  Z_1 = E_02: the bracket terms give −Z_1⊗[Z_0,A] + Z_0⊗[Z_1,A] with
  [Z_0,A] = −2E_01 and [Z_1,A] = −E_02, and [Z_0,Z_1] = 0; so the image is
  Z_1⊗2E_01 + Z_0⊗(−E_02).
* ∂ on φ = Z_0⊗E_01 (i.e. φ(X^0) = E_01) evaluated at (X^0, X^1) with
  X^0 = E_10, X^1 = E_20: only −[X^1, φ(X^0)] = −E_21 survives.
"""

from __future__ import annotations

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from kostantcheck import kostant
from kostantcheck.checks import CHECKS, _chain_configs, _configs, run_check
from kostantcheck.feff import module_E_path, module_F_path
from kostantcheck.gla import elementary, graded_sl, smat_add_into, smat_bracket
from kostantcheck.kostant import (
    BlockStructure,
    ChainModule,
    Cochain,
    apply_insertion,
    basis_cochain,
    block_product,
    block_structure,
    blocked_coords,
    chain_total_dim,
    cochain_from_block,
    costar,
    costar_two_form,
    hodge,
    homogeneity,
    homogeneity_split,
    index_positions,
    insertion_partners,
    insertion_table,
    laplacian,
    operator_block,
    partial,
)
from kostantcheck.ratlin import Subspace, kernel_basis, null_space

F = Fraction


def increasing(indices) -> tuple[tuple[int, ...], int]:
    """The increasing tuple of distinct indices and the sign of the sorting
    permutation, counted by inversions."""
    inversions = sum(a > b for a, b in itertools.combinations(indices, 2))
    return tuple(sorted(indices)), -1 if inversions % 2 else 1


def value(c: Cochain, indices: tuple[int, ...]) -> dict:
    """Reference lookup φ(X^{i_1},…,X^{i_k}) for any order of the indices:
    the stored value of the sorted tuple times the sign of the sorting
    permutation; zero on a repeated index."""
    if len(set(indices)) < len(indices):
        return {}
    T, sign = increasing(indices)
    stored = c.data.get(T, {})
    return {pos: -v for pos, v in stored.items()} if sign < 0 else dict(stored)


def insertion(phi: Cochain, psi: Cochain) -> Cochain:
    """The cyclic insertion ι_φψ in one call: φ's table applied to ψ."""
    return apply_insertion(insertion_table(phi), psi)


def dense_insertion(phi: Cochain, psi: Cochain) -> Cochain:
    """Reference cyclic insertion: every candidate triple, three cyclic pairs."""
    alg = phi.alg
    out = Cochain(alg, 3)
    candidates: set[tuple[int, ...]] = set()
    for (a, b) in phi.data:
        for w in range(alg.dim_neg):
            if w != a and w != b:
                candidates.add(tuple(sorted((a, b, w))))
    for x, y, z in sorted(candidates):
        acc: dict = {}
        for first, second, third in ((x, y, z), (y, z, x), (z, x, y)):
            cls = alg.class_mod_p(value(phi, (first, second)))
            for s, cf in enumerate(cls):
                if cf:
                    smat_add_into(acc, value(psi, (s, third)), cf)
        if acc:
            out.add_term((x, y, z), acc)
    return out


def reference_partial(c: Cochain) -> Cochain:
    """Reference ∂, term by term from the displayed formula: each sign is
    counted here and each term goes through ``add_term``; nothing is read
    from the term table that ``partial`` applies."""
    alg = c.alg
    out = Cochain(alg, c.deg + 1)
    neg_pairs = alg.neg_pair_coords
    for S, u in c.data.items():
        in_S = set(S)
        # first sum: insert a new argument and bracket it onto the value
        for x in range(alg.dim_neg):
            if x in in_S:
                continue
            pos = sum(1 for s in S if s < x)
            out.add_term(tuple(sorted(S + (x,))),
                         smat_bracket(alg.x_mat(x), u),
                         -1 if pos % 2 else 1)
        # second sum: un-bracket one stored argument into a pair
        for q, s in enumerate(S):
            rest = S[:q] + S[q + 1:]
            rest_set = set(rest)
            for a, b, cf in neg_pairs.get(s, ()):
                if a in rest_set or b in rest_set:
                    continue
                T = tuple(sorted(rest + (a, b)))
                i, j = T.index(a), T.index(b)
                sign = -1 if (i + j + q) % 2 else 1
                out.add_term(T, u, sign * cf)
    return out


def reference_costar(c: Cochain) -> Cochain:
    """Reference ∂*, term by term from the displayed formula, with the sign
    of moving [Z_i, Z_j] into sorted position counted here."""
    alg = c.alg
    out = Cochain(alg, c.deg - 1)
    pos_pairs = alg.pos_pair_coords
    for T, u in c.data.items():
        for i, t in enumerate(T):
            out.add_term(T[:i] + T[i + 1:],
                         smat_bracket(alg.z_mat(t), u),
                         -1 if i % 2 == 0 else 1)
        for i in range(len(T)):
            for j in range(i + 1, len(T)):
                rest = T[:i] + T[i + 1:j] + T[j + 1:]
                rest_set = set(rest)
                for s, cf in pos_pairs.get((T[i], T[j]), ()):
                    if s in rest_set:
                        continue
                    sign = -1 if (i + j) % 2 else 1
                    out.add_term(tuple(sorted(rest + (s,))), u,
                                 sign * cf * _insertion_sign(rest, s))
    return out


def _insertion_sign(rest: tuple[int, ...], s: int) -> int:
    """Sign of moving s from the front of (s, rest) into sorted position."""
    crossings = sum(1 for r in rest if r < s)
    return -1 if crossings % 2 else 1


def reference_laplacian(c: Cochain) -> Cochain:
    """□ = ∂∂* + ∂*∂ through the reference operators."""
    return reference_partial(reference_costar(c)).add(reference_costar(reference_partial(c)))


def typed_terms(c: Cochain) -> list:
    """Every stored value with its type, in storage order."""
    return [(T, [(pos, type(v), v) for pos, v in u.items()]) for T, u in c.data.items()]


def reference_operator_block(structure_in, structure_out, op, w):
    """Reference block of any weight-preserving operator: every basis chain
    of the source block is pushed through ``op`` as a cochain."""
    alg = structure_in.alg
    cols = structure_in.labels(w)
    mat = [[0] * len(cols) for _ in range(structure_out.block_dim(w))]
    for col, (T, v) in enumerate(cols):
        image = op(Cochain(alg, structure_in.deg, {T: alg.basis_mat(v)}))
        for S, u in image.data.items():
            for idx, cf in alg.sparse_coords(u):
                wv, i = position(structure_out, S, idx)
                if wv != w:
                    raise AssertionError("operator did not preserve the weight")
                mat[i][col] = cf
    return mat


def position(structure, T: tuple, v: int) -> tuple:
    """The block weight and the position in it of the label (T, v)."""
    g = structure.index[T] * structure.alg.dim + v
    return structure.weights[structure.block_of[g]], structure.slot[g]


def reference_layout(alg, deg: int) -> dict:
    """Weight ↦ the labels (T, v) of its block, grouped the direct way: the
    weight of every label in turn, blocks in order of first appearance."""
    labels: dict = {}
    for T in itertools.combinations(range(alg.dim_neg), deg):
        base = [0] * alg.m
        for t in T:
            a, b = alg.neg_positions[t]
            base[b] += 1          # weight of Z_t = e_b − e_a
            base[a] -= 1
        for v, lab in enumerate(alg.basis_labels):
            w = list(base)
            if lab[0] == "E":
                w[lab[1]] += 1
                w[lab[2]] -= 1
            labels.setdefault(tuple(w), []).append((T, v))
    return labels


def direct_block_spaces(size: int, d_up, s_down, d_in, s_in) -> tuple:
    """The five Hodge spaces of one weight block (im∂*, ker□, im∂, ker∂*,
    ker∂ in HodgeData's order), solved from that block's operators alone,
    with a dense product for □."""
    def product(left, right):
        return [[sum(x * right[k][j] for k, x in enumerate(row)) for j in range(size)]
                for row in left]

    box = [[x + y for x, y in zip(r1, r2)]
           for r1, r2 in zip(product(d_in, s_down), product(s_in, d_up))]
    return (Subspace(size, zip(*s_in)), null_space(box, size), Subspace(size, zip(*d_in)),
            null_space(s_down, size), null_space(d_up, size))


def random_cochain(alg, deg: int, rng: random.Random, terms: int = 6) -> Cochain:
    c = Cochain(alg, deg)
    for _ in range(terms):
        T, sign = increasing(rng.sample(range(alg.dim_neg), deg))
        c.add_term(T, alg.basis_mat(rng.randrange(alg.dim)), sign * F(rng.randint(-3, 3)))
    return c


def parabolic_element(alg, rng: random.Random) -> dict:
    """A random combination of three basis elements of p."""
    parabolic_indices = [i for i, lab in enumerate(alg.basis_labels)
                         if lab[0] == "H" or alg.degree_of_position(lab[1], lab[2]) >= 0]
    e: dict = {}
    for _ in range(3):
        smat_add_into(e, alg.basis_mat(rng.choice(parabolic_indices)),
                      F(rng.randint(-3, 3)))
    return e


def lift_class_table(alg, extras) -> dict:
    """(x, i) ↦ the nonzero class of [Z_i, x_mat(x) + extras[x]] mod p."""
    table = {}
    for x in range(alg.dim_neg):
        lift = dict(alg.x_mat(x))
        smat_add_into(lift, extras[x])
        for i in range(alg.dim_neg):
            cls = alg.class_mod_p(smat_bracket(alg.z_mat(i), lift))
            if any(cls):
                table[x, i] = cls
    return table


class TestCochainStorage:
    def test_alternation_on_insert_and_lookup(self) -> None:
        alg = graded_sl((1, 1, 2))
        c = Cochain(alg, 2)
        c.add_term((1, 3), elementary(0, 1), -1)
        assert value(c, (1, 3)) == {(0, 1): F(-1)}
        assert value(c, (3, 1)) == {(0, 1): F(1)}
        assert value(c, (1, 1)) == {}
        c.add_term((1, 3), elementary(0, 1))
        assert c.is_zero()

    @pytest.mark.parametrize("indices,match", [
        ((3, 1), "increasing"),
        ((1, 1), "increasing"),
        ((1, 5), "range"),
        ((-1, 1), "range"),
        ((1,), "length"),
        ((0, 1, 2), "length"),
    ])
    def test_only_increasing_in_range_tuples_of_the_degree_are_keys(self, indices, match) -> None:
        """add_term, the data constructor and basis_cochain raise on every
        malformed key, also with a zero value or coefficient; nothing is
        stored under it or under a reordered key."""
        alg = graded_sl((1, 1, 2))
        assert alg.dim_neg == 5
        c = Cochain(alg, 2)
        for coeff in (1, 0):
            with pytest.raises(ValueError, match=match):
                c.add_term(indices, elementary(0, 1), coeff)
        with pytest.raises(ValueError, match=match):
            c.add_term(indices, {})
        assert c.is_zero()
        with pytest.raises(ValueError, match=match):
            Cochain(alg, 2, {indices: elementary(0, 1)})
        with pytest.raises(ValueError, match=match):
            basis_cochain(alg, 2, indices, 0)

    def test_linear_combination(self) -> None:
        alg = graded_sl((1, 1, 2))
        a = Cochain(alg, 1, {(0,): elementary(0, 1)})
        b = Cochain(alg, 1, {(0,): elementary(0, 1), (2,): elementary(0, 2)})
        diff = b.add(a, -1)
        assert diff.data == {(2,): {(0, 2): F(1)}}
        assert a.add(a, -1).is_zero()

    def test_add_into_matches_add(self) -> None:
        rng = random.Random(43)
        for blocks, deg in (((1, 1, 2), 1), ((1, 1, 2), 2), ((2, 3), 2)):
            alg = graded_sl(blocks)
            for _ in range(10):
                a, b = random_cochain(alg, deg, rng), random_cochain(alg, deg, rng)
                k = F(rng.randint(-3, 3), rng.randint(1, 2))
                expected = Cochain(alg, deg, a.data)
                for T, mat in b.data.items():
                    expected.add_term(T, mat, k)
                assert a.add(b, k) == expected
                before = Cochain(alg, deg, b.data)
                assert a.add_into(b, k) is a
                assert a == expected
                assert b == before

    def test_add_into_leaves_operands_of_add_untouched(self) -> None:
        alg = graded_sl((2, 3))
        rng = random.Random(47)
        a, b = random_cochain(alg, 2, rng), random_cochain(alg, 2, rng)
        a_before = Cochain(alg, 2, a.data)
        total = a.add(b)
        total.add_into(b, 5)
        assert a == a_before

    def test_add_into_self(self) -> None:
        alg = graded_sl((1, 1, 2))
        rng = random.Random(53)
        for _ in range(5):
            c = random_cochain(alg, 2, rng)
            assert Cochain(alg, 2, c.data).add_into(c, 2) == c.scale(3)
            same = Cochain(alg, 2, c.data)
            assert same.add_into(same, 2) == c.scale(3)
            same = Cochain(alg, 2, c.data)
            assert same.add_into(same, -1).is_zero()

    def test_add_into_rejects_a_context_mismatch(self) -> None:
        c = Cochain(graded_sl((1, 1, 2)), 2)
        with pytest.raises(ValueError, match="mismatch"):
            c.add_into(Cochain(graded_sl((2, 2)), 2))
        with pytest.raises(ValueError, match="mismatch"):
            c.add_into(Cochain(graded_sl((1, 1, 2)), 1))


class TestPartial:
    def test_frozen_degree_one_example(self) -> None:
        alg = graded_sl((1, 1, 2))
        phi = Cochain(alg, 1, {(0,): elementary(0, 1)})
        out = partial(phi)
        assert value(out, (0, 1)) == {(2, 1): F(-1)}

    def test_zero_maps_to_zero(self) -> None:
        alg = graded_sl((2, 2))
        assert partial(Cochain(alg, 1)).is_zero()

    @pytest.mark.parametrize("blocks", [(1, 1, 2), (2, 2), (2, 1, 2)])
    @pytest.mark.parametrize("deg", [0, 1, 2])
    def test_differential_squares_to_zero(self, blocks, deg) -> None:
        rng = random.Random(hash((blocks, deg)) % 10000)
        alg = graded_sl(blocks)
        for _ in range(5):
            c = random_cochain(alg, deg, rng)
            assert partial(partial(c)).is_zero()

    def test_degree_one_matches_direct_formula(self) -> None:
        """(∂φ)(X,Y) = [X,φ(Y)] − [Y,φ(X)] − φ([X,Y] mod p)."""
        rng = random.Random(41)
        alg = graded_sl((2, 1, 2))
        phi = random_cochain(alg, 1, rng)
        out = partial(phi)
        for x in range(alg.dim_neg):
            for y in range(x + 1, alg.dim_neg):
                expected = smat_bracket(alg.x_mat(x), value(phi, (y,)))
                smat_add_into(expected, smat_bracket(alg.x_mat(y), value(phi, (x,))), -1)
                cls = alg.class_mod_p(smat_bracket(alg.x_mat(x), alg.x_mat(y)))
                for s, cf in enumerate(cls):
                    if cf:
                        smat_add_into(expected, value(phi, (s,)), -cf)
                assert value(out, (x, y)) == expected


class TestCostar:
    def test_frozen_wedge_example(self) -> None:
        alg = graded_sl((1, 1, 2))
        c = Cochain(alg, 2, {(0, 1): {(0, 0): F(1), (1, 1): F(-1)}})
        out = costar(c)
        assert out.data == {(1,): {(0, 1): F(2)}, (0,): {(0, 2): F(-1)}}

    def test_degree_one_is_minus_bracket(self) -> None:
        alg = graded_sl((2, 3))
        rng = random.Random(43)
        for _ in range(5):
            i = rng.randrange(alg.dim_neg)
            v = alg.basis_mat(rng.randrange(alg.dim))
            c = Cochain(alg, 1, {(i,): v})
            expected = smat_bracket(alg.z_mat(i), v)
            assert value(costar(c), ()) == {p: -x for p, x in expected.items()}

    @pytest.mark.parametrize("blocks", [(1, 1, 2), (2, 2), (2, 1, 2)])
    @pytest.mark.parametrize("deg", [2, 3])
    def test_codifferential_squares_to_zero(self, blocks, deg) -> None:
        rng = random.Random(hash((blocks, deg)) % 10000)
        alg = graded_sl(blocks)
        for _ in range(5):
            c = random_cochain(alg, deg, rng)
            assert costar(costar(c)).is_zero()

    @pytest.mark.parametrize("blocks", [(1, 1, 2), (2, 2), (2, 3), (2, 1, 2)])
    def test_wedge_formula_matches_evaluation_form(self, blocks) -> None:
        rng = random.Random(sum(blocks))
        alg = graded_sl(blocks)
        for _ in range(4):
            c = random_cochain(alg, 2, rng)
            assert costar(c) == costar_two_form(c)

    def test_evaluation_form_is_lift_independent(self) -> None:
        """The form reads the lifts only through the classes [Z_i, X̃^x] mod
        p, and lifts moved inside p give the same class table."""
        rng = random.Random(47)
        alg = graded_sl((1, 1, 2))
        plain = lift_class_table(alg, [{}] * alg.dim_neg)
        assert plain
        for _ in range(5):
            extras = [parabolic_element(alg, rng) for _ in range(alg.dim_neg)]
            assert lift_class_table(alg, extras) == plain

    def test_second_summand_absent_in_one_graded_case(self) -> None:
        """In a |1|-graded algebra [Z_i, X̃] ∈ g_0 ⊆ p, so the evaluation
        form loses its second summand entirely."""
        alg = graded_sl((2, 3))
        for i in range(alg.dim_neg):
            for x in range(alg.dim_neg):
                br = smat_bracket(alg.z_mat(i), alg.x_mat(x))
                assert alg.class_mod_p(br) == [F(0)] * alg.dim_neg


class TestExteriorTable:
    """``partial`` and ``costar`` read their terms from ``_exterior_table``;
    the reference operators compute each term's sign themselves."""

    @pytest.mark.parametrize("blocks", [(1, 1, 2), (2, 3), (1, 1, 3), (2, 1, 2)])
    def test_operators_match_the_references_on_basis_cochains(self, blocks) -> None:
        """∂ on degrees 0–3 and ∂* on degrees 1–3: equal values, value types
        and storage order."""
        alg = graded_sl(blocks)
        for deg in (0, 1, 2, 3):
            for T in itertools.combinations(range(alg.dim_neg), deg):
                for v in range(alg.dim):
                    c = basis_cochain(alg, deg, T, v)
                    assert typed_terms(partial(c)) == typed_terms(reference_partial(c))
                    if deg:
                        assert typed_terms(costar(c)) == typed_terms(reference_costar(c))

    def test_operators_match_the_references_on_fraction_cochains(self) -> None:
        rng = random.Random(97)
        for blocks in [(1, 1, 2), (2, 3), (1, 1, 3), (2, 1, 2)]:
            alg = graded_sl(blocks)
            for deg in (1, 2, 3):
                for _ in range(8):
                    c = Cochain(alg, deg)
                    for _ in range(rng.randint(1, 8)):
                        T, sign = increasing(rng.sample(range(alg.dim_neg), deg))
                        cf = rng.choice((rng.randint(-3, 3),
                                         F(rng.randint(-3, 3), rng.randint(1, 4))))
                        c.add_term(T, alg.basis_mat(rng.randrange(alg.dim)), sign * cf)
                    assert typed_terms(partial(c)) == typed_terms(reference_partial(c))
                    assert typed_terms(costar(c)) == typed_terms(reference_costar(c))

    def test_costar_rejects_degree_zero(self) -> None:
        with pytest.raises(ValueError, match="degree ≥ 1"):
            costar(Cochain(graded_sl((1, 1, 2)), 0))

    @pytest.mark.parametrize("step,second", [(1, False), (1, True), (-1, False), (-1, True)])
    def test_codiff_lift_fails_with_one_sign_class_negated(self, monkeypatch, step, second) -> None:
        """A copy of the table with the first (x given) or second (x None)
        sum of ∂ or ∂* negated; the cached table and the Hodge cache stay
        as they were.  A ∂* mutant also fails the block ∂*∂* sweep of the
        path grading, which the cell runs first, so the operator blocks are
        built from the table in force."""
        real = kostant._exterior_table
        copies: dict = {}

        def negated(blocks, deg, s):
            table = real(blocks, deg, s)
            if s != step:
                return table
            if (blocks, deg) not in copies:
                copies[blocks, deg] = {
                    T: [(x, S, -c if (x is None) == second else c) for x, S, c in terms]
                    for T, terms in table.items()}
            return copies[blocks, deg]

        hodge_before = hodge.cache_info()
        monkeypatch.setattr(kostant, "_exterior_table", negated)
        rep = run_check("codiff-lift", 2, 1, 1)
        monkeypatch.undo()
        assert not rep.ok and rep.failed > 0
        if step == -1:
            assert any(f.startswith("1-1-2: ∂*∂* ≠ 0") for f in rep.failures), rep.failures
        assert hodge.cache_info() == hodge_before
        assert any(terms != real(blocks, deg, step)[T]
                   for (blocks, deg), table in copies.items() for T, terms in table.items())
        for blocks, deg in copies:
            assert real(blocks, deg, step) == real.__wrapped__(blocks, deg, step)

    def test_codiff_lift_passes_with_the_real_table(self) -> None:
        rep = run_check("codiff-lift", 2, 1, 1)
        assert rep.ok and rep.cases > 0

    def test_codiff_lift_draws_nothing_from_its_generator(self) -> None:
        class NoDraws(random.Random):
            def random(self):
                raise AssertionError("codiff-lift drew from its generator")

            def getrandbits(self, k):
                raise AssertionError("codiff-lift drew from its generator")

        rep = CHECKS["codiff-lift"][1](2, NoDraws(0), 20)
        assert rep.ok and rep.cases == 3449


class TestLaplacianAndHomogeneity:
    def test_homogeneity_sentinel_for_zero(self) -> None:
        alg = graded_sl((1, 1, 2))
        assert homogeneity(Cochain(alg, 2)) is None

    def test_pure_type_has_homogeneity_two(self) -> None:
        """Z-part of degrees 1 and 2 against a value of degree −1."""
        alg = graded_sl((1, 1, 2))
        t_deg1 = alg.index_of_neg[(1, 0)]
        t_deg2 = alg.index_of_neg[(2, 0)]
        c = Cochain(alg, 2, {tuple(sorted((t_deg1, t_deg2))): elementary(2, 1)})
        assert homogeneity(c) == 2

    def test_one_graded_cochains_have_homogeneity_at_least_one(self) -> None:
        rng = random.Random(53)
        alg = graded_sl((2, 3))
        for _ in range(10):
            c = random_cochain(alg, 2, rng)
            if not c.is_zero():
                assert homogeneity(c) >= 1

    def test_split_reassembles_and_is_homogeneous(self) -> None:
        rng = random.Random(59)
        alg = graded_sl((2, 1, 2))
        c = random_cochain(alg, 2, rng, terms=10)
        parts = homogeneity_split(c)
        acc = Cochain(alg, 2)
        for h, comp in parts.items():
            assert homogeneity(comp) == h
            acc = acc.add(comp)
        assert acc == c

    def test_laplacian_preserves_homogeneity(self) -> None:
        rng = random.Random(61)
        alg = graded_sl((1, 1, 2))
        c = random_cochain(alg, 2, rng, terms=8)
        box_whole = laplacian(c)
        acc = Cochain(alg, 2)
        for h, comp in homogeneity_split(c).items():
            box_comp = laplacian(comp)
            for hh, piece in homogeneity_split(box_comp).items():
                assert hh == h
            acc = acc.add(box_comp)
        assert acc == box_whole


class TestInsertion:
    def test_zero_inputs(self) -> None:
        alg = graded_sl((1, 1, 2))
        rng = random.Random(67)
        psi = random_cochain(alg, 2, rng)
        assert insertion(Cochain(alg, 2), psi).is_zero()

    def test_matches_direct_triple_evaluation(self) -> None:
        rng = random.Random(71)
        for blocks in [(1, 1, 2), (2, 1, 2)]:
            alg = graded_sl(blocks)
            phi = random_cochain(alg, 2, rng)
            psi = random_cochain(alg, 2, rng)
            out = insertion(phi, psi)
            for x in range(alg.dim_neg):
                for y in range(x + 1, alg.dim_neg):
                    for z in range(y + 1, alg.dim_neg):
                        expected: dict = {}
                        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                            cls = alg.class_mod_p(value(phi, (a, b)))
                            for s, cf in enumerate(cls):
                                if cf:
                                    smat_add_into(expected, value(psi, (s, c)), cf)
                        assert value(out, (x, y, z)) == expected

    def test_matches_dense_reference_on_random_cochains(self) -> None:
        rng = random.Random(79)
        for blocks in [(1, 1, 2), (2, 1, 2), (1, 1, 3)]:
            alg = graded_sl(blocks)
            for _ in range(10):
                phi = random_cochain(alg, 2, rng, terms=rng.randint(0, 10))
                psi = random_cochain(alg, 2, rng, terms=rng.randint(0, 10))
                assert insertion(phi, psi) == dense_insertion(phi, psi)

    def test_matches_dense_reference_on_the_path_module_bases_n2(self) -> None:
        basis = module_F_path(2).basis_cochains() + module_E_path(2).basis_cochains()
        assert len(basis) ** 2 == 9216
        for phi in basis:
            table = insertion_table(phi)
            for psi in basis:
                want = dense_insertion(phi, psi)
                assert insertion(phi, psi) == want
                assert apply_insertion(table, psi) == want

    def test_matches_dense_reference_on_path_module_pairs_n3(self) -> None:
        basis = module_F_path(3).basis_cochains() + module_E_path(3).basis_cochains()
        nonzero = 0
        for phi in basis[::3]:
            table = insertion_table(phi)
            for psi in basis[::5]:
                out = insertion(phi, psi)
                assert out == dense_insertion(phi, psi)
                assert apply_insertion(table, psi) == out
                nonzero += not out.is_zero()
        assert nonzero > 0

    def test_skipped_pairs_of_the_path_sweeps_vanish_n2(self) -> None:
        """Every 𝔽×𝔽 and 𝔼×𝔼 pair outside φ's insertion partners has
        ι_φψ = 0: bianchi-path skips those 𝔽×𝔽 pairs, and on 𝔼 it checks
        only that every class table is empty, so no 𝔼 basis cochain has a
        partner."""
        for basis in (module_F_path(2).basis_cochains(),
                      module_E_path(2).basis_cochains()):
            positions = index_positions(basis)
            skipped = 0
            for phi in basis:
                partners = set(insertion_partners(insertion_table(phi), positions))
                for s, psi in enumerate(basis):
                    if s not in partners:
                        skipped += 1
                        assert dense_insertion(phi, psi).is_zero()
            assert skipped > 0

    def test_partners_are_the_cochains_meeting_the_class_support(self) -> None:
        rng = random.Random(83)
        alg = graded_sl((1, 1, 3))
        psis = [random_cochain(alg, 2, rng, terms=rng.randint(0, 3)) for _ in range(12)]
        positions = index_positions(psis)
        for _ in range(10):
            table = insertion_table(random_cochain(alg, 2, rng, terms=rng.randint(0, 4)))
            want = [s for s, psi in enumerate(psis)
                    if any(i in table.support for T in psi.data for i in T)]
            assert insertion_partners(table, positions) == want

    def test_a_grading_mismatch_is_rejected(self) -> None:
        rng = random.Random(89)
        phi = random_cochain(graded_sl((1, 1, 2)), 2, rng)
        psi = random_cochain(graded_sl((2, 3)), 2, rng)
        assert insertion_table(phi).rows
        with pytest.raises(ValueError, match="mismatch"):
            insertion(phi, psi)
        with pytest.raises(ValueError, match="mismatch"):
            apply_insertion(insertion_table(phi), psi)
        with pytest.raises(ValueError, match="degree-2"):
            insertion_table(Cochain(phi.alg, 3))
        with pytest.raises(ValueError, match="degree-2"):
            apply_insertion(insertion_table(phi), Cochain(phi.alg, 1))


class TestBlocksAndModules:
    @pytest.mark.parametrize("blocks,deg", [((1, 1, 2), 2), ((2, 3), 2), ((2, 1, 2), 3)])
    def test_block_structure_covers_chain_space(self, blocks, deg) -> None:
        alg = graded_sl(blocks)
        structure = block_structure(blocks, deg)
        assert sum(map(structure.block_dim, structure.weights)) \
            == chain_total_dim(alg, deg)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_block_structure_matches_the_reference_layout(self, n) -> None:
        """Same block order, same label order in each block and the same
        (w, i) for every label (T, v) as the direct grouping, on every
        grading in play at n and degrees 0–3."""
        for blocks in _configs(n):
            alg = graded_sl(blocks)
            for deg in range(4):
                structure = block_structure(blocks, deg)
                labels = reference_layout(alg, deg)
                assert structure.weights == list(labels), (blocks, deg)
                for w, labs in labels.items():
                    assert structure.labels(w) == labs, (blocks, deg, w)
                    for i, (T, v) in enumerate(labs):
                        assert position(structure, T, v) == (w, i), (blocks, deg, T, v)

    def test_block_structure_keeps_no_object_per_label(self) -> None:
        """The degree-3 layout of the (2, 5) grading, 5,760 labels in 1,200
        blocks, retains under 110 bytes per label (a tuple and a dict entry
        per label take about 175) and under 160 bytes per block, arrays
        included (an id array per block took 192)."""
        alg = graded_sl((2, 5))
        BlockStructure(alg, 3)        # any lazily built data of the algebra
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            structure = BlockStructure(alg, 3)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert chain_total_dim(alg, 3) == 5760
        assert retained < 110 * 5760, retained / 5760
        assert len(structure.weights) == 1200
        assert retained < 160 * 1200, retained / 1200
        assert sum(map(structure.block_dim, structure.weights)) == 5760

    def test_blocked_coords_round_trip(self) -> None:
        rng = random.Random(73)
        alg = graded_sl((1, 1, 2))
        c = random_cochain(alg, 2, rng, terms=8)
        acc = Cochain(alg, 2)
        for w, vec in blocked_coords(c).items():
            acc = acc.add(cochain_from_block(alg, 2, w, vec))
        assert acc == c

    @pytest.mark.parametrize("blocks", [(1, 1, 2), (2, 3), (1, 1, 3), (2, 1, 2)])
    @pytest.mark.parametrize("op,step", [(reference_partial, 1), (reference_costar, -1)],
                             ids=["partial-1", "costar--1"])
    def test_operator_block_columns_match_blocked_coords(self, blocks, op, step) -> None:
        """∂ on degrees 0–2 and ∂* on degrees 1–3, column by column, against
        the reference operators."""
        alg = graded_sl(blocks)
        for deg in ((0, 1, 2) if step == 1 else (1, 2, 3)):
            here = block_structure(blocks, deg)
            there = block_structure(blocks, deg + step)
            for w in here.weights:
                labs = here.labels(w)
                mat = operator_block(here, there, w)
                assert all(type(x) is int for row in mat for x in row)
                for col, (T, v) in enumerate(labs):
                    image = blocked_coords(op(basis_cochain(alg, deg, T, v)))
                    assert set(image) <= {w}
                    expected = image.get(w, [0] * there.block_dim(w))
                    assert [row[col] for row in mat] == expected

    def test_operator_block_needs_a_step_of_one_degree(self) -> None:
        here = block_structure((1, 1, 2), 1)
        w = here.weights[0]
        for deg in (1, 3):
            with pytest.raises(ValueError, match="one degree"):
                operator_block(here, block_structure((1, 1, 2), deg), w)

    def test_chain_module_membership_and_basis(self) -> None:
        alg = graded_sl((1, 1, 2))
        mod = ChainModule.from_values("slice", alg, 2,
                                      lambda T: range(alg.dim) if T == (0, 1) else ())
        assert mod.dim == alg.dim
        member = Cochain(alg, 2, {(0, 1): {(0, 2): F(3), (1, 0): F(-2)}})
        assert mod.contains(member)
        outsider = Cochain(alg, 2, {(0, 2): elementary(0, 1)})
        assert not mod.contains(outsider)
        rebuilt = ChainModule.from_cochains("re", alg, 2, mod.basis_cochains())
        assert rebuilt.same_space(mod)
        assert mod.is_contained_in(rebuilt)

    def test_from_values_rejects_value_indices_outside_g(self) -> None:
        alg = graded_sl((1, 1, 2))
        for bad in (-1, alg.dim):
            with pytest.raises(ValueError, match="not a basis index"):
                ChainModule.from_values("bad", alg, 2, lambda T: (0, bad) if T == (0, 2) else ())

    def test_cochain_from_block_keeps_integral_values_int(self) -> None:
        """Integral coordinates, int or Fraction, are stored as int; the
        cochain equals the one built with every coordinate a Fraction."""
        alg = graded_sl((2, 3))
        structure = block_structure(alg.blocks, 2)
        w = max(structure.weights, key=structure.block_dim)
        size = structure.block_dim(w)
        for pattern, integral in [((F(3), 2, 0, F(-4, 2), -1), True),
                                  ((F(1, 2), 2, 0, F(-3), F(5, 3)), False)]:
            vec = [pattern[i % len(pattern)] for i in range(size)]
            got = cochain_from_block(alg, 2, w, vec)
            want = Cochain(alg, 2)
            for cf, (T, v) in zip(vec, structure.labels(w)):
                want.add_term(T, alg.basis_mat(v), F(cf))
            assert got == want and not got.is_zero()
            values = [x for u in got.data.values() for x in u.values()]
            assert all(type(x) is int for x in values) == integral
            assert blocked_coords(got) == {w: vec}

    def test_chain_module_lattice(self) -> None:
        alg = graded_sl((1, 1, 2))
        u = ChainModule.from_values("u", alg, 2, lambda T: {(0, 1): (0, 1)}.get(T, ()))
        v = ChainModule.from_values("v", alg, 2, lambda T: {(0, 1): (1,), (0, 2): (0,)}.get(T, ()))
        meet = u.intersect(v)
        join = u.sum_with(v)
        assert meet.dim == 1 and join.dim == 3
        assert meet.is_contained_in(u) and meet.is_contained_in(v)
        assert u.dim + v.dim == meet.dim + join.dim


class TestHodge:
    def test_path_n2_frozen_dimensions(self) -> None:
        h = hodge((1, 1, 2), 2)
        assert h.total_dim == 150
        assert (h.im_costar.dim, h.ker_box.dim, h.im_partial.dim) == (84, 9, 57)

    def test_ag_n2_frozen_dimensions(self) -> None:
        h = hodge((2, 2), 2)
        assert h.total_dim == 90
        assert (h.im_costar.dim, h.ker_box.dim, h.im_partial.dim) == (40, 10, 40)

    @pytest.mark.parametrize("blocks", [(1, 1, 2), (2, 2), (2, 1, 2)])
    def test_decomposition_properties(self, blocks) -> None:
        h = hodge(blocks, 2)
        assert h.im_costar.dim + h.ker_box.dim + h.im_partial.dim == h.total_dim
        assert h.im_costar.intersect(h.ker_box).dim == 0
        assert h.im_costar.intersect(h.im_partial).dim == 0
        assert h.ker_box.intersect(h.im_partial).dim == 0
        assert h.im_costar.sum_with(h.ker_box).same_space(h.ker_costar)
        assert h.ker_box.sum_with(h.im_partial).same_space(h.ker_partial)
        assert h.ker_costar.intersect(h.ker_partial).same_space(h.ker_box)

    def test_harmonic_representatives_killed_by_both(self) -> None:
        h = hodge((1, 1, 2), 2)
        for c in h.ker_box.basis_cochains():
            assert costar(c).is_zero()
            assert partial(c).is_zero()
            assert laplacian(c).is_zero()

    @pytest.mark.parametrize("blocks", [(1, 1, 2), (2, 3)])
    def test_assembled_box_matches_the_laplacian_oracle(self, blocks) -> None:
        here = block_structure(blocks, 2)
        ker_box = hodge(blocks, 2).ker_box
        for w in here.weights:
            labs = here.labels(w)
            box = reference_operator_block(here, here, reference_laplacian, w)
            expected = Subspace(len(labs), kernel_basis(box))
            assert ker_box.spaces.get(w, Subspace(len(labs))) == expected, w

    def test_block_product_matches_the_dense_product(self) -> None:
        """Seeded sparse factors with int and Fraction entries, including a
        right factor with no rows (a product through an empty block)."""
        rng = random.Random(41)

        def matrix(rows, cols):
            return [[rng.choice((0, 0, 0, 1, -2, F(3, 2))) for _ in range(cols)]
                    for _ in range(rows)]

        for rows, inner, cols in [(3, 4, 5), (1, 1, 1), (4, 2, 3), (6, 6, 6),
                                  (3, 0, 4), (0, 3, 2), (2, 3, 0)]:
            left, right = matrix(rows, inner), matrix(inner, cols)
            dense = [[sum((left[i][k] * right[k][j] for k in range(inner)), 0)
                      for j in range(cols)] for i in range(rows)]
            assert block_product(left, right, cols) == dense
        assert block_product([[], []], [], 3) == [[0, 0, 0], [0, 0, 0]]

    @pytest.mark.parametrize("blocks", [(2, 4), (2, 5)])
    def test_costar_partial_block_matches_the_cochain_operators(self, blocks) -> None:
        """The degree-1 ∂*∂ block that the normalization solve reads, against
        basis cochains pushed through the reference ∂ and then ∂*."""
        here, above = block_structure(blocks, 1), block_structure(blocks, 2)
        for w in here.weights:
            got = block_product(operator_block(above, here, w),
                                operator_block(here, above, w), here.block_dim(w))
            want = reference_operator_block(here, here,
                                            lambda c: reference_costar(reference_partial(c)), w)
            assert got == want, w

    @pytest.mark.parametrize("blocks", [(1, 1, 2), (2, 3)])
    @pytest.mark.parametrize("deg", [1, 2])
    def test_kernel_spaces_match_the_basis_form(self, blocks, deg) -> None:
        here = block_structure(blocks, deg)
        below, above = block_structure(blocks, deg - 1), block_structure(blocks, deg + 1)
        h = hodge(blocks, deg)

        def reference(mat, ncols):
            if not mat:
                return Subspace(ncols, [[int(i == j) for j in range(ncols)]
                                        for i in range(ncols)])
            return Subspace(ncols, kernel_basis(mat))

        for w in here.weights:
            size = here.block_dim(w)
            for module, mat in [
                    (h.ker_costar, operator_block(here, below, w)),
                    (h.ker_partial, operator_block(here, above, w)),
                    (h.ker_box, reference_operator_block(here, here, reference_laplacian, w))]:
                want = reference(mat, size)
                got = module.spaces.get(w, Subspace(size))
                assert (got.rows, got.pivots) == (want.rows, want.pivots), (module.name, w)

    # (distinct (dims, ∂↑, ∂*↓, ∂↓, ∂*↑) keys, blocks) per grading and degree.
    DISTINCT_BLOCKS = {
        ((1, 1, 2), 1): (25, 35), ((1, 1, 2), 2): (36, 52),
        ((2, 3), 1): (33, 69), ((2, 3), 2): (56, 118),
        ((1, 1, 3), 1): (40, 76), ((1, 1, 3), 2): (79, 151),
        ((2, 4), 1): (47, 133), ((2, 4), 2): (105, 298),
        ((1, 1, 4), 1): (57, 142), ((1, 1, 4), 2): (138, 357),
        ((2, 5), 1): (64, 228), ((2, 5), 2): (170, 635),
    }

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_block_equals_its_own_direct_solve(self, n) -> None:
        """Each block's five spaces equal the direct solve of its own four
        operator blocks, on every grading the suites sweep at n and degrees
        1–2; blocks with the same key hold the same objects, and the number
        of distinct keys is pinned."""
        for blocks in _chain_configs(n):
            for deg in (1, 2):
                below, here, above = (block_structure(blocks, d) for d in (deg - 1, deg, deg + 1))
                h = hodge(blocks, deg)
                modules = (h.im_costar, h.ker_box, h.im_partial, h.ker_costar, h.ker_partial)
                first: dict = {}
                for w in here.weights:
                    size = here.block_dim(w)
                    mats = (operator_block(here, above, w), operator_block(here, below, w),
                            operator_block(below, here, w), operator_block(above, here, w))
                    got = [m.spaces.get(w, Subspace(size)) for m in modules]
                    want = direct_block_spaces(size, *mats)
                    assert [(s.int_rows, s.pivots) for s in got] \
                        == [(s.int_rows, s.pivots) for s in want], (blocks, deg, w)
                    key = (below.block_dim(w), size, above.block_dim(w),
                           *(tuple(map(tuple, mat)) for mat in mats))
                    shared = first.setdefault(key, got)
                    assert all(a is b for a, b in zip(got, shared) if a.dim), (blocks, deg, w)
                assert (len(first), len(here.weights)) == self.DISTINCT_BLOCKS[blocks, deg]

    def test_no_check_mutates_a_shared_block_space(self) -> None:
        """After every check at n = 3 in registry order, each cached
        HodgeData still holds what a fresh computation gives: no caller
        changed a Subspace that identical blocks share.  Nor did one change
        the X^x and Z_x that ∂ and ∂* share per grading."""
        hodge.cache_clear()
        for name in CHECKS:
            assert run_check(name, 3, 1, 2).ok, name
        for blocks in _configs(3):
            alg = graded_sl(blocks)
            for step, mat_of in ((1, alg.x_mat), (-1, alg.z_mat)):
                assert kostant._exterior_mats(blocks, step) == tuple(
                    mat_of(x) for x in range(alg.dim_neg)), (blocks, step)
        cached_count = hodge.cache_info().currsize
        cached = {}
        for blocks in _configs(3):
            for deg in (1, 2, 3):
                hits = hodge.cache_info().hits
                h = hodge(blocks, deg)
                if hodge.cache_info().hits > hits:
                    cached[blocks, deg] = h
        assert len(cached) == cached_count > 0
        hodge.cache_clear()
        for (blocks, deg), old in cached.items():
            new = hodge(blocks, deg)
            for field in ("im_costar", "ker_box", "im_partial", "ker_costar", "ker_partial"):
                before, after = getattr(old, field).spaces, getattr(new, field).spaces
                assert before.keys() == after.keys(), (blocks, deg, field)
                for w, space in after.items():
                    assert (before[w].int_rows, before[w].pivots) \
                        == (space.int_rows, space.pivots), (blocks, deg, field, w)

    def test_im_costar_members_die_under_costar(self) -> None:
        h = hodge((2, 2), 2)
        for c in h.im_costar.basis_cochains():
            assert costar(c).is_zero()
