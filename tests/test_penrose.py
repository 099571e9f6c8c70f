"""Tests for the E/F tensor calculus and the Rho–Ricci linear algebra.

Frozen values were computed by hand from the index conventions:

* On the (2, 3) grading the quotient basis is X^0..X^5 at matrix positions
  (2,0), (2,1), (3,0), (3,1), (4,0), (4,1); X^i carries E-index b and
  F-index a − 2.  For κ(X^0, X^1) = E_03 + E_31 + E_01 + E_24 the four
  blocks each receive one entry with argument head (0,0,1,0) (and its skew
  partner): Y[(…,0,1)] from E_03, τ[(…,1,1)] from E_31, W[(…,0,1)] from
  E_01, W′[(…,0,2)] from E_24.
* The Ricci map P ↦ (n+2)P − P^A_{B'}{}^B_{A'} − P^B_{A'}{}^A_{B'} acts on
  the four symmetry types by n, n+4, n+2, n+2; a purely (AB)(A'B')-type
  tensor of value 3 at n = 3 maps to value 9 = 3·3, and a purely
  [AB][A'B']-type tensor of value 7 maps to value 49 = 7·7.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from kostantcheck.checks import _random_tensor
from kostantcheck.gla import graded_sl
from kostantcheck.kostant import Cochain, hodge, partial
from kostantcheck.penrose import (
    TAU_SIG,
    TRACE_SIG,
    W_SIG,
    WP_SIG,
    Y_SIG,
    EFTensor,
    check_harmonic_torsion_type,
    extract_blocks,
    reassemble,
    rho_cochain,
    rho_from_ric,
    ric_from_rho,
    sym_split,
    tr_W,
    tr_Wp,
    tr_itau_tau_bilinear,
    weyl_from_curvature,
)

F = Fraction


def random_tensor(sig, n: int, rng: random.Random) -> EFTensor:
    """The reference draw: one randint(−9, 9) per index tuple, in product
    order over the slot ranges, zero draws included."""
    t = EFTensor(sig, n)
    for idx in itertools.product(*[range(d) for d in t.dims]):
        t.add_entry(idx, rng.randint(-9, 9))
    return t


def random_cochain(alg, rng: random.Random, terms: int = 8) -> Cochain:
    c = Cochain(alg, 2)
    for _ in range(terms):
        i, j = rng.sample(range(alg.dim_neg), 2)
        T, sign = ((i, j), 1) if i < j else ((j, i), -1)
        c.add_term(T, alg.basis_mat(rng.randrange(alg.dim)), sign * F(rng.randint(-3, 3)))
    return c


class TestEFTensor:
    def test_slot_dimensions_and_bounds(self) -> None:
        t = EFTensor(("E", "F*"), 3)
        assert t.dims == (2, 3)
        with pytest.raises(ValueError):
            t.add_entry((2, 0), 1)
        with pytest.raises(ValueError):
            t.add_entry((0, 3), 1)

    @pytest.mark.parametrize("n", [3, 4])
    def test_dims_of_every_signature(self, n: int) -> None:
        assert EFTensor(TAU_SIG, n).dims == (2, n, 2, n, n, 2)
        assert EFTensor(W_SIG, n).dims == (2, n, 2, n, 2, 2)
        assert EFTensor(WP_SIG, n).dims == (2, n, 2, n, n, n)
        assert EFTensor(Y_SIG, n).dims == (2, n, 2, n, 2, n)
        assert EFTensor(TRACE_SIG, n).dims == (2, n, 2, n)

    @pytest.mark.parametrize("idx", [(0,), (0, 0, 0), (-1, 0), (2, 0), (0, -1), (0, 3)],
                             ids=["short", "long", "E-negative", "E-at-dim",
                                  "F-negative", "F-at-dim"])
    @pytest.mark.parametrize("value", [1, F(1, 2), 0])
    def test_every_entry_is_bounds_checked(self, idx, value) -> None:
        """Wrong lengths and indices outside 0..dims[k]−1 raise through
        add_entry and the data constructor alike, zero values too."""
        t = EFTensor(("E", "F*"), 3)
        with pytest.raises(ValueError):
            t.add_entry(idx, value)
        with pytest.raises(ValueError):
            EFTensor(("E", "F*"), 3, {idx: value})
        assert t.is_zero()
        t.add_entry((1, 2), value)
        assert t.data == ({(1, 2): value} if value else {})

    @pytest.mark.parametrize("sig", [TRACE_SIG, W_SIG, WP_SIG], ids=["trace", "W", "Wp"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_checks_draw_matches_the_reference(self, sig, n: int) -> None:
        """The sampler behind rho-ricci makes the reference draws: same
        entries, and the same number of draws, zeros included."""
        ours, ref = random.Random(n), random.Random(n)
        assert _random_tensor(sig, n, ours) == random_tensor(sig, n, ref)
        assert ours.getstate() == ref.getstate()

    def test_contraction_requires_dual_pair(self) -> None:
        t = EFTensor(("E", "E*", "F"), 2)
        t.add_entry((0, 0, 1), 5)
        assert t.contract(0, 1).data == {(1,): F(5)}
        with pytest.raises(ValueError):
            t.contract(0, 2)

    def test_swap_requires_same_type(self) -> None:
        t = EFTensor(("E", "E", "F*"), 2)
        t.add_entry((0, 1, 0), 2)
        assert t.swap(0, 1).data == {(1, 0, 0): F(2)}
        with pytest.raises(ValueError):
            t.swap(0, 2)

    def test_entries_cancel_exactly(self) -> None:
        t = EFTensor(("F",), 4)
        t.add_entry((2,), F(1, 3))
        t.add_entry((2,), F(-1, 3))
        assert t.is_zero()

    @pytest.mark.parametrize("coeff", [1, -1, 3, F(2, 3), F(-1, 2), 0])
    def test_add_matches_entrywise_reference(self, coeff) -> None:
        """add/sub copy one operand and accumulate the other; the reference
        adds every entry through add_entry.  Entries of the two operands
        cancel in part, and coeff = −1 on equal tensors cancels all."""
        rng = random.Random(17)
        sig, n = ("E", "F*", "F"), 3
        for _ in range(4):
            s, o = random_tensor(sig, n, rng), random_tensor(sig, n, rng)
            for idx in list(o.data)[::3]:
                o.data[idx] = -s.data.get(idx, 0) or o.data[idx]
            for x, y in ((s, o), (s, s)):
                expected = EFTensor(sig, n)
                for idx, v in x.data.items():
                    expected.add_entry(idx, v)
                for idx, v in y.data.items():
                    expected.add_entry(idx, coeff * v)
                got = x.add(y, coeff)
                assert got.data == expected.data
                # int entries stay int; an entry touched by a Fraction coeff is a Fraction.
                assert all(v and type(v) is (Fraction if type(coeff) is Fraction
                                             and idx in y.data else int)
                           for idx, v in got.data.items())
                assert got.sub(y).data == x.add(y, coeff - 1).data
            before = dict(s.data)
            s.add(o, coeff)
            assert s.data == before
        assert s.add(s, -1).is_zero() and s.sub(s).is_zero()

    def test_constructor_still_checks_every_index(self) -> None:
        with pytest.raises(ValueError):
            EFTensor(("E", "F"), 3, {(2, 0): 1})
        with pytest.raises(ValueError):
            EFTensor(("E", "F"), 3, {(0, 0, 0): 1})
        assert EFTensor(("E", "F"), 3, {(1, 2): 4, (0, 0): 0}).data == {(1, 2): F(4)}


class TestBlockExtraction:
    def test_zero_gives_zero_blocks(self) -> None:
        alg = graded_sl((2, 3))
        blocks = extract_blocks(Cochain(alg, 2))
        assert blocks.tau.is_zero() and blocks.W.is_zero()
        assert blocks.Wp.is_zero() and blocks.Y.is_zero()

    def test_frozen_single_term_blocks(self) -> None:
        alg = graded_sl((2, 3))
        value = {(0, 3): F(1), (3, 1): F(1), (0, 1): F(1), (2, 4): F(1)}
        blocks = extract_blocks(Cochain(alg, 2, {(0, 1): value}))
        assert blocks.Y.data == {(0, 0, 1, 0, 0, 1): F(1), (1, 0, 0, 0, 0, 1): F(-1)}
        assert blocks.tau.data == {(0, 0, 1, 0, 1, 1): F(1), (1, 0, 0, 0, 1, 1): F(-1)}
        assert blocks.W.data == {(0, 0, 1, 0, 0, 1): F(1), (1, 0, 0, 0, 0, 1): F(-1)}
        assert blocks.Wp.data == {(0, 0, 1, 0, 0, 2): F(1), (1, 0, 0, 0, 0, 2): F(-1)}

    @pytest.mark.parametrize("n", [3, 4])
    def test_round_trip_is_identity(self, n: int) -> None:
        alg = graded_sl((2, n))
        rng = random.Random(n)
        for _ in range(5):
            c = random_cochain(alg, rng)
            assert reassemble(extract_blocks(c), alg) == c

    def test_rejects_other_gradings(self) -> None:
        with pytest.raises(ValueError):
            extract_blocks(Cochain(graded_sl((1, 1, 3)), 2))


class TestTraceContractions:
    def test_tr_w_matches_displayed_loop(self) -> None:
        rng = random.Random(11)
        n = 3
        w = random_tensor(W_SIG, n, rng)
        expected = EFTensor(TRACE_SIG, n)
        for a, ap, b, bp in itertools.product(range(2), range(n), range(2), range(n)):
            total = sum((w.data.get((a, ap, i, bp, b, i), 0) for i in range(2)), F(0))
            expected.add_entry((a, ap, b, bp), total)
        assert tr_W(w) == expected

    def test_tr_wp_matches_displayed_loop(self) -> None:
        rng = random.Random(12)
        n = 3
        wp = random_tensor(WP_SIG, n, rng)
        expected = EFTensor(TRACE_SIG, n)
        for a, ap, b, bp in itertools.product(range(2), range(n), range(2), range(n)):
            total = sum((wp.data.get((a, ap, b, ip, ip, bp), 0) for ip in range(n)), F(0))
            expected.add_entry((a, ap, b, bp), total)
        assert tr_Wp(wp) == expected

    def test_tr_itau_tau_matches_displayed_loop(self) -> None:
        rng = random.Random(13)
        n = 3
        tau = random_tensor(TAU_SIG, n, rng)
        expected = EFTensor(TRACE_SIG, n)
        for a, ap, b, bp in itertools.product(range(2), range(n), range(2), range(n)):
            total = F(0)
            for i, ip, j, jp in itertools.product(range(2), range(n),
                                                  range(2), range(n)):
                total += (tau.data.get((i, ip, a, ap, jp, j), 0)
                          * tau.data.get((j, jp, b, bp, ip, i), 0))
            expected.add_entry((a, ap, b, bp), total)
        assert tr_itau_tau_bilinear(tau, tau) == expected

    def test_double_contraction_is_symmetric(self) -> None:
        """Relabelling the summation pair shows tr(i_τ τ) is symmetric under
        the simultaneous E- and F-slot swap, for every τ."""
        rng = random.Random(14)
        tau = random_tensor(TAU_SIG, 3, rng)
        out = tr_itau_tau_bilinear(tau, tau)
        assert out == out.swap(0, 2).swap(1, 3)


class TestSymSplit:
    def test_components_sum_to_input(self) -> None:
        rng = random.Random(21)
        t = random_tensor(TRACE_SIG, 3, rng)
        assert sym_split(t).total() == t

    def test_projections_idempotent(self) -> None:
        rng = random.Random(22)
        parts = sym_split(random_tensor(TRACE_SIG, 3, rng))
        for name in ("sym_sym", "skew_skew", "sym_skew", "skew_sym"):
            comp = getattr(parts, name)
            again = sym_split(comp)
            assert getattr(again, name) == comp
            for other in ("sym_sym", "skew_skew", "sym_skew", "skew_sym"):
                if other != name:
                    assert getattr(again, other).is_zero()

    def test_symmetric_input_is_pure(self) -> None:
        t = EFTensor(TRACE_SIG, 3)
        t.add_entry((0, 0, 0, 0), 4)
        parts = sym_split(t)
        assert parts.sym_sym == t
        assert parts.skew_skew.is_zero()
        assert parts.sym_skew.is_zero() and parts.skew_sym.is_zero()


class TestRhoRicci:
    def test_pure_symmetric_type_scales_by_n(self) -> None:
        ric = EFTensor(TRACE_SIG, 3)
        ric.add_entry((0, 0, 0, 0), 3)
        assert rho_from_ric(ric, 3) == ric.scale(F(1, 3))
        assert ric_from_rho(ric, 3) == ric.scale(3)

    def test_pure_skew_type_scales_by_n_plus_four(self) -> None:
        ric = EFTensor(TRACE_SIG, 3)
        for (a, ap, b, bp), sign in (((0, 0, 1, 1), 1), ((1, 0, 0, 1), -1),
                                     ((0, 1, 1, 0), -1), ((1, 1, 0, 0), 1)):
            ric.add_entry((a, ap, b, bp), 7 * sign)
        p = rho_from_ric(ric, 3)
        assert p == ric.scale(F(1, 7))
        assert p.data.get((0, 0, 1, 1), 0) == F(1)

    @pytest.mark.parametrize("n", [3, 4])
    def test_eigen_scalars(self, n: int) -> None:
        rng = random.Random(n + 30)
        parts = sym_split(random_tensor(TRACE_SIG, n, rng))
        for comp, scalar in ((parts.sym_sym, n), (parts.skew_skew, n + 4),
                             (parts.sym_skew, n + 2), (parts.skew_sym, n + 2)):
            assert ric_from_rho(comp, n) == comp.scale(scalar)

    @pytest.mark.parametrize("n", [3, 4])
    def test_round_trips(self, n: int) -> None:
        rng = random.Random(n + 40)
        for _ in range(3):
            p = random_tensor(TRACE_SIG, n, rng)
            assert rho_from_ric(ric_from_rho(p, n), n) == p
            ric = random_tensor(TRACE_SIG, n, rng)
            assert ric_from_rho(rho_from_ric(ric, n), n) == ric


class TestWeylExpansion:
    def test_zero_rho_is_identity(self) -> None:
        rng = random.Random(51)
        n = 3
        r_e = random_tensor(W_SIG, n, rng)
        r_f = random_tensor(WP_SIG, n, rng)
        w, wp = weyl_from_curvature(r_e, r_f, EFTensor(TRACE_SIG, n))
        assert w == r_e and wp == r_f

    @pytest.mark.parametrize("n", [3, 4])
    def test_rho_terms_equal_partial_of_rho_cochain(self, n: int) -> None:
        rng = random.Random(n + 50)
        alg = graded_sl((2, n))
        for _ in range(3):
            p = random_tensor(TRACE_SIG, n, rng)
            w, wp = weyl_from_curvature(EFTensor(W_SIG, n),
                                        EFTensor(WP_SIG, n), p)
            blocks = extract_blocks(partial(rho_cochain(p, alg)))
            assert blocks.tau.is_zero() and blocks.Y.is_zero()
            assert blocks.W == w and blocks.Wp == wp

    @pytest.mark.parametrize("n", [3, 4])
    def test_trace_corrections(self, n: int) -> None:
        """tr and tr' of the P-part give 2P − P^A_{B'}{}^B_{A'} and
        −nP + P^B_{A'}{}^A_{B'}."""
        rng = random.Random(n + 60)
        p = random_tensor(TRACE_SIG, n, rng)
        w, wp = weyl_from_curvature(EFTensor(W_SIG, n),
                                    EFTensor(WP_SIG, n), p)
        assert tr_W(w) == p.scale(2).sub(p.swap(1, 3))
        assert tr_Wp(wp) == p.scale(-n).add(p.swap(0, 2))

    def test_rho_cochain_frozen_entry(self) -> None:
        alg = graded_sl((2, 3))
        p = EFTensor(TRACE_SIG, 3)
        p.add_entry((0, 0, 1, 2), 5)
        c = rho_cochain(p, alg)
        assert c.data == {(alg.index_of_neg[(2, 0)],): {(1, 4): F(5)}}


class TestHarmonicTyping:
    @pytest.mark.parametrize("n,harmonic_dim,tau_dim,rho_dim",
                             [(3, 48, 24, 24), (4, 150, 80, 70)])
    def test_frozen_dimensions(self, n, harmonic_dim, tau_dim, rho_dim) -> None:
        data = check_harmonic_torsion_type(n)
        assert data["ok"], data["failures"]
        assert data["harmonic_dim"] == harmonic_dim
        assert data["tau_dim"] == tau_dim
        assert data["rho_dim"] == rho_dim

    @pytest.mark.parametrize("n", [3, 4])
    def test_tau_dimension_matches_tensor_count(self, n: int) -> None:
        """dim of (Sym²E⊗E*)_o ⊗ (Λ²F*⊗F)_o is 4·(n·C(n,2) − n)."""
        data = check_harmonic_torsion_type(n)
        assert data["tau_dim"] == 4 * (n * (n * (n - 1) // 2) - n)

    def test_harmonic_tau_vanishes_under_all_contractions(self) -> None:
        harm = hodge((2, 3), 2).ker_box
        for c in harm.basis_cochains():
            tau = extract_blocks(c).tau
            for upper, lower in ((0, 5), (2, 5), (4, 1), (4, 3)):
                assert tau.contract(upper, lower).is_zero()
