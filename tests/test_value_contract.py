"""Values stay as arithmetic makes them.

Outside elimination (``rref``, ``kernel_basis``, ``solve``, ``Subspace.rows``,
which return ``Fraction``) nothing coerces a value: given ``int`` values,
the class and lift maps of ``gla``, the embedding and quotient maps of
``feff`` and every ``EFTensor`` builder of ``penrose`` give ``int`` values,
and a ``Fraction`` input stays a ``Fraction``, integral or not.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from kostantcheck.feff import build_maps
from kostantcheck.gla import graded_sl
from kostantcheck.kostant import Cochain
from kostantcheck.penrose import (
    TRACE_SIG,
    W_SIG,
    WP_SIG,
    EFTensor,
    extract_blocks,
    rho_cochain,
    tr_W,
    tr_Wp,
    weyl_from_curvature,
)

F = Fraction

# One int and one Fraction version of every input, the latter with an
# integral entry, which must not turn back into an int either.
KINDS = {"int": (3, -2, 5), "Fraction": (F(3, 2), F(-2), F(5, 7))}


def types_of(values) -> set[type]:
    values = list(values)
    assert values, "an empty result shows nothing about value types"
    return {type(v) for v in values}


def mat_types(mat: dict) -> set[type]:
    return types_of(mat.values())


def cochain_types(c: Cochain) -> set[type]:
    return types_of(v for mat in c.data.values() for v in mat.values())


def tensor_types(t: EFTensor) -> set[type]:
    return types_of(t.data.values())


@pytest.fixture(params=list(KINDS))
def kind(request):
    return request.param


class TestGLA:
    def test_class_and_lift(self, kind) -> None:
        a, b, c = KINDS[kind]
        alg = graded_sl((2, 3))
        x = {(2, 0): a, (4, 1): b, (0, 3): c, (1, 1): c, (3, 3): -c}
        cls = alg.class_mod_p(x)
        assert types_of(v for v in cls if v) == {type(a)}
        assert mat_types(alg.lift_from_class(cls)) == {type(a)}

    def test_from_coords(self, kind) -> None:
        a, b, c = KINDS[kind]
        alg = graded_sl((1, 1, 3))
        vec = [0] * alg.dim
        vec[0], vec[alg.dim // 2], vec[-1], vec[-2] = a, b, c, a
        x = alg.from_coords(vec)
        assert mat_types(x) == {type(a)}
        assert alg.coords(x) == vec


class TestFeff:
    @pytest.mark.parametrize("n,source", [(2, "path"), (3, "ag")])
    def test_embedding_and_quotient_maps(self, kind, n: int, source: str) -> None:
        a, b, c = KINDS[kind]
        maps = build_maps(n, source)
        g = maps.g
        w = g.from_coords([a if i % 3 == 0 else b if i % 3 == 1 else 0
                           for i in range(g.dim)])
        assert mat_types(maps.beta({(0, 1): a, (0, 2): b, (3, 2): c})) == {type(a)}
        assert mat_types(maps.qmap(maps.i_prime(w))) == {type(a)}
        z = {pos: (a, b, c)[k % 3] for k, pos in enumerate(g.pos_positions)}
        assert mat_types(maps.pi_star(z)) == {type(a)}
        corrections = [x for v in range(g.dim)
                       if (x := maps.bracket_correction(z, g.basis_mat(v)))]
        assert corrections and all(mat_types(x) == {type(a)} for x in corrections)


class TestPenrose:
    n = 3

    def tensor(self, sig, kind: str) -> EFTensor:
        t = EFTensor(sig, self.n)
        values = itertools.cycle(KINDS[kind])
        for idx in itertools.product(*map(range, t.dims)):
            t.add_entry(idx, next(values))
        return t

    def test_entry_builders(self, kind) -> None:
        expected = {type(KINDS[kind][0])}
        t = self.tensor(TRACE_SIG, kind)
        assert tensor_types(t) == expected
        assert tensor_types(EFTensor(TRACE_SIG, self.n, t.data)) == expected
        for out in (t.scale(3), t.scale(-1), t.add(t.swap(0, 2)), t.sub(t.swap(1, 3)),
                    t.add(t.swap(1, 3), 2)):
            assert tensor_types(out) == expected
        # A Fraction coefficient makes Fraction values.
        assert tensor_types(t.scale(F(1, 2))) == {Fraction}

    def test_contractions_and_traces(self, kind) -> None:
        expected = {type(KINDS[kind][0])}
        w, wp = self.tensor(W_SIG, kind), self.tensor(WP_SIG, kind)
        assert tensor_types(w.contract(4, 5)) == expected
        assert tensor_types(wp.contract(4, 1)) == expected
        assert tensor_types(tr_W(w)) == expected
        assert tensor_types(tr_Wp(wp)) == expected

    def test_weyl_expansion_and_rho_cochain(self, kind) -> None:
        expected = {type(KINDS[kind][0])}
        p = self.tensor(TRACE_SIG, kind)
        w, wp = weyl_from_curvature(self.tensor(W_SIG, kind), self.tensor(WP_SIG, kind), p)
        assert tensor_types(w) == expected and tensor_types(wp) == expected
        assert cochain_types(rho_cochain(p, graded_sl((2, self.n)))) == expected

    def test_extract_blocks(self, kind) -> None:
        a, b, c = KINDS[kind]
        alg = graded_sl((2, self.n))
        kappa = Cochain(alg, 2, {(0, 1): {(0, 3): a, (3, 1): b, (0, 1): c, (2, 4): a},
                                 (1, 4): {(2, 0): b, (1, 0): c, (4, 4): a, (3, 3): -a}})
        blocks = extract_blocks(kappa)
        for part in (blocks.tau, blocks.W, blocks.Wp, blocks.Y):
            assert tensor_types(part) == {type(a)}
