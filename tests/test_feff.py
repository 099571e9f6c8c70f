"""Tests for the transfer maps, the named modules, and the verification sweeps.

Frozen values were computed by hand from the map definitions (all indices
0-based):

* Path source (1, 1, n): i′ duplicates row 1 into rows {1, 2}, shifts rows
  a ≥ 2 to a + 1 and columns b ≥ 2 to b + 1.  Hence i′(E_10) = Ẽ_10 + Ẽ_20
  and i′(H_1) = i′(E_11 − E_22) = Ẽ_11 + Ẽ_21 − Ẽ_33.
* β deletes row 2 and merges column 2 into column 1: β(Ẽ_12) = E_11.
* For Z = E_12 and W = H_1 (n = 2):  [π*(Z), i′(W)] = [Ẽ_13, Ẽ_11 + Ẽ_21
  − Ẽ_33] = −2Ẽ_13 − Ẽ_23, while α([Z, W]) = α(−2E_12) = −2Ẽ_13.  The gap
  is exactly −W_11·Z_12·Ẽ_23, the b = 2 term of the correction sum.
* For φ = X^{(2,0)} ∧ X^{(2,1)} ↦ H_1 the accumulated defect has a single
  term: along X̃^{(3,0)} (the image direction of X^{(2,0)}) the b = 2
  summand gives −φ(X^{(2,0)}, X^{(2,1)})_11 · Ẽ_23 = −Ẽ_23.

Report case counts and detail dictionaries are frozen from exact runs of
the sweeps; each number is reproduced identically on every run because all
arithmetic is rational and all iteration orders are sorted.
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction

import pytest

from kostantcheck import checks, feff
from kostantcheck.checks import run_check
from kostantcheck.cochain_io import cochain_to_doc
from kostantcheck.feff import (
    INFEASIBLE,
    SOURCES,
    _constrained_module,
    _second_sum_table,
    _wedge_table,
    EmbeddingMaps,
    MapConstructionError,
    ag_costar_check,
    b_indices,
    bracket_n1F_space,
    build_maps,
    module_constrained_path,
    module_E,
    module_E2,
    module_E_path,
    module_F,
    module_F_path,
    module_images,
    normality_defect,
    normalize_step,
    transfer,
    verify_beta_and_second_sum,
    verify_harmonic_types,
    verify_lemma_path,
    verify_norm_modules,
    verify_path_normality,
    verify_torsion_transfer,
    verify_transfer_memberships,
)
from kostantcheck.gla import (elementary, graded_sl, smat_add_into, smat_bracket, smat_sub,
                              smat_trace_pair)
from kostantcheck.kostant import (ChainModule, Cochain, block_product, block_structure,
                                  blocked_coords, chain_tuples, cochain_from_block, costar,
                                  hodge, operator_block, partial)
from kostantcheck.penrose import TRACE_SIG, EFTensor
from kostantcheck.ratlin import Subspace, kernel_basis, solve, zero_vector
from test_kostant import position, reference_costar, reference_partial

F = Fraction


def _eval2(c: Cochain, c1, c2) -> dict:
    """Dense reference evaluation of a degree-2 cochain on two quotient class
    vectors: Σ_{s<t} (c1[s]·c2[t] − c1[t]·c2[s])·φ(X^s, X^t)."""
    out: dict = {}
    for (s, t), u in c.data.items():
        cf = c1[s] * c2[t] - c1[t] * c2[s]
        if cf:
            smat_add_into(out, u, cf)
    return out


def pi_of(maps: EmbeddingMaps, xt: dict) -> list[Fraction]:
    """π of the class of X̃ mod p̃: Σ_j class_j · (π column j)."""
    out = zero_vector(maps.g.dim_neg)
    for j, cf in enumerate(maps.gt.class_mod_p(xt)):
        if cf:
            for s, v in enumerate(maps.pi_cols[j]):
                out[s] += cf * v
    return out


def _unit_class(dim: int, s: int) -> list[int]:
    return [int(i == s) for i in range(dim)]


def combine(basis, rng: random.Random, picks: int = 5) -> Cochain:
    out = Cochain(basis[0].alg, basis[0].deg)
    for i in rng.sample(range(len(basis)), min(picks, len(basis))):
        out = out.add(basis[i], rng.randint(1, 4))
    return out


def negated(c: Cochain) -> Cochain:
    return Cochain(c.alg, c.deg).add(c, -1)


class TestEmbeddingMaps:
    def test_frozen_i_prime_images(self) -> None:
        maps = build_maps(2, "path")
        assert maps.i_prime(elementary(1, 0)) == {(1, 0): F(1), (2, 0): F(1)}
        h1 = {(1, 1): F(1), (2, 2): F(-1)}
        assert maps.i_prime(h1) == {(1, 1): F(1), (2, 1): F(1), (3, 3): F(-1)}

    def test_frozen_alpha_beta(self) -> None:
        maps = build_maps(2, "path")
        assert maps.alpha(elementary(1, 2)) == {(1, 3): F(1)}
        assert maps.beta(elementary(1, 2)) == {(1, 1): F(1)}
        assert maps.beta(maps.alpha(elementary(1, 2))) == {(1, 2): F(1)}
        # columns 1 and 2 merge: their entries add, and cancel to nothing
        assert maps.beta({(0, 1): 1, (0, 2): 2, (3, 2): 5}) == {(0, 1): F(3), (2, 1): F(5)}
        assert maps.beta({(1, 1): 1, (1, 2): -1}) == {}
        # α, i′ and β only move and add entries, so every value keeps its type.
        for x in ({(1, 0): 1, (2, 3): 2, (0, 2): 2},
                  {(1, 0): F(1, 2), (2, 3): F(2), (0, 2): F(2)}):
            for img in (maps.alpha(x), maps.i_prime(x), maps.beta(x)):
                assert img and {type(v) for v in img.values()} == {type(v) for v in x.values()}

    @pytest.mark.parametrize("n,source", [(2, "path"), (3, "path"), (3, "ag")])
    def test_qmap_inverts_i_prime(self, n: int, source: str) -> None:
        maps = build_maps(n, source)
        for i in range(maps.g.dim):
            x = maps.g.basis_mat(i)
            assert maps.qmap(maps.i_prime(x)) == x

    def test_qmap_domain_is_gated(self) -> None:
        """Ẽ_20 alone is outside i′(g) + ñ_1^F: every image with a (2,0)
        entry carries a matching (1,0) entry from the duplicated row."""
        maps = build_maps(2, "path")
        with pytest.raises(ValueError):
            maps.qmap(elementary(2, 0))

    @pytest.mark.parametrize("n,source", [(2, "path"), (3, "ag")])
    def test_pi_inverts_i_prime_on_classes(self, n: int, source: str) -> None:
        maps = build_maps(n, source)
        for i in range(maps.g.dim):
            x = maps.g.basis_mat(i)
            assert pi_of(maps, maps.i_prime(x)) == maps.g.class_mod_p(x)

    def test_pi_kernel_directions(self) -> None:
        path = build_maps(2, "path")
        assert not any(pi_of(path, elementary(2, 1)))
        ag = build_maps(3, "ag")
        assert not any(pi_of(ag, elementary(2, 0)))
        assert not any(pi_of(ag, elementary(2, 1)))

    @pytest.mark.parametrize("n,source", [(2, "path"), (3, "path"), (3, "ag")])
    def test_pi_star_is_the_entry_shift(self, n: int, source: str) -> None:
        maps = build_maps(n, source)
        assert maps.entry_shift_plus_one
        assert not maps.literal_entry_formula_matches
        for (a, b) in maps.g.pos_positions:
            assert maps.pi_star(elementary(a, b)) == elementary(a, b + 1)

    @pytest.mark.parametrize("n,source", [(2, "path"), (3, "ag")])
    def test_pi_star_duality_pairing(self, n: int, source: str) -> None:
        """⟨π*(Z), X̃⟩ = ⟨Z, π(X̃)⟩ under the trace pairing."""
        maps = build_maps(n, source)
        g, gt = maps.g, maps.gt
        for j in range(gt.dim_neg):
            xt = elementary(*gt.neg_positions[j])
            cls = pi_of(maps, xt)
            for (a, b) in g.pos_positions:
                z = elementary(a, b)
                rhs = sum((cls[s] * smat_trace_pair(z, elementary(*g.neg_positions[s]))
                           for s in range(g.dim_neg)), F(0))
                assert smat_trace_pair(maps.pi_star(z), xt) == rhs

    def test_pi_star_rejects_nonpositive_arguments(self) -> None:
        maps = build_maps(2, "path")
        with pytest.raises(ValueError):
            maps.pi_star(elementary(1, 0))

    def test_source_validation(self) -> None:
        with pytest.raises(ValueError):
            EmbeddingMaps(2, "torus")
        with pytest.raises(ValueError):
            EmbeddingMaps(1, "path")
        with pytest.raises(ValueError):
            EmbeddingMaps(2, "ag")
        assert issubclass(MapConstructionError, ValueError)

    def test_build_maps_is_cached(self) -> None:
        assert build_maps(2, "path") is build_maps(2, "path")


class TestNamedModules:
    @pytest.mark.parametrize("n,f_dim,e_dim,c_dim",
                             [(2, 61, 35, 88), (3, 240, 168, 342)])
    def test_path_module_dimensions(self, n, f_dim, e_dim, c_dim) -> None:
        assert module_F_path(n).dim == f_dim
        assert module_E_path(n).dim == e_dim
        assert module_constrained_path(n).dim == c_dim

    @pytest.mark.parametrize("n,e_dim,f_dim,e2_dim,br_dim",
                             [(3, 54, 498, 36, 26), (4, 96, 1200, 64, 36)])
    def test_grassmannian_module_dimensions(self, n, e_dim, f_dim, e2_dim,
                                            br_dim) -> None:
        assert module_E(n).dim == e_dim
        assert module_F(n).dim == f_dim
        assert module_E2(n).dim == e2_dim
        assert bracket_n1F_space(n).dim == br_dim

    def test_f_path_inside_constrained(self) -> None:
        assert module_F_path(2).is_contained_in(module_constrained_path(2))
        assert module_E_path(2).is_contained_in(module_constrained_path(2))

    def test_e2_inside_e(self) -> None:
        assert module_E2(3).is_contained_in(module_E(3))


def spanning_route(monkeypatch, builder, *args) -> ChainModule:
    """``builder(*args)`` uncached, with every tensor module (every
    ``from_values`` module included) eliminated from its spanning cochains
    Z_T ⊗ b, one per row b of each factor B_T."""
    def by_elimination(cls, name, alg, deg, parts):
        return cls.from_cochains(name, alg, deg, [Cochain(alg, deg, {T: alg.from_coords(row)})
                                                  for T, space in parts for row in space.rows])

    with monkeypatch.context() as patch:
        patch.setattr(ChainModule, "from_tensor", classmethod(by_elimination))
        return builder.__wrapped__(*args) if hasattr(builder, "__wrapped__") else builder(*args)


def norm_ambients(n: int) -> tuple:
    """The two ambient modules of the condition sets in ``norm-modules``."""
    gt = graded_sl((2, n + 1))
    n1f = feff._n1f_value_indices(gt)
    return (ChainModule.from_values("p̃_+⊗n1F", gt, 1, lambda T: n1f),
            ChainModule.from_tensor("Λ²p̃_+⊗[g̃,n1F]", gt, 2,
                                    [(T, bracket_n1F_space(n)) for T in chain_tuples(gt, 2)]))


class TestTensorModules:
    """Echelon bases by construction against one elimination of the spanning
    cochains, block by block."""

    @staticmethod
    def assert_same_rows(got: ChainModule, want: ChainModule) -> None:
        assert got.spaces.keys() == want.spaces.keys() and got.dim > 0
        for w, space in want.spaces.items():
            assert (got.spaces[w].int_rows, got.spaces[w].pivots) == (
                space.int_rows, space.pivots), (got.name, w)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_grassmannian_modules(self, n, monkeypatch) -> None:
        for builder in (module_F, module_E, module_E2):
            self.assert_same_rows(builder(n), spanning_route(monkeypatch, builder, n))
        for got, want in zip(norm_ambients(n), spanning_route(monkeypatch, norm_ambients, n)):
            self.assert_same_rows(got, want)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_path_modules(self, n, monkeypatch) -> None:
        g = graded_sl((1, 1, n))
        v_values = [g.index_of_position[pos] for pos in g.neg_positions if pos[1] == 1]
        for builder, args in [(module_F_path, (n,)), (module_E_path, (n,)),
                              (feff.module_no_vv_path, (n,)), (feff.module_rho_path, (n,)),
                              (feff.module_rho_path, (n, True)),
                              (module_constrained_path, (n,)),
                              # the two ambients of harmonic-types
                              (feff._path_module, ("E-2-V", n, {("2", "E"): v_values})),
                              (feff._path_module, ("V-V-g", n, {("V", "V"): range(g.dim)}))]:
            self.assert_same_rows(builder(*args), spanning_route(monkeypatch, builder, *args))

    def test_rejects_mixed_weights_and_repeated_tuples(self) -> None:
        gt = graded_sl((2, 4))
        ends = [gt.index_of_position[(0, 3)], gt.index_of_position[(0, 4)]]
        mixed = Subspace(gt.dim, [[int(i in ends) for i in range(gt.dim)]])
        with pytest.raises(ValueError, match="mixes weights"):
            ChainModule.from_tensor("mixed", gt, 1, [((0,), mixed)])
        single = feff.coordinate_subspace(gt, ends[:1])
        with pytest.raises(ValueError, match="repeated"):
            ChainModule.from_tensor("twice", gt, 1, [((0,), single), ((1,), single),
                                                     ((0,), single)])
        with pytest.raises(ValueError, match="subspace of g"):
            ChainModule.from_tensor("short", gt, 1, [((0,), Subspace(gt.dim - 1))])
        # A coordinate past g would land on the next tuple's labels.
        past = Subspace(gt.dim + 1, [[0] * gt.dim + [1]])
        with pytest.raises(ValueError, match="subspace of g"):
            ChainModule.from_tensor("long", gt, 1, [((0,), single), ((1,), past)])


class TestNormModuleImages:
    @pytest.mark.parametrize("n", [3, 4])
    def test_block_images_match_the_cochain_operators(self, n) -> None:
        """∂, ∂* and ∂*∂ read from operator blocks, against blocked_coords of
        the reference ∂, ∂* and ∂*∘∂ of test_kostant.py on every basis
        element of the modules whose images ``norm-modules`` checks."""
        gt = graded_sl((2, n + 1))
        here, above = block_structure(gt.blocks, 1), block_structure(gt.blocks, 2)

        def up(w):
            return operator_block(here, above, w)

        def down(w):
            return operator_block(above, here, w)

        def box(w):
            return block_product(down(w), up(w), here.block_dim(w))

        e_mod, f_mod = module_E(n), module_F(n)
        m1 = hodge(gt.blocks, 1).im_costar.intersect(e_mod)
        m2 = hodge(gt.blocks, 2).im_partial.intersect(f_mod)
        for module, block, op in [(e_mod, up, reference_partial), (f_mod, down, reference_costar),
                                  (module_E2(n), box,
                                   lambda c: reference_costar(reference_partial(c))),
                                  (m1, up, reference_partial), (m2, down, reference_costar)]:
            images = module_images(module, block)
            rows = [(w, row) for w in sorted(module.spaces)
                    for row in module.spaces[w].int_rows]
            assert len(images) == len(rows) == module.dim > 0
            for (w, img), (w_row, row) in zip(images, rows):
                want = blocked_coords(op(cochain_from_block(gt, module.deg, w_row, row)))
                assert w == w_row and set(want) <= {w}
                assert img == want.get(w, [0] * len(img))


def dense_constrained_module(module, name, residual):
    """Reference kernel problem: ``residual`` returns every condition's
    value, zero or not, and each block solves against all conditions."""
    spaces = {}
    for w in sorted(module.spaces):
        rows = module.spaces[w].rows
        basis = [cochain_from_block(module.alg, module.deg, w, row) for row in rows]
        residuals = [residual(c) for c in basis]
        nres = len(residuals[0])
        mat = [[residuals[k][r] for k in range(len(basis))] for r in range(nres)]
        new_rows = []
        for kv in (kernel_basis(mat) if nres else
                   [[int(i == k) for i in range(len(basis))] for k in range(len(basis))]):
            new_row = zero_vector(len(rows[0]))
            for coeff, brow in zip(kv, rows):
                if coeff:
                    for idx, bv in enumerate(brow):
                        if bv:
                            new_row[idx] += coeff * bv
            new_rows.append(new_row)
        sub = Subspace(len(rows[0]), new_rows)
        if sub.dim:
            spaces[w] = sub
    return ChainModule(name, module.alg, module.deg, spaces)


class TestConstrainedModule:
    """The label-wise kernel problem against the dense reference, on linear
    conditions given as sparse functionals of the block coordinates (w, i)."""

    @staticmethod
    def residuals(module, conditions):
        """The label-wise coefficients and the dense residual of a list of
        conditions."""
        structure = block_structure(module.alg.blocks, module.deg)

        def labelwise(T: tuple, v: int) -> dict:
            at = position(structure, T, v)
            return {k: cond[at] for k, cond in enumerate(conditions) if at in cond}

        def dense(c: Cochain) -> list:
            coords = blocked_coords(c)
            return [sum((cf * coords[w][i] for (w, i), cf in cond.items() if w in coords), 0)
                    for cond in conditions]

        return labelwise, dense

    @pytest.mark.parametrize("builder", [module_E, module_F])
    def test_matches_the_dense_reference(self, builder) -> None:
        module = builder(3)
        rng = random.Random(101)
        positions = sorted((w, i) for w, s in module.spaces.items() for i in range(s.ambient))
        ambient = block_structure(module.alg.blocks, module.deg)
        outside = sorted((w, i) for w in ambient.weights
                         if w not in module.spaces for i in range(ambient.block_dim(w)))
        # nothing violates a functional on blocks outside the module; every
        # basis element violates the sum of the pivot coordinates (each
        # echelon row has a 1 at its own pivot and 0 at the others)
        nothing = {pos: 1 for pos in rng.sample(outside, 5)}
        everything = {(w, p): 1 for w, s in module.spaces.items() for p in s.pivots}
        cases = [([nothing], module.dim), ([everything], module.dim - len(module.spaces))]
        for _ in range(4):
            conditions = [{pos: rng.choice((-2, -1, 1, 3))
                           for pos in rng.sample(positions, rng.randint(1, 4))}
                          for _ in range(rng.randint(2, 12))]
            cases += [(conditions + extra, None)
                      for extra in ([], [nothing], [everything], [nothing, everything])]
        for conditions, expected_dim in cases:
            labelwise, dense = self.residuals(module, conditions)
            got = _constrained_module(module, "labelwise", labelwise)
            want = dense_constrained_module(module, "dense", dense)
            assert got.spaces.keys() == want.spaces.keys()
            for w, space in want.spaces.items():
                assert got.spaces[w].rows == space.rows
                assert got.spaces[w].pivots == space.pivots
            if expected_dim is not None:
                assert got.dim == expected_dim


def dense_transfer(kappa: Cochain, maps: EmbeddingMaps) -> Cochain:
    """The dense reference for transfer: κ evaluated on every pair of π
    columns by _eval2, then mapped by i′."""
    out = Cochain(maps.gt, 2)
    for T in chain_tuples(maps.gt, 2):
        val = _eval2(kappa, maps.pi_cols[T[0]], maps.pi_cols[T[1]])
        if val:
            out.add_term(T, maps.i_prime(val))
    return out


def random_kappa(g, rng: random.Random, dense: bool) -> Cochain:
    """A seeded degree-2 cochain: every index pair when dense, else 1–3 pairs,
    each valued in a random combination of basis matrices."""
    pairs = chain_tuples(g, 2)
    chosen = pairs if dense else rng.sample(pairs, rng.randint(1, 3))
    kappa = Cochain(g, 2)
    for T in chosen:
        for i in rng.sample(range(g.dim), 3):
            kappa.add_term(T, g.basis_mat(i), F(rng.randint(-9, 9), rng.randint(1, 3)))
    return kappa


class TestTransfer:
    @pytest.mark.parametrize("n,source", [(2, "path"), (3, "path"), (4, "path"),
                                          (3, "ag"), (4, "ag")])
    def test_matches_the_dense_reference(self, n, source) -> None:
        maps = build_maps(n, source)
        rng = random.Random(f"{n}:{source}")
        kappas = [random_kappa(maps.g, rng, dense) for dense in (False, True) * 3]
        cancelled = Cochain(maps.g, 2).add(kappas[-1])
        cancelled.add_into(kappas[-1], -1)
        for kappa in kappas + [cancelled]:
            got = transfer(kappa, maps)
            assert cochain_to_doc(got) == cochain_to_doc(dense_transfer(kappa, maps))
            assert bool(got.data) == bool(kappa.data)

    @pytest.mark.parametrize("n,source", [(n, "path") for n in range(2, 7)]
                             + [(n, "ag") for n in range(3, 7)])
    def test_pi_is_the_increasing_relabeling_j_of(self, n, source) -> None:
        maps = build_maps(n, source)
        j_of = maps.j_of
        assert len(j_of) == maps.g.dim_neg
        assert all(j < k for j, k in zip(j_of, j_of[1:]))
        for j, col in enumerate(maps.pi_cols):
            if j in j_of:
                s = j_of.index(j)
                assert col == _unit_class(maps.g.dim_neg, s) and type(col[s]) is int
            else:
                assert not any(col)
        zero_cols = [j for j, col in enumerate(maps.pi_cols) if not any(col)]
        assert maps.pi_kernel == Subspace(maps.gt.dim_neg, [_unit_class(maps.gt.dim_neg, j)
                                                            for j in zero_cols])

    def test_wedge_table_matches_the_dense_formula(self) -> None:
        """Seeded vectors over few values, so supports overlap and the two
        products cancel; equal, proportional and all-zero vectors included."""
        rng = random.Random(23)
        size = 7
        vectors = [zero_vector(size)]
        for _ in range(30):
            support = rng.sample(range(size), rng.randint(1, size))
            vec = zero_vector(size)
            for s in support:
                vec[s] = F(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
            vectors.append(vec)
        vectors.append([2 * v for v in vectors[1]])
        for c1 in vectors:
            for c2 in vectors:
                dense = {(s, t): c1[s] * c2[t] - c1[t] * c2[s]
                         for s in range(size) for t in range(s + 1, size)}
                assert _wedge_table(c1, c2) == {st: cf for st, cf in dense.items() if cf}
        assert _wedge_table(vectors[1], vectors[-1]) == {}


class TestExactSubspaceSites:
    def test_wedge_table_matches_eval2_on_the_f_ambient(self) -> None:
        """Every basis cochain of Λ²p̃_+⊗[g̃,n1F] against every class-row pair
        of the 𝔽 conditions at n = 3."""
        maps = build_maps(3, "ag")
        g, gt = maps.g, maps.gt
        classes = [gt.class_mod_p(maps.i_prime(g.basis_mat(i))) for i in range(g.dim)]
        rows_p = Subspace(gt.dim_neg, classes[g.dim_neg:]).rows
        rows_g = Subspace(gt.dim_neg, classes).rows
        pairs = [(r, s) for r in rows_p for s in rows_p + rows_g]
        bk_mats = [gt.from_coords(row) for row in bracket_n1F_space(3).rows]
        amb = ChainModule.from_cochains(
            "F-ambient", gt, 2, (Cochain(gt, 2, {(a, b): mat}) for a in range(gt.dim_neg)
                                 for b in range(a + 1, gt.dim_neg) for mat in bk_mats))
        basis = amb.basis_cochains()
        assert len(basis) == amb.dim > 0
        for r, s in pairs:
            table = _wedge_table(r, s)
            assert all(table.values())
            for c in basis:
                got: dict = {}
                for st, u in c.data.items():
                    smat_add_into(got, u, table.get(st, 0))
                assert got == _eval2(c, r, s)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_null_space_sites_never_see_an_empty_row_list(self, n, monkeypatch) -> None:
        """kernel_basis([]) is empty while the null space of no rows is the
        whole space: the transfer-map sites that build null spaces always
        pass at least one row."""
        sources = [src for src, (_, min_n) in SOURCES.items() if n >= min_n]
        for src in sources:
            build_maps(n, src)
        seen = []
        null_space = feff.null_space

        def recording(mat, ncols):
            seen.append(len(mat))
            return null_space(mat, ncols)

        monkeypatch.setattr(feff, "null_space", recording)
        for src in sources:
            EmbeddingMaps(n, src)
            rep = verify_transfer_memberships(n, src)
            assert rep.ok, rep.failures
        assert len(seen) == sum({"path": 4, "ag": 6}[src] for src in sources)
        assert min(seen) > 0


class TestNormalityDefect:
    def test_frozen_bracket_counterexample(self) -> None:
        """The literal bracket relation [π*(Z), i′(W)] = α([Z, W]) fails;
        the correction −W_11 Σ_{b≥2} Z_1b Ẽ_{2,b+1} repairs it."""
        maps = build_maps(2, "path")
        z = elementary(1, 2)
        w = {(1, 1): F(1), (2, 2): F(-1)}
        lhs = smat_bracket(maps.pi_star(z), maps.i_prime(w))
        assert lhs == {(1, 3): F(-2), (2, 3): F(-1)}
        alpha_part = maps.alpha(smat_bracket(z, w))
        assert alpha_part == {(1, 3): F(-2)}
        assert lhs != alpha_part
        correction = {(2, 3): F(1)}      # W_11 · Z_12 · Ẽ_23
        assert maps.bracket_correction(z, w) == correction
        fixed = dict(alpha_part)
        fixed[(2, 3)] = fixed.get((2, 3), F(0)) - correction[(2, 3)]
        assert lhs == fixed

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_shared_correction_is_the_path_formula_on_b(self, n) -> None:
        """On W ∈ B, where W_10 = 0, row 1 of W·Z is W_11·Z_1b:
        C(Z, W) = W_11 · Σ_{b≥2} Z_1b Ẽ_{2,b+1}."""
        maps = build_maps(n, "path")
        g = maps.g
        for (a, b) in g.pos_positions:
            z = elementary(a, b)
            for v in b_indices(g):
                w = g.basis_mat(v)
                want = {(2, bb + 1): w.get((1, 1), 0) * z.get((1, bb), 0)
                        for bb in range(2, g.m)}
                assert maps.bracket_correction(z, w) == {p: c for p, c in want.items() if c}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_shared_correction_is_the_ag_formula(self, n) -> None:
        """On the AG source C(Z, Φ)_{2, 3+k} = Σ_c Φ_1c Z_{c, 2+k}."""
        maps = build_maps(n, "ag")
        g = maps.g
        for (a, b) in g.pos_positions:
            z = elementary(a, b)
            for v in range(g.dim):
                phi = g.basis_mat(v)
                want = {(2, 3 + k): sum(phi.get((1, c), 0) * z.get((c, 2 + k), 0)
                                        for c in range(2))
                        for k in range(n)}
                assert maps.bracket_correction(z, phi) == {p: c for p, c in want.items() if c}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_shared_correction_fails_off_b_on_n_plus_2_pairs(self, n) -> None:
        """A computed fact: off B the path bracket relation with the shared
        correction fails on exactly n + 2 (Z, W) basis pairs, Z = E_01 with
        each W outside B, in columns 1 and 2 only; it fails on none in B."""
        maps = build_maps(n, "path")
        in_b = set(b_indices(maps.g))

        def failures(values):
            return [(z, v, {c for (_, c) in gap})
                    for z, v, lhs, alpha_zw, corr in maps.bracket_pairs(values)
                    if (gap := smat_sub(lhs, smat_sub(alpha_zw, corr)))]

        assert failures(sorted(in_b)) == []
        off_b = [v for v in range(maps.g.dim) if v not in in_b]
        found = failures(off_b)
        assert len(off_b) == len(found) == n + 2
        assert [(z, v) for z, v, _ in found] == [((0, 1), v) for v in off_b]
        assert all(cols <= {1, 2} for _, _, cols in found)

    def test_frozen_single_term_defect(self) -> None:
        maps = build_maps(2, "path")
        g, gt = maps.g, maps.gt
        phi = Cochain(g, 2)
        phi.add_term((g.index_of_neg[(2, 0)], g.index_of_neg[(2, 1)]),
                     {(1, 1): F(1), (2, 2): F(-1)})
        defect = normality_defect(phi, maps)
        assert defect.data == {(gt.index_of_neg[(3, 0)],): {(2, 3): F(-1)}}

    @pytest.mark.parametrize("n", [2, 3])
    def test_defect_vanishes_on_curvature_module(self, n: int) -> None:
        maps = build_maps(n, "path")
        for c in module_F_path(n).basis_cochains():
            assert normality_defect(c, maps).is_zero()

    def test_defect_nonzero_somewhere_on_constrained_module(self) -> None:
        maps = build_maps(2, "path")
        hits = [c for c in module_constrained_path(2).basis_cochains()
                if not normality_defect(c, maps).is_zero()]
        assert hits

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_defect_matches_the_dense_evaluation(self, n: int) -> None:
        """The relabeling defect against −Σ_{b≥2} φ(π(X̃^j), X^{(b,1)})_11 Ẽ_{2,b+1}
        with φ evaluated densely, on every basis cochain of the constrained
        module."""
        maps = build_maps(n, "path")
        g, gt = maps.g, maps.gt
        v_neg = [(s, pos[0]) for s, pos in enumerate(g.neg_positions) if pos[1] == 1]
        nonzero = 0
        for phi in module_constrained_path(n).basis_cochains():
            want = Cochain(gt, 1)
            for j in range(gt.dim_neg):
                for s, b in v_neg:
                    unit = zero_vector(g.dim_neg)
                    unit[s] = F(1)
                    cf = _eval2(phi, maps.pi_cols[j], unit).get((1, 1))
                    if cf:
                        want.add_term((j,), {(2, b + 1): cf}, -1)
            got = normality_defect(phi, maps)
            assert got == want
            nonzero += not got.is_zero()
        assert nonzero > 0


class TestRelabelingMutants:
    """A wrong ``j_of`` planted after construction, where the construction
    checks cannot see it, must fail the verify cells that read it."""

    @staticmethod
    def plant(monkeypatch, mutate) -> None:
        real = feff.build_maps

        def mutated(n: int, source: str) -> EmbeddingMaps:
            maps = copy.copy(real(n, source))
            maps.j_of = mutate(list(maps.j_of))
            return maps

        monkeypatch.setattr(feff, "build_maps", mutated)

    @pytest.mark.parametrize("check", ["path-normality", "torsion-transfer"])
    def test_swapped_entries_fail_the_cell(self, check, monkeypatch) -> None:
        """j_of[1] and j_of[2] swapped: the transfer of a cochain stored at
        (1, 2) lands on a decreasing pair, which the cochain keys reject."""
        self.plant(monkeypatch, lambda j: [j[0], j[2], j[1], *j[3:]])
        with pytest.raises(ValueError, match="not strictly increasing"):
            run_check(check, 2, 1, 2)

    @pytest.mark.parametrize("check", ["path-normality", "torsion-transfer"])
    def test_an_increasing_wrong_relabeling_fails_the_cell(self, check, monkeypatch) -> None:
        """X^0 moved onto the π-kernel direction just below j_of[1]: j_of
        still increases, so every pair stays valid and only the values can
        tell."""
        maps = build_maps(2, "path")
        assert maps.pi_kernel.contains(_unit_class(maps.gt.dim_neg, maps.j_of[1] - 1))
        self.plant(monkeypatch, lambda j: [j[1] - 1, *j[1:]])
        rep = run_check(check, 2, 1, 2)
        assert not rep.ok and rep.failed


class TestVerificationSweeps:
    @pytest.mark.parametrize("n,cases,details", [
        (2, 408, {"module_dim": 88, "curvature_module_dim": 61,
                  "literal_defects": 5, "bracket_literal_defects": 2}),
        (3, 1430, {"module_dim": 342, "curvature_module_dim": 240,
                   "literal_defects": 12, "bracket_literal_defects": 3}),
    ])
    def test_path_normality(self, n, cases, details) -> None:
        rep = verify_path_normality(n)
        assert rep.ok and not rep.failures
        assert rep.cases == cases
        assert rep.details == details

    @pytest.mark.parametrize("n,cases", [(2, 127), (3, 318), (4, 643), (5, 1138)])
    def test_beta_and_second_sum(self, n, cases) -> None:
        """One case per β basis pair, per dual-basis bracket and per
        (second-sum table, T): dim q_+ = 2n + 1 positive directions times
        dim g, n brackets, and 2n + 1 tables (n + 1 degree −1 directions and
        n [X_E, X_V]) times the C(2n + 1, 2) tuples T."""
        rep = verify_beta_and_second_sum(n)
        assert rep.ok and rep.cases == cases
        d = 2 * n + 1
        assert cases == d * ((n + 2) ** 2 - 1) + n + d * (d * (d - 1) // 2)

    @pytest.mark.parametrize("n,kernel,cases", [(3, 258, 918), (4, 772, 2596),
                                                (5, 1790, 5850)])
    def test_ag_costar_cell_cases(self, n, kernel, cases) -> None:
        """Three comparisons per basis cochain of ker∂*, and the bracket
        identity once on its 2n·dim g basis pairs."""
        rep = run_check("ag-costar", n, 1, 1)
        assert rep.ok and rep.cases == cases
        assert rep.details == {"ker_costar_dim": kernel}
        assert cases == 3 * kernel + 2 * n * ((n + 2) ** 2 - 1)

    @pytest.mark.parametrize("n,cases", [(3, 246), (4, 756)])
    def test_harmonic_types_cell_cases(self, n, cases) -> None:
        """The path sweep's four cases, then for AG the sum and span of the
        typed parts and five tensor conditions per basis cochain of each."""
        rep = run_check("harmonic-types", n, 1, 1)
        assert rep.ok and rep.cases == cases
        assert cases == 4 + 2 + 5 * (rep.details["ag_tau_dim"] + rep.details["ag_rho_dim"])

    @pytest.mark.parametrize("n", [2, 3])
    def test_second_sum_tables_match_the_dense_sum(self, n: int) -> None:
        """The second-sum table of every unit class and of every [X_E, X_V]
        against Σ_i −φ([Z_i, X̃] mod p, X^i) evaluated densely, on every basis
        cochain Z_T ⊗ basis_v of the sweep."""
        g = graded_sl((1, 1, n))
        units = [[F(int(i == s)) for i in range(g.dim_neg)] for s in range(g.dim_neg)]
        e_idx = g.index_of_neg[(1, 0)]
        classes = units + [g.class_mod_p(smat_bracket(g.x_mat(e_idx),
                                                      g.x_mat(g.index_of_neg[(a, 1)])))
                           for a in range(2, g.m)]
        nonzero = 0
        for cls in classes:
            table = _second_sum_table(g, cls)
            lift = g.lift_from_class(cls)
            terms = [(g.class_mod_p(smat_bracket(g.z_mat(i), lift)), units[i])
                     for i in range(g.dim_neg)]
            for T in chain_tuples(g, 2):
                for v in range(g.dim):
                    phi = Cochain(g, 2, {T: g.basis_mat(v)})
                    want: dict = {}
                    for bcls, unit in terms:
                        smat_add_into(want, _eval2(phi, bcls, unit), -1)
                    got: dict = {}
                    for st, u in phi.data.items():
                        smat_add_into(got, u, table.get(st, 0))
                    assert got == want
                    nonzero += bool(want)
        assert nonzero > 0

    def test_lemma_path_frozen(self) -> None:
        rep = verify_lemma_path(2)
        assert rep.ok and rep.cases == 87
        assert rep.details == {
            "F_dim": 61, "E_dim": 35, "harmonic_dim": 9,
            "harmonic_nonvv_dim": 8, "rho_harmonic_dim": 5,
            "rho_ker_costar_dim": 12, "rho_ker_costar_ss_valued": False,
        }

    def test_lemma_path_fails_when_E_has_a_value_outside_p(self, monkeypatch) -> None:
        """With 𝔽 planted in place of 𝔼, some basis cochain of the planted
        module has a value outside p, and the one 𝔼 case fails."""
        monkeypatch.setattr(feff, "module_E_path", module_F_path)
        rep = verify_lemma_path(2)
        assert rep.failed == 1 and rep.cases == 87
        assert rep.failures[0].startswith("E basis cochain ")

    def test_norm_modules_builds_no_cochain_per_basis_row(self, monkeypatch) -> None:
        """The condition kernels of norm-modules read label coefficients, not
        cochains built from module basis rows."""
        def refuse(*args):
            raise AssertionError("norm-modules built a cochain from a block vector")

        monkeypatch.setattr(feff, "cochain_from_block", refuse)
        rep = run_check("norm-modules", 3, 1, 1)
        assert rep.ok and rep.cases == 707

    def test_norm_modules_frozen(self) -> None:
        rep = verify_norm_modules(3)
        assert rep.ok and rep.cases == 707
        assert rep.details == {
            "E_dim": 54, "F_dim": 498, "E2_dim": 36,
            "im_costar_cap_E": 54, "im_partial_cap_F": 54,
            "bracket_n1F_dim": 26,
        }

    @pytest.mark.parametrize("n,cases,details", [
        (2, 28, {"h_dim": 9, "positive_preimage_dim": 4}),
        (3, 50, {"h_dim": 16, "positive_preimage_dim": 6}),
        (4, 78, {"h_dim": 25, "positive_preimage_dim": 8}),
    ])
    def test_path_memberships(self, n, cases, details) -> None:
        rep = verify_transfer_memberships(n, "path")
        assert rep.ok and rep.cases == cases and rep.details == details

    @pytest.mark.parametrize("n,cases,details", [
        (3, 29, {"h_dim": 16, "stabilizer_dim": 27, "annihilator_dim": 24}),
        (4, 37, {"h_dim": 25, "stabilizer_dim": 39, "annihilator_dim": 35}),
    ])
    def test_grassmannian_memberships(self, n, cases, details) -> None:
        rep = verify_transfer_memberships(n, "ag")
        assert rep.ok and rep.cases == cases and rep.details == details

    def test_torsion_transfer_frozen(self) -> None:
        rep = verify_torsion_transfer(2)
        assert rep.ok and rep.cases == 54
        assert rep.details == {"F_dim": 61, "nonzero_tau": 9}

    @pytest.mark.parametrize("n,details", [
        (2, {"harmonic_dim": 9, "tau_dim": 3, "rho_dim": 5,
             "involutivity_dim": 1}),
        (3, {"harmonic_dim": 38, "tau_dim": 8, "rho_dim": 24,
             "involutivity_dim": 6}),
    ])
    def test_harmonic_types_path(self, n, details) -> None:
        rep = verify_harmonic_types(n, "path")
        assert rep.ok and rep.details == details

    @pytest.mark.parametrize("n,details", [
        (3, {"harmonic_dim": 48, "tau_dim": 24, "rho_dim": 24}),
        (4, {"harmonic_dim": 150, "tau_dim": 80, "rho_dim": 70}),
    ])
    def test_harmonic_types_grassmannian(self, n, details) -> None:
        rep = verify_harmonic_types(n, "ag")
        assert rep.ok and rep.details == details


class TestAgCostar:
    def test_seeded_samples_pass(self) -> None:
        maps = build_maps(3, "ag")
        basis = hodge((2, 3), 2).ker_costar.basis_cochains()
        rng = random.Random(97)
        for _ in range(5):
            kappa = combine(basis, rng)
            rep = ag_costar_check(kappa, maps)
            assert rep.ok, rep.failures
            assert rep.details["lhs_zero"] == (rep.details["contraction_entries"] == 0)

    def test_zero_cochain_has_zero_costar(self) -> None:
        rep = ag_costar_check(Cochain(graded_sl((2, 3)), 2))
        assert rep.ok
        assert rep.details == {"contraction_entries": 0, "lhs_zero": True}

    def test_rejects_wrong_degree(self) -> None:
        with pytest.raises(ValueError):
            ag_costar_check(Cochain(graded_sl((2, 3)), 1), build_maps(3, "ag"))

    @pytest.mark.parametrize("blocks", [(4,), (1, 1, 2)])
    def test_rejects_another_grading_before_reading_n(self, blocks) -> None:
        """A (4,) cochain has no n to read and a path cochain is not an AG
        one; both are rejected for their grading, with or without maps."""
        kappa = Cochain(graded_sl(blocks), 2)
        for maps in (None, build_maps(3, "ag")):
            with pytest.raises(ValueError, match=r"^cochain does not match the \(2, n\) source$"):
                ag_costar_check(kappa, maps)

    def test_rejects_cochain_outside_ker_costar(self) -> None:
        alg = graded_sl((2, 3))
        kappa = Cochain(alg, 2)
        kappa.add_term((0, 1), elementary(2, 0))
        assert not costar(kappa).is_zero()
        with pytest.raises(ValueError):
            ag_costar_check(kappa, build_maps(3, "ag"))


class TestPlantedFaults:
    """A fault on a single index of the code a converted cell checks fails
    that cell, with no seed involved."""

    def test_relabeling_wrong_at_one_index_fails_ag_costar(self, monkeypatch) -> None:
        """j_of[0] moved onto the π-kernel direction just below it: the
        transfer is wrong on X^0 alone and j_of still increases."""
        maps = build_maps(3, "ag")
        assert maps.pi_kernel.contains(_unit_class(maps.gt.dim_neg, maps.j_of[0] - 1))
        real = checks.build_maps

        def mutated(n: int, source: str) -> EmbeddingMaps:
            out = copy.copy(real(n, source))
            out.j_of = [out.j_of[0] - 1, *out.j_of[1:]]
            return out

        monkeypatch.setattr(checks, "build_maps", mutated)
        rep = run_check("ag-costar", 3, 1, 1)
        assert not rep.ok and rep.failed == 156 and rep.cases == 918
        assert rep.failures[0] == ("ker∂* basis cochain 9: costar of the transfer "
                                   "differs from the block formula")

    def test_ricci_map_wrong_at_one_index_fails_rho_ricci(self, monkeypatch) -> None:
        """ric_from_rho adds P's (1, 0, 0, 0) entry at (0, 0, 0, 0): only the
        units that reach that entry, (1, 0, 0, 0) and its E-slot swap
        (0, 0, 1, 0), fail."""
        real = checks.ric_from_rho

        def wrong(p: EFTensor, n: int) -> EFTensor:
            out = real(p, n)
            v = p.data.get((1, 0, 0, 0))
            return out.add(EFTensor(TRACE_SIG, n, {(0, 0, 0, 0): v})) if v else out

        monkeypatch.setattr(checks, "ric_from_rho", wrong)
        rep = run_check("rho-ricci", 3, 1, 1)
        assert not rep.ok and rep.failed == 7 and rep.cases == 397
        assert rep.failures == [
            "Ricci map eigen-scalar 3 failed at unit (0, 0, 1, 0)",
            "Ricci map eigen-scalar 5 failed at unit (0, 0, 1, 0)",
            "Ric → P → Ric round-trip failed at unit (0, 0, 1, 0)",
            "Ricci map eigen-scalar 3 failed at unit (1, 0, 0, 0)",
            "Ricci map eigen-scalar 5 failed at unit (1, 0, 0, 0)",
            "P → Ric → P round-trip failed at unit (1, 0, 0, 0)",
            "Ric → P → Ric round-trip failed at unit (1, 0, 0, 0)"]


def reference_normalize_step(psi: Cochain, level: int) -> Cochain | None:
    """normalize_step with its ∂̃*∂̃ columns built the long way: each basis
    row of the level becomes a cochain and goes through partial, costar and
    blocked_coords; φ sums the basis cochains."""
    alg = psi.alg
    n = alg.blocks[1] - 1
    dom = module_E(n) if level == 1 else module_E2(n)
    nxt = module_E2(n) if level == 1 else ChainModule("zero", alg, 1, {})
    structure = block_structure(alg.blocks, 1)
    psi_blocks = blocked_coords(psi)
    phi = Cochain(alg, 1)
    for w in sorted(set(psi_blocks) | set(dom.spaces)):
        dim_w = structure.block_dim(w)
        rhs = [-v for v in psi_blocks.get(w, zero_vector(dim_w))]
        basis = [cochain_from_block(alg, 1, w, row)
                 for row in (dom.spaces[w].rows if w in dom.spaces else [])]
        cols = []
        for c in basis:
            img = blocked_coords(costar(partial(c)))
            assert set(img) <= {w}
            cols.append(img.get(w, zero_vector(dim_w)))
        cols += nxt.spaces[w].rows if w in nxt.spaces else []
        if not cols:
            if any(rhs):
                return INFEASIBLE
            continue
        u = solve([list(r) for r in zip(*cols)], rhs)
        if u is None:
            return INFEASIBLE
        for coeff, c in zip(u, basis):
            if coeff:
                phi.add_into(c, coeff)
    return phi


class TestNormalizeStep:
    def test_infeasible_is_none(self) -> None:
        assert INFEASIBLE is None

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_the_cochain_column_reference(self, n) -> None:
        """Seeded constructed residuals and a basis element at both levels,
        and transfer residuals, against the reference; ∂̃*∂̃ restricts
        bijectively to each level, so every one is feasible."""
        rng = random.Random(f"normalize:{n}")
        maps = build_maps(n, "ag")
        psis = []
        for level, module in ((1, module_E), (2, module_E2)):
            basis = module(n).basis_cochains()
            psis += [(negated(costar(partial(combine(basis, rng)))), level)
                     for _ in range(3)]
            psis.append((basis[0], level))
        kernel = hodge((2, n), 2).ker_costar.basis_cochains()
        psis += [(costar(transfer(combine(kernel, rng), maps)), 1) for _ in range(3)]
        for psi, level in psis:
            got = normalize_step(psi, level)
            want = reference_normalize_step(psi, level)
            assert got is not INFEASIBLE and want is not INFEASIBLE
            assert cochain_to_doc(got) == cochain_to_doc(want)

    def test_level_one_constructed_preimage(self) -> None:
        rng = random.Random(31)
        e_mod = module_E(3)
        basis = e_mod.basis_cochains()
        for _ in range(3):
            psi = negated(costar(partial(combine(basis, rng))))
            phi = normalize_step(psi, 1)
            assert phi is not INFEASIBLE
            assert e_mod.contains(phi)
            assert costar(partial(phi)).add(psi).is_zero()

    def test_level_two_constructed_preimage(self) -> None:
        rng = random.Random(32)
        basis = module_E2(3).basis_cochains()
        for _ in range(3):
            psi = negated(costar(partial(combine(basis, rng))))
            phi = normalize_step(psi, 2)
            assert phi is not INFEASIBLE
            assert module_E2(3).contains(phi)
            assert costar(partial(phi)).add(psi).is_zero()

    def test_transfer_residual_solves_exactly(self) -> None:
        """∂̃*(transfer κ) of a ∂*-closed source cochain normalizes with an
        exactly zero residual at level 1."""
        maps = build_maps(3, "ag")
        basis = hodge((2, 3), 2).ker_costar.basis_cochains()
        rng = random.Random(33)
        for _ in range(3):
            psi = costar(transfer(combine(basis, rng), maps))
            phi = normalize_step(psi, 1)
            assert phi is not INFEASIBLE
            assert costar(partial(phi)).add(psi).is_zero()

    @pytest.mark.parametrize("level,module", [(1, module_E), (2, module_E2)])
    def test_costar_partial_restricts_bijectively(self, level, module) -> None:
        """∂̃*∂̃ maps each module into itself with full rank, so the
        normalization solve can never report infeasibility for residuals
        produced by the construction."""
        from kostantcheck.kostant import ChainModule

        for n in (3, 4):
            mod = module(n)
            images = [costar(partial(c)) for c in mod.basis_cochains()]
            assert all(mod.contains(img) for img in images)
            image_mod = ChainModule.from_cochains("image", mod.alg, 1, images)
            assert image_mod.dim == mod.dim

    def test_singular_block_is_infeasible(self, monkeypatch) -> None:
        """With ∂̃*∂̃ stubbed to an all-zero block, a nonzero ψ has no
        preimage: normalize_step returns INFEASIBLE and the normalize-step
        cell records failures instead of raising."""
        systems = feff._normalize_systems
        monkeypatch.setattr(feff, "_normalize_systems", lambda n, level: [
            (w, space, [[0] * len(row) for row in mat]) for w, space, mat in systems(n, level)])
        psi = module_E(3).basis_cochains()[0]
        assert normalize_step(psi, 1) is INFEASIBLE
        rep = run_check("normalize-step", 3, 1, 1)
        # The cell's own block cases read the real systems and pass; each of
        # the 2n² = 18 span solves and the level-2 solve is infeasible.
        assert not rep.ok and rep.failed == 19 and rep.cases == 2 * 48 + 1 + 18 + 18 + 1
        assert all(f.startswith("level 1: infeasible at residual span vector ")
                   for f in rep.failures)

    def test_zeroed_column_fails_its_blocks_rank_case(self, monkeypatch) -> None:
        """One column of the first level-1 system zeroed, for the cell and
        for normalize_step alike: that block's rank case fails, and so does
        the one span solve that lands in the block."""
        systems = feff._normalize_systems

        def zeroed(n: int, level: int):
            out = systems(n, level)
            if level != 1:
                return out
            (w, space, mat), *rest = out
            return [(w, space, [[0, *row[1:]] for row in mat]), *rest]

        monkeypatch.setattr(feff, "_normalize_systems", zeroed)
        monkeypatch.setattr(checks, "_normalize_systems", zeroed)
        w = systems(3, 1)[0][0]
        rep = run_check("normalize-step", 3, 1, 1)
        assert not rep.ok and rep.failed == 2
        assert rep.failures == [f"level 1: ∂̃*∂̃ is singular on block {w}",
                                f"level 1: infeasible at residual span vector 0 of block {w}"]

    def test_level_validation(self) -> None:
        alg = graded_sl((2, 4))
        with pytest.raises(ValueError):
            normalize_step(Cochain(alg, 1), 3)
        with pytest.raises(ValueError):
            normalize_step(Cochain(alg, 2), 1)
        with pytest.raises(ValueError):
            normalize_step(Cochain(graded_sl((1, 1, 2)), 1), 1)

    def test_rejects_psi_outside_level(self) -> None:
        alg = graded_sl((2, 4))
        psi = Cochain(alg, 1)
        psi.add_term((0,), elementary(3, 0))
        with pytest.raises(ValueError):
            normalize_step(psi, 1)
