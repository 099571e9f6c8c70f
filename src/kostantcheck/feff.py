"""Transfer maps between sl(n+2) and sl(n+3) and their verification harness.

Two parabolic sources embed into the (2, n+1) block grading of sl(n+3):
the path grading (1, 1, n) and the almost-Grassmannian grading (2, n).
The linear maps are, in 0-based matrix indices,

    i′ : sl(n+2) → sl(n+3)   rows 0↦{0}, 1↦{1,2}, a≥2↦{a+1};
                             columns 0↦0, 1↦1, b≥2↦b+1 (column 2 is zero),
    α  : sl(n+2) → sl(n+3)   insert a zero third row and column,
    β  : sl(n+3) → gl(n+2)   delete the third row, add column 2 into column 1,
    q  : i′(g)+ñ^{1,F} → sl(n+2)   delete the third row and column,
    π  : g̃/p̃ ↠ g/q          induced by inverting i′ modulo p̃,
    π* : q_+ → p̃_+           the dual of π under the trace pairing.

Here ñ^{1,F} is spanned by the matrix positions in rows {0,1,2} and columns
≥ 3, and h = i′^{-1}(p̃).  π* is DEFINED by the duality
⟨Z, π(X̃)⟩ = ⟨π*(Z), X̃⟩ and computed by solving the pairing equations; the
resulting entry formula (a column shift by +1) is recorded as a checked
consequence on the maps object.

On top of the maps this module houses the named submodules (A, B, h and
the chain modules 𝔼, 𝔽, 𝔼⁽²⁾ of the normalization argument together with
their path-grading analogues), curvature transfer, and one verification
routine per transfer identity.  Each verify_* routine returns a Report
listing the number of exact comparisons performed and the first failures;
the check registry stamps the name.  The single-source sweeps take the
registry's (n, rng, trials) signature and ignore the last two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Hashable, Sequence

from . import penrose
from .gla import (GradedSL, SparseMat, elementary, graded_sl, smat_add_into,
                  smat_bracket, smat_sub, smat_trace)
from .kostant import (ChainModule, Cochain, block_structure, blocked_coords,
                      chain_tuples, cochain_from_block, costar, hodge,
                      insertion, partial)
from .ratlin import Subspace, frac, kernel_basis, null_space, solve, zero_vector

#: Sentinel returned by :func:`normalize_step` when the linear condition
#: has no solution at the requested filtration level.
INFEASIBLE = None


class MapConstructionError(ValueError):
    """A construction-time invariant of the transfer maps failed."""


@dataclass
class Report:
    """Outcome of one verification sweep; ``checks.run_check`` sets the name.
    ``failed`` counts every failure, ``failures`` keeps the first few."""

    n: int
    ok: bool
    cases: int
    failures: list[str] = field(default_factory=list)
    details: dict[str, object] = field(default_factory=dict)
    name: str = ""
    failed: int = 0


class _Checker:
    """Accumulates exact comparisons for a Report."""

    def __init__(self) -> None:
        self.cases = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.cases += 1
        if not ok:
            self.fail(message)

    def fail(self, message: str) -> None:
        """Count one failure, keeping its message while fewer than 8 are kept."""
        self.failed += 1
        if len(self.failures) < 8:
            self.failures.append(message)

    def merge(self, rep: Report, prefix: str) -> None:
        """Add a sub-report's cases and failures, its messages prefixed."""
        self.cases += rep.cases
        self.failed += rep.failed
        self.failures.extend(prefix + msg for msg in rep.failures[:8 - len(self.failures)])

    def report(self, n: int, details: dict[str, object] | None = None) -> Report:
        return Report(n=n, ok=not self.failed, cases=self.cases, failures=self.failures,
                      details=details or {}, failed=self.failed)


def _unit(dim: int, i: int) -> list[Fraction]:
    vec = zero_vector(dim)
    vec[i] = Fraction(1)
    return vec


def _eval1(c: Cochain, cls: Sequence[Fraction]) -> SparseMat:
    """Evaluate a degree-1 cochain on a quotient class vector."""
    out: SparseMat = {}
    for (s,), u in c.data.items():
        cf = cls[s]
        if cf:
            smat_add_into(out, u, cf)
    return out


def _eval2(c: Cochain, c1: Sequence[Fraction], c2: Sequence[Fraction]) -> SparseMat:
    """Evaluate a degree-2 cochain on two quotient class vectors."""
    out: SparseMat = {}
    for (s, t), u in c.data.items():
        cf = c1[s] * c2[t] - c1[t] * c2[s]
        if cf:
            smat_add_into(out, u, cf)
    return out


def _wedge_table(c1: Sequence[Fraction], c2: Sequence[Fraction]) -> dict[tuple[int, int], Fraction]:
    """The nonzero coefficients c1[s]·c2[t] − c1[t]·c2[s] of :func:`_eval2`, s < t.

    Only pairs of the two supports contribute: c1[i]·c2[j] lands on (i, j)
    when i < j and on (j, i) with the opposite sign when i > j.
    """
    support2 = [(j, v) for j, v in enumerate(c2) if v]
    out: dict[tuple[int, int], Fraction] = {}
    for i, u in enumerate(c1):
        if u:
            smat_add_into(out, {(min(i, j), max(i, j)): u * v if i < j else -(u * v)
                                for j, v in support2 if j != i})
    return out


def _eval2_table(c: Cochain, table: dict[tuple[int, int], Fraction]) -> SparseMat:
    """:func:`_eval2` with its coefficients read from a :func:`_wedge_table`."""
    out: SparseMat = {}
    for st, u in c.data.items():
        cf = table.get(st)
        if cf:
            smat_add_into(out, u, cf)
    return out


# ---------------------------------------------------------------------------
# The maps
# ---------------------------------------------------------------------------

#: source → (its block grading at size n, its smallest n).
SOURCES = {"path": (lambda n: (1, 1, n), 2), "ag": (lambda n: (2, n), 3)}


class EmbeddingMaps:
    """The maps i′, α, β, q, π, π* for one source grading.

    All type invariants are verified during construction; a failure raises
    :class:`MapConstructionError` naming the identity that failed.
    """

    def __init__(self, n: int, source: str) -> None:
        if source not in SOURCES:
            raise ValueError("source must be 'path' or 'ag'")
        blocks, min_n = SOURCES[source]
        if n < min_n:
            raise ValueError(f"{source} source needs n >= {min_n}")
        self.n = n
        self.source = source
        self.g = graded_sl(blocks(n))
        self.gt = graded_sl((2, n + 1))
        self.gt_fine = graded_sl((2, 1, n))
        self.m = self.g.m            # n + 2
        self.mt = self.gt.m          # n + 3

        g, gt = self.g, self.gt
        self._images = [self.i_prime(g.basis_mat(i)) for i in range(g.dim)]

        for i, img in enumerate(self._images):
            if smat_trace(img):
                raise MapConstructionError("i_prime is not traceless")
        image_coords = [gt.coords(img) for img in self._images]
        rank_space = Subspace(gt.dim, image_coords)
        if rank_space.dim != g.dim:
            raise MapConstructionError("i_prime is not injective")
        self.i_image = rank_space

        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                lhs = self.i_prime(smat_bracket(g.basis_mat(i), g.basis_mat(j)))
                rhs = smat_bracket(self._images[i], self._images[j])
                if smat_sub(lhs, rhs):
                    raise MapConstructionError(
                        "i_prime is not a Lie algebra homomorphism")

        self.n1F_positions = [(r, c) for r in range(3) for c in range(3, self.mt)]
        self.n1F_space = Subspace(gt.dim, [_unit(gt.dim, gt.index_of_position[pos])
                                           for pos in self.n1F_positions])
        self._qmap_domain = self.i_image.sum_with(self.n1F_space)

        for i in range(g.dim):
            if smat_sub(self.qmap(self._images[i]), g.basis_mat(i)):
                raise MapConstructionError("qmap does not invert i_prime")

        # h = i'^{-1}(p̃): kernel of the negative coordinates of the images.
        neg_rows = [[image_coords[i][r] for i in range(g.dim)]
                    for r in range(gt.dim_neg)]
        self.h_space = null_space(neg_rows, g.dim)

        # π: solve class(i'(x)) = e_j for each target direction, then read the
        # class of x modulo the source parabolic.
        pi_cols: list[list[Fraction]] = []
        for j in range(gt.dim_neg):
            u = solve(neg_rows, _unit(gt.dim_neg, j))
            if u is None:
                raise MapConstructionError("pi is not surjective")
            pi_cols.append(g.class_mod_p(g.from_coords(u)))
        for k in kernel_basis(neg_rows):
            if any(g.class_mod_p(g.from_coords(k))):
                raise MapConstructionError("pi is not well defined on classes")
        self.pi_cols = pi_cols
        # Λ²π: the nonempty wedge tables of the target pairs.  Each π column
        # has at most one nonzero entry, so a table holds at most one pair.
        self.wedge_tables = [(T, table) for T in chain_tuples(gt, 2)
                             if (table := _wedge_table(pi_cols[T[0]], pi_cols[T[1]]))]

        if Subspace(g.dim_neg, pi_cols).dim != g.dim_neg:
            raise MapConstructionError("pi is not surjective")
        pi_mat = [[pi_cols[j][s] for j in range(gt.dim_neg)]
                  for s in range(g.dim_neg)]
        self.pi_kernel = kernel_basis(pi_mat)
        expected_kernel = [(2, 1)] if source == "path" else [(2, 0), (2, 1)]
        if len(self.pi_kernel) != gt.dim_neg - g.dim_neg:
            raise MapConstructionError("pi kernel has unexpected dimension")
        if (Subspace(gt.dim_neg, self.pi_kernel)
                != Subspace(gt.dim_neg, [_unit(gt.dim_neg, gt.index_of_neg[p])
                                         for p in expected_kernel])):
            raise MapConstructionError("pi kernel has unexpected span")

        # π* from duality: the coefficient of Z̃_j in π*(Z_s) is ⟨Z_s, π(X̃^j)⟩.
        self.pi_star_pos: dict[tuple[int, int], SparseMat] = {}
        for (a, b) in g.pos_positions:
            s = g.index_of_neg[(b, a)]
            img: SparseMat = {}
            for j in range(gt.dim_neg):
                cf = pi_cols[j][s]
                if cf:
                    smat_add_into(img, gt.z_mat(j), cf)
            self.pi_star_pos[(a, b)] = img
        self.entry_shift_plus_one = all(
            not smat_sub(img, elementary(a, b + 1))
            for (a, b), img in self.pi_star_pos.items())
        if not self.entry_shift_plus_one:
            raise MapConstructionError("pi_star entry formula (+1 shift) failed")
        self.literal_entry_formula_matches = all(
            b >= 1 and not smat_sub(img, elementary(a, b - 1))
            for (a, b), img in self.pi_star_pos.items())

        for (a, b), img in self.pi_star_pos.items():
            s = g.index_of_neg[(b, a)]
            for j in range(gt.dim_neg):
                pairing = img.get(tuple(reversed(gt.neg_positions[j])), Fraction(0))
                if pairing != pi_cols[j][s]:
                    raise MapConstructionError("duality pairing failed")

    # -- linear maps -------------------------------------------------------

    def i_prime(self, x: SparseMat) -> SparseMat:
        # α(x) plus a copy of row 1 in row 2, which α leaves empty.
        out = self.alpha(x)
        smat_add_into(out, {(2, b + (b >= 2)): frac(v) for (a, b), v in x.items() if a == 1})
        return out

    def alpha(self, x: SparseMat) -> SparseMat:
        return {(a + (a >= 2), b + (b >= 2)): frac(v) for (a, b), v in x.items()}

    def beta(self, xt: SparseMat) -> SparseMat:
        # Columns ≠ 2 land on distinct positions; column 2 adds into column 1.
        out = {(a - (a > 2), b - (b > 2)): frac(v) for (a, b), v in xt.items()
               if a != 2 and b != 2}
        smat_add_into(out, {(a - (a > 2), 1): frac(v) for (a, b), v in xt.items()
                            if a != 2 and b == 2})
        return out

    def qmap(self, xt: SparseMat) -> SparseMat:
        if not self._qmap_domain.contains(self.gt.coords(xt)):
            raise ValueError("qmap argument outside i'(g) + n1F")
        return {(a - (a > 2), b - (b > 2)): frac(v) for (a, b), v in xt.items()
                if a != 2 and b != 2}

    # -- quotient maps -----------------------------------------------------

    def pi_class(self, cls: Sequence[Fraction]) -> list[Fraction]:
        out = zero_vector(self.g.dim_neg)
        for j, cf in enumerate(cls):
            if cf:
                col = self.pi_cols[j]
                for s in range(self.g.dim_neg):
                    if col[s]:
                        out[s] += cf * col[s]
        return out

    def pi_of(self, xt: SparseMat) -> list[Fraction]:
        return self.pi_class(self.gt.class_mod_p(xt))

    def pi_star(self, z: SparseMat) -> SparseMat:
        out: SparseMat = {}
        for pos, v in z.items():
            if self.g.degree_of_position(*pos) <= 0:
                raise ValueError("pi_star argument outside the positive part")
            smat_add_into(out, self.pi_star_pos[pos], frac(v))
        return out


@lru_cache(maxsize=None)
def build_maps(n: int, source: str) -> EmbeddingMaps:
    """Construct (and cache) the verified transfer maps for one source."""
    return EmbeddingMaps(n, source)


# ---------------------------------------------------------------------------
# Named submodules
# ---------------------------------------------------------------------------


def a_indices(g: GradedSL) -> list[int]:
    """Basis indices of A = {first two columns zero} ∩ sl(n+2)."""
    return [i for i, lab in enumerate(g.basis_labels)
            if (lab[0] == "E" and lab[2] >= 2) or (lab[0] == "H" and lab[1] >= 2)]


def b_indices(g: GradedSL) -> list[int]:
    """Basis indices of B = {first column zero} ∩ sl(n+2)."""
    return [i for i, lab in enumerate(g.basis_labels)
            if (lab[0] == "E" and lab[2] >= 1) or (lab[0] == "H" and lab[1] >= 1)]


def p_indices(g: GradedSL) -> list[int]:
    """Basis indices of the parabolic p (degree ≥ 0), listed after g_-."""
    return list(range(g.dim_neg, g.dim))


def q0_indices(g: GradedSL) -> list[int]:
    """Basis indices of the degree-0 part."""
    return [i for i, lab in enumerate(g.basis_labels)
            if lab[0] == "H" or g.degree_of_position(lab[1], lab[2]) == 0]


def q0ss_indices(g: GradedSL) -> list[int]:
    """Basis indices of the semisimple part [q_0, q_0] of the path grading."""
    return [i for i, lab in enumerate(g.basis_labels)
            if (lab[0] == "E" and g.degree_of_position(lab[1], lab[2]) == 0)
            or (lab[0] == "H" and lab[1] >= 2)]


def coordinate_subspace(g: GradedSL, indices: Sequence[int]) -> Subspace:
    return Subspace(g.dim, [_unit(g.dim, i) for i in indices])


@lru_cache(maxsize=None)
def _path_neg_types(n: int) -> tuple[str, ...]:
    """Type of each negative direction of the (1,1,n) grading: E, V or 2."""
    g = graded_sl((1, 1, n))
    out = []
    for (a, b) in g.neg_positions:
        if (a, b) == (1, 0):
            out.append("E")
        elif b == 1:
            out.append("V")
        else:
            out.append("2")
    return tuple(out)


def _path_pair_type(n: int, T: tuple[int, int]) -> tuple[str, str]:
    types = _path_neg_types(n)
    return tuple(sorted((types[T[0]], types[T[1]])))  # type: ignore[return-value]


@lru_cache(maxsize=None)
def module_F_path(n: int) -> ChainModule:
    """𝔽 = (q_1^V∧q_2 ⊗ A) ⊕ (q_1^E∧q_2 ⊗ B) ⊕ (q_2∧q_2 ⊗ B)."""
    g = graded_sl((1, 1, n))
    a_idx, b_idx = a_indices(g), b_indices(g)
    labels = []
    for T in chain_tuples(g, 2):
        tp = _path_pair_type(n, T)
        if tp == ("2", "V"):
            labels.extend((T, v) for v in a_idx)
        elif tp in (("2", "E"), ("2", "2")):
            labels.extend((T, v) for v in b_idx)
    return ChainModule.from_labels("F-path", g, 2, labels)


@lru_cache(maxsize=None)
def module_E_path(n: int) -> ChainModule:
    """𝔼 = (q_1^V ⊕ q_2)∧q_2 ⊗ A."""
    g = graded_sl((1, 1, n))
    a_idx = a_indices(g)
    labels = [(T, v) for T in chain_tuples(g, 2)
              if _path_pair_type(n, T) in (("2", "V"), ("2", "2"))
              for v in a_idx]
    return ChainModule.from_labels("E-path", g, 2, labels)


@lru_cache(maxsize=None)
def module_no_vv_path(n: int) -> ChainModule:
    """The chains with no Λ²q_1^V component."""
    g = graded_sl((1, 1, n))
    return ChainModule.from_labels(
        "no-V-V", g, 2,
        [(T, v) for T in chain_tuples(g, 2)
         if _path_pair_type(n, T) != ("V", "V") for v in range(g.dim)])


@lru_cache(maxsize=None)
def module_rho_path(n: int, semisimple: bool = False) -> ChainModule:
    """q_1^V∧q_2 ⊗ q_0, or ⊗ q_0^{ss} when ``semisimple``."""
    g = graded_sl((1, 1, n))
    values = q0ss_indices(g) if semisimple else q0_indices(g)
    return ChainModule.from_labels(
        "V-2-q0ss" if semisimple else "V-2-q0", g, 2,
        [(T, v) for T in chain_tuples(g, 2)
         if _path_pair_type(n, T) == ("2", "V") for v in values])


@lru_cache(maxsize=None)
def module_constrained_path(n: int) -> ChainModule:
    """{φ ∈ Λ²q_+ ⊗ B : φ(q_{-1}^E, q_{-1}^V) = 0}."""
    g = graded_sl((1, 1, n))
    b_idx = b_indices(g)
    labels = [(T, v) for T in chain_tuples(g, 2)
              if _path_pair_type(n, T) != ("E", "V")
              for v in b_idx]
    return ChainModule.from_labels("normality-domain", g, 2, labels)


def _n2_dual_indices(gt: GradedSL) -> list[int]:
    return [j for j, (a, b) in enumerate(gt.neg_positions) if a >= 3]


def _e_dual_indices(gt: GradedSL) -> list[int]:
    return [j for j, (a, b) in enumerate(gt.neg_positions) if a == 2]


def _n1f_value_indices(gt: GradedSL) -> list[int]:
    return [gt.index_of_position[(r, c)]
            for r in range(3) for c in range(3, gt.m)]


def _n2_value_indices(gt: GradedSL) -> list[int]:
    return [gt.index_of_position[(r, c)]
            for r in range(2) for c in range(3, gt.m)]


@lru_cache(maxsize=None)
def module_E(n: int) -> ChainModule:
    """𝔼 = ñ_2 ⊗ ñ^{1,F} inside the degree-1 chains of the (2, n+1) grading."""
    gt = graded_sl((2, n + 1))
    labels = [((j,), v) for j in _n2_dual_indices(gt)
              for v in _n1f_value_indices(gt)]
    return ChainModule.from_labels("E-module", gt, 1, labels)


@lru_cache(maxsize=None)
def module_E2(n: int) -> ChainModule:
    """𝔼⁽²⁾ = ñ_2 ⊗ ñ_2 = 𝔼 ∩ (p̃_1 ⊗ p̃_1)."""
    gt = graded_sl((2, n + 1))
    labels = [((j,), v) for j in _n2_dual_indices(gt)
              for v in _n2_value_indices(gt)]
    return ChainModule.from_labels("E2-module", gt, 1, labels)


@lru_cache(maxsize=None)
def bracket_n1F_space(n: int) -> Subspace:
    """The span [g̃, ñ^{1,F}] in coordinates of sl(n+3)."""
    gt = graded_sl((2, n + 1))
    brackets = (smat_bracket(gt.basis_mat(i), elementary(r, c))
                for i in range(gt.dim) for r in range(3) for c in range(3, gt.m))
    return Subspace(gt.dim, [gt.coords(br) for br in brackets if br])


@lru_cache(maxsize=None)
def module_F(n: int) -> ChainModule:
    """𝔽 = ñ_1^E∧ñ_2 ⊗ ñ^{1,F}  ⊕  Λ²ñ_2 ⊗ [g̃, ñ^{1,F}]."""
    gt = graded_sl((2, n + 1))
    e_dual = set(_e_dual_indices(gt))
    labels = []
    mixed = []
    for T in chain_tuples(gt, 2):
        in_e = sum(1 for t in T if t in e_dual)
        if in_e == 1:
            labels.extend((T, v) for v in _n1f_value_indices(gt))
        elif in_e == 0:
            mixed.append(T)
    part1 = ChainModule.from_labels("F-mixed", gt, 2, labels)
    bracket_mats = [gt.from_coords(row) for row in bracket_n1F_space(n).rows]
    cochains = [Cochain(gt, 2, {T: mat}) for T in mixed for mat in bracket_mats]
    part2 = ChainModule.from_cochains("F-n2n2", gt, 2, cochains)
    return part1.sum_with(part2, "F-module")


def _constrained_module(module: ChainModule, name: str,
                        residual: Callable[[Cochain], dict[Hashable, Fraction]]
                        ) -> ChainModule:
    """Kernel of a linear condition inside a ChainModule, weight block by block.

    ``residual`` returns the nonzero entries of a cochain's residual, keyed
    by condition.  Each block's kernel problem has one row per condition that
    some basis element violates; a block that violates none keeps its space.
    """
    spaces: dict[tuple[int, ...], Subspace] = {}
    for w in sorted(module.spaces):
        space = module.spaces[w]
        residuals = [residual(cochain_from_block(module.alg, module.deg, w, row))
                     for row in space.rows]
        violated = sorted({key for res in residuals for key in res})
        if not violated:
            spaces[w] = space
            continue
        mat = [[res.get(key, 0) for res in residuals] for key in violated]
        sub = space.combinations(null_space(mat, space.dim))
        if sub.dim:
            spaces[w] = sub
    return ChainModule(name, module.alg, module.deg, spaces)


# ---------------------------------------------------------------------------
# Transfer
# ---------------------------------------------------------------------------


def transfer(kappa: Cochain, maps: EmbeddingMaps) -> Cochain:
    """κ̃(X̃, Ỹ) = i′(κ(π X̃, π Ỹ)) as a degree-2 cochain over the target.

    κ∘Λ²π is read through the maps' Λ²π tables (``maps.wedge_tables``, one
    :func:`_wedge_table` per target pair with a nonzero image) by
    :func:`_eval2_table`; :func:`_eval2` on the π columns is the dense
    reference it must agree with.
    """
    if kappa.alg.blocks != maps.g.blocks or kappa.deg != 2:
        raise ValueError("cochain does not match the maps' source grading")
    out = Cochain(maps.gt, 2)
    for T, table in maps.wedge_tables:
        val = _eval2_table(kappa, table)
        if val:
            out.add_term(T, maps.i_prime(val))
    return out


# ---------------------------------------------------------------------------
# Verification sweeps
# ---------------------------------------------------------------------------


def normality_defect(phi: Cochain, maps: EmbeddingMaps) -> Cochain:
    """The exact defect ∂̃*(transfer φ) − α∘(∂*φ)∘π for B-valued φ with
    φ(q_{-1}^E, q_{-1}^V) = 0.

    For W ∈ B the bracket comparison gives
        [π*(Z), i′(W)] = α([Z, W]) − W_{11} · Σ_{b≥2} Z_{1b} Ẽ_{2,b+1},
    the correction coming from the duplicated second row of i′.  Summed over
    the dual pairs of the codifferential this accumulates to

        X̃ ↦ −Σ_{b≥2} φ(π(X̃), X^{(b,1)})_{11} · Ẽ_{2,b+1},

    and nothing else contributes: the source second sum vanishes on the
    constrained module and the target grading is |1|-graded, so its second
    sum is identically zero.  The defect vanishes on all of 𝔽 because there
    every value paired with a q_{-1}^V direction lies in A, whose matrices
    have zero (1,1) entry.
    """
    g, gt = maps.g, maps.gt
    units = [_unit(g.dim_neg, i) for i in range(g.dim_neg)]
    v_neg = [(j, g.neg_positions[j][0]) for j in range(g.dim_neg)
             if g.neg_positions[j][1] == 1]
    out = Cochain(gt, 1)
    for j in range(gt.dim_neg):
        mat: SparseMat = {}
        for vi, b in v_neg:
            val = _eval2(phi, maps.pi_cols[j], units[vi])
            cf = val.get((1, 1), Fraction(0))
            if cf:
                smat_add_into(mat, {(2, b + 1): cf}, -1)
        if mat:
            out.add_term((j,), mat)
    return out


def verify_path_normality(n: int, rng: object = None, trials: int = 0) -> Report:
    """∂̃*(transfer φ) = α∘(∂*φ)∘π, in the exact form in which it holds.

    The identity as displayed holds on the curvature module 𝔽 (verified on a
    full basis); on the larger module {φ ∈ Λ²q_+⊗B : φ(q_{-1}^E, q_{-1}^V)=0}
    it holds up to the defect of :func:`normality_defect`, which is likewise
    verified exactly on a full basis, together with the fact that the defect
    vanishes identically on 𝔽.  The bracket identity
    [π*(Z), i′(W)] = α([Z, W]) is checked on all (Z ∈ q_+, W ∈ B) basis
    pairs in the same corrected form, and the literal form is confirmed to
    hold precisely where the correction term vanishes.
    """
    maps = build_maps(n, "path")
    g, gt = maps.g, maps.gt
    chk = _Checker()
    module = module_constrained_path(n)
    f_mod = module_F_path(n)
    literal_defects = 0
    for idx, phi in enumerate(module.basis_cochains()):
        lhs = costar(transfer(phi, maps))
        dphi = costar(phi)
        rhs = Cochain(gt, 1)
        for j in range(gt.dim_neg):
            val = _eval1(dphi, maps.pi_cols[j])
            if val:
                rhs.add_term((j,), maps.alpha(val))
        defect = normality_defect(phi, maps)
        chk.check(lhs == rhs.add(defect),
                  f"corrected normality identity failed at basis element {idx}")
        chk.check((lhs == rhs) == defect.is_zero(),
                  f"defect does not account for the deviation at element {idx}")
        if f_mod.contains(phi):
            chk.check(defect.is_zero(),
                      f"defect nonzero on the curvature module at element {idx}")
            chk.check(lhs == rhs,
                      f"normality identity failed on 𝔽 at basis element {idx}")
        elif not defect.is_zero():
            literal_defects += 1
    bracket_defects = 0
    for (a, b) in g.pos_positions:
        z = elementary(a, b)
        pz = maps.pi_star(z)
        for v in b_indices(g):
            w = g.basis_mat(v)
            lhs = smat_bracket(pz, maps.i_prime(w))
            rhs = dict(maps.alpha(smat_bracket(z, w)))
            corr: SparseMat = {}
            w11 = w.get((1, 1), Fraction(0))
            if w11:
                for bb in range(2, g.m):
                    zc = z.get((1, bb), Fraction(0))
                    if zc:
                        smat_add_into(corr, {(2, bb + 1): w11 * zc}, -1)
            with_corr = dict(rhs)
            smat_add_into(with_corr, corr)
            chk.check(not smat_sub(lhs, with_corr),
                      f"corrected bracket identity failed at Z=E{a}{b}, W basis {v}")
            literal_ok = not smat_sub(lhs, rhs)
            chk.check(literal_ok == (not corr),
                      f"bracket correction locus wrong at Z=E{a}{b}, W basis {v}")
            if corr:
                bracket_defects += 1
    return chk.report(n, {
        "module_dim": module.dim,
        "curvature_module_dim": f_mod.dim,
        "literal_defects": literal_defects,
        "bracket_literal_defects": bracket_defects,
    })


def verify_beta_and_second_sum(n: int, rng: object = None, trials: int = 0) -> Report:
    """β([π*(Z), i′(W)]) = [Z, W] for all basis pairs, and the second-sum
    evaluation −Σ_i φ([Z_i, X], X^i): zero for X of degree ≥ −1 and equal to
    2 φ(X_E, X_V) for X = [X_E, X_V]."""
    maps = build_maps(n, "path")
    g = maps.g
    chk = _Checker()
    for (a, b) in g.pos_positions:
        z = elementary(a, b)
        pz = maps.pi_star(z)
        for v in range(g.dim):
            w = g.basis_mat(v)
            lhs = maps.beta(smat_bracket(pz, maps.i_prime(w)))
            rhs = smat_bracket(z, w)
            chk.check(not smat_sub(lhs, rhs),
                      f"beta relation failed at Z=E{a}{b}, W basis {v}")

    # basis convention: the degree-2 dual directions are brackets of the
    # degree-1 ones, [Z_E, Z_{V_j}] = Z_{2_j}.
    e_idx = g.index_of_neg[(1, 0)]
    for a in range(2, g.m):
        lhs = smat_bracket(g.z_mat(e_idx), g.z_mat(g.index_of_neg[(a, 1)]))
        chk.check(not smat_sub(lhs, g.z_mat(g.index_of_neg[(a, 0)])),
                  f"dual basis bracket convention failed at row {a}")

    units = [_unit(g.dim_neg, i) for i in range(g.dim_neg)]
    deg1 = [i for i, (r, c) in enumerate(g.neg_positions)
            if g.degree_of_position(r, c) == -1]
    types = _path_neg_types(n)
    v_idx = [i for i, t in enumerate(types) if t == "V"]

    def second_sum(phi: Cochain, cls: Sequence[Fraction]) -> SparseMat:
        lift = g.lift_from_class(cls)
        acc: SparseMat = {}
        for i in range(g.dim_neg):
            bcls = g.class_mod_p(smat_bracket(g.z_mat(i), lift))
            if any(bcls):
                smat_add_into(acc, _eval2(phi, bcls, units[i]), -1)
        return acc

    for T in chain_tuples(g, 2):
        for v in range(g.dim):
            phi = Cochain(g, 2, {T: g.basis_mat(v)})
            for i in deg1:
                chk.check(not second_sum(phi, units[i]),
                          f"second sum nonzero on degree -1 direction {i}, "
                          f"phi=({T},{v})")
            for iv in v_idx:
                x = smat_bracket(g.x_mat(e_idx), g.x_mat(iv))
                got = second_sum(phi, g.class_mod_p(x))
                want = _eval2(phi, units[e_idx], units[iv])
                want = {p: 2 * c for p, c in want.items()}
                chk.check(not smat_sub(got, want),
                          f"second sum mismatch for [X_E, X_V], V={iv}, "
                          f"phi=({T},{v})")
    return chk.report(n)


def verify_lemma_path(n: int, rng: object = None, trials: int = 0) -> Report:
    """Stability of 𝔽 under insertions, vanishing of insertions on 𝔼,
    harmonic containment in 𝔽, and the semisimple-value refinement.

    The harmonic containment is stated for curvatures of path geometries,
    whose harmonic part has no Λ²q_1^V component (that block is the
    involutivity obstruction of V); accordingly the sweep checks that every
    harmonic element vanishing on Λ²(q_{-1}^V) lies in 𝔽.  The semisimple
    refinement likewise holds for the harmonic part: (q_1^V∧q_2⊗q_0)∩ker□
    is q_0^{ss}-valued.  The same containment with ker∂* in place of ker□
    fails (the two spaces have equal dimension but different span); the
    report records this computed fact.
    """
    chk = _Checker()
    f_mod, e_mod = module_F_path(n), module_E_path(n)
    f_basis = f_mod.basis_cochains()
    e_basis = e_mod.basis_cochains()
    for r, phi in enumerate(f_basis):
        for s, psi in enumerate(f_basis):
            chk.check(f_mod.contains(costar(insertion(phi, psi))),
                      f"insertion left F at pair ({r},{s})")
    for r, phi in enumerate(e_basis):
        for s, psi in enumerate(e_basis):
            chk.check(insertion(phi, psi).is_zero(),
                      f"insertion nonzero on E pair ({r},{s})")
    hd = hodge((1, 1, n), 2)
    harm_inv = hd.ker_box.intersect(module_no_vv_path(n), "harmonic-involutive")
    chk.check(harm_inv.is_contained_in(f_mod),
              "harmonic space (vanishing on Λ²V) not inside F")
    rho_amb, rho_ss = module_rho_path(n), module_rho_path(n, semisimple=True)
    harmonic_part = rho_amb.intersect(hd.ker_box, "V-2-q0∩ker□")
    chk.check(harmonic_part.is_contained_in(rho_ss),
              "(V∧2⊗q_0)∩ker□ is not q_0^{ss}-valued")
    costar_part = rho_amb.intersect(hd.ker_costar, "V-2-q0∩ker∂*")
    return chk.report(n, {
        "F_dim": f_mod.dim, "E_dim": e_mod.dim,
        "harmonic_dim": hd.ker_box.dim,
        "harmonic_nonvv_dim": harm_inv.dim,
        "rho_harmonic_dim": harmonic_part.dim,
        "rho_ker_costar_dim": costar_part.dim,
        "rho_ker_costar_ss_valued": costar_part.is_contained_in(rho_ss),
    })


@lru_cache(maxsize=None)
def _ag_bracket_identity(n: int) -> Report:
    """[π*(Z), i′(Φ)] = α([Z, Φ]) − C(Z, Φ) with the correction supported in
    row 2 and columns ≥ 3, C(Z, Φ)_{2, 3+k} = Σ_c Φ_{1c} Z_{c, 2+k}."""
    maps = build_maps(n, "ag")
    g = maps.g
    chk = _Checker()
    for (a, b) in g.pos_positions:
        z = elementary(a, b)
        pz = maps.pi_star(z)
        for v in range(g.dim):
            phi_mat = g.basis_mat(v)
            lhs = smat_bracket(pz, maps.i_prime(phi_mat))
            rhs = dict(maps.alpha(smat_bracket(z, phi_mat)))
            corr = {}
            for k in range(n):
                cf = sum((phi_mat.get((1, c), Fraction(0))
                          * z.get((c, 2 + k), Fraction(0)) for c in range(2)),
                         Fraction(0))
                if cf:
                    corr[(2, 3 + k)] = cf
            smat_add_into(rhs, corr, -1)
            chk.check(not smat_sub(lhs, rhs),
                      f"bracket identity failed at Z=E{a}{b}, basis {v}")
    return chk.report(n)


def ag_costar_check(kappa: Cochain, maps: EmbeddingMaps | None = None) -> Report:
    """∂̃*(transfer κ) against the single-block formula
    −φ_J W^A_{A'}{}^I_{C'}{}^J_I ∘ π with φ = (0, 1), for κ ∈ ker ∂*."""
    n = kappa.alg.blocks[1]
    if maps is None:
        maps = build_maps(n, "ag")
    if kappa.alg.blocks != maps.g.blocks or kappa.deg != 2:
        raise ValueError("cochain does not match the (2, n) source")
    if not costar(kappa).is_zero():
        raise ValueError("kappa must lie in ker ∂*")
    g, gt = maps.g, maps.gt
    chk = _Checker()
    lhs = costar(transfer(kappa, maps))

    w_block = penrose.extract_blocks(kappa).W
    contraction: dict[tuple[int, int, int], Fraction] = {}
    for (a, ap, b, bp, c, d), v in w_block.data.items():
        if c == 1 and b == d:
            smat_add_into(contraction, {(a, ap, bp): v})

    rhs = Cochain(gt, 1)
    for j in range(gt.dim_neg):
        mat: SparseMat = {}
        for (a, ap, cp), v in contraction.items():
            cf = maps.pi_cols[j][g.index_of_neg[(ap + 2, a)]]
            if cf:
                smat_add_into(mat, {(2, 3 + cp): cf * v}, -1)
        if mat:
            rhs.add_term((j,), mat)

    chk.check(lhs == rhs, "costar of the transfer differs from the block formula")
    chk.check(lhs.is_zero() == (not contraction),
              "vanishing of ∂̃*(transfer κ) does not match the contraction")
    chk.check(module_E(n).contains(lhs),
              "∂̃*(transfer κ) left the E-module")
    chk.merge(_ag_bracket_identity(n), "")
    return chk.report(n, {
        "contraction_entries": len(contraction),
        "lhs_zero": lhs.is_zero(),
    })


def verify_norm_modules(n: int, rng: object = None, trials: int = 0) -> Report:
    """Stability ∂̃𝔼 ⊆ 𝔽, ∂̃*𝔽 ⊆ 𝔼, the mutual bijections between
    im∂̃*∩𝔼 and im∂̃∩𝔽, and the defining-condition realizations of 𝔼, 𝔽."""
    maps = build_maps(n, "ag")
    g, gt = maps.g, maps.gt
    chk = _Checker()
    e_mod, f_mod, e2_mod = module_E(n), module_F(n), module_E2(n)

    for idx, c in enumerate(e_mod.basis_cochains()):
        chk.check(f_mod.contains(partial(c)), f"∂E ⊄ F at basis element {idx}")
    for idx, c in enumerate(f_mod.basis_cochains()):
        chk.check(e_mod.contains(costar(c)), f"∂*F ⊄ E at basis element {idx}")

    h1 = hodge(gt.blocks, 1)
    h2 = hodge(gt.blocks, 2)
    m1 = h1.im_costar.intersect(e_mod, "im∂*∩E")
    m2 = h2.im_partial.intersect(f_mod, "im∂∩F")
    chk.check(m1.dim == m2.dim, "dim(im∂*∩E) != dim(im∂∩F)")
    fwd = [partial(c) for c in m1.basis_cochains()]
    for idx, img in enumerate(fwd):
        chk.check(m2.contains(img), f"∂(im∂*∩E) left im∂∩F at {idx}")
    fwd_rank = ChainModule.from_cochains("∂(M1)", gt, 2, fwd).dim
    chk.check(fwd_rank == m1.dim, "∂ not injective on im∂*∩E")
    chk.check(fwd_rank == m2.dim, "∂(im∂*∩E) does not span im∂∩F")
    bwd = [costar(c) for c in m2.basis_cochains()]
    for idx, img in enumerate(bwd):
        chk.check(m1.contains(img), f"∂*(im∂∩F) left im∂*∩E at {idx}")
    bwd_rank = ChainModule.from_cochains("∂*(M2)", gt, 1, bwd).dim
    chk.check(bwd_rank == m2.dim, "∂* not injective on im∂∩F")
    chk.check(bwd_rank == m1.dim, "∂*(im∂∩F) does not span im∂*∩E")

    # condition-set realizations
    p_basis = p_indices(g)
    cls_p = Subspace(gt.dim_neg, [gt.class_mod_p(maps.i_prime(g.basis_mat(i)))
                                  for i in p_basis])
    cls_g = Subspace(gt.dim_neg, [gt.class_mod_p(maps.i_prime(g.basis_mat(i)))
                                  for i in range(g.dim)])

    amb1 = ChainModule.from_labels(
        "p̃_+⊗n1F", gt, 1,
        [((j,), v) for j in range(gt.dim_neg) for v in _n1f_value_indices(gt)])

    def resid_e(c: Cochain) -> dict[tuple[int, int], Fraction]:
        return {(r, idx): cf for r, row in enumerate(cls_p.rows)
                for idx, cf in gt.sparse_coords(_eval1(c, row))}

    e_cond = _constrained_module(amb1, "E-conditions", resid_e)
    chk.check(e_cond.same_space(e_mod),
              "condition set {φ ∈ p̃_+⊗n1F : φ(i'(p)) = 0} differs from E")

    bk_mats = [gt.from_coords(row) for row in bracket_n1F_space(n).rows]
    amb2 = ChainModule.from_cochains(
        "Λ²p̃_+⊗[g̃,n1F]", gt, 2,
        (Cochain(gt, 2, {T: mat}) for T in chain_tuples(gt, 2) for mat in bk_mats))
    n1f_idx = set(_n1f_value_indices(gt))

    # ψ(i'p, i'p) = 0 on every coordinate, ψ(i'p, i'g) = 0 off n1F.
    rows_p = cls_p.rows
    pairs = ([((0, i1, i2), r1, r2) for i1, r1 in enumerate(rows_p)
              for i2, r2 in enumerate(rows_p) if i1 < i2]
             + [((1, i1, i2), r, s) for i1, r in enumerate(rows_p)
                for i2, s in enumerate(cls_g.rows)])

    tables = [(key, _wedge_table(r, s)) for key, r, s in pairs]

    def resid_f(c: Cochain) -> dict[tuple[int, int, int, int], Fraction]:
        return {key + (idx,): cf for key, table in tables
                for idx, cf in gt.sparse_coords(_eval2_table(c, table))
                if key[0] == 0 or idx not in n1f_idx}

    f_cond = _constrained_module(amb2, "F-conditions", resid_f)
    chk.check(f_cond.same_space(f_mod),
              "condition set {ψ : ψ(i'p, i'p)=0, ψ(i'p, i'g) ⊆ n1F} differs from F")

    chk.check(bracket_n1F_space(n).contains_subspace(maps.n1F_space),
              "n1F not contained in [g̃, n1F]")
    ok_stab = True
    for i in p_basis:
        for pos in maps.n1F_positions:
            br = smat_bracket(maps.i_prime(g.basis_mat(i)), elementary(*pos))
            if br and not maps.n1F_space.contains(gt.coords(br)):
                ok_stab = False
    chk.check(ok_stab, "[i'(p), n1F] not contained in n1F")

    pos_valued = ChainModule.from_labels(
        "p̃_1-valued", gt, 1,
        [((j,), v) for j in range(gt.dim_neg) for v in _n2_value_indices(gt)])
    chk.check(e_mod.intersect(pos_valued).same_space(e2_mod),
              "E ∩ (p̃_1⊗p̃_1) differs from E2")

    return chk.report(n, {
        "E_dim": e_mod.dim, "F_dim": f_mod.dim, "E2_dim": e2_mod.dim,
        "im_costar_cap_E": m1.dim, "im_partial_cap_F": m2.dim,
        "bracket_n1F_dim": bracket_n1F_space(n).dim,
    })


def normalize_step(psi: Cochain, level: int,
                   maps: EmbeddingMaps | None = None) -> Cochain | None:
    """Solve ∂̃*∂̃φ + ψ ∈ 𝔼^{(level+1)} for φ ∈ 𝔼^{(level)}.

    𝔼^{(1)} = 𝔼, 𝔼^{(2)} = ñ_2⊗ñ_2, 𝔼^{(3)} = 0.  Returns the cochain φ, or
    INFEASIBLE (None) when ψ is not a nonnormality residual of the
    construction, i.e. lies outside the image of the restricted operator
    modulo the next level.
    """
    if level not in (1, 2):
        raise ValueError("level must be 1 or 2")
    alg = psi.alg
    if len(alg.blocks) != 2 or alg.blocks[0] != 2 or psi.deg != 1:
        raise ValueError("psi must be a degree-1 cochain over a (2, n+1) grading")
    n = alg.blocks[1] - 1
    dom = module_E(n) if level == 1 else module_E2(n)
    nxt = module_E2(n) if level == 1 else ChainModule("zero", alg, 1, {})
    if not dom.contains(psi):
        raise ValueError("psi outside the required filtration level")
    structure = block_structure(alg.blocks, 1)
    psi_blocks = blocked_coords(psi)
    phi = Cochain(alg, 1)
    for w in sorted(set(psi_blocks) | set(dom.spaces)):
        dim_w = structure.block_dim(w)
        rhs = [-v for v in psi_blocks.get(w, zero_vector(dim_w))]
        cols: list[list[Fraction]] = []
        col_cochains: list[Cochain] = []
        space = dom.spaces.get(w)
        if space is not None:
            for row in space.rows:
                c = cochain_from_block(alg, 1, w, row)
                img = blocked_coords(costar(partial(c)))
                if any(wv != w for wv in img):
                    raise AssertionError("∂̃*∂̃ did not preserve the weight")
                cols.append(img.get(w, zero_vector(dim_w)))
                col_cochains.append(c)
        quot = nxt.spaces.get(w)
        q_rows = list(quot.rows) if quot is not None else []
        if not cols and not q_rows:
            if any(rhs):
                return INFEASIBLE
            continue
        mat = [[(cols[k][r] if k < len(cols)
                 else q_rows[k - len(cols)][r])
                for k in range(len(cols) + len(q_rows))]
               for r in range(dim_w)]
        u = solve(mat, rhs)
        if u is None:
            return INFEASIBLE
        for coeff, c in zip(u[:len(cols)], col_cochains):
            if coeff:
                phi.add_into(c, coeff)
    residual = costar(partial(phi)).add(psi)
    if not (residual.is_zero() if nxt.dim == 0 else nxt.contains(residual)):
        raise AssertionError("normalize_step postcondition failed")
    return phi


def verify_transfer_memberships(n: int, source: str) -> Report:
    """The exact subspace identities behind the transfer constructions."""
    maps = build_maps(n, source)
    g, gt = maps.g, maps.gt
    chk = _Checker()
    details: dict[str, object] = {"h_dim": maps.h_space.dim}

    # i'^{-1}(p̃) = h, via the displayed entry description of h.
    h_positions = [(1, 0), (1, 1)] + [(a, b) for a in range(2, g.m)
                                      for b in range(2)]
    h_rows = [[frac(g.basis_mat(i).get(pos, 0)) for i in range(g.dim)]
              for pos in h_positions]
    h_direct = null_space(h_rows, g.dim)
    chk.check(maps.h_space == h_direct, "i'^{-1}(p̃) differs from h")
    parabolic = coordinate_subspace(g, p_indices(g))
    chk.check(parabolic.contains_subspace(maps.h_space),
              "h is not contained in the source parabolic")

    def preimage(allowed: set[tuple[int, int]]) -> Subspace:
        forbidden = [(r, c) for r in range(gt.m) for c in range(gt.m)
                     if (r, c) not in allowed]
        rows = [[frac(maps.i_prime(g.basis_mat(i)).get(pos, 0))
                 for i in range(g.dim)] for pos in forbidden]
        return null_space(rows, g.dim)

    if source == "path":
        for v in a_indices(g):
            img = maps.i_prime(g.basis_mat(v))
            chk.check(all(gt.degree_of_position(*pos) >= 0 for pos in img),
                      f"i'(A) left p̃ at basis {v}")
            chk.check(all(c >= 2 for (_, c) in img),
                      f"i'(A) hits the first two columns at basis {v}")
        for v in b_indices(g):
            img = maps.i_prime(g.basis_mat(v))
            chk.check(all(c >= 1 for (_, c) in img),
                      f"i'(B) hits the first column at basis {v}")
        fine_pos = preimage(set(maps.gt_fine.pos_positions))
        expected = coordinate_subspace(
            g, [g.index_of_position[(r, c)] for r in range(2)
                for c in range(2, g.m)])
        chk.check(fine_pos == expected,
                  "i'^{-1}(p̃_+) differs from q_1^V ⊕ q_2")
        details["positive_preimage_dim"] = fine_pos.dim
    else:
        w_vec = [Fraction(0)] * gt.m
        w_vec[2] = Fraction(-1)
        v_vec = [Fraction(0)] * gt.m
        v_vec[1], v_vec[2] = Fraction(1), Fraction(-1)

        def stab_rows(free_tail: bool) -> list[list[Fraction]]:
            rows = []
            for r in range(gt.m):
                rows.append([frac(gt.basis_mat(i).get((r, 2), 0))
                             for i in range(gt.dim)])
            cols = range(3) if free_tail else range(gt.m)
            for c in cols:
                rows.append([frac(gt.basis_mat(i).get((1, c), 0))
                             - frac(gt.basis_mat(i).get((2, c), 0))
                             for i in range(gt.dim)])
            return rows

        s1 = null_space(stab_rows(True), gt.dim)
        s2 = null_space(stab_rows(False), gt.dim)
        chk.check(s1 == maps._qmap_domain,
                  "{Ã: Ãw = 0, vÃ ∈ (0,0,0,ℝⁿ)} differs from i'(g) + n1F")
        chk.check(s2 == maps.i_image, "{Ã: Ãw = 0, vÃ = 0} differs from i'(g)")
        details["stabilizer_dim"] = s1.dim
        details["annihilator_dim"] = s2.dim
        for pos in maps.n1F_positions:
            mat = elementary(*pos)
            image_w = [sum((mat.get((r, c), Fraction(0)) * w_vec[c]
                            for c in range(gt.m)), Fraction(0))
                       for r in range(gt.m)]
            chk.check(not any(image_w), f"n1F·w nonzero at position {pos}")
            v_image = [sum((v_vec[r] * mat.get((r, c), Fraction(0))
                            for r in range(gt.m)), Fraction(0))
                       for c in range(gt.m)]
            chk.check(not any(v_image[:3]),
                      f"v·n1F outside (0,0,0,ℝⁿ) at position {pos}")
        p_plus = preimage(set(maps.n1F_positions))
        expected = coordinate_subspace(
            g, [g.index_of_position[(r, c)] for r in range(2)
                for c in range(2, g.m)])
        chk.check(p_plus == expected, "i'^{-1}(n1F) differs from p_+")
        for r in range(2):
            for c in range(2, g.m):
                img = maps.i_prime(elementary(r, c))
                chk.check(all(pos in set(maps.n1F_positions) for pos in img),
                          f"i'(p_+) left n1F at position ({r},{c})")
    return chk.report(n, details)


def verify_torsion_transfer(n: int, rng: object = None, trials: int = 0) -> Report:
    """tr(ι_τ̃ τ̃) = 0 on transfers of the path 𝔽-module (full polarized
    sweep), and the module-level torsion-freeness equivalence."""
    maps = build_maps(n, "path")
    g, gt = maps.g, maps.gt
    chk = _Checker()
    f_basis = module_F_path(n).basis_cochains()
    taus = [penrose.extract_blocks(transfer(c, maps)).tau for c in f_basis]
    nonzero = [(r, t) for r, t in enumerate(taus) if not t.is_zero()]
    pairs = 0
    for a, (r, t1) in enumerate(nonzero):
        for (s, t2) in nonzero[a:]:
            resid = penrose.tr_itau_tau_bilinear(t1, t2).add(
                penrose.tr_itau_tau_bilinear(t2, t1))
            pairs += 1
            chk.check(resid.is_zero(),
                      f"tr(ι_τ̃ τ̃) polarization nonzero at ({r},{s})")
    # pairs involving a vanishing τ̃ are trivially zero but still count
    chk.cases += len(taus) * (len(taus) + 1) // 2 - pairs

    # Forward implication: torsion-free source curvature is A-valued, and
    # i'(A) ⊆ p̃, so its transfer is p̃-valued (torsion-free target).
    for v in a_indices(g):
        img = maps.i_prime(g.basis_mat(v))
        chk.check(all(gt.degree_of_position(*pos) >= 0 for pos in img),
                  f"i'(A) transfer value left p̃ at basis {v}")
    # Backward implication: a B-valued source value whose image lies in p̃
    # lies in B ∩ h, and that space meets none of the q_{-1}^V value
    # directions, i.e. it is contained in q — the source torsion vanishes.
    b_idx = b_indices(g)
    rows = [[frac(maps.i_prime(g.basis_mat(v)).get(pos, 0)) for v in b_idx]
            for pos in gt.neg_positions]
    t_vectors = []
    for kv in kernel_basis(rows):
        vec = zero_vector(g.dim)
        for coeff, v in zip(kv, b_idx):
            vec[v] = coeff
        t_vectors.append(vec)
    t_space = Subspace(g.dim, t_vectors)
    b_space = coordinate_subspace(g, b_idx)
    chk.check(t_space == b_space.intersect(maps.h_space),
              "{x ∈ B : i'(x) ∈ p̃} differs from B ∩ h")
    q_space = coordinate_subspace(g, p_indices(g))
    chk.check(q_space.contains_subspace(t_space),
              "{x ∈ B : i'(x) ∈ p̃} has values outside q")
    return chk.report(n, {
        "F_dim": len(f_basis), "nonzero_tau": len(nonzero),
    })


def verify_harmonic_types(n: int, source: str) -> Report:
    """Typing of the degree-2 harmonic space for either source grading.

    For the path grading the harmonic space carries, besides the displayed
    torsion block q_1^E∧q_2⊗q_{-1}^V and curvature block q_1^V∧q_2⊗q_0, a
    third component supported on Λ²q_1^V — the obstruction to involutivity
    of the distribution V, which vanishes for the geometries under
    consideration.  The sweep checks that the three parts decompose the
    harmonic space exactly and that every harmonic element vanishing on
    Λ²(q_{-1}^V) lies in the two displayed blocks.
    """
    chk = _Checker()
    if source == "ag":
        data = penrose.check_harmonic_torsion_type(n)
        chk.cases = 1
        for msg in data["failures"]:
            chk.fail(str(msg))
        return chk.report(n, {
            "harmonic_dim": data["harmonic_dim"],
            "tau_dim": data["tau_dim"],
            "rho_dim": data["rho_dim"],
        })
    if source != "path":
        raise ValueError("source must be 'path' or 'ag'")
    g = graded_sl((1, 1, n))
    harm = hodge((1, 1, n), 2).ker_box
    v_values = [g.index_of_position[pos] for pos in g.neg_positions
                if pos[1] == 1]
    tau_amb = ChainModule.from_labels(
        "E-2-V", g, 2,
        [(T, v) for T in chain_tuples(g, 2)
         if _path_pair_type(n, T) == ("2", "E") for v in v_values])
    iota_amb = ChainModule.from_labels(
        "V-V-g", g, 2,
        [(T, v) for T in chain_tuples(g, 2)
         if _path_pair_type(n, T) == ("V", "V") for v in range(g.dim)])
    tau_part = harm.intersect(tau_amb, "tau-part")
    rho_part = harm.intersect(module_rho_path(n), "rho-part")
    iota_part = harm.intersect(iota_amb, "involutivity-part")
    chk.check(tau_part.dim + rho_part.dim + iota_part.dim == harm.dim,
              "harmonic space is not the sum of its three typed parts")
    chk.check(tau_part.sum_with(rho_part).sum_with(iota_part).same_space(harm),
              "typed parts do not span the harmonic space")
    involutive = harm.intersect(module_no_vv_path(n), "involutive-part")
    chk.check(involutive.same_space(tau_part.sum_with(rho_part)),
              "harmonic elements vanishing on Λ²V leave the two displayed blocks")
    chk.check(rho_part.is_contained_in(module_rho_path(n, semisimple=True)),
              "ρ-part has values outside the semisimple part")
    return chk.report(n, {
        "harmonic_dim": harm.dim,
        "tau_dim": tau_part.dim,
        "rho_dim": rho_part.dim,
        "involutivity_dim": iota_part.dim,
    })
