"""Transfer maps between sl(n+2) and sl(n+3) and their verification harness.

Two parabolic sources embed into the (2, n+1) block grading of sl(n+3):
the path grading (1, 1, n) and the almost-Grassmannian grading (2, n).
The linear maps are, in 0-based matrix indices,

    i′ : sl(n+2) → sl(n+3)   rows 0↦{0}, 1↦{1,2}, a≥2↦{a+1};
                             columns 0↦0, 1↦1, b≥2↦b+1 (column 2 is zero),
    α  : sl(n+2) → sl(n+3)   insert a zero third row and column,
    β  : sl(n+3) → gl(n+2)   delete the third row, add column 2 into column 1,
    q  : i′(g)+ñ^{1,F} → sl(n+2)   delete the third row and column,
    π  : g̃/p̃ ↠ g/q          induced by inverting i′ modulo p̃; a relabeling
                             X̃^{j_of[s]} ↦ X^s, zero on the other X̃^j,
    π* : q_+ → p̃_+           the dual of π under the trace pairing.

Here ñ^{1,F} is spanned by the matrix positions in rows {0,1,2} and columns
≥ 3, and h = i′^{-1}(p̃).  π* is DEFINED by the duality
⟨Z, π(X̃)⟩ = ⟨π*(Z), X̃⟩ and computed by solving the pairing equations; the
resulting entry formula (a column shift by +1) is recorded as a checked
consequence on the maps object.

On top of the maps this module houses the named submodules (A, B, h and
the chain modules 𝔼, 𝔽, 𝔼⁽²⁾ of the normalization argument together with
their path-grading analogues), curvature transfer, and one verification
routine per transfer identity.  Each verify_* routine counts its cases
through one :class:`_Checker`, one case per exact comparison made, and
returns a Report of the case count, the failure count and the first
failures; the check registry stamps the name.  The harmonic typing of both
sources is one such routine, which reads the τ and ρ tensor types through
``penrose``'s block extraction.  The single-source sweeps take the
registry's (n, rng, trials) signature and ignore the last two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Callable, Hashable, Iterator, Sequence

from . import penrose
from .gla import (GradedSL, SparseMat, Weight, elementary, graded_sl,
                  smat_add_into, smat_bracket, smat_scale, smat_sub, smat_trace)
from .kostant import (ChainModule, Cochain, apply_insertion, block_product,
                      block_structure, blocked_coords, chain_tuples,
                      cochain_from_block, coordinate_subspace, costar, hodge,
                      index_positions, insertion_partners, insertion_table,
                      operator_block)
from .ratlin import Subspace, null_space, solve

#: Sentinel returned by :func:`normalize_step` when ∂̃*∂̃φ = −ψ has no
#: solution φ in the level; a singular weight block is the only way there.
INFEASIBLE = None


class MapConstructionError(ValueError):
    """A construction-time invariant of the transfer maps failed."""


@dataclass
class Report:
    """Outcome of one verification sweep; ``checks.run_check`` sets the name.
    ``failed`` counts every failure, ``failures`` keeps the first few, and
    the sweep passed exactly when nothing failed."""

    n: int
    cases: int
    failures: list[str] = field(default_factory=list)
    details: dict[str, object] = field(default_factory=dict)
    name: str = ""
    failed: int = 0

    @property
    def ok(self) -> bool:
        return not self.failed


class _Checker:
    """Accumulates exact comparisons for a Report: each :meth:`check` is one
    case, and :meth:`merge` adds the cases of a sub-sweep's own checker."""

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
        return Report(n=n, cases=self.cases, failures=self.failures,
                      details=details or {}, failed=self.failed)


def _unit(dim: int, i: int) -> list[int]:
    vec = [0] * dim
    vec[i] = 1
    return vec


def _entry_rows(mats: Sequence[SparseMat],
                positions: Sequence[tuple[int, int]]) -> list[list[int | Fraction]]:
    """One row per matrix position: the entry there of each matrix in turn."""
    return [[mat.get(pos, 0) for mat in mats] for pos in positions]


def _wedge_table(c1: Sequence[Fraction], c2: Sequence[Fraction]) -> dict[tuple[int, int], Fraction]:
    """c1∧c2 for two class vectors: the nonzero c1[s]·c2[t] − c1[t]·c2[s] by
    pair s < t, so that φ(c1, c2) = Σ table[(s, t)]·φ(X^s, X^t).

    Only pairs of the two supports contribute: c1[i]·c2[j] lands on (i, j)
    when i < j and on (j, i) with the opposite sign when i > j.  Reference:
    the formula over every pair, in ``tests/test_feff.py``.
    """
    support2 = [(j, v) for j, v in enumerate(c2) if v]
    out: dict[tuple[int, int], Fraction] = {}
    for i, u in enumerate(c1):
        if u:
            smat_add_into(out, {(min(i, j), max(i, j)): u * v if i < j else -(u * v)
                                for j, v in support2 if j != i})
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
        # class of x modulo the source parabolic.  An integral coefficient of
        # the solution is kept as an int, so that π*, Λ²π and the transfer
        # keep int values int.
        pi_cols: list[list[int | Fraction]] = []
        for j in range(gt.dim_neg):
            u = solve(neg_rows, _unit(gt.dim_neg, j))
            if u is None:
                raise MapConstructionError("pi is not surjective")
            pi_cols.append([v.numerator if v.denominator == 1 else v
                            for v in g.class_mod_p(g.from_coords(u))])
        # π is well defined on classes iff h, the kernel of neg_rows, lies in p.
        for k in self.h_space.rows:
            if any(g.class_mod_p(g.from_coords(k))):
                raise MapConstructionError("pi is not well defined on classes")
        self.pi_cols = pi_cols
        if Subspace(g.dim_neg, pi_cols).dim != g.dim_neg:
            raise MapConstructionError("pi is not surjective")
        # π relabels the quotient bases: its nonzero columns, in order, are the
        # unit classes X^0, X^1, … with the int 1.  So j_of[s], the j with
        # π(X̃^j) = X^s, increases, and Λ²π keeps pairs increasing.
        self.j_of = [j for j, col in enumerate(pi_cols) if any(col)]
        units = [pi_cols[j] for j in self.j_of]
        if units != [_unit(g.dim_neg, s) for s in range(g.dim_neg)] or any(
                type(col[s]) is not int for s, col in enumerate(units)):
            raise MapConstructionError("pi is not an order-keeping relabeling")
        pi_mat = [[pi_cols[j][s] for j in range(gt.dim_neg)]
                  for s in range(g.dim_neg)]
        self.pi_kernel = null_space(pi_mat, gt.dim_neg)
        expected_kernel = [(2, 1)] if source == "path" else [(2, 0), (2, 1)]
        if self.pi_kernel.dim != gt.dim_neg - g.dim_neg:
            raise MapConstructionError("pi kernel has unexpected dimension")
        if self.pi_kernel != Subspace(gt.dim_neg, [_unit(gt.dim_neg, gt.index_of_neg[p])
                                                   for p in expected_kernel]):
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
                pairing = img.get(tuple(reversed(gt.neg_positions[j])), 0)
                if pairing != pi_cols[j][s]:
                    raise MapConstructionError("duality pairing failed")

    # -- linear maps -------------------------------------------------------

    def i_prime(self, x: SparseMat) -> SparseMat:
        # α(x) plus a copy of row 1 in row 2, which α leaves empty.
        out = self.alpha(x)
        smat_add_into(out, {(2, b + (b >= 2)): v for (a, b), v in x.items() if a == 1})
        return out

    def alpha(self, x: SparseMat) -> SparseMat:
        return {(a + (a >= 2), b + (b >= 2)): v for (a, b), v in x.items()}

    def beta(self, xt: SparseMat) -> SparseMat:
        # Columns ≠ 2 land on distinct positions; column 2 adds into column 1.
        out = {(a - (a > 2), b - (b > 2)): v for (a, b), v in xt.items()
               if a != 2 and b != 2}
        smat_add_into(out, {(a - (a > 2), 1): v for (a, b), v in xt.items()
                            if a != 2 and b == 2})
        return out

    def qmap(self, xt: SparseMat) -> SparseMat:
        if not self._qmap_domain.contains(self.gt.coords(xt)):
            raise ValueError("qmap argument outside i'(g) + n1F")
        return {(a - (a > 2), b - (b > 2)): v for (a, b), v in xt.items()
                if a != 2 and b != 2}

    # -- quotient maps -----------------------------------------------------

    def pi_star(self, z: SparseMat) -> SparseMat:
        out: SparseMat = {}
        for pos, v in z.items():
            if self.g.degree_of_position(*pos) <= 0:
                raise ValueError("pi_star argument outside the positive part")
            smat_add_into(out, self.pi_star_pos[pos], v)
        return out

    # -- the bracket relation ------------------------------------------------

    def bracket_correction(self, z: SparseMat, w: SparseMat) -> SparseMat:
        """C(Z, W) = Σ_{b≥2} (W·Z)_{1b} Ẽ_{2,b+1}, with which
        [π*(Z), i′(W)] = α([Z, W]) − C(Z, W): row 1 of W·Z, columns b ≥ 2,
        moved to row 2 of the target by the duplicated second row of i′."""
        out: SparseMat = {}
        for (c, b), zv in z.items():
            wv = w.get((1, c))
            if wv and b >= 2:
                smat_add_into(out, {(2, b + 1): wv * zv})
        return out

    def bracket_pairs(self, values: Sequence[int]) -> Iterator[
            tuple[tuple[int, int], int, SparseMat, SparseMat, SparseMat]]:
        """(position of Z, v, [π*(Z), i′(W)], α([Z, W]), C(Z, W)) for every
        Z = E_ab over the positive positions of the source and every
        W = basis_mat(v) with v in ``values``, Z in the outer loop."""
        g = self.g
        for (a, b) in g.pos_positions:
            z = elementary(a, b)
            pz = self.pi_star(z)
            for v in values:
                w = g.basis_mat(v)
                yield ((a, b), v, smat_bracket(pz, self.i_prime(w)),
                       self.alpha(smat_bracket(z, w)), self.bracket_correction(z, w))


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


#: The pair types of the (1,1,n) grading's degree-2 tuples.
_PATH_PAIR_TYPES = (("2", "2"), ("2", "E"), ("2", "V"), ("E", "V"), ("V", "V"))


def _path_module(name: str, n: int,
                 values_by_pair_type: dict[tuple[str, str], Sequence[int]]) -> ChainModule:
    """⊕_T Z_T ⊗ span{basis_v : v ∈ values_by_pair_type[type of T]} in the
    degree-2 chains of the (1,1,n) grading; absent pair types are zero."""
    return ChainModule.from_values(
        name, graded_sl((1, 1, n)), 2,
        lambda T: values_by_pair_type.get(_path_pair_type(n, T), ()))


@lru_cache(maxsize=None)
def module_F_path(n: int) -> ChainModule:
    """𝔽 = (q_1^V∧q_2 ⊗ A) ⊕ (q_1^E∧q_2 ⊗ B) ⊕ (q_2∧q_2 ⊗ B)."""
    g = graded_sl((1, 1, n))
    a_idx, b_idx = a_indices(g), b_indices(g)
    return _path_module("F-path", n, {("2", "V"): a_idx, ("2", "E"): b_idx, ("2", "2"): b_idx})


@lru_cache(maxsize=None)
def module_E_path(n: int) -> ChainModule:
    """𝔼 = (q_1^V ⊕ q_2)∧q_2 ⊗ A."""
    a_idx = a_indices(graded_sl((1, 1, n)))
    return _path_module("E-path", n, {("2", "V"): a_idx, ("2", "2"): a_idx})


@lru_cache(maxsize=None)
def module_no_vv_path(n: int) -> ChainModule:
    """The chains with no Λ²q_1^V component."""
    every = range(graded_sl((1, 1, n)).dim)
    return _path_module("no-V-V", n, {tp: every for tp in _PATH_PAIR_TYPES if tp != ("V", "V")})


@lru_cache(maxsize=None)
def module_rho_path(n: int, semisimple: bool = False) -> ChainModule:
    """q_1^V∧q_2 ⊗ q_0, or ⊗ q_0^{ss} when ``semisimple``."""
    g = graded_sl((1, 1, n))
    values = q0ss_indices(g) if semisimple else q0_indices(g)
    return _path_module("V-2-q0ss" if semisimple else "V-2-q0", n, {("2", "V"): values})


@lru_cache(maxsize=None)
def module_constrained_path(n: int) -> ChainModule:
    """{φ ∈ Λ²q_+ ⊗ B : φ(q_{-1}^E, q_{-1}^V) = 0}."""
    b_idx = b_indices(graded_sl((1, 1, n)))
    return _path_module("normality-domain", n,
                        {tp: b_idx for tp in _PATH_PAIR_TYPES if tp != ("E", "V")})


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
    n2_dual, n1f = set(_n2_dual_indices(gt)), _n1f_value_indices(gt)
    return ChainModule.from_values("E-module", gt, 1, lambda T: n1f if T[0] in n2_dual else ())


@lru_cache(maxsize=None)
def module_E2(n: int) -> ChainModule:
    """𝔼⁽²⁾ = ñ_2 ⊗ ñ_2 = 𝔼 ∩ (p̃_1 ⊗ p̃_1)."""
    gt = graded_sl((2, n + 1))
    n2_dual, n2 = set(_n2_dual_indices(gt)), _n2_value_indices(gt)
    return ChainModule.from_values("E2-module", gt, 1, lambda T: n2 if T[0] in n2_dual else ())


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
    n1f, bracket = coordinate_subspace(gt, _n1f_value_indices(gt)), bracket_n1F_space(n)
    parts = []
    for T in chain_tuples(gt, 2):
        in_e = sum(1 for t in T if t in e_dual)
        if in_e < 2:
            parts.append((T, n1f if in_e else bracket))
    return ChainModule.from_tensor("F-module", gt, 2, parts)


def _constrained_module(module: ChainModule, name: str,
                        conditions: Callable[[tuple[int, ...], int],
                                             dict[Hashable, int | Fraction]]
                        ) -> ChainModule:
    """Kernel of linear conditions inside a ChainModule, weight block by block.

    ``conditions(T, v)`` returns the nonzero coefficients of the chain-basis
    element Z_T ⊗ basis_v in the conditions, keyed by condition.  Each
    block's kernel problem is the label-coefficient matrix (one row per
    condition that a label there meets, one column per label) times the
    module's basis rows, solved by one null space; a block whose basis meets
    no condition keeps its space.
    """
    structure = block_structure(module.alg.blocks, module.deg)
    spaces: dict[tuple[int, ...], Subspace] = {}
    for w in sorted(module.spaces):
        space = module.spaces[w]
        coeffs = [conditions(T, v) for T, v in structure.labels(w)]
        keys = sorted({key for cf in coeffs for key in cf})
        mat = block_product([[cf.get(key, 0) for cf in coeffs] for key in keys],
                            list(zip(*space.rows)), space.dim)
        if not any(map(any, mat)):
            spaces[w] = space
            continue
        sub = space.combinations(null_space(mat, space.dim))
        if sub.dim:
            spaces[w] = sub
    return ChainModule(name, module.alg, module.deg, spaces)


# ---------------------------------------------------------------------------
# Transfer
# ---------------------------------------------------------------------------


def transfer(kappa: Cochain, maps: EmbeddingMaps) -> Cochain:
    """κ̃(X̃, Ỹ) = i′(κ(π X̃, π Ỹ)) as a degree-2 cochain over the target.

    π relabels the quotient bases (``maps.j_of``), so each stored pair (s, t)
    of κ gives the one target pair (j_of[s], j_of[t]), increasing as j_of is,
    and every other target pair has a zero value.  Reference: κ evaluated on
    every pair of π columns, in ``tests/test_feff.py``.
    """
    if kappa.alg.blocks != maps.g.blocks or kappa.deg != 2:
        raise ValueError("cochain does not match the maps' source grading")
    j_of = maps.j_of
    out = Cochain(maps.gt, 2)
    for (s, t), u in kappa.data.items():
        out.add_term((j_of[s], j_of[t]), maps.i_prime(u))
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

    π relabels the quotient bases, so π(X̃^j) = X^s for j = j_of[s] and
    zero otherwise: each stored pair of φ with a nonzero (1,1) entry adds
    one term per V direction X^{(b,1)} among its two slots, at the target
    index of its other slot, with the sign that brings X^{(b,1)} to the
    second slot.  Reference: φ evaluated on the π column and the unit
    class, in ``tests/test_feff.py``.
    """
    neg, j_of = maps.g.neg_positions, maps.j_of
    out = Cochain(maps.gt, 1)
    for (s, t), u in phi.data.items():
        cf = u.get((1, 1))
        if not cf:
            continue
        if neg[t][1] == 1:
            out.add_term((j_of[s],), {(2, neg[t][0] + 1): cf}, -1)
        if neg[s][1] == 1:
            out.add_term((j_of[t],), {(2, neg[s][0] + 1): cf})
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
        for (s,), u in dphi.data.items():
            rhs.add_term((maps.j_of[s],), maps.alpha(u))
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
    for (a, b), v, lhs, rhs, corr in maps.bracket_pairs(b_indices(g)):
        chk.check(not smat_sub(lhs, smat_sub(rhs, corr)),
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


def _second_sum_table(g: GradedSL, cls: Sequence[Fraction]) -> dict[tuple[int, int], Fraction]:
    """The second sum X ↦ −Σ_i φ([Z_i, X̃] mod p, X^i) as one table, X̃ the
    lift of ``cls``: Σ_i −[Z_i, X̃]∧X^i over the :func:`_wedge_table` of each
    term, so that the sum is Σ table[(s, t)]·φ(X^s, X^t).  Reference: the sum
    evaluated term by term, in ``tests/test_feff.py``."""
    lift = g.lift_from_class(cls)
    out: dict[tuple[int, int], Fraction] = {}
    for i in range(g.dim_neg):
        bcls = g.class_mod_p(smat_bracket(g.z_mat(i), lift))
        if any(bcls):
            smat_add_into(out, _wedge_table(bcls, _unit(g.dim_neg, i)), -1)
    return out


def verify_beta_and_second_sum(n: int, rng: object = None, trials: int = 0) -> Report:
    """β([π*(Z), i′(W)]) = [Z, W] for all basis pairs, and the second-sum
    evaluation −Σ_i φ([Z_i, X], X^i): zero for X of degree ≥ −1 and equal to
    2 φ(X_E, X_V) for X = [X_E, X_V].

    A second sum is Σ table[(s, t)]·φ(X^s, X^t), so on φ = Z_T ⊗ basis_v it is
    table[T]·basis_v: the statement for T is the same for every value v, and
    each (table, T) is one case."""
    maps = build_maps(n, "path")
    g = maps.g
    chk = _Checker()
    for (a, b), v, lhs, _, _ in maps.bracket_pairs(range(g.dim)):
        zw = smat_bracket(elementary(a, b), g.basis_mat(v))
        chk.check(not smat_sub(maps.beta(lhs), zw),
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
    v_idx = [i for i, t in enumerate(_path_neg_types(n)) if t == "V"]
    deg1_tables = [(i, _second_sum_table(g, units[i])) for i in deg1]
    # [X_E, X_V] with its second-sum table and the table of 2·φ(X_E, X_V).
    ev_tables = [(iv, _second_sum_table(g, g.class_mod_p(smat_bracket(g.x_mat(e_idx),
                                                                      g.x_mat(iv)))),
                  smat_scale(_wedge_table(units[e_idx], units[iv]), 2))
                 for iv in v_idx]
    for T in chain_tuples(g, 2):
        for i, table in deg1_tables:
            chk.check(T not in table,
                      f"second sum nonzero on degree -1 direction {i} at {T}")
        for iv, table, want in ev_tables:
            chk.check(table.get(T, 0) == want.get(T, 0),
                      f"second sum mismatch for [X_E, X_V], V={iv}, at {T}")
    return chk.report(n)


def _insertion_sweep(chk: _Checker, basis: list[Cochain],
                     holds: Callable[[Cochain], bool], message: str) -> None:
    """Check ``holds(ι_φψ)`` on every pair (φ, ψ) of ``basis``, one case each.

    φ's class table is built once per φ.  A ψ outside φ's insertion partners
    has ι_φψ = 0 exactly, and 0 satisfies both the 𝔽-membership and the
    vanishing test, so that pair counts as a case decided without applying
    the table.
    """
    positions = index_positions(basis)
    for r, phi in enumerate(basis):
        table = insertion_table(phi)
        partners = insertion_partners(table, positions)
        chk.cases += len(basis) - len(partners)
        for s in partners:
            chk.check(holds(apply_insertion(table, basis[s])), message.format(r, s))


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
    _insertion_sweep(chk, f_basis, lambda ins: f_mod.contains(costar(ins)),
                     "insertion left F at pair ({},{})")
    _insertion_sweep(chk, e_basis, Cochain.is_zero,
                     "insertion nonzero on E pair ({},{})")
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


def _ag_bracket_identity(n: int) -> Report:
    """[π*(Z), i′(Φ)] = α([Z, Φ]) − C(Z, Φ) on every basis pair, with the
    shared correction of :meth:`EmbeddingMaps.bracket_correction`; on this
    source it is C(Z, Φ)_{2, 3+k} = Σ_c Φ_{1c} Z_{c, 2+k}."""
    maps = build_maps(n, "ag")
    chk = _Checker()
    for (a, b), v, lhs, rhs, corr in maps.bracket_pairs(range(maps.g.dim)):
        chk.check(not smat_sub(lhs, smat_sub(rhs, corr)),
                  f"bracket identity failed at Z=E{a}{b}, basis {v}")
    return chk.report(n)


def ag_costar_check(kappa: Cochain, maps: EmbeddingMaps | None = None) -> Report:
    """∂̃*(transfer κ) against the single-block formula
    −φ_J W^A_{A'}{}^I_{C'}{}^J_I ∘ π with φ = (0, 1), for κ ∈ ker ∂*."""
    blocks = kappa.alg.blocks
    if (len(blocks) != 2 or blocks[0] != 2 or kappa.deg != 2
            or (maps is not None and maps.g.blocks != blocks)):
        raise ValueError("cochain does not match the (2, n) source")
    n = blocks[1]
    if maps is None:
        maps = build_maps(n, "ag")
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
    for (a, ap, cp), v in contraction.items():
        rhs.add_term((maps.j_of[g.index_of_neg[(ap + 2, a)]],), {(2, 3 + cp): v}, -1)

    chk.check(lhs == rhs, "costar of the transfer differs from the block formula")
    chk.check(lhs.is_zero() == (not contraction),
              "vanishing of ∂̃*(transfer κ) does not match the contraction")
    chk.check(module_E(n).contains(lhs),
              "∂̃*(transfer κ) left the E-module")
    return chk.report(n, {
        "contraction_entries": len(contraction),
        "lhs_zero": lhs.is_zero(),
    })


def module_images(module: ChainModule, block: Callable[[Weight], Sequence[Sequence[int]]]
                  ) -> list[tuple[Weight, list[int | Fraction]]]:
    """(w, block(w)·b) for the canonical integer rows b of the module, in the
    order of :meth:`ChainModule.basis_cochains`."""
    out = []
    for w in sorted(module.spaces):
        rows = module.spaces[w].int_rows
        prod = block_product(block(w), list(zip(*rows)), len(rows))
        out.extend((w, [row[k] for row in prod]) for k in range(len(rows)))
    return out


def _images_rank(images: list[tuple[Weight, list[int | Fraction]]]) -> int:
    """The dimension of the span of the block vectors (w, vec)."""
    return sum(Subspace(len(vecs[0]), vecs).dim for vecs in
               ([v for u, v in images if u == w] for w in {w for w, _ in images}))


def verify_norm_modules(n: int, rng: object = None, trials: int = 0) -> Report:
    """Stability ∂̃𝔼 ⊆ 𝔽, ∂̃*𝔽 ⊆ 𝔼, the mutual bijections between
    im∂̃*∩𝔼 and im∂̃∩𝔽, im∂̃*∩𝔼 = 𝔼 and ∂̃*∂̃𝔼⁽²⁾ ⊆ 𝔼⁽²⁾ (so ∂̃*∂̃ is
    bijective on 𝔼 and on 𝔼⁽²⁾), and the defining-condition realizations
    of 𝔼, 𝔽."""
    maps = build_maps(n, "ag")
    g, gt = maps.g, maps.gt
    chk = _Checker()
    e_mod, f_mod, e2_mod = module_E(n), module_F(n), module_E2(n)
    here, above = block_structure(gt.blocks, 1), block_structure(gt.blocks, 2)
    up = lru_cache(maxsize=None)(lambda w: operator_block(here, above, w))
    down = lru_cache(maxsize=None)(lambda w: operator_block(above, here, w))

    for idx, (w, img) in enumerate(module_images(e_mod, up)):
        chk.check(f_mod.contains_block(w, img), f"∂E ⊄ F at basis element {idx}")
    for idx, (w, img) in enumerate(module_images(f_mod, down)):
        chk.check(e_mod.contains_block(w, img), f"∂*F ⊄ E at basis element {idx}")

    h1 = hodge(gt.blocks, 1)
    h2 = hodge(gt.blocks, 2)
    m1 = h1.im_costar.intersect(e_mod, "im∂*∩E")
    m2 = h2.im_partial.intersect(f_mod, "im∂∩F")
    chk.check(m1.dim == m2.dim, "dim(im∂*∩E) != dim(im∂∩F)")
    fwd = module_images(m1, up)
    for idx, (w, img) in enumerate(fwd):
        chk.check(m2.contains_block(w, img), f"∂(im∂*∩E) left im∂∩F at {idx}")
    fwd_rank = _images_rank(fwd)
    chk.check(fwd_rank == m1.dim, "∂ not injective on im∂*∩E")
    chk.check(fwd_rank == m2.dim, "∂(im∂*∩E) does not span im∂∩F")
    bwd = module_images(m2, down)
    for idx, (w, img) in enumerate(bwd):
        chk.check(m1.contains_block(w, img), f"∂*(im∂∩F) left im∂*∩E at {idx}")
    bwd_rank = _images_rank(bwd)
    chk.check(bwd_rank == m2.dim, "∂* not injective on im∂∩F")
    chk.check(bwd_rank == m1.dim, "∂*(im∂∩F) does not span im∂*∩E")
    # With the bijections above, im∂*∩E = E makes ∂̃*∂̃ bijective on E; with
    # ∂̃*∂̃E2 ⊆ E2 and injectivity it is bijective on E2 as well.
    chk.check(m1.same_space(e_mod), "im∂*∩E differs from E")
    # The columns of normalize_step's level-2 systems: ∂̃*∂̃ of E2's basis rows.
    e2_images = ((w, col) for w, _, mat in _normalize_systems(n, 2) for col in zip(*mat))
    for idx, (w, img) in enumerate(e2_images):
        chk.check(e2_mod.contains_block(w, img), f"∂*∂E2 ⊄ E2 at basis element {idx}")

    # condition-set realizations
    p_basis = p_indices(g)
    cls_p = Subspace(gt.dim_neg, [gt.class_mod_p(maps.i_prime(g.basis_mat(i)))
                                  for i in p_basis])
    cls_g = Subspace(gt.dim_neg, [gt.class_mod_p(maps.i_prime(g.basis_mat(i)))
                                  for i in range(g.dim)])

    n1f = _n1f_value_indices(gt)
    amb1 = ChainModule.from_values("p̃_+⊗n1F", gt, 1, lambda T: n1f)

    def resid_e(T: tuple[int], v: int) -> dict[tuple[int, int], Fraction]:
        return {(r, v): row[T[0]] for r, row in enumerate(cls_p.rows) if row[T[0]]}

    e_cond = _constrained_module(amb1, "E-conditions", resid_e)
    chk.check(e_cond.same_space(e_mod),
              "condition set {φ ∈ p̃_+⊗n1F : φ(i'(p)) = 0} differs from E")

    amb2 = ChainModule.from_tensor("Λ²p̃_+⊗[g̃,n1F]", gt, 2,
                                   ((T, bracket_n1F_space(n)) for T in chain_tuples(gt, 2)))
    n1f_idx = set(n1f)

    # ψ(i'p, i'p) = 0 on every coordinate, ψ(i'p, i'g) = 0 off n1F.
    rows_p = cls_p.rows
    pairs = ([((0, i1, i2), r1, r2) for i1, r1 in enumerate(rows_p)
              for i2, r2 in enumerate(rows_p) if i1 < i2]
             + [((1, i1, i2), r, s) for i1, r in enumerate(rows_p)
                for i2, s in enumerate(cls_g.rows)])

    # The pair T's coefficient in each condition's wedge table.
    table = {}
    for key, r, s in pairs:
        for st, cf in _wedge_table(r, s).items():
            table.setdefault(st, []).append((key, cf))

    def resid_f(T: tuple[int, int], v: int) -> dict[tuple[int, int, int, int], Fraction]:
        return {key + (v,): cf for key, cf in table.get(T, ())
                if key[0] == 0 or v not in n1f_idx}

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

    n2 = _n2_value_indices(gt)
    pos_valued = ChainModule.from_values("p̃_1-valued", gt, 1, lambda T: n2)
    chk.check(e_mod.intersect(pos_valued).same_space(e2_mod),
              "E ∩ (p̃_1⊗p̃_1) differs from E2")

    return chk.report(n, {
        "E_dim": e_mod.dim, "F_dim": f_mod.dim, "E2_dim": e2_mod.dim,
        "im_costar_cap_E": m1.dim, "im_partial_cap_F": m2.dim,
        "bracket_n1F_dim": bracket_n1F_space(n).dim,
    })


@lru_cache(maxsize=None)
def _normalize_systems(n: int, level: int) -> list[tuple[Weight, Subspace, list[list[int]]]]:
    """(w, the level's block space, ∂̃*∂̃ applied to its basis rows) for each
    weight block of 𝔼^{(level)}, in weight order: the matrices of
    :func:`normalize_step`, which depend on (n, level) alone."""
    dom = module_E(n) if level == 1 else module_E2(n)
    blocks = dom.alg.blocks
    here, above = block_structure(blocks, 1), block_structure(blocks, 2)
    out = []
    for w, space in sorted(dom.spaces.items()):
        # ∂̃*∂̃ on this weight block, applied to the level's basis rows.
        box = block_product(operator_block(above, here, w),
                            operator_block(here, above, w), here.block_dim(w))
        out.append((w, space, block_product(box, list(zip(*space.int_rows)), space.dim)))
    return out


def normalize_step(psi: Cochain, level: int) -> Cochain | None:
    """Solve ∂̃*∂̃φ = −ψ exactly for φ ∈ 𝔼^{(level)}, with 𝔼^{(1)} = 𝔼 and
    𝔼^{(2)} = ñ_2⊗ñ_2.

    One exact system per weight block of the level's module: the block's
    equations in the coefficients of the module's basis rows there, built
    once per (n, level).  ∂̃*∂̃ maps 𝔼 and 𝔼⁽²⁾ onto themselves bijectively
    (checked by ``norm-modules``), so every ψ of the level has a preimage.
    Returns the cochain φ, or INFEASIBLE (None) when some block's system
    has no solution.  ψ must lie in the level.
    """
    if level not in (1, 2):
        raise ValueError("level must be 1 or 2")
    alg = psi.alg
    if len(alg.blocks) != 2 or alg.blocks[0] != 2 or psi.deg != 1:
        raise ValueError("psi must be a degree-1 cochain over a (2, n+1) grading")
    n = alg.blocks[1] - 1
    dom = module_E(n) if level == 1 else module_E2(n)
    psi_blocks = blocked_coords(psi)
    if not all(dom.contains_block(w, vec) for w, vec in psi_blocks.items()):
        raise ValueError("psi outside the required filtration level")
    phi = Cochain(alg, 1)
    for w, space, mat in _normalize_systems(n, level):
        rhs = [-v for v in psi_blocks.get(w, [0] * space.ambient)]
        u = solve(mat, rhs)
        if u is None:
            return INFEASIBLE
        vec = [sum(c * x for c, x in zip(u, col) if c) for col in zip(*space.int_rows)]
        phi.add_into(cochain_from_block(alg, 1, w, vec))
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
    g_basis = [g.basis_mat(i) for i in range(g.dim)]
    h_direct = null_space(_entry_rows(g_basis, h_positions), g.dim)
    chk.check(maps.h_space == h_direct, "i'^{-1}(p̃) differs from h")
    parabolic = coordinate_subspace(g, p_indices(g))
    chk.check(parabolic.contains_subspace(maps.h_space),
              "h is not contained in the source parabolic")

    def preimage(allowed: set[tuple[int, int]]) -> Subspace:
        forbidden = [(r, c) for r in range(gt.m) for c in range(gt.m)
                     if (r, c) not in allowed]
        return null_space(_entry_rows(maps._images, forbidden), g.dim)

    # Rows 0–1, columns ≥ 2: q_1^V ⊕ q_2 for the path source, p_+ for the AG one.
    p_plus_space = coordinate_subspace(
        g, [g.index_of_position[(r, c)] for r in range(2) for c in range(2, g.m)])
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
        chk.check(fine_pos == p_plus_space,
                  "i'^{-1}(p̃_+) differs from q_1^V ⊕ q_2")
        details["positive_preimage_dim"] = fine_pos.dim
    else:
        w_vec = [0] * gt.m
        w_vec[2] = -1
        v_vec = [0] * gt.m
        v_vec[1], v_vec[2] = 1, -1

        # Ãw = 0 is column 2 of Ã; (vÃ)_c is row 1 minus row 2 of Ã.
        gt_basis = [gt.basis_mat(i) for i in range(gt.dim)]
        w_rows = _entry_rows(gt_basis, [(r, 2) for r in range(gt.m)])
        v_rows = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(
            _entry_rows(gt_basis, [(1, c) for c in range(gt.m)]),
            _entry_rows(gt_basis, [(2, c) for c in range(gt.m)]))]
        s1 = null_space(w_rows + v_rows[:3], gt.dim)
        s2 = null_space(w_rows + v_rows, gt.dim)
        chk.check(s1 == maps._qmap_domain,
                  "{Ã: Ãw = 0, vÃ ∈ (0,0,0,ℝⁿ)} differs from i'(g) + n1F")
        chk.check(s2 == maps.i_image, "{Ã: Ãw = 0, vÃ = 0} differs from i'(g)")
        details["stabilizer_dim"] = s1.dim
        details["annihilator_dim"] = s2.dim
        for pos in maps.n1F_positions:
            mat = elementary(*pos)
            image_w = [sum(mat.get((r, c), 0) * w_vec[c] for c in range(gt.m))
                       for r in range(gt.m)]
            chk.check(not any(image_w), f"n1F·w nonzero at position {pos}")
            v_image = [sum(v_vec[r] * mat.get((r, c), 0) for r in range(gt.m))
                       for c in range(gt.m)]
            chk.check(not any(v_image[:3]),
                      f"v·n1F outside (0,0,0,ℝⁿ) at position {pos}")
        chk.check(preimage(set(maps.n1F_positions)) == p_plus_space,
                  "i'^{-1}(n1F) differs from p_+")
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
    rows = _entry_rows([maps.i_prime(g.basis_mat(v)) for v in b_idx], gt.neg_positions)
    # The kernel in the coordinates of B, put back in the coordinates of g.
    t_space = Subspace(g.dim, [[dict(zip(b_idx, kv)).get(i, 0) for i in range(g.dim)]
                               for kv in null_space(rows, len(b_idx)).int_rows])
    b_space = coordinate_subspace(g, b_idx)
    chk.check(t_space == b_space.intersect(maps.h_space),
              "{x ∈ B : i'(x) ∈ p̃} differs from B ∩ h")
    q_space = coordinate_subspace(g, p_indices(g))
    chk.check(q_space.contains_subspace(t_space),
              "{x ∈ B : i'(x) ∈ p̃} has values outside q")
    return chk.report(n, {
        "F_dim": len(f_basis), "nonzero_tau": len(nonzero),
    })


def _check_ag_tensor_types(chk: _Checker, tau_part: ChainModule,
                           rho_part: ChainModule) -> None:
    """The tensor types of the two parts of the (2, n) harmonic space, five
    conditions on every basis cochain of each part, one case each: the
    τ-part is g_{-1}-valued of type (Sym²E⊗E*)_o ⊗ (Λ²F*⊗F)_o, the ρ-part
    sl(F)-valued of type Λ²E ⊗ Sym²F* ⊗ sl(F)."""
    for k, c in enumerate(tau_part.basis_cochains()):
        blocks = penrose.extract_blocks(c)
        tau, where = blocks.tau, f"τ-part basis cochain {k}"
        chk.check(blocks.W.is_zero() and blocks.Wp.is_zero() and blocks.Y.is_zero(),
                  f"{where} has values outside g_{{-1}}")
        chk.check(tau.swap(0, 2) == tau,
                  f"{where} is not symmetric in the E argument slots")
        chk.check(tau.swap(1, 3) == tau.scale(-1),
                  f"{where} is not skew in the F* argument slots")
        chk.check(tau.contract(0, 5).is_zero() and tau.contract(2, 5).is_zero(),
                  f"{where} is not trace-free over E")
        chk.check(tau.contract(4, 1).is_zero() and tau.contract(4, 3).is_zero(),
                  f"{where} is not trace-free over F")
    for k, c in enumerate(rho_part.basis_cochains()):
        blocks = penrose.extract_blocks(c)
        wp, where = blocks.Wp, f"ρ-part basis cochain {k}"
        chk.check(blocks.tau.is_zero() and blocks.Y.is_zero(),
                  f"{where} has values outside g_0")
        chk.check(blocks.W.is_zero(),
                  f"{where} has a nonzero E-endomorphism component")
        chk.check(wp.swap(0, 2) == wp.scale(-1),
                  f"{where} is not skew in the E argument slots")
        chk.check(wp.swap(1, 3) == wp,
                  f"{where} is not symmetric in the F* argument slots")
        chk.check(wp.contract(4, 5).is_zero(),
                  f"{where} has values that are not trace-free on F")


def verify_harmonic_types(n: int, source: str) -> Report:
    """Typing of the degree-2 harmonic space for either source grading.

    For both sources the typed parts (ker□ met with each typed ambient)
    have dimensions summing to dim ker□ and span it.  The (2, n) harmonic
    space is a τ-part with values in g_{-1} and a ρ-part with values in the
    degree-0 part, and :func:`_check_ag_tensor_types` checks their tensor
    types.  For the path grading the harmonic space carries, besides the
    displayed torsion block q_1^E∧q_2⊗q_{-1}^V and curvature block
    q_1^V∧q_2⊗q_0, a third component supported on Λ²q_1^V — the
    obstruction to involutivity of the distribution V, which vanishes for
    the geometries under consideration.  The sweep checks that every
    harmonic element vanishing on Λ²(q_{-1}^V) lies in the two displayed
    blocks, and that the ρ-part has semisimple values.
    """
    if source not in SOURCES:
        raise ValueError("source must be 'path' or 'ag'")
    blocks = SOURCES[source][0](n)
    g = graded_sl(blocks)
    harm = hodge(blocks, 2).ker_box
    if source == "path":
        v_values = [g.index_of_position[pos] for pos in g.neg_positions
                    if pos[1] == 1]
        ambients = {
            "tau": _path_module("E-2-V", n, {("2", "E"): v_values}),
            "rho": module_rho_path(n),
            "involutivity": _path_module("V-V-g", n, {("V", "V"): range(g.dim)}),
        }
    else:
        # The basis lists g_-, then g_+, then the degree-0 part.
        negative, degree_zero = range(g.dim_neg), range(2 * g.dim_neg, g.dim)
        ambients = {
            "tau": ChainModule.from_values("negative-valued", g, 2, lambda T: negative),
            "rho": ChainModule.from_values("degree-0-valued", g, 2, lambda T: degree_zero),
        }
    parts = {name: harm.intersect(amb, f"{name}-part") for name, amb in ambients.items()}
    chk = _Checker()
    chk.check(sum(part.dim for part in parts.values()) == harm.dim,
              "harmonic space is not the sum of its typed parts")
    spanned = reduce(ChainModule.sum_with, parts.values())
    chk.check(spanned.same_space(harm), "typed parts do not span the harmonic space")
    if source == "path":
        involutive = harm.intersect(module_no_vv_path(n), "involutive-part")
        chk.check(involutive.same_space(parts["tau"].sum_with(parts["rho"])),
                  "harmonic elements vanishing on Λ²V leave the two displayed blocks")
        chk.check(parts["rho"].is_contained_in(module_rho_path(n, semisimple=True)),
                  "ρ-part has values outside the semisimple part")
    else:
        _check_ag_tensor_types(chk, parts["tau"], parts["rho"])
    return chk.report(n, {"harmonic_dim": harm.dim,
                          **{f"{name}_dim": part.dim for name, part in parts.items()}})
