"""The named verification suites behind the command-line harness.

Each check is a function n → Report running one suite of exact comparisons
at size n, and :data:`CHECKS` maps names straight to those sweeps; the
single-source ones live in ``feff``.  Nothing is sampled: an identity that
is linear in its input is checked on every element of a basis, which by
linearity proves it on the whole space, so a cell's report depends on
(check, n) alone.  :func:`run_check` stamps the name on the Report.  Checks
built on the almost-Grassmannian source require n ≥ 3 and the rest n ≥ 2,
as ``feff.SOURCES`` sets.  :func:`run_check` returns None for a cell outside
its check's window, and ranged drivers skip such cells silently; a cell
inside its window that ran no cases fails.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from typing import Callable

from .feff import (INFEASIBLE, SOURCES, Report, _ag_bracket_identity, _Checker,
                   _normalize_systems, ag_costar_check, build_maps, module_E, module_E2,
                   normalize_step, p_indices, transfer,
                   verify_beta_and_second_sum, verify_harmonic_types,
                   verify_lemma_path, verify_norm_modules,
                   verify_path_normality, verify_torsion_transfer,
                   verify_transfer_memberships)
from .gla import (Weight, grading_axiom_holds, graded_sl, jacobi_holds,
                  negative_part_generated_by_deg_minus_one, smat_bracket)
from .kostant import (ChainModule, Cochain, basis_cochain, block_product,
                      block_structure, blocked_coords, chain_tuples,
                      cochain_from_block, costar, costar_two_form, homogeneity,
                      homogeneity_split, hodge, operator_block, partial)
from .penrose import (TRACE_SIG, W_SIG, WP_SIG, EFTensor, extract_blocks,
                      ric_from_rho, rho_cochain, rho_from_ric, sym_split,
                      tr_W, tr_Wp, weyl_from_curvature)
from .ratlin import Subspace


_PATH_N, _AG_N = SOURCES["path"][1], SOURCES["ag"][1]


def _configs(n: int) -> list[tuple[int, ...]]:
    """The four block gradings in play at size n: the path source, the
    almost-Grassmannian source, the common target, and its fine regrading."""
    return [blocks(n) for blocks, _ in SOURCES.values()] + [(2, n + 1), (2, 1, n)]


def _chain_configs(n: int) -> list[tuple[int, ...]]:
    """Gradings whose degree-2 chain complex the suites sweep: each source
    from its smallest n on, then the target."""
    return [blocks(n) for blocks, min_n in SOURCES.values() if n >= min_n] + [(2, n + 1)]


def _tag(blocks: tuple[int, ...]) -> str:
    return "-".join(str(b) for b in blocks)


# ---------------------------------------------------------------------------
# Structure and complex suites
# ---------------------------------------------------------------------------


def check_jacobi(n: int) -> Report:
    """Jacobi identity once for each of sl(n+2) and sl(n+3); the grading
    axiom and generation of g_- by g_-1 once for each of the four gradings."""
    chk = _Checker()
    algs = [graded_sl(blocks) for blocks in _configs(n)]
    for m in sorted({alg.m for alg in algs}):
        chk.check(jacobi_holds(m), f"Jacobi identity failed for sl({m})")
    for alg in algs:
        chk.check(grading_axiom_holds(alg), f"grading axiom failed for blocks {alg.blocks}")
        chk.check(negative_part_generated_by_deg_minus_one(alg),
                  f"g_- not generated by g_-1 for blocks {alg.blocks}")
    return chk.report(n)


def check_hodge(n: int) -> Report:
    """Exactness of the degree-2 Hodge decomposition for every grading:
    the three-way sum is direct and full, the Laplacian kernel equals
    ker∂ ∩ ker∂* (two independent computations), and the refinements
    ker∂* = im∂* ⊕ ker□ and ker∂ = ker□ ⊕ im∂ hold as subspace equalities.
    Meets are decided by sums: U ∩ V = 0 iff dim(U + V) = dim U + dim V."""
    chk = _Checker()
    details: dict[str, object] = {}
    for blocks in _chain_configs(n):
        hd = hodge(blocks, 2)
        tag = _tag(blocks)
        costar_box = hd.im_costar.sum_with(hd.ker_box)
        box_partial = hd.ker_box.sum_with(hd.im_partial)
        chk.check(hd.im_costar.dim + hd.ker_box.dim + hd.im_partial.dim
                  == hd.total_dim,
                  f"{tag}: Hodge dimensions do not sum to the chain dimension")
        chk.check(costar_box.dim == hd.im_costar.dim + hd.ker_box.dim,
                  f"{tag}: im∂* meets ker□")
        chk.check(hd.im_costar.sum_with(hd.im_partial).dim
                  == hd.im_costar.dim + hd.im_partial.dim,
                  f"{tag}: im∂* meets im∂")
        chk.check(box_partial.dim == hd.ker_box.dim + hd.im_partial.dim,
                  f"{tag}: ker□ meets im∂")
        chk.check(hd.ker_box.is_contained_in(hd.ker_partial)
                  and hd.ker_box.is_contained_in(hd.ker_costar)
                  and hd.ker_partial.sum_with(hd.ker_costar).dim
                  == hd.ker_partial.dim + hd.ker_costar.dim - hd.ker_box.dim,
                  f"{tag}: ker□ differs from ker∂ ∩ ker∂*")
        chk.check(hd.ker_costar.same_space(costar_box),
                  f"{tag}: ker∂* differs from im∂* ⊕ ker□")
        chk.check(hd.ker_partial.same_space(box_partial),
                  f"{tag}: ker∂ differs from ker□ ⊕ im∂")
        details[f"{tag}_chain_dim"] = hd.total_dim
        details[f"{tag}_harmonic_dim"] = hd.ker_box.dim
    return chk.report(n, details)


def check_codiff_lift(n: int) -> Report:
    """∂*∘∂* = 0 (degrees 2–3) on every label, as the product of two
    operator blocks per weight block; ∂∘∂ = 0 (degrees 0–2) on every basis
    cochain; agreement of the degree-2 evaluation form of ∂* with the wedge
    definition; preservation of homogeneity by both operators; and, once
    per Z_i, the reason the evaluation form does not depend on the lifts:
    [Z_i, p] ⊆ p, so a lift moved inside p keeps every class it reads."""
    chk = _Checker()
    for blocks in _chain_configs(n):
        alg = graded_sl(blocks)
        tag = _tag(blocks)
        structures = [block_structure(blocks, deg) for deg in range(4)]
        # Degree 3 reuses the degree-2 ∂* blocks; [] where degree 2 has no labels (zero product).
        from_two: dict[Weight, list[list[int]]] = {}
        for deg in (2, 3):
            here, mid, low = structures[deg], structures[deg - 1], structures[deg - 2]
            for w in here.weights:
                labels = here.members(w)
                right = operator_block(here, mid, w)
                if deg == 2:
                    from_two[w] = right
                left = operator_block(mid, low, w) if deg == 2 else from_two.get(w, [])
                square = block_product(left, right, len(labels))
                nonzero = {col for row in square for col, x in enumerate(row) if x}
                for col, g in enumerate(labels):
                    chk.check(col not in nonzero,
                              f"{tag}: ∂*∂* ≠ 0 at degree {deg}, "
                              f"{here.tuples[g // alg.dim]}, value {g % alg.dim}")
        for deg in (0, 1, 2):
            for T in chain_tuples(alg, deg):
                for v in range(alg.dim):
                    c = basis_cochain(alg, deg, T, v)
                    image = partial(c)
                    chk.check(partial(image).is_zero(),
                              f"{tag}: ∂∂ ≠ 0 at degree {deg}, {T}, value {v}")
                    if deg == 2:
                        wedge = costar(c)
                        chk.check(costar_two_form(c) == wedge,
                                  f"{tag}: evaluation formula differs from ∂* at {T}, {v}")
                        h = homogeneity(c)
                        for img in (image, wedge):
                            chk.check(set(homogeneity_split(img)) <= {h},
                                      f"{tag}: homogeneity not preserved at {T}, {v}")
        p_mats = [alg.basis_mat(i) for i in p_indices(alg)]
        for i in range(alg.dim_neg):
            z = alg.z_mat(i)
            chk.check(not any(any(alg.class_mod_p(smat_bracket(z, e))) for e in p_mats),
                      f"{tag}: [Z_{i}, p] leaves p, so ∂* depends on the lift")
    return chk.report(n)


# ---------------------------------------------------------------------------
# Transfer suites
# ---------------------------------------------------------------------------


def check_ag_costar(n: int) -> Report:
    """∂̃*(transfer κ) against the contraction block formula on every basis
    cochain κ of ker∂* over the (2, n) source, which by linearity proves it
    on all of ker∂*, and once per cell the bracket identity on every basis
    pair."""
    maps = build_maps(n, "ag")
    basis = hodge((2, n), 2).ker_costar.basis_cochains()
    chk = _Checker()
    chk.merge(_ag_bracket_identity(n), "")
    for k, kappa in enumerate(basis):
        chk.merge(ag_costar_check(kappa, maps), f"ker∂* basis cochain {k}: ")
    return chk.report(n, {"ker_costar_dim": len(basis)})


def _check_solve(chk: _Checker, psi: Cochain, level: int, mod: ChainModule,
                 where: str) -> None:
    """normalize_step on ψ: feasible, costar(partial(φ)) + ψ exactly zero,
    and φ in the level's module ``mod``."""
    phi = normalize_step(psi, level)
    chk.check(phi is not INFEASIBLE, f"level {level}: infeasible at {where}")
    if phi is INFEASIBLE:
        return
    chk.check(costar(partial(phi)).add(psi).is_zero(),
              f"level {level}: nonzero residual at {where}")
    chk.check(mod.contains(phi), f"level {level}: solution outside the level at {where}")


def check_normalize_step(n: int) -> Report:
    """The normalization solve, on bases, so by linearity everywhere.

    In each weight block of each level the columns of normalize_step's
    system, ∂̃*∂̃ of the level's basis rows, lie in the level and have full
    rank: ∂̃*∂̃ is bijective there.  The transfer residuals ∂̃*(transfer κ)
    over the basis of ker∂* span 2n² dimensions, one per index triple of
    the contraction in ``ag_costar_check``.  On each basis vector of that
    span (skipped, and failed, if outside 𝔼) normalize_step is feasible,
    leaves costar(partial(φ)) + ψ zero and returns φ in 𝔼; level 2 solves
    once, on the sum of 𝔼⁽²⁾'s basis.  The residual shares the exterior
    table with the blocks, whose signs codiff-lift and tier-1 check."""
    maps = build_maps(n, "ag")
    e_mod, e2_mod = module_E(n), module_E2(n)
    chk = _Checker()
    for level in (1, 2):
        for w, space, mat in _normalize_systems(n, level):
            image = Subspace(space.ambient, zip(*mat))
            chk.check(space.contains_subspace(image),
                      f"level {level}: ∂̃*∂̃ leaves the level in block {w}")
            chk.check(image.dim == space.dim,
                      f"level {level}: ∂̃*∂̃ is singular on block {w}")
    residuals: dict[Weight, list[list[int | Fraction]]] = {}
    for kappa in hodge((2, n), 2).ker_costar.basis_cochains():
        for w, vec in blocked_coords(costar(transfer(kappa, maps))).items():
            residuals.setdefault(w, []).append(vec)
    span = {w: Subspace(len(vecs[0]), vecs) for w, vecs in sorted(residuals.items())}
    rank = sum(space.dim for space in span.values())
    chk.check(rank == 2 * n * n, f"transfer residuals span {rank} dimensions, not 2n²")
    for w, space in span.items():
        for k, row in enumerate(space.int_rows):
            where = f"residual span vector {k} of block {w}"
            in_e = e_mod.contains_block(w, row)
            chk.check(in_e, f"transfer residual outside 𝔼 at {where}")
            if in_e:
                _check_solve(chk, cochain_from_block(maps.gt, 1, w, row), 1, e_mod, where)
    _check_solve(chk, reduce(Cochain.add, e2_mod.basis_cochains()), 2, e2_mod,
                 "the sum of the 𝔼⁽²⁾ basis")
    return chk.report(n, {
        "E_dim": e_mod.dim, "E2_dim": e2_mod.dim, "transfer_residual_rank": rank,
    })


def _merge_sources(n: int, sweep: Callable[[int, str], Report]) -> Report:
    """Run a two-source sweep on every source whose window holds n, merging
    the reports with failures and details prefixed by the source."""
    chk = _Checker()
    details: dict[str, object] = {}
    for src, (_, min_n) in SOURCES.items():
        if n >= min_n:
            rep = sweep(n, src)
            chk.merge(rep, f"{src}: ")
            details.update((f"{src}_{key}", val) for key, val in rep.details.items())
    return chk.report(n, details)


def check_memberships(n: int) -> Report:
    return _merge_sources(n, verify_transfer_memberships)


def check_rho_ricci(n: int) -> Report:
    """The exact linear algebra of the Rho tensor, on every unit tensor,
    which by linearity proves each identity: the Ricci map scales the four
    symmetry types by n, n+4, n+2, n+2; the two maps are mutual inverses
    (P → Ric → P on every unit P, Ric → P → Ric on every unit Ric); the Weyl
    block expansion agrees with the homology differential of the Rho
    cochain; and the trace corrections of the expansion are
    2P − P^A_{B'}{}^B_{A'} and −nP + P^B_{A'}{}^A_{B'}.  The expansion is
    affine in the curvatures (R_E, R_F): one comparison on fixed dense
    tensors."""
    chk = _Checker()
    alg = graded_sl((2, n))
    zero_w, zero_wp = EFTensor(W_SIG, n), EFTensor(WP_SIG, n)
    for idx in itertools.product(*map(range, EFTensor(TRACE_SIG, n).dims)):
        unit = EFTensor(TRACE_SIG, n, {idx: 1})
        parts = sym_split(unit)
        chk.check(parts.total() == unit,
                  f"symmetry components do not sum back at unit {idx}")
        for comp, scalar in ((parts.sym_sym, n), (parts.skew_skew, n + 4),
                             (parts.sym_skew, n + 2), (parts.skew_sym, n + 2)):
            chk.check(ric_from_rho(comp, n) == comp.scale(scalar),
                      f"Ricci map eigen-scalar {scalar} failed at unit {idx}")
        chk.check(rho_from_ric(ric_from_rho(unit, n), n) == unit,
                  f"P → Ric → P round-trip failed at unit {idx}")
        chk.check(ric_from_rho(rho_from_ric(unit, n), n) == unit,
                  f"Ric → P → Ric round-trip failed at unit {idx}")
        w, wp = weyl_from_curvature(zero_w, zero_wp, unit)
        blocks = extract_blocks(partial(rho_cochain(unit, alg)))
        chk.check(blocks.tau.is_zero() and blocks.Y.is_zero(),
                  f"∂P has values outside g_0 at unit {idx}")
        chk.check(blocks.W == w and blocks.Wp == wp,
                  f"Weyl expansion differs from ∂P at unit {idx}")
        chk.check(tr_W(w) == unit.scale(2).sub(unit.swap(1, 3)),
                  f"tr(W) correction failed at unit {idx}")
        chk.check(tr_Wp(wp) == unit.scale(-n).add(unit.swap(0, 2)),
                  f"tr(W') correction failed at unit {idx}")
    p, r_e, r_f = (EFTensor(sig, n) for sig in (TRACE_SIG, W_SIG, WP_SIG))
    for t in (p, r_e, r_f):  # fixed and dense: the k-th index holds k + 1
        t.data = {idx: k + 1 for k, idx in enumerate(itertools.product(*map(range, t.dims)))}
    w, wp = weyl_from_curvature(zero_w, zero_wp, p)
    w2, wp2 = weyl_from_curvature(r_e, r_f, p)
    chk.check(w2 == r_e.add(w) and wp2 == r_f.add(wp),
              "Weyl expansion is not affine in the curvatures")
    return chk.report(n)


def check_harmonic_types(n: int) -> Report:
    return _merge_sources(n, verify_harmonic_types)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: check name → (smallest applicable n, sweep n → Report).
CHECKS: dict[str, tuple[int, Callable[[int], Report]]] = {
    "jacobi": (_PATH_N, check_jacobi),
    "hodge": (_PATH_N, check_hodge),
    "codiff-lift": (_PATH_N, check_codiff_lift),
    "bianchi-path": (_PATH_N, verify_lemma_path),
    "path-normality": (_PATH_N, verify_path_normality),
    "beta-secondsum": (_PATH_N, verify_beta_and_second_sum),
    "ag-costar": (_AG_N, check_ag_costar),
    "norm-modules": (_AG_N, verify_norm_modules),
    "normalize-step": (_AG_N, check_normalize_step),
    "memberships": (_PATH_N, check_memberships),
    "torsion-transfer": (_PATH_N, verify_torsion_transfer),
    "rho-ricci": (_AG_N, check_rho_ricci),
    "harmonic-types": (_PATH_N, check_harmonic_types),
}

CHECK_NAMES = tuple(CHECKS)


def run_check(name: str, n: int, seed: int, trials: int) -> Report | None:
    """Run one (check, n) cell; None when n is below the check's window.

    ``seed`` and ``trials`` are accepted and ignored: no check samples, so
    the cell depends on (name, n) alone.  The returned Report carries the
    check name.  A cell that ran no cases is reported as a failure, never
    as a pass.
    """
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}")
    min_n, sweep = CHECKS[name]
    if n < min_n:
        return None
    rep = replace(sweep(n), name=name)
    if not rep.cases:
        rep = replace(rep, failures=[*rep.failures, "the cell ran no cases"],
                      failed=rep.failed + 1)
    return rep
