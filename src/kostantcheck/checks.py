"""The named verification suites behind the command-line harness.

Each check is a function (n, rng, trials) → Report running one suite of
exact comparisons at size n; suites that sample nothing ignore rng and
trials, so :data:`CHECKS` maps names straight to the feff sweeps, and
:func:`run_check` stamps the name on the Report.  Sampling — where a suite
calls for random elements — draws integer coefficients in [−9, 9] from the
supplied seeded generator and combines echelon basis vectors of the
relevant submodule, so every run with the same (check, n, seed, trials)
performs bit-for-bit the same arithmetic.  Checks built on the
almost-Grassmannian source require n ≥ 3 and the rest n ≥ 2, as
``feff.SOURCES`` sets.  :func:`run_check` returns None for a cell outside
its check's window, and ranged drivers skip such cells silently; a cell
inside its window that ran no cases fails.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from typing import Callable

from .feff import (INFEASIBLE, SOURCES, Report, _ag_bracket_identity, _Checker,
                   ag_costar_check, build_maps, module_E, module_E2,
                   normalize_step, p_indices, transfer,
                   verify_beta_and_second_sum, verify_harmonic_types,
                   verify_lemma_path, verify_norm_modules,
                   verify_path_normality, verify_torsion_transfer,
                   verify_transfer_memberships)
from .gla import (grading_axiom_holds, graded_sl, jacobi_holds,
                  negative_part_generated_by_deg_minus_one, smat_add_into)
from .kostant import (Cochain, basis_cochain, chain_tuples, costar,
                      costar_two_form, homogeneity, homogeneity_split, hodge,
                      lift_classes, partial)
from .penrose import (TRACE_SIG, W_SIG, WP_SIG, EFTensor, extract_blocks,
                      ric_from_rho, rho_cochain, rho_from_ric, sym_split,
                      tr_W, tr_Wp, weyl_from_curvature)


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


def _random_combination(basis: list[Cochain], rng: random.Random) -> Cochain:
    if not basis:
        raise ValueError("cannot sample from an empty basis")
    out = Cochain(basis[0].alg, basis[0].deg)
    for c in basis:
        k = rng.randint(-9, 9)
        if k:
            out.add_into(c, k)
    return out


def _random_tensor(sig: tuple[str, ...], n: int, rng: random.Random) -> EFTensor:
    t = EFTensor(sig, n)
    for idx in itertools.product(*map(range, t.dims)):
        t.add_entry(idx, rng.randint(-9, 9))
    return t


# ---------------------------------------------------------------------------
# Structure and complex suites
# ---------------------------------------------------------------------------


def check_jacobi(n: int, rng: random.Random, trials: int) -> Report:
    """Jacobi identity, grading axiom, and generation of the negative part
    by its degree −1 piece, for all four gradings at size n."""
    chk = _Checker()
    for blocks in _configs(n):
        alg = graded_sl(blocks)
        d = alg.dim
        chk.cases += d * (d - 1) * (d - 2) // 6 - 1
        chk.check(jacobi_holds(alg.m), f"Jacobi identity failed for sl({alg.m})")
        chk.cases += d * d - 1
        chk.check(grading_axiom_holds(alg),
                  f"grading axiom failed for blocks {blocks}")
        chk.check(negative_part_generated_by_deg_minus_one(alg),
                  f"g_- not generated by g_-1 for blocks {blocks}")
    return chk.report(n)


def check_hodge(n: int, rng: random.Random, trials: int) -> Report:
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


def check_codiff_lift(n: int, rng: random.Random, trials: int) -> Report:
    """∂∘∂ = 0 (degrees 0–2) and ∂*∘∂* = 0 (degrees 2–3) on full chain
    bases; agreement of the degree-2 evaluation formula of ∂* with the
    wedge definition, including independence of the choice of lifts; and
    preservation of homogeneity by both operators."""
    chk = _Checker()
    for blocks in _chain_configs(n):
        alg = graded_sl(blocks)
        tag = _tag(blocks)
        for deg in (0, 1, 2):
            for T in chain_tuples(alg, deg):
                for v in range(alg.dim):
                    c = basis_cochain(alg, deg, T, v)
                    chk.check(partial(partial(c)).is_zero(),
                              f"{tag}: ∂∂ ≠ 0 at degree {deg}, {T}, value {v}")
        for deg in (2, 3):
            for T in chain_tuples(alg, deg):
                for v in range(alg.dim):
                    c = basis_cochain(alg, deg, T, v)
                    chk.check(costar(costar(c)).is_zero(),
                              f"{tag}: ∂*∂* ≠ 0 at degree {deg}, {T}, value {v}")
        p_mats = [alg.basis_mat(i) for i in p_indices(alg)]
        extras: list[dict] = [{} for _ in range(alg.dim_neg)]
        for extra in extras:
            for mat in p_mats:
                smat_add_into(extra, mat, rng.randint(-9, 9))
        plain, modified = lift_classes(alg), lift_classes(alg, extras)
        for T in chain_tuples(alg, 2):
            for v in range(alg.dim):
                c = basis_cochain(alg, 2, T, v)
                wedge = costar(c)
                chk.check(costar_two_form(c, plain) == wedge,
                          f"{tag}: evaluation formula differs from ∂* at {T}, {v}")
                chk.check(costar_two_form(c, modified) == wedge,
                          f"{tag}: ∂* depends on the lift at {T}, {v}")
                h = homogeneity(c)
                for img in (partial(c), wedge):
                    chk.check(set(homogeneity_split(img)) <= {h},
                              f"{tag}: homogeneity not preserved at {T}, {v}")
    return chk.report(n)


# ---------------------------------------------------------------------------
# Transfer suites
# ---------------------------------------------------------------------------


def check_ag_costar(n: int, rng: random.Random, trials: int) -> Report:
    """∂̃*(transfer κ) against the contraction block formula for seeded
    random elements of ker∂* over the (2, n) source, and once per cell the
    bracket identity on every basis pair.  A cell with no trials checks
    nothing, so it fails as every empty cell does."""
    maps = build_maps(n, "ag")
    basis = hodge((2, n), 2).ker_costar.basis_cochains()
    chk = _Checker()
    if trials:
        chk.merge(_ag_bracket_identity(n), "")
    for trial in range(trials):
        chk.merge(ag_costar_check(_random_combination(basis, rng), maps),
                  f"trial {trial}: ")
    return chk.report(n, {
        "trials": trials, "ker_costar_dim": len(basis),
    })


def check_normalize_step(n: int, rng: random.Random, trials: int) -> Report:
    """normalize_step on constructed preimages at both filtration levels and
    on codifferentials of transferred ker∂* samples: each ψ lies in its
    level, is feasible, and costar(partial(φ)) + ψ is exactly zero.  That
    residual cross-checks the block solve and ``block_product``; it shares
    the exterior table with the blocks, whose signs codiff-lift and the
    tier-1 reference operators check.  A ψ outside its level fails the
    trial, whose solve is skipped."""
    maps = build_maps(n, "ag")
    e_mod, e2_mod = module_E(n), module_E2(n)
    chk = _Checker()
    for level, mod in ((1, e_mod), (2, e2_mod)):
        basis = mod.basis_cochains()
        for trial in range(max(1, trials // 4)):
            phi0 = _random_combination(basis, rng)
            psi = costar(partial(phi0)).scale(-1)
            in_level = mod.contains(psi)
            chk.check(in_level,
                      f"level {level}: ∂̃*∂̃ left the filtration level at trial {trial}")
            if not in_level:
                continue
            phi = normalize_step(psi, level)
            chk.check(phi is not INFEASIBLE,
                      f"level {level}: constructed preimage infeasible at trial {trial}")
            if phi is INFEASIBLE:
                continue
            chk.check(costar(partial(phi)).add(psi).is_zero(),
                      f"level {level}: nonzero residual at trial {trial}")
            chk.check(mod.contains(phi),
                      f"level {level}: solution outside the level at trial {trial}")
    basis = hodge((2, n), 2).ker_costar.basis_cochains()
    for trial in range(max(1, trials // 2)):
        psi = costar(transfer(_random_combination(basis, rng), maps))
        in_level = e_mod.contains(psi)
        chk.check(in_level, f"transfer residual outside 𝔼 at trial {trial}")
        if not in_level:
            continue
        phi = normalize_step(psi, 1)
        chk.check(phi is not INFEASIBLE,
                  f"transfer residual infeasible at trial {trial}")
        if phi is not INFEASIBLE:
            chk.check(costar(partial(phi)).add(psi).is_zero(),
                      f"transfer residual not solved exactly at trial {trial}")
    return chk.report(n, {
        "E_dim": e_mod.dim, "E2_dim": e2_mod.dim,
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


def check_memberships(n: int, rng: random.Random, trials: int) -> Report:
    return _merge_sources(n, verify_transfer_memberships)


def check_rho_ricci(n: int, rng: random.Random, trials: int) -> Report:
    """The exact linear algebra of the Rho tensor: the Ricci map scales the
    four symmetry types by n, n+4, n+2, n+2; the two maps are mutual
    inverses; the Weyl block expansion agrees with the homology differential
    of the Rho cochain; and the trace corrections of the expansion are
    2P − P^A_{B'}{}^B_{A'} and −nP + P^B_{A'}{}^A_{B'}."""
    chk = _Checker()
    alg = graded_sl((2, n))
    zero_w, zero_wp = EFTensor(W_SIG, n), EFTensor(WP_SIG, n)
    for trial in range(trials):
        p = _random_tensor(TRACE_SIG, n, rng)
        parts = sym_split(p)
        chk.check(parts.total() == p,
                  f"symmetry components do not sum back at trial {trial}")
        for comp, scalar in ((parts.sym_sym, n), (parts.skew_skew, n + 4),
                             (parts.sym_skew, n + 2), (parts.skew_sym, n + 2)):
            chk.check(ric_from_rho(comp, n) == comp.scale(scalar),
                      f"Ricci map eigen-scalar {scalar} failed at trial {trial}")
        chk.check(rho_from_ric(ric_from_rho(p, n), n) == p,
                  f"P → Ric → P round-trip failed at trial {trial}")
        ric = _random_tensor(TRACE_SIG, n, rng)
        chk.check(ric_from_rho(rho_from_ric(ric, n), n) == ric,
                  f"Ric → P → Ric round-trip failed at trial {trial}")
        w, wp = weyl_from_curvature(zero_w, zero_wp, p)
        blocks = extract_blocks(partial(rho_cochain(p, alg)))
        chk.check(blocks.tau.is_zero() and blocks.Y.is_zero(),
                  f"∂P has values outside g_0 at trial {trial}")
        chk.check(blocks.W == w and blocks.Wp == wp,
                  f"Weyl expansion differs from ∂P at trial {trial}")
        chk.check(tr_W(w) == p.scale(2).sub(p.swap(1, 3)),
                  f"tr(W) correction failed at trial {trial}")
        chk.check(tr_Wp(wp) == p.scale(-n).add(p.swap(0, 2)),
                  f"tr(W') correction failed at trial {trial}")
        r_e = _random_tensor(W_SIG, n, rng)
        r_f = _random_tensor(WP_SIG, n, rng)
        w2, wp2 = weyl_from_curvature(r_e, r_f, p)
        chk.check(w2 == r_e.add(w) and wp2 == r_f.add(wp),
                  f"Weyl expansion is not affine in the curvatures at trial {trial}")
    return chk.report(n, {"trials": trials})


def check_harmonic_types(n: int, rng: random.Random, trials: int) -> Report:
    return _merge_sources(n, verify_harmonic_types)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: check name → (smallest applicable n, runner (n, rng, trials) → Report).
CHECKS: dict[str, tuple[int, Callable[[int, random.Random, int], Report]]] = {
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

    The generator is seeded from the full cell identity so that cells are
    independent of execution order and of each other.  The returned Report
    carries the check name.  A cell that ran no cases is reported as a
    failure, never as a pass.
    """
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}")
    min_n, runner = CHECKS[name]
    if n < min_n:
        return None
    rng = random.Random(f"{seed}:{name}:{n}")
    rep = replace(runner(n, rng, trials), name=name)
    if not rep.cases:
        rep = replace(rep, failures=[*rep.failures, "the cell ran no cases"],
                      failed=rep.failed + 1)
    return rep
