"""Acceptance gate: the eleven exact-arithmetic criteria, one test each.

Every comparison below is an exact equality of rationals, subspaces (in
reduced echelon form), or cochains — there is no tolerance anywhere.  Each
test prints one summary line on success; a failing criterion shows up as a
failing test.

The eleven criteria:

 1. structure suite      — Jacobi + grading axiom, sl(m), m ∈ {4..7}, < 10 s
 2. complex suite        — ∂∂ = 0, ∂*∂* = 0, lift-independence, homogeneity,
                           exhaustive per configuration, < 60 s each
 3. Hodge suite          — exact three-way decomposition and refinements
 4. harmonic typing      — block types of the degree-2 harmonic spaces,
                           τ-dimension oracle 4·(n·C(n,2) − n)
 5. lemma (path source)  — 𝔽/𝔼 insertion behaviour and harmonic containments,
                           exhaustive at n = 2..4 with pinned case counts
 6. path normality       — ∂̃*(transfer φ) = α∘(∂*φ)∘π with the exact defect
                           locus, full constrained-module basis
 7. AG costar formula    — ∂̃*(transfer κ) = single-block formula on seeded
                           ker ∂* samples; vanishing ⟺ contraction vanishing
 8. normalization        — module stability/bijections; normalize_step on
                           transfer residuals and constructed preimages
 9. transfer properties  — polarized tr(ι_τ̃ τ̃) = 0 sweep and membership
                           identities
10. Rho–Ricci suite      — symmetry-type eigen-scalars n, n+4, n+2, n+2;
                           round-trips; block formulas against ∂
11. CLI determinism      — byte-identical JSON on repeated identical runs

Criterion 6 note: the displayed identity holds literally on the curvature
module 𝔽 and acquires an explicit, machine-derived correction term on the
rest of the constrained module; the sweep verifies the corrected identity
on the full basis (strictly stronger than the literal form where that form
holds) and pins the exact number of basis elements where the literal form
fails.  Criterion 5's harmonic containment carries the analogous exact
refinement (the ker □ form of the 𝔮_0^{ss} statement).
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from fractions import Fraction

from kostantcheck import cli
from kostantcheck.checks import run_check
from kostantcheck.feff import (
    INFEASIBLE,
    ag_costar_check,
    build_maps,
    module_E,
    module_E2,
    normalize_step,
    transfer,
    verify_harmonic_types,
    verify_lemma_path,
    verify_norm_modules,
    verify_path_normality,
    verify_torsion_transfer,
    verify_transfer_memberships,
)
from kostantcheck.gla import (
    elementary,
    graded_sl,
    grading_axiom_holds,
    jacobi_holds,
    negative_part_generated_by_deg_minus_one,
)
from kostantcheck.kostant import (
    Cochain,
    chain_tuples,
    costar,
    costar_two_form,
    hodge,
    homogeneity_split,
    lift_classes,
    partial,
)
from kostantcheck.penrose import TRACE_SIG, EFTensor, ric_from_rho, rho_from_ric, sym_split

F = Fraction

CONFIGS = [(1, 1, 2), (1, 1, 3), (2, 3), (2, 4)]


def basis_cochains(alg, deg):
    for T in chain_tuples(alg, deg):
        for v in range(alg.dim):
            yield Cochain(alg, deg, {T: alg.basis_mat(v)})


def combine(basis, rng: random.Random, picks: int = 5) -> Cochain:
    out = basis[0].scale(0)
    for i in rng.sample(range(len(basis)), min(picks, len(basis))):
        out = out.add(basis[i], rng.randint(1, 4))
    return out


def test_criterion_01_structure_suite() -> None:
    start = time.perf_counter()
    checked = 0
    for m in range(4, 8):
        assert jacobi_holds(m), f"Jacobi identity failed for sl({m})"
        # the four grading configurations of sl(m): (1,1,n), (2,n), the
        # (2,n+1) target shape, and the fine (2,1,n) shape, deduplicated
        # to distinct block tuples
        shapes = {(1, 1, m - 2), (2, m - 2), (2, (m - 3) + 1), (2, 1, m - 3)}
        for blocks in sorted(shapes):
            alg = graded_sl(blocks)
            assert grading_axiom_holds(alg), f"grading axiom failed for {blocks}"
            assert negative_part_generated_by_deg_minus_one(alg), blocks
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"structure suite took {elapsed:.1f}s"
    print(f"[criterion 01] structure suite: PASS — sl(4..7), "
          f"{checked} graded configurations, {elapsed:.2f}s")


def test_criterion_02_complex_suite() -> None:
    times = []
    for blocks in CONFIGS:
        start = time.perf_counter()
        alg = graded_sl(blocks)
        lift_a = [elementary(0, alg.m - 1)] * alg.dim_neg
        lift_b = [{(0, 0): F(x + 1), (1, 1): F(-(x + 1))}
                  for x in range(alg.dim_neg)]
        for deg in (0, 1, 2):
            for c in basis_cochains(alg, deg):
                assert partial(partial(c)).is_zero(), (blocks, deg)
        for deg in (2, 3):
            for c in basis_cochains(alg, deg):
                assert costar(costar(c)).is_zero(), (blocks, deg)
        lifts = (None, lift_a, lift_b)
        tables = [lift_classes(alg, lift) for lift in lifts]
        for c in basis_cochains(alg, 2):
            base = costar(c)
            for table in tables:
                assert costar_two_form(c, table) == base, blocks
        for deg, op in ((1, partial), (2, partial), (2, costar), (3, costar)):
            for c in basis_cochains(alg, deg):
                (h,) = homogeneity_split(c)
                assert set(homogeneity_split(op(c))) <= {h}, (blocks, deg)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"complex suite for {blocks} took {elapsed:.1f}s"
        times.append(f"{blocks}:{elapsed:.1f}s")
    print(f"[criterion 02] complex suite: PASS — {', '.join(times)}")


def test_criterion_03_hodge_suite() -> None:
    dims = []
    for blocks in CONFIGS:
        hd = hodge(blocks, 2)
        parts = (hd.im_costar, hd.ker_box, hd.im_partial)
        for i in range(3):
            for j in range(i + 1, 3):
                assert parts[i].intersect(parts[j]).dim == 0, blocks
        total = parts[0].sum_with(parts[1]).sum_with(parts[2])
        assert total.dim == hd.total_dim == sum(p.dim for p in parts), blocks
        # ker □ recomputed independently as ker ∂ ∩ ker ∂*
        meet = hd.ker_partial.intersect(hd.ker_costar)
        assert hd.ker_box.same_space(meet), blocks
        assert hd.ker_costar.same_space(hd.im_costar.sum_with(hd.ker_box)), blocks
        assert hd.im_costar.intersect(hd.ker_box).dim == 0, blocks
        assert hd.ker_partial.same_space(hd.ker_box.sum_with(hd.im_partial)), blocks
        assert hd.ker_box.intersect(hd.im_partial).dim == 0, blocks
        dims.append(f"{blocks}:{hd.total_dim}="
                    f"{parts[0].dim}+{parts[1].dim}+{parts[2].dim}")
    print(f"[criterion 03] Hodge suite: PASS — {', '.join(dims)}")


def test_criterion_04_harmonic_typing() -> None:
    for n in (2, 3):
        rep = verify_harmonic_types(n, "path")
        assert rep.ok, rep.failures
    tau_dims = {}
    for n in (3, 4):
        rep = verify_harmonic_types(n, "ag")
        assert rep.ok, rep.failures
        tau_dims[n] = rep.details["tau_dim"]
        oracle = 4 * (n * (n * (n - 1) // 2) - n)
        assert rep.details["tau_dim"] == oracle, (n, rep.details)
    assert tau_dims[3] == 24
    print(f"[criterion 04] harmonic typing: PASS — path n=2,3; AG n=3,4; "
          f"τ-dims {tau_dims}")


def test_criterion_05_lemma_path() -> None:
    cases = {}
    for n in (2, 3, 4):
        start = time.perf_counter()
        rep = verify_lemma_path(n)
        assert rep.ok, rep.failures
        cases[n] = rep.cases
    elapsed = time.perf_counter() - start
    assert cases == {2: 4948, 3: 85826, 4: 689002}, cases
    print(f"[criterion 05] lemma (path source): PASS — exhaustive, "
          f"cases {cases}, n = 4 in {elapsed:.2f}s")


def test_criterion_06_path_normality() -> None:
    expected_defects = {2: (5, 2), 3: (12, 3), 4: (22, 4)}
    cases = {}
    for n in (2, 3, 4):
        rep = verify_path_normality(n)
        assert rep.ok, rep.failures
        got = (rep.details["literal_defects"],
               rep.details["bracket_literal_defects"])
        assert got == expected_defects[n], (n, rep.details)
        # The pattern behind the frozen table, which holds at n = 5, 6 too.
        assert got == ((3 * n * n - n) // 2, n), (n, rep.details)
        cases[n] = rep.cases
    print(f"[criterion 06] path normality: PASS — corrected identity on the "
          f"full constrained basis, literal-failure loci pinned exactly, "
          f"cases {cases}")


def test_criterion_06_path_normality_n5() -> None:
    n = 5
    rep = verify_path_normality(n)
    assert rep.ok, rep.failures
    got = (rep.details["literal_defects"], rep.details["bracket_literal_defects"])
    assert got == (35, 5) == ((3 * n * n - n) // 2, n), rep.details
    print(f"[criterion 06] path normality at n = 5: PASS — literal-failure loci "
          f"{got}, cases {rep.cases}")


def test_criterion_07_ag_costar() -> None:
    sampled = {}
    for n in (3, 4):
        maps = build_maps(n, "ag")
        basis = hodge((2, n), 2).ker_costar.basis_cochains()
        rng = random.Random(f"acceptance-7:{n}")
        nonzero = 0
        for _ in range(20):
            rep = ag_costar_check(combine(basis, rng), maps)
            assert rep.ok, rep.failures
            assert rep.details["lhs_zero"] == (
                rep.details["contraction_entries"] == 0)
            nonzero += not rep.details["lhs_zero"]
        zero_rep = ag_costar_check(Cochain(maps.g, 2), maps)
        assert zero_rep.ok and zero_rep.details["lhs_zero"]
        sampled[n] = f"20 samples ({nonzero} with nonzero contraction)"
    print(f"[criterion 07] AG costar formula: PASS — {sampled}")


def test_criterion_08_normalization() -> None:
    for n in (3, 4):
        rep = verify_norm_modules(n)
        assert rep.ok, rep.failures
    maps = build_maps(3, "ag")
    e_mod, e2_mod = module_E(3), module_E2(3)
    basis = hodge((2, 3), 2).ker_costar.basis_cochains()
    rng = random.Random("acceptance-8")
    exact = 0
    for _ in range(5):
        psi = costar(transfer(combine(basis, rng), maps))
        phi = normalize_step(psi, 1)
        assert phi is not INFEASIBLE
        residual = costar(partial(phi)).add(psi)
        assert e2_mod.contains(residual)
        exact += residual.is_zero()
    for level, mod in ((1, e_mod), (2, e2_mod)):
        nxt = e2_mod if level == 1 else None
        for _ in range(3):
            psi = costar(partial(combine(mod.basis_cochains(), rng))).scale(-1)
            phi = normalize_step(psi, level)
            assert phi is not INFEASIBLE and mod.contains(phi)
            residual = costar(partial(phi)).add(psi)
            assert residual.is_zero() if nxt is None else nxt.contains(residual)
    print(f"[criterion 08] normalization: PASS — modules n=3,4; 5 transfer "
          f"residuals ({exact} exactly zero) and 6 constructed preimages")


def test_criterion_09_transfer_properties() -> None:
    polarized = {}
    for n in (2, 3):
        rep = verify_torsion_transfer(n)
        assert rep.ok, rep.failures
        polarized[n] = rep.cases
    for n in (2, 3, 4):
        rep = verify_transfer_memberships(n, "path")
        assert rep.ok, rep.failures
    for n in (3, 4):
        rep = verify_transfer_memberships(n, "ag")
        assert rep.ok, rep.failures
    print(f"[criterion 09] transfer properties: PASS — polarized sweeps "
          f"{polarized}; memberships path n=2..4, AG n=3..4")


def test_criterion_10_rho_ricci() -> None:
    for n in (3, 4):
        rep = run_check("rho-ricci", n, 1, 20)
        assert rep is not None and rep.ok, rep and rep.failures
        rng = random.Random(f"acceptance-10:{n}")
        t = EFTensor(TRACE_SIG, n)
        for idx in ((0, 0, 0, 0), (1, 2 % n, 0, 0), (0, 1, 1, 2 % n)):
            t.add_entry(idx, rng.randint(1, 9))
        parts = sym_split(t)
        for comp, scalar in ((parts.sym_sym, n), (parts.skew_skew, n + 4),
                             (parts.sym_skew, n + 2), (parts.skew_sym, n + 2)):
            assert ric_from_rho(comp, n) == comp.scale(scalar)
        assert rho_from_ric(ric_from_rho(t, n), n) == t
        assert ric_from_rho(rho_from_ric(t, n), n) == t
    print("[criterion 10] Rho-Ricci suite: PASS — eigen-scalars n, n+4, "
          "n+2, n+2; round-trips; block formulas vs ∂, n=3,4")


#: (check, n, status, cases_run) of `verify --check all --n-min 2 --n-max 3
#: --seed 1`, in report order.
PINNED_ROWS = [
    ("jacobi", 2, "PASS", 6564), ("jacobi", 3, "PASS", 20744),
    ("hodge", 2, "PASS", 14), ("hodge", 3, "PASS", 21),
    ("codiff-lift", 2, "PASS", 3948), ("codiff-lift", 3, "PASS", 15019),
    ("bianchi-path", 2, "PASS", 4948), ("bianchi-path", 3, "PASS", 85826),
    ("path-normality", 2, "PASS", 408), ("path-normality", 3, "PASS", 1430),
    ("beta-secondsum", 2, "PASS", 127), ("beta-secondsum", 3, "PASS", 318),
    ("ag-costar", 3, "PASS", 204), ("norm-modules", 3, "PASS", 707),
    ("normalize-step", 3, "PASS", 70),
    ("memberships", 2, "PASS", 28), ("memberships", 3, "PASS", 79),
    ("torsion-transfer", 2, "PASS", 1900), ("torsion-transfer", 3, "PASS", 28936),
    ("rho-ricci", 3, "PASS", 240),
    ("harmonic-types", 2, "PASS", 4), ("harmonic-types", 3, "PASS", 246),
]


def test_criterion_11_cli_determinism(capsys) -> None:
    argv = ["verify", "--check", "all", "--n-min", "2", "--n-max", "3",
            "--seed", "1", "--format", "json"]
    rc1 = cli.main(argv)
    out1 = capsys.readouterr().out
    rc2 = cli.main(argv)
    out2 = capsys.readouterr().out
    assert rc1 == 0 and rc2 == 0
    assert out1 == out2, "repeated runs are not byte-identical"
    assert hashlib.sha256(out1.encode()).hexdigest() == (
        "1408ab1da4ed348bbcdbaaaaa68807ac0bac8030608c828ec87946208666ceae")
    rows = json.loads(out1)
    assert len(rows) == 22
    assert [(r["check"], r["n"], r["status"], r["cases_run"]) for r in rows] == PINNED_ROWS
    assert all(r["status"] == "PASS" for r in rows)
    assert all(r["wall_time_ms"] == 0 for r in rows)
    print(f"[criterion 11] CLI determinism: PASS — {len(rows)} report rows, "
          f"byte-identical JSON, exit 0")
