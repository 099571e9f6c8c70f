"""The benchmark's workloads and the outputs each one must produce.

A sweep workload is a list of ``kostantcheck verify`` invocations
(check, n_min, n_max, trials) run in a fresh interpreter with cold caches.
The file-ops workload is a closed loop of single ``costar``/``transfer``
requests on generated files.  Why each workload exists, and which layer it
stresses, is written down in README.md next to this file.
"""

from __future__ import annotations

# The size window of every check, as documented in the project README.  The
# benchmark keeps its own copy so that a check silently dropping out of a
# window is a missing cell, not a smaller expectation.
MIN_N = {
    "jacobi": 2, "hodge": 2, "codiff-lift": 2, "bianchi-path": 2,
    "path-normality": 2, "beta-secondsum": 2, "ag-costar": 3,
    "norm-modules": 3, "normalize-step": 3, "memberships": 2,
    "torsion-transfer": 2, "rho-ricci": 3, "harmonic-types": 2,
}

SWEEPS: dict[str, list[tuple[str, int, int, int]]] = {
    # One cold pass over every family of checks, in one interpreter as a
    # user's sequence of verify commands would run: the whole check list over the n = 2 window, led by codiff-lift
    # (costar_two_form) and bianchi-path (insertion, class_mod_p); the
    # echelon-bound suites at n = 4 (Hodge blocks up to 34, the normalization
    # modules, the harmonic typing), led by ratlin; and the sampled suites at
    # n = 4, led by cochain accumulation in the samplers.
    "verify-sweep": [("all", 2, 2, 20),
                     ("hodge", 4, 4, 20), ("harmonic-types", 4, 4, 20),
                     ("norm-modules", 4, 4, 20),
                     ("ag-costar", 4, 4, 2), ("normalize-step", 4, 4, 2),
                     ("rho-ricci", 4, 4, 2)],
}

# Tiny sizes of the same code paths, for the self-test.
SMOKE_SWEEPS: dict[str, list[tuple[str, int, int, int]]] = {
    "verify-sweep": [("jacobi", 2, 2, 20), ("bianchi-path", 2, 2, 20),
                     ("hodge", 2, 2, 20), ("harmonic-types", 2, 2, 20),
                     ("ag-costar", 3, 3, 1), ("normalize-step", 3, 3, 1),
                     ("rho-ricci", 3, 3, 1)],
}

FILE_OPS = "file-ops"
NAMES = (*SWEEPS, FILE_OPS)

# file-ops inputs per (operation class, density); a schedule round runs each
# sparse input twice and each dense input once.  The mix is assumed, not
# taken from any record of requests: the 2:1 weighting keeps the median
# among the sparse operations and the 90th percentile among the dense ones,
# away from the sparse/dense boundary where a quantile would jump.
PER_CLASS = 4
SMOKE_PER_CLASS = 1
SPARSE_REPEATS = 2
# Traced and overhead passes over file-ops run this many schedule rounds.
TRACE_ROUNDS = 2


def sweep_plan(workload: str, smoke: bool) -> list[tuple[str, int, int, int]]:
    return (SMOKE_SWEEPS if smoke else SWEEPS)[workload]


def verify_argv(check: str, n_min: int, n_max: int, trials: int, seed: int) -> list[str]:
    return ["verify", "--check", check, "--n-min", str(n_min), "--n-max", str(n_max),
            "--seed", str(seed), "--trials", str(trials), "--format", "json"]


def expected_cells(check: str, n_min: int, n_max: int) -> list[tuple[str, int]]:
    """The (check, n) rows one verify invocation must report, in order."""
    names = MIN_N if check == "all" else (check,)
    return [(name, n) for name in names for n in range(n_min, n_max + 1)
            if n >= MIN_N[name]]
