"""Seeded generator of cochain documents for the file-ops workload.

Every document is a traceless, rational, degree-2 cochain in the file format
that ``kostantcheck costar`` and ``kostantcheck transfer`` read.  The
generator knows only the format (a grading, the size of the g/p quotient
basis, strictly increasing index pairs, m×m matrices of rationals); it does
not import the program, so the program sees nothing but the files.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

# One file-operation class per (subcommand, source, grading).  ``costar`` runs
# on both source gradings and on the common (2, n+1) target grading.
OP_CLASSES: tuple[tuple[str, str | None, tuple[int, ...]], ...] = (
    ("costar", None, (1, 1, 3)),
    ("costar", None, (1, 1, 4)),
    ("costar", None, (2, 3)),
    ("costar", None, (2, 4)),
    ("costar", None, (2, 5)),
    ("transfer", "path", (1, 1, 3)),
    ("transfer", "path", (1, 1, 4)),
    ("transfer", "ag", (2, 3)),
    ("transfer", "ag", (2, 4)),
)
DENSITIES = ("sparse", "dense")


def quotient_dim(blocks: tuple[int, ...]) -> int:
    """Dimension of g/p: the positions strictly below the diagonal blocks."""
    return sum(blocks[i] * blocks[j]
               for i in range(len(blocks)) for j in range(i + 1, len(blocks)))


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 1, 2, 3)))


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def random_traceless(rng: random.Random, m: int) -> list[list[Fraction]]:
    """An m×m rational matrix with about half its entries nonzero and trace 0."""
    while True:
        mat = [[_rational(rng) if rng.random() < 0.5 else Fraction(0)
                for _ in range(m)] for _ in range(m)]
        mat[m - 1][m - 1] = -sum(mat[k][k] for k in range(m - 1))
        if any(v for row in mat for v in row):
            return mat


def make_document(rng: random.Random, blocks: tuple[int, ...], dense: bool) -> dict:
    """A degree-2 cochain on ``blocks``: every index pair when dense, else 1–3."""
    m = sum(blocks)
    pairs = list(itertools.combinations(range(quotient_dim(blocks)), 2))
    chosen = pairs if dense else sorted(rng.sample(pairs, rng.randint(1, 3)))
    return {
        "algebra": {"type": "sl", "m": m},
        "grading": {"blocks": list(blocks)},
        "degree": 2,
        "values": [{"indices": list(T),
                    "matrix": [[_fmt(v) for v in row] for row in random_traceless(rng, m)]}
                   for T in chosen],
    }


def generate_pool(seed: int, directory: str, per_class: int) -> list[dict]:
    """Write ``per_class`` documents for every (class, density) into
    ``directory`` and return the manifest: one entry per input file."""
    rng = random.Random(f"{seed}:file-ops-inputs")
    manifest = []
    for (op, source, blocks), density in itertools.product(OP_CLASSES, DENSITIES):
        for k in range(per_class):
            doc = make_document(rng, blocks, density == "dense")
            name = f"{op}-{source or 'any'}-{'-'.join(map(str, blocks))}-{density}-{k}.json"
            path = os.path.join(directory, name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            manifest.append({"op": op, "source": source, "blocks": list(blocks),
                             "density": density, "path": path})
    return manifest
