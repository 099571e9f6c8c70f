"""Exact Penrose-style index calculus over the auxiliary spaces E and F.

For the (2, n) block grading of sl(n+2) the tangent-space model is
g_{-1} ≅ E*⊗F with dim E = 2 and dim F = n: the negative position (a, b)
(row a ≥ 2, column b ≤ 1) carries the E-index b and the F-index a − 2.
Degree-2 cochains decompose into four typed blocks according to the
grading degree of their values,

    τ  = g_{-1}-valued part,  signature τ^A_{A'}{}^B_{B'}{}^{C'}_D,
    W  = E-endomorphism part, signature W^A_{A'}{}^B_{B'}{}^C_D,
    W' = F-endomorphism part, signature W'^A_{A'}{}^B_{B'}{}^{C'}_{D'},
    Y  = g_{+1}-valued part,  signature Y^A_{A'}{}^B_{B'}{}^C_{D'},

where unprimed indices range over E (dimension 2), primed indices over F
(dimension n), upper indices are contravariant and lower covariant.  The
two argument slots (A, A') and (B, B') are skew under simultaneous swap,
matching the alternation of the cochain.

On top of the block extraction this module provides the standard trace
contractions tr(W), tr(W'), tr(i_τ τ), the four-fold symmetry split of
(0,2)-type tensors, the exact linear algebra relating the Rho tensor to
the Ricci contraction (eigenvalues n, n+4, n+2, n+2 on the four symmetry
types), and the expansion of the Weyl blocks from curvatures and the Rho
tensor.  It is tensor calculus only: the typing of the harmonic space,
which reads these blocks, is ``feff.verify_harmonic_types``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .gla import GradedSL, smat_add_into
from .kostant import Cochain

TAU_SIG = ("E", "F*", "E", "F*", "F", "E*")
W_SIG = ("E", "F*", "E", "F*", "E", "E*")
WP_SIG = ("E", "F*", "E", "F*", "F", "F*")
Y_SIG = ("E", "F*", "E", "F*", "E", "F*")
# (0,2)-type tensors: tr(W), tr(W'), tr(i_τ τ), Ric and the Rho tensor P
# all have one (E, F*) pair per slot group.
TRACE_SIG = ("E", "F*", "E", "F*")

_VALID_SLOTS = frozenset({"E", "E*", "F", "F*"})


@lru_cache(maxsize=None)
def _slot_dims(sig: tuple[str, ...], n: int) -> tuple[int, ...]:
    """Each slot's range, 2 for E and E*, n for F and F*, checked once."""
    if not sig or any(s not in _VALID_SLOTS for s in sig):
        raise ValueError("slot signature must be nonempty over {E, E*, F, F*}")
    if n < 1:
        raise ValueError("F-dimension must be positive")
    return tuple(2 if s in ("E", "E*") else n for s in sig)


class EFTensor:
    """Sparse tensor with exact entries and slots typed over {E, E*, F, F*}.

    ``data`` maps index tuples to nonzero ``int`` or ``Fraction`` values,
    each of the type its arithmetic produced, with no coercion; ``dims``
    holds the range of each slot: 2 for E and E*, n for F and F*.
    """

    __slots__ = ("sig", "n", "dims", "data")

    def __init__(self, sig: Sequence[str], n: int,
                 data: Mapping[tuple[int, ...], int | Fraction] | None = None) -> None:
        self.sig = tuple(sig)
        self.n = n
        self.dims = _slot_dims(self.sig, n)
        self.data: dict[tuple[int, ...], int | Fraction] = {}
        if data:
            for idx, v in data.items():
                self.add_entry(idx, v)

    def add_entry(self, idx: Sequence[int], value: int | Fraction) -> None:
        idx = tuple(idx)
        if len(idx) != len(self.dims):
            raise ValueError("index tuple does not match the slot signature")
        for k, (i, d) in enumerate(zip(idx, self.dims)):
            if not 0 <= i < d:
                raise ValueError(f"index {i} out of range in slot {k}")
        smat_add_into(self.data, {idx: value})

    def scale(self, coeff: int | Fraction) -> "EFTensor":
        out = EFTensor(self.sig, self.n)
        if coeff:
            out.data = {idx: coeff * v for idx, v in self.data.items()}
        return out

    def add(self, other: "EFTensor", coeff=1) -> "EFTensor":
        if other.sig != self.sig or other.n != self.n:
            raise ValueError("tensor signature mismatch")
        # Both operands already hold valid nonzero entries: copy and
        # accumulate without re-checking every index slot.
        out = EFTensor(self.sig, self.n)
        out.data = dict(self.data)
        smat_add_into(out.data, other.data, coeff)
        return out

    def sub(self, other: "EFTensor") -> "EFTensor":
        return self.add(other, -1)

    def swap(self, i: int, j: int) -> "EFTensor":
        """Transpose two slots of identical type."""
        if self.sig[i] != self.sig[j]:
            raise ValueError("can only swap slots of the same type")
        out = EFTensor(self.sig, self.n)
        for idx, v in self.data.items():
            lst = list(idx)
            lst[i], lst[j] = lst[j], lst[i]
            out.data[tuple(lst)] = v
        return out

    def contract(self, i: int, j: int) -> "EFTensor":
        """Pairing contraction of an upper slot with a lower slot."""
        if {self.sig[i], self.sig[j]} not in ({"E", "E*"}, {"F", "F*"}):
            raise ValueError("contraction must pair E with E* or F with F*")
        keep = [k for k in range(len(self.sig)) if k not in (i, j)]
        out = EFTensor([self.sig[k] for k in keep], self.n)
        for idx, v in self.data.items():
            if idx[i] == idx[j]:
                out.add_entry(tuple(idx[k] for k in keep), v)
        return out

    def is_zero(self) -> bool:
        return not self.data

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EFTensor):
            return NotImplemented
        return self.sig == other.sig and self.n == other.n and self.data == other.data

    def __repr__(self) -> str:
        return f"EFTensor(sig={self.sig}, n={self.n}, entries={len(self.data)})"


# ---------------------------------------------------------------------------
# Block extraction from degree-2 cochains of the (2, n) grading
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureBlocks:
    """The four typed blocks of a degree-2 cochain value matrix."""

    tau: EFTensor
    W: EFTensor
    Wp: EFTensor
    Y: EFTensor
    n: int


def _ef_pair(alg: GradedSL, i: int) -> tuple[int, int]:
    """(E-index, F-index) of the quotient basis vector X^i."""
    a, b = alg.neg_positions[i]
    return b, a - 2


def extract_blocks(kappa: Cochain) -> CurvatureBlocks:
    """Split a degree-2 cochain over the (2, n) grading into (τ, W, W', Y).
    Each entry comes from one stored pair, slot order and value position,
    and its index is in range by construction: it is stored as it is."""
    alg = kappa.alg
    if len(alg.blocks) != 2 or alg.blocks[0] != 2:
        raise ValueError("block extraction requires the (2, n) grading")
    if kappa.deg != 2:
        raise ValueError("block extraction requires a degree-2 cochain")
    n = alg.blocks[1]
    tau, w, wp, y = (EFTensor(sig, n) for sig in (TAU_SIG, W_SIG, WP_SIG, Y_SIG))
    for (i, j), u in kappa.data.items():
        ai, aip = _ef_pair(alg, i)
        aj, ajp = _ef_pair(alg, j)
        first, second = (ai, aip, aj, ajp), (aj, ajp, ai, aip)
        for (r, c), v in u.items():
            if r >= 2:
                data, tail = (tau.data, (r - 2, c)) if c <= 1 else (wp.data, (r - 2, c - 2))
            else:
                data, tail = (w.data, (r, c)) if c <= 1 else (y.data, (r, c - 2))
            data[first + tail] = v
            data[second + tail] = -v
    return CurvatureBlocks(tau=tau, W=w, Wp=wp, Y=y, n=n)


def reassemble(blocks: CurvatureBlocks, alg: GradedSL) -> Cochain:
    """Inverse of :func:`extract_blocks` on skew block data."""
    if len(alg.blocks) != 2 or alg.blocks[0] != 2 or alg.blocks[1] != blocks.n:
        raise ValueError("algebra does not match the block dimensions")
    half = Fraction(1, 2)
    out = Cochain(alg, 2)
    positioned = (
        (blocks.tau, lambda t: (t[4] + 2, t[5])),
        (blocks.W, lambda t: (t[4], t[5])),
        (blocks.Wp, lambda t: (t[4] + 2, t[5] + 2)),
        (blocks.Y, lambda t: (t[4], t[5] + 2)),
    )
    for tensor, value_pos in positioned:
        for idx, v in tensor.data.items():
            a1, a1p, a2, a2p = idx[:4]
            i = alg.index_of_neg[(a1p + 2, a1)]
            j = alg.index_of_neg[(a2p + 2, a2)]
            if i == j:
                raise ValueError("block data is not skew under the slot-pair swap")
            # Each unordered pair occurs twice in the skew tensor data.
            T, cf = ((i, j), half) if i < j else ((j, i), -half)
            out.add_term(T, {value_pos(idx): v}, cf)
    return out


# ---------------------------------------------------------------------------
# Trace contractions and symmetry splits
# ---------------------------------------------------------------------------


def tr_W(w: EFTensor) -> EFTensor:
    """tr(W)^A_{A'}{}^B_{B'} = W^A_{A'}{}^I_{B'}{}^B_I."""
    if w.sig != W_SIG:
        raise ValueError("tr_W needs the W signature")
    out = EFTensor(TRACE_SIG, w.n)
    for (a, ap, i, bp, b, d), v in w.data.items():
        if i == d:
            out.add_entry((a, ap, b, bp), v)
    return out


def tr_Wp(wp: EFTensor) -> EFTensor:
    """tr(W')^A_{A'}{}^B_{B'} = W'^A_{A'}{}^B_{I'}{}^{I'}_{B'}."""
    if wp.sig != WP_SIG:
        raise ValueError("tr_Wp needs the W' signature")
    out = EFTensor(TRACE_SIG, wp.n)
    for (a, ap, b, ip, cp, bp), v in wp.data.items():
        if ip == cp:
            out.add_entry((a, ap, b, bp), v)
    return out


def tr_itau_tau_bilinear(tau1: EFTensor, tau2: EFTensor) -> EFTensor:
    """The double contraction τ1^I_{I'}{}^A_{A'}{}^{J'}_J τ2^J_{J'}{}^B_{B'}{}^{I'}_I."""
    if tau1.sig != TAU_SIG or tau2.sig != TAU_SIG or tau1.n != tau2.n:
        raise ValueError("both arguments need the τ signature with equal n")
    out = EFTensor(TRACE_SIG, tau1.n)
    for (i, ip, a, ap, jp, j), v1 in tau1.data.items():
        for (j2, j2p, b, bp, i2p, i2), v2 in tau2.data.items():
            if j2 == j and j2p == jp and i2p == ip and i2 == i:
                out.add_entry((a, ap, b, bp), v1 * v2)
    return out


@dataclass(frozen=True)
class SymSplit:
    """The four symmetry components of a (0,2)-type tensor T^A_{A'}{}^B_{B'}:
    (AB)(A'B'), [AB][A'B'], (AB)[A'B'], [AB](A'B')."""

    sym_sym: EFTensor
    skew_skew: EFTensor
    sym_skew: EFTensor
    skew_sym: EFTensor

    def total(self) -> EFTensor:
        return self.sym_sym.add(self.skew_skew).add(self.sym_skew).add(self.skew_sym)


def sym_split(t: EFTensor) -> SymSplit:
    if t.sig != TRACE_SIG:
        raise ValueError("symmetry split needs the (E, F*, E, F*) signature")
    t02, t13 = t.swap(0, 2), t.swap(1, 3)
    t0213 = t02.swap(1, 3)

    def part(e: int, f: int) -> EFTensor:
        """(t + e·t₀₂ + f·t₁₃ + ef·t₀₂₁₃)/4: symmetric (e = 1) or skew (e = −1)
        in the E slots, and likewise by f in the F* slots."""
        return t.add(t02, e).add(t13, f).add(t0213, e * f).scale(Fraction(1, 4))

    return SymSplit(sym_sym=part(1, 1), skew_skew=part(-1, -1),
                    sym_skew=part(1, -1), skew_sym=part(-1, 1))


# ---------------------------------------------------------------------------
# Rho tensor vs. Ricci contraction, and the Weyl block expansion
# ---------------------------------------------------------------------------


def rho_from_ric(ric: EFTensor, n: int) -> EFTensor:
    """P = Ric_(sym,sym)/n + Ric_[skew,skew]/(n+4) + both mixed parts/(n+2)."""
    parts = sym_split(ric)
    return (parts.sym_sym.scale(Fraction(1, n))
            .add(parts.skew_skew.scale(Fraction(1, n + 4)))
            .add(parts.sym_skew.scale(Fraction(1, n + 2)))
            .add(parts.skew_sym.scale(Fraction(1, n + 2))))


def ric_from_rho(p: EFTensor, n: int) -> EFTensor:
    """Ric^A_{A'}{}^B_{B'} = (n+2) P^A_{A'}{}^B_{B'} − P^A_{B'}{}^B_{A'} − P^B_{A'}{}^A_{B'}."""
    if p.sig != TRACE_SIG:
        raise ValueError("the Rho tensor needs the (E, F*, E, F*) signature")
    return p.scale(n + 2).sub(p.swap(1, 3)).sub(p.swap(0, 2))


def weyl_from_curvature(r_e: EFTensor, r_f: EFTensor, p: EFTensor) -> tuple[EFTensor, EFTensor]:
    """Expand the Weyl blocks from the bundle curvatures and the Rho tensor:

        W^A_{A'}{}^B_{B'}{}^C_D   = R_E^A_{A'}{}^B_{B'}{}^C_D + δ^B_D P^A_{A'}{}^C_{B'}
                                     − δ^A_D P^B_{B'}{}^C_{A'},
        W'^A_{A'}{}^B_{B'}{}^{C'}_{D'} = R_F^...^{C'}_{D'} − δ^{C'}_{B'} P^A_{A'}{}^B_{D'}
                                     + δ^{C'}_{A'} P^B_{B'}{}^A_{D'}.
    """
    if r_e.sig != W_SIG or r_f.sig != WP_SIG or p.sig != TRACE_SIG:
        raise ValueError("signature mismatch in the Weyl block expansion")
    n = p.n
    # The δ-terms, accumulated apart and added to the curvatures once.
    delta_w, delta_wp = EFTensor(W_SIG, n), EFTensor(WP_SIG, n)
    for (p0, p1, p2, p3), v in p.data.items():
        for b in range(2):
            # read the entry as P^A_{A'}{}^C_{B'}: δ^B_D term of W
            delta_w.add_entry((p0, p1, b, p3, p2, b), v)
            # read the entry as P^B_{B'}{}^C_{A'}: −δ^A_D term of W
            delta_w.add_entry((b, p3, p0, p1, p2, b), -v)
        for c in range(n):
            # read the entry as P^A_{A'}{}^B_{D'}: −δ^{C'}_{B'} term of W'
            delta_wp.add_entry((p0, p1, p2, c, c, p3), -v)
            # read the entry as P^B_{B'}{}^A_{D'}: +δ^{C'}_{A'} term of W'
            delta_wp.add_entry((p2, c, p0, p1, c, p3), v)
    return r_e.add(delta_w), r_f.add(delta_wp)


def rho_cochain(p: EFTensor, alg: GradedSL) -> Cochain:
    """The Rho tensor as a degree-1 cochain with values in g_{+1}."""
    if p.sig != TRACE_SIG:
        raise ValueError("the Rho tensor needs the (E, F*, E, F*) signature")
    if len(alg.blocks) != 2 or alg.blocks != (2, p.n):
        raise ValueError("algebra does not match the tensor dimensions")
    out = Cochain(alg, 1)
    for (a, ap, c, bp), v in p.data.items():
        out.add_term((alg.index_of_neg[(ap + 2, a)],), {(c, bp + 2): v})
    return out
