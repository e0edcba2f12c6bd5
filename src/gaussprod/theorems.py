"""Verifiers for the quadratic-residue claims about block partial products.

Every verifier takes a concrete (p, q) in the regime of one claim, computes
both sides independently, and returns a Verdict whose ``passed`` flag is
exactly ``predicted == computed``.  Out-of-regime inputs raise RegimeError so
sweep drivers can tell "not applicable" apart from "refuted".  REGIMES states
each claim's hypotheses once, for the verifiers and for the scan alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import is_prime
from .classnum import (class_number_dirichlet, hahn_lee_representation,
                       square_subgroup)
from .context import PrimeContext, prime_context
from .errors import RegimeError
from .products import (block_counts, block_ranges, enlarged_block_index,
                       partial_products, selected_block_indices, theorem1_product)
from .verdict import Verdict, _exact, make_verdict

__all__ = [
    "REGIMES",
    "THEOREM_IDS",
    "Regime",
    "block_layout",
    "regime_q_reason",
    "verify",
    "verify_corollary",
    "verify_eq2_parity",
    "verify_eq_a",
    "verify_mordell",
    "verify_symmetry",
    "verify_theorem1",
    "verify_theorem2",
    "verify_theorem3",
    "verify_theorem4",
]


@dataclass(frozen=True)
class Regime:
    """The hypotheses of one claim on (p, q).

    q is an odd prime >= q_min, with q == q_mod_4 (mod 4) where that is set.
    p is a prime > q with p == p_mod_q (mod q) and p == p_mod_4 (mod 4)
    where those are set; a claim whose p_mod_q is None takes no q and needs
    p > 3 instead.  blocks says whether the verifier reads the table of
    n = q blocks (n = 2, the halves, for a claim without q); equal and
    floor-cut blocks share that table, as their cuts coincide when n | p - 1.
    counts says whether it reads the residue counts of those blocks
    (block_counts), which build p's residue index.
    """

    p_mod_q: int | None
    p_mod_4: int | None
    q_min: int = 3
    q_mod_4: int | None = None
    blocks: bool = True
    counts: bool = False

    def p_classes(self, q: int | None) -> tuple[list[tuple[int, int]], int]:
        """The (modulus, residue) classes p must lie in, and the strict
        lower bound on p."""
        classes = [] if self.p_mod_4 is None else [(4, self.p_mod_4)]
        if self.p_mod_q is None:
            return classes, 3
        return classes + [(q, self.p_mod_q)], q


REGIMES = {
    "mordell": Regime(p_mod_q=None, p_mod_4=3),
    "t1": Regime(p_mod_q=1, p_mod_4=3),
    "corollary": Regime(p_mod_q=1, p_mod_4=3),
    "eq_a": Regime(p_mod_q=1, p_mod_4=None, q_min=5, q_mod_4=3),
    "t2": Regime(p_mod_q=1, p_mod_4=3, q_mod_4=3),
    "t3": Regime(p_mod_q=2, p_mod_4=3),
    "t4": Regime(p_mod_q=3, p_mod_4=3, q_min=5, counts=True),
    "eq2_parity": Regime(p_mod_q=1, p_mod_4=3, blocks=False, counts=True),
    "symmetry": Regime(p_mod_q=1, p_mod_4=3),
}


def regime_q_reason(theorem_id: str, q: int | None) -> str | None:
    """Why q alone rules a theorem out, or None if some p could be applicable."""
    reg = REGIMES[theorem_id]
    if reg.p_mod_q is None:
        return None
    if q is None:
        return "need a q"
    if q < 3 or q % 2 == 0 or not is_prime(q):
        return f"q={q}: need an odd prime"
    if q < reg.q_min:
        return f"q={q}: need q >= {reg.q_min}"
    if reg.q_mod_4 is not None and q % 4 != reg.q_mod_4:
        return f"q={q}: need q == {reg.q_mod_4} (mod 4)"
    return None


def block_layout(theorem_id: str, q: int | None) -> int | None:
    """The number n of blocks whose table a verifier reads at (p, q), if
    any, so that a scan can load every table of one prime in one query."""
    reg = REGIMES[theorem_id]
    if not reg.blocks:
        return None
    return 2 if reg.p_mod_q is None else q


def _check_regime(theorem_id: str, p: int, q: int | None) -> PrimeContext:
    """The context of p once (p, q) meets the theorem's regime; otherwise
    RegimeError, naming the theorem and the first broken hypothesis."""
    reason = regime_q_reason(theorem_id, q)
    if reason is not None:
        raise RegimeError(f"{theorem_id}: {reason}")
    classes, min_p = REGIMES[theorem_id].p_classes(q)
    for modulus, residue in classes:
        if p % modulus != residue:
            raise RegimeError(
                f"{theorem_id}: p={p}: need p == {residue} (mod {modulus})")
    if p <= min_p:
        raise RegimeError(f"{theorem_id}: p={p}: need p > {min_p}")
    try:
        return prime_context(p)
    except ValueError as exc:
        raise RegimeError(f"{theorem_id}: {exc}") from None


def verify_mordell(p: int, q: int | None = None) -> Verdict:
    """((p-1)/2)! == (-1)**((1 + h(-p))/2) (mod p) for primes p == 3 (mod 4),
    p > 3; the claim takes no q, so q is ignored."""
    _check_regime("mordell", p, None)
    half_fact = partial_products(p, 2).block(1)
    computed = {1: 1, p - 1: -1}.get(half_fact, half_fact)
    h = class_number_dirichlet(p).h
    predicted = -1 if ((1 + h) // 2) % 2 else 1
    return make_verdict("mordell", p, None, predicted, computed,
                        detail=f"((p-1)/2)! = {half_fact} mod p, h(-p) = {h}")


def verify_theorem1(p: int, q: int) -> Verdict:
    """The product of the selected lower-half blocks is a quadratic residue."""
    ctx = _check_regime("t1", p, q)
    value = theorem1_product(p, q)
    return make_verdict("t1", p, q, 1, ctx.legendre(value),
                        detail=f"selected product = {value}")


def verify_corollary(p: int, q: int) -> Verdict:
    """Evenly many of the selected blocks are nonresidues."""
    ctx = _check_regime("corollary", p, q)
    table = partial_products(p, q)
    ks = selected_block_indices(q)
    syms = [ctx.legendre(table.block(k)) for k in ks]
    parity = sum(1 for s in syms if s < 0) % 2
    detail = " ".join(f"k={k}:{s:+d}" for k, s in zip(ks, syms))
    if q == 7:
        # the selected set is {1, 3}, so even parity means equal symbols
        detail += f"; pair ({syms[0]:+d},{syms[1]:+d})"
    return make_verdict("corollary", p, q, 0, parity, detail=detail)


def verify_eq_a(p: int, q: int) -> Verdict:
    """Norm-form side (a|p) against the signed product of block factorials
    over the indices i with -i a square mod q."""
    ctx = _check_regime("eq_a", p, q)
    rep = hahn_lee_representation(p, q)
    lhs = ctx.legendre(rep.a)
    sub = square_subgroup(q)
    pref = partial_products(p, q).prefix_factorials()
    val = 1
    for i in sub.neg_square_indices:
        val = val * pref[i - 1] % p
    if int(sub.beta) % 2:
        val = p - val
    rhs = ctx.legendre(val)
    return make_verdict(
        "eq_a", p, q, lhs, rhs,
        detail=f"a={rep.a} b={rep.b} h(-q)={rep.h} beta={int(sub.beta)} p%4={p % 4}")


def verify_theorem2(p: int, q: int) -> Verdict:
    """(a|p) == (-1)**((q+1)/4) in the doubly constrained regime, plus the
    bridge: the selected-block product and the product of the first (q-1)/2
    block factorials carry the same symbol."""
    ctx = _check_regime("t2", p, q)
    rep = hahn_lee_representation(p, q)
    predicted_sym = -1 if ((q + 1) // 4) % 2 else 1
    computed_sym = ctx.legendre(rep.a)
    s_selected = ctx.legendre(theorem1_product(p, q))
    pref = partial_products(p, q).prefix_factorials()
    val = 1
    for i in range(1, (q - 1) // 2 + 1):
        val = val * pref[i - 1] % p
    bridge = 1 if s_selected == ctx.legendre(val) else 0
    return make_verdict("t2", p, q, (predicted_sym, 1), (computed_sym, bridge),
                        detail=f"a={rep.a} b={rep.b} h(-q)={rep.h}")


_T3_PLUS = frozenset({1, 15})
_T3_MINUS = frozenset({7, 9})
_T3_H = frozenset({3, 13})


def verify_theorem3(p: int, q: int) -> Verdict:
    """Symbol of the selected generalized-block product when p == 2 (mod q),
    predicted from q mod 16 and h(-p); also checks every block has
    (p-2)/q elements except the central one, which has one more."""
    ctx = _check_regime("t3", p, q)
    value = theorem1_product(p, q, generalized=True)
    sym = ctx.legendre(value)
    h = class_number_dirichlet(p).h
    qm = q % 16
    if qm in _T3_PLUS:
        predicted_sym = 1
    elif qm in _T3_MINUS:
        predicted_sym = -1
    elif qm in _T3_H:
        predicted_sym = -1 if ((h + 1) // 2) % 2 else 1
    else:
        predicted_sym = -1 if (1 + (h + 1) // 2) % 2 else 1
    base = (p - 2) // q
    center = (q + 1) // 2
    sizes_ok = 1 if all(
        hi - lo + 1 == base + (1 if k == center else 0)
        for k, (lo, hi) in enumerate(block_ranges(p, q, generalized=True), start=1)) else 0
    return make_verdict("t3", p, q, (predicted_sym, 1), (sym, sizes_ok),
                        detail=f"product={value} h(-p)={h} q%16={qm}")


def verify_theorem4(p: int, q: int) -> Verdict:
    """Symbol of the selected generalized-block product when p == 3 (mod q),
    predicted from q mod 12 and h(-p); checks the two enlarged-block
    positions, the exact count identity, and its mod-2 reduction."""
    ctx = _check_regime("t4", p, q)
    value = theorem1_product(p, q, generalized=True)
    sym = ctx.legendre(value)
    # counted first, so that h(-p) is read from the residue index they build
    counts = block_counts(p, q, generalized=True)
    h = class_number_dirichlet(p).h
    qm = q % 12
    if qm in (1, 11):
        predicted_sym = 1
    else:
        predicted_sym = -1 if ((h + 1) // 2) % 2 else 1
    base = (p - 3) // q
    kstar = enlarged_block_index(q)
    enlarged = {kstar, q + 1 - kstar}
    sizes_ok = 1 if all(
        counts.block_size(k) == base + (1 if k in enlarged else 0)
        for k in range(1, q + 1)) else 0
    half = (q - 1) // 2
    rhs = sum(counts.nonresidues[k - 1] * ((q + 1) // 2 - k)
              for k in range(1, half + 1))
    jq3 = (0, 1, -1)[q % 3]     # (q|3)
    # rhs == (q*q-1)/8 * (p-3)/(2q) + (q-(q|3))/12 - (q-(q|p))*h/4, times 48q
    lhs = (3 * (q * q - 1) * (p - 3) + 4 * q * (q - jq3)
           - 12 * q * (q - ctx.legendre(q)) * h)
    identity_ok = 1 if 48 * q * rhs == lhs else 0
    reduced = (q - jq3) * (1 - 3 * h)
    parity_ok = 1 if reduced % 12 == 0 and (rhs - reduced // 12) % 2 == 0 else 0
    return make_verdict("t4", p, q, (predicted_sym, 1, 1, 1),
                        (sym, sizes_ok, identity_ok, parity_ok),
                        detail=f"product={value} h(-p)={h} q%12={qm} k*={kstar}")


def verify_eq2_parity(p: int, q: int) -> Verdict:
    """Exact count identities tying h(-p) to weighted block counts, and the
    evenness of the nonresidue count over odd-weight lower-half blocks."""
    ctx = _check_regime("eq2_parity", p, q)
    counts = block_counts(p, q)
    h = class_number_dirichlet(p).h
    s = ctx.legendre(q)
    half = (q - 1) // 2
    weights = [(q + 1) // 2 - k for k in range(1, half + 1)]
    rhs_diff = sum((counts.residues[k - 1] - counts.nonresidues[k - 1]) * w
                   for k, w in enumerate(weights, start=1))
    rhs_nonres = sum(counts.nonresidues[k - 1] * w
                     for k, w in enumerate(weights, start=1))
    parity = sum(counts.nonresidues[k - 1]
                 for k, w in enumerate(weights, start=1) if w % 2) % 2
    # (q-s)*h/2, and (q*q-1)/8 * (p-1)/(2q) - (q-s)*h/4 over 16q
    predicted = (_exact((q - s) * h, 2),
                 _exact((q * q - 1) * (p - 1) - 4 * q * (q - s) * h, 16 * q), 0)
    computed = (rhs_diff, rhs_nonres, parity)
    return make_verdict("eq2_parity", p, q, predicted, computed,
                        detail=f"h(-p)={h} (q|p)={s:+d}")


def verify_symmetry(p: int, q: int) -> Verdict:
    """Block k and block q+1-k carry equal products; the central block and
    the full product are both nonresidues (the latter by Wilson).  Block
    q+1-k is built as the mirror of block k, so the equality checks the
    mirror's sign; the blocks themselves are checked against naive products
    in the tests."""
    ctx = _check_regime("symmetry", p, q)
    table = partial_products(p, q)
    vals = table.values
    mismatches = sum(1 for k in range(1, q + 1) if vals[k - 1] != vals[q - k])
    central_value = vals[(q + 1) // 2 - 1]
    central = ctx.legendre(central_value)
    full = table.full_product()
    wilson = ctx.legendre(full)
    return make_verdict("symmetry", p, q, (0, -1, -1),
                        (mismatches, central, wilson),
                        detail=f"central={central_value} full={full}")


_VERIFIERS = {
    "mordell": verify_mordell,
    "t1": verify_theorem1,
    "corollary": verify_corollary,
    "eq_a": verify_eq_a,
    "t2": verify_theorem2,
    "t3": verify_theorem3,
    "t4": verify_theorem4,
    "eq2_parity": verify_eq2_parity,
    "symmetry": verify_symmetry,
}

THEOREM_IDS = tuple(sorted(_VERIFIERS))


def verify(theorem_id: str, p: int, q: int | None = None) -> Verdict:
    """Dispatch one check by id; see THEOREM_IDS for the valid names.  A
    claim that takes no q ignores it."""
    if theorem_id not in _VERIFIERS:
        raise ValueError(f"unknown theorem id {theorem_id!r}; "
                         f"valid: {', '.join(THEOREM_IDS)}")
    return _VERIFIERS[theorem_id](p, q)
