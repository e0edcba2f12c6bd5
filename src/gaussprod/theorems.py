"""Verifiers for the quadratic-residue claims about block partial products.

Each claim's body, in _VERIFIERS, takes a prime p, a q in the claim's
regime and the inputs of that verdict, which inputs._load_unit has
computed in one vectorised pass over a unit of primes; it adds the side
that rests on h(-p), q or the norm-form representation, and returns a
Verdict whose ``passed`` flag is exactly ``predicted == computed``.
verify, behind every verify_*(p, q), checks the regime and p once and
loads a unit of one row; a scan loads its units itself.  Out-of-regime
inputs raise RegimeError so sweep drivers can tell "not applicable" apart
from "refuted".  REGIMES states each claim's hypotheses once, for verify
and the scan alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import is_prime
from .context import _check_prime
from .errors import RegimeError
from .inputs import _load_unit
from .products import _enlarged_index, selected_block_indices
from .verdict import Verdict, _exact, make_verdict

__all__ = [
    "REGIMES",
    "THEOREM_IDS",
    "Regime",
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
    (block_counts), which build p's residue index, and class_number whether
    it reads h(-p).
    """

    p_mod_q: int | None
    p_mod_4: int | None
    q_min: int = 3
    q_mod_4: int | None = None
    blocks: bool = True
    counts: bool = False
    class_number: bool = False

    def p_classes(self, q: int | None) -> tuple[list[tuple[int, int]], int]:
        """The (modulus, residue) classes p must lie in, and the strict
        lower bound on p."""
        classes = [] if self.p_mod_4 is None else [(4, self.p_mod_4)]
        if self.p_mod_q is None:
            return classes, 3
        return classes + [(q, self.p_mod_q)], q


REGIMES = {
    "mordell": Regime(p_mod_q=None, p_mod_4=3, class_number=True),
    "t1": Regime(p_mod_q=1, p_mod_4=3),
    "corollary": Regime(p_mod_q=1, p_mod_4=3),
    "eq_a": Regime(p_mod_q=1, p_mod_4=None, q_min=5, q_mod_4=3),
    "t2": Regime(p_mod_q=1, p_mod_4=3, q_mod_4=3),
    "t3": Regime(p_mod_q=2, p_mod_4=3, class_number=True),
    "t4": Regime(p_mod_q=3, p_mod_4=3, q_min=5, counts=True, class_number=True),
    "eq2_parity": Regime(p_mod_q=1, p_mod_4=3, blocks=False, counts=True,
                         class_number=True),
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


def verify_mordell(p: int, q: int | None = None) -> Verdict:
    """((p-1)/2)! == (-1)**((1 + h(-p))/2) (mod p) for primes p == 3 (mod 4),
    p > 3; the claim takes no q, so q is ignored."""
    return verify("mordell", p)


def _mordell(p: int, q: None, inputs: tuple) -> Verdict:
    half_fact, computed, h = inputs
    predicted = -1 if ((1 + h) // 2) % 2 else 1
    return make_verdict("mordell", p, None, predicted, computed,
                        detail=f"((p-1)/2)! = {half_fact} mod p, h(-p) = {h}")


def verify_theorem1(p: int, q: int) -> Verdict:
    """The product of the selected lower-half blocks is a quadratic residue."""
    return verify("t1", p, q)


def _t1(p: int, q: int, inputs: tuple) -> Verdict:
    value, sym = inputs
    return make_verdict("t1", p, q, 1, sym, detail=f"selected product = {value}")


def verify_corollary(p: int, q: int) -> Verdict:
    """Evenly many of the selected blocks are nonresidues."""
    return verify("corollary", p, q)


def _corollary(p: int, q: int, inputs: tuple) -> Verdict:
    syms, parity = inputs
    detail = " ".join(f"k={k}:{s:+d}" for k, s in zip(selected_block_indices(q), syms))
    if q == 7:
        # the selected set is {1, 3}, so even parity means equal symbols
        detail += f"; pair ({syms[0]:+d},{syms[1]:+d})"
    return make_verdict("corollary", p, q, 0, parity, detail=detail)


def verify_eq_a(p: int, q: int) -> Verdict:
    """Norm-form side (a|p) against the signed product of block factorials
    over the indices i with -i a square mod q."""
    return verify("eq_a", p, q)


def _eq_a(p: int, q: int, inputs: tuple) -> Verdict:
    rhs, beta, rep, a_sym = inputs
    return make_verdict(
        "eq_a", p, q, a_sym, rhs,
        detail=f"a={rep.a} b={rep.b} h(-q)={rep.h} beta={beta} p%4={p % 4}")


def verify_theorem2(p: int, q: int) -> Verdict:
    """(a|p) == (-1)**((q+1)/4) in the doubly constrained regime, plus the
    bridge: the selected-block product and the product of the first (q-1)/2
    block factorials carry the same symbol."""
    return verify("t2", p, q)


def _t2(p: int, q: int, inputs: tuple) -> Verdict:
    bridge, rep, a_sym = inputs
    predicted_sym = -1 if ((q + 1) // 4) % 2 else 1
    return make_verdict("t2", p, q, (predicted_sym, 1), (a_sym, bridge),
                        detail=f"a={rep.a} b={rep.b} h(-q)={rep.h}")


def verify_theorem3(p: int, q: int) -> Verdict:
    """Symbol of the selected generalized-block product when p == 2 (mod q),
    predicted from q mod 16 and h(-p); also checks every block has
    (p-2)/q elements except the central one, which has one more."""
    return verify("t3", p, q)


def _t3(p: int, q: int, inputs: tuple) -> Verdict:
    value, sym, sizes_ok, h = inputs
    qm = q % 16
    if qm in (1, 15):
        predicted_sym = 1
    elif qm in (7, 9):
        predicted_sym = -1
    elif qm in (3, 13):
        predicted_sym = -1 if ((h + 1) // 2) % 2 else 1
    else:
        predicted_sym = -1 if (1 + (h + 1) // 2) % 2 else 1
    return make_verdict("t3", p, q, (predicted_sym, 1), (sym, sizes_ok),
                        detail=f"product={value} h(-p)={h} q%16={qm}")


def verify_theorem4(p: int, q: int) -> Verdict:
    """Symbol of the selected generalized-block product when p == 3 (mod q),
    predicted from q mod 12 and h(-p); checks the two enlarged-block
    positions, the exact count identity, and its mod-2 reduction."""
    return verify("t4", p, q)


def _t4(p: int, q: int, inputs: tuple) -> Verdict:
    value, sym, sizes_ok, rhs, s, h = inputs
    qm = q % 12
    if qm in (1, 11):
        predicted_sym = 1
    else:
        predicted_sym = -1 if ((h + 1) // 2) % 2 else 1
    jq3 = (0, 1, -1)[q % 3]     # (q|3)
    # rhs == (q*q-1)/8 * (p-3)/(2q) + (q-(q|3))/12 - (q-(q|p))*h/4, times 48q
    lhs = 3 * (q * q - 1) * (p - 3) + 4 * q * (q - jq3) - 12 * q * (q - s) * h
    identity_ok = 1 if 48 * q * rhs == lhs else 0
    reduced = (q - jq3) * (1 - 3 * h)
    parity_ok = 1 if reduced % 12 == 0 and (rhs - reduced // 12) % 2 == 0 else 0
    return make_verdict("t4", p, q, (predicted_sym, 1, 1, 1),
                        (sym, sizes_ok, identity_ok, parity_ok),
                        detail=f"product={value} h(-p)={h} q%12={qm} k*={_enlarged_index(q)}")


def verify_eq2_parity(p: int, q: int) -> Verdict:
    """Exact count identities tying h(-p) to weighted block counts, and the
    evenness of the nonresidue count over odd-weight lower-half blocks."""
    return verify("eq2_parity", p, q)


def _eq2_parity(p: int, q: int, inputs: tuple) -> Verdict:
    rhs_diff, rhs_nonres, parity, s, h = inputs
    # (q-s)*h/2, and (q*q-1)/8 * (p-1)/(2q) - (q-s)*h/4 over 16q
    predicted = (_exact((q - s) * h, 2),
                 _exact((q * q - 1) * (p - 1) - 4 * q * (q - s) * h, 16 * q), 0)
    return make_verdict("eq2_parity", p, q, predicted, (rhs_diff, rhs_nonres, parity),
                        detail=f"h(-p)={h} (q|p)={s:+d}")


def verify_symmetry(p: int, q: int) -> Verdict:
    """Block k and block q+1-k carry equal products; the central block and
    the full product are both nonresidues (the latter by Wilson).  Block
    q+1-k is built as the mirror of block k, so the equality checks the
    mirror's sign; the blocks themselves are checked against naive products
    in the tests."""
    return verify("symmetry", p, q)


def _symmetry(p: int, q: int, inputs: tuple) -> Verdict:
    mismatches, central_value, central, full, wilson = inputs
    return make_verdict("symmetry", p, q, (0, -1, -1), (mismatches, central, wilson),
                        detail=f"central={central_value} full={full}")


_VERIFIERS = {"mordell": _mordell, "t1": _t1, "corollary": _corollary, "eq_a": _eq_a,
              "t2": _t2, "t3": _t3, "t4": _t4, "eq2_parity": _eq2_parity,
              "symmetry": _symmetry}

THEOREM_IDS = tuple(sorted(_VERIFIERS))


def verify(theorem_id: str, p: int, q: int | None = None) -> Verdict:
    """Dispatch one check by id; see THEOREM_IDS for the valid names.  A
    claim that takes no q ignores it.  The regime and p are checked once,
    then the verdict's inputs are loaded as a unit of one row and the
    claim's body runs on them."""
    if theorem_id not in _VERIFIERS:
        raise ValueError(f"unknown theorem id {theorem_id!r}; "
                         f"valid: {', '.join(THEOREM_IDS)}")
    reason = regime_q_reason(theorem_id, q)
    if reason is not None:
        raise RegimeError(f"{theorem_id}: {reason}")
    classes, min_p = REGIMES[theorem_id].p_classes(q)
    for modulus, residue in classes:
        if p % modulus != residue:
            raise RegimeError(f"{theorem_id}: p={p}: need p == {residue} (mod {modulus})")
    if p <= min_p:
        raise RegimeError(f"{theorem_id}: p={p}: need p > {min_p}")
    try:
        _check_prime(p)
    except ValueError as exc:
        raise RegimeError(f"{theorem_id}: {exc}") from None
    [[(_, _, inputs)]] = _load_unit([[(p, [(theorem_id, q)])]], REGIMES)
    return _VERIFIERS[theorem_id](p, q, inputs)
