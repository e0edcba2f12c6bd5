from fractions import Fraction

import pytest

from gaussprod import (CongruenceConstraint, RegimeError, THEOREM_IDS,
                       class_number_dirichlet, is_prime, primes_matching,
                       regime_q_reason, verify, verify_corollary,
                       verify_eq2_parity, verify_eq_a, verify_mordell,
                       verify_symmetry, verify_theorem1, verify_theorem2,
                       verify_theorem3, verify_theorem4)
from gaussprod.scan import ScanConfig, _build_units, run_scan
from gaussprod.inputs import _INPUTS
from gaussprod.theorems import _VERIFIERS, REGIMES
from gaussprod.verdict import _exact


def split_pairs(qs, p_max):
    return [(p, q) for q in qs
            for p in primes_matching(p_max, [CongruenceConstraint(4, 3),
                                             CongruenceConstraint(q, 1)])]


def test_theorem_id_enumeration():
    assert set(THEOREM_IDS) == {"mordell", "t1", "corollary", "eq_a", "t2",
                                "t3", "t4", "eq2_parity", "symmetry"}


def test_mordell_frozen_cases():
    v = verify_mordell(31)   # h(-31) = 3 so the exponent is even
    assert v.predicted == 1 and v.passed


def test_mordell_against_direct_factorial():
    for p in primes_matching(500, [CongruenceConstraint(4, 3)]):
        if p == 3:
            continue
        f = 1
        for j in range(1, (p - 1) // 2 + 1):
            f = f * j % p
        want = 1 if f == 1 else -1
        assert f in (1, p - 1)
        v = verify_mordell(p)
        assert v.computed == want and v.passed, p


def test_mordell_regime():
    for bad in (3, 13, 15, 2):
        with pytest.raises(RegimeError, match="^mordell: "):
            verify_mordell(bad)


def test_t1_and_corollary_pass_on_oracle_range():
    for p, q in split_pairs((3, 5, 7, 11, 13), 2000):
        v = verify_theorem1(p, q)
        assert v.passed, (p, q, v)
        c = verify_corollary(p, q)
        assert c.passed, (p, q, c)


def test_corollary_q7_pair_shares_symbol():
    for p in primes_matching(3000, [CongruenceConstraint(4, 3),
                                    CongruenceConstraint(7, 1)]):
        v = verify_corollary(p, 7)
        assert v.passed
        # parity 0 over a two-element selection means equal symbols
        assert "pair (+1,+1)" in v.detail or "pair (-1,-1)" in v.detail, (p, v)


def test_t1_regime_errors():
    with pytest.raises(RegimeError, match=r"^t1: p=13: need p == 3 \(mod 4\)"):
        verify_theorem1(13, 3)     # 13 = 1 mod 4
    with pytest.raises(RegimeError, match=r"^t1: p=11: need p == 1 \(mod 3\)"):
        verify_theorem1(11, 3)     # 11 = 2 mod 3
    with pytest.raises(RegimeError, match="^t1: .*odd prime"):
        verify_theorem1(15, 7)     # composite
    with pytest.raises(RegimeError, match="^t1: q=9: need an odd prime"):
        verify_theorem1(7, 9)      # q composite


def test_eq_a_frozen_and_range():
    for q in (7, 11, 19):
        for p in primes_matching(1500, [CongruenceConstraint(q, 1)]):
            assert verify_eq_a(p, q).passed, (p, q)


def test_eq_a_covers_both_residue_classes_mod_4():
    # the claim is not restricted to p = 3 (mod 4); make sure both kinds occur
    seen = {1: 0, 3: 0}
    for p in primes_matching(1500, [CongruenceConstraint(7, 1)]):
        v = verify_eq_a(p, 7)
        assert v.passed
        seen[p % 4] += 1
    assert seen[1] > 0 and seen[3] > 0


def test_eq_a_regime_errors():
    with pytest.raises(RegimeError, match="^eq_a: q=3: need q >= 5"):
        verify_eq_a(7, 3)         # q=3 excluded
    with pytest.raises(RegimeError, match=r"^eq_a: q=5: need q == 3 \(mod 4\)"):
        verify_eq_a(11, 5)        # q = 1 mod 4
    with pytest.raises(RegimeError, match=r"^eq_a: p=13: need p == 1 \(mod 7\)"):
        verify_eq_a(13, 7)        # 13 = 6 mod 7


def test_t2_frozen_and_range():
    for q in (3, 7, 11, 19):
        for p in primes_matching(2000, [CongruenceConstraint(4, 3),
                                        CongruenceConstraint(q, 1)]):
            assert verify_theorem2(p, q).passed, (p, q)


def test_t2_sign_depends_only_on_q():
    # the predicted symbol is (-1)**((q+1)/4), independent of p
    assert verify_theorem2(23, 11).predicted[0] == -1    # (11+1)/4 = 3
    assert verify_theorem2(191, 19).predicted[0] == -1   # (19+1)/4 = 5


def test_t3_frozen_and_range():
    for q in (3, 5, 7, 11, 13, 17):
        for p in primes_matching(2000, [CongruenceConstraint(4, 3),
                                        CongruenceConstraint(q, 2)]):
            if p > q:
                v = verify_theorem3(p, q)
                assert v.passed, (p, q, v)


def test_t3_covers_every_mod16_branch():
    # hit all four rows of the sign table: q = 17, 7, 3, 5 give 1, 7, 3, 5 mod 16
    cases = {17: 1, 7: 7, 3: 3, 5: 5}
    for q, residue in cases.items():
        assert q % 16 == residue
        ps = [p for p in primes_matching(500, [CongruenceConstraint(4, 3),
                                               CongruenceConstraint(q, 2)])
              if p > q]
        assert ps, q
        for p in ps:
            assert verify_theorem3(p, q).passed, (p, q)


def test_t3_regime_errors():
    with pytest.raises(RegimeError, match=r"^t3: p=13: need p == 3 \(mod 4\)"):
        verify_theorem3(13, 11)    # 13 = 1 mod 4
    with pytest.raises(RegimeError, match=r"^t3: p=19: need p == 2 \(mod 3\)"):
        verify_theorem3(19, 3)     # 19 = 1 mod 3
    assert verify_theorem3(23, 3).passed   # 23 = 2 mod 3 is in regime


def test_t4_frozen_and_range():
    for q in (5, 7, 11, 13, 17, 19):
        for p in primes_matching(2000, [CongruenceConstraint(4, 3),
                                        CongruenceConstraint(q, 3)]):
            if p > q:
                v = verify_theorem4(p, q)
                assert v.passed, (p, q, v)


def test_t4_regime_errors():
    with pytest.raises(RegimeError, match="^t4: q=3: need q >= 5"):
        verify_theorem4(31, 3)     # q = 3 excluded
    with pytest.raises(RegimeError, match=r"^t4: p=29: need p == 3 \(mod 4\)"):
        verify_theorem4(29, 13)    # 29 = 1 mod 4
    with pytest.raises(RegimeError, match=r"^t4: p=31: need p == 3 \(mod 5\)"):
        verify_theorem4(31, 5)     # 31 = 1 mod 5
    with pytest.raises(RegimeError, match="^t4: p=3: need p > 5"):
        verify_theorem4(3, 5)      # 3 = 3 mod 5, but p must exceed q


def test_eq2_parity_range():
    for p, q in split_pairs((3, 5, 7, 11, 13, 17, 19), 2000):
        assert verify_eq2_parity(p, q).passed, (p, q)


def test_symmetry_range():
    for p, q in split_pairs((3, 5, 7, 11, 13), 2000):
        v = verify_symmetry(p, q)
        assert v.passed, (p, q, v)


def test_symmetry_detail_reports_values():
    v = verify_symmetry(7, 3)
    assert "central=5" in v.detail and "full=6" in v.detail


def test_dispatch():
    assert verify("mordell", 7).passed
    assert verify("t1", 7, 3).passed
    with pytest.raises(ValueError):
        verify("nope", 7, 3)
    with pytest.raises(RegimeError, match="^t1: need a q"):
        verify("t1", 7)            # missing q


def test_regime_q_reason():
    assert set(REGIMES) == set(THEOREM_IDS)
    assert set(_INPUTS) == set(THEOREM_IDS)
    assert set(_VERIFIERS) == set(THEOREM_IDS)
    assert regime_q_reason("mordell", None) is None
    assert regime_q_reason("t1", 4) is not None
    assert regime_q_reason("t1", 9) is not None
    assert regime_q_reason("eq_a", 3) is not None
    assert regime_q_reason("eq_a", 13) is not None   # 13 = 1 mod 4
    assert regime_q_reason("t2", 5) is not None
    assert regime_q_reason("t2", 3) is None
    assert regime_q_reason("t4", 3) is not None
    assert regime_q_reason("t4", 5) is None
    assert regime_q_reason("symmetry", 13) is None


def test_scan_enumeration_matches_verifier_regimes():
    # both directions: verify raises RegimeError exactly at the (p, q) the
    # scan's own enumeration leaves out.  ScanConfig rejects the q that are
    # not odd primes (1, 2, 9, 15); regime_q_reason rules them out for every
    # theorem that takes a q
    qs = (1, 2, 3, 5, 7, 9, 11, 13, 15, 19, 23, 31)
    scan_qs = tuple(q for q in qs if q > 2 and is_prime(q))
    for tid in THEOREM_IDS:
        units, skipped = _build_units(ScanConfig(p_max=600, theorems=(tid,),
                                                 q_values=scan_qs))
        domain = {(p, q) for unit in units for p, work in unit for _, q in work}
        assert skipped[tid] == (0 if tid == "mordell" else sum(
            regime_q_reason(tid, q) is not None for q in scan_qs))
        for q in ((None,) if tid == "mordell" else qs):
            if q not in scan_qs and q is not None:
                assert regime_q_reason(tid, q) is not None, (tid, q)
            for p in range(2, 600):
                try:
                    v = verify(tid, p, q)
                except RegimeError as exc:
                    assert (p, q) not in domain, (tid, p, q, exc)
                    assert str(exc).startswith(f"{tid}: "), exc
                else:
                    assert (p, q) in domain, (tid, p, q)
                    assert v.theorem_id == tid and v.p == p


def test_scan_rows_equal_single_queries():
    # every theorem over the default q list at p < 1e4: the scan runs the
    # bodies on its units' pass, verify on a one-row load of its own, and
    # the two give the same Verdict field by field, detail included
    report = run_scan(ScanConfig(p_max=10_000, theorems=THEOREM_IDS))
    assert {v.theorem_id for v in report.verdicts} == set(THEOREM_IDS)
    for v in report.verdicts:
        assert verify(v.theorem_id, v.p, v.q) == v, v


def test_verdict_pass_flag_is_equality():
    v = verify_theorem1(7, 3)
    assert v.passed == (v.predicted == v.computed)
    assert v.p == 7 and v.q == 3 and v.theorem_id == "t1"


def test_exact_renders_a_ratio_as_its_fraction_would():
    # t4 and eq2_parity state their sides over integer denominators; a side
    # that is not an integer must read as the Fraction's text did, so that
    # reports keep their bytes
    for num in range(-60, 61):
        for den in range(1, 49):
            fr = Fraction(num, den)
            want = int(fr) if fr.denominator == 1 else str(fr)
            got = _exact(num, den)
            assert got == want and type(got) is type(want), (num, den)
            assert _exact(fr) == want, (num, den)


def test_class_number_parity_drives_mordell_sign():
    # spot-check the sign table against independently computed h
    for p, h, sign in ((7, 1, -1), (23, 3, 1), (31, 3, 1), (47, 5, -1),
                       (71, 7, 1)):
        assert class_number_dirichlet(p).h == h
        assert verify_mordell(p).predicted == sign
