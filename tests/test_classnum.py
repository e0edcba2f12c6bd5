import math
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussprod
from gaussprod import (CongruenceConstraint, InternalCheckError, RegimeError,
                       beta_identity_check, class_number_dirichlet,
                       class_number_forms, class_number_lemma1,
                       hahn_lee_representation, legendre, primes_matching,
                       square_subgroup)
from gaussprod.classnum import (_FORMS_BLOCK, _dirichlet, _half_interval_h, _hensel_lift,
                                _smallest_b_associate, _sqrt_mod_prime, _square_floor_sum)
from gaussprod.products import _block_counts, residue_mask

from oracles import (naive_class_number, naive_class_number_dirichlet,
                     naive_is_prime, naive_legendre, naive_lemma1_sum,
                     naive_representations)

P_3MOD4 = primes_matching(1000, [CongruenceConstraint(4, 3)])[1:]  # drop p=3

KNOWN_H = {7: 1, 11: 1, 19: 1, 23: 3, 31: 3, 43: 1, 47: 5, 59: 3, 67: 1,
           71: 7, 79: 5, 83: 3, 103: 5, 127: 5, 163: 1, 227: 5, 347: 5,
           443: 5, 499: 3, 563: 9, 571: 5, 647: 23, 887: 29, 907: 3, 991: 17}


def test_known_class_numbers_all_three_ways():
    for p, h in KNOWN_H.items():
        assert class_number_dirichlet(p).h == h, p
        assert class_number_forms(p).h == h, p
        # q = 101, 997 and 2**31 - 1 also cover q > p
        for q in (3, 5, 7, 101, 997, 2**31 - 1):
            if q != p:
                assert class_number_lemma1(p, q).h == h, (p, q)


def test_dirichlet_matches_naive_sum():
    for p in P_3MOD4[:60]:
        want = naive_class_number_dirichlet(p)
        assert want.denominator == 1
        assert class_number_dirichlet(p).h == int(want)


def test_forms_matches_naive_count():
    for p in primes_matching(10**4, [CongruenceConstraint(4, 3)]):
        assert class_number_forms(p).h == naive_class_number(p), p


def test_lemma1_matches_naive_weighted_sum():
    # q = 1 (mod p) leaves no cut, q = -1 (mod p) the most cuts, and
    # 2**31 - 1 the largest floor(q/p)
    small_q = [q for q in range(3, 700, 2) if naive_is_prime(q)]
    for p in primes_matching(600, [CongruenceConstraint(4, 3)])[1:]:
        one = next(q for q in range(2 * p + 1, 200 * p, 2 * p) if naive_is_prime(q))
        minus_one = next(q for q in range(2 * p - 1, 200 * p, 2 * p) if naive_is_prime(q))
        for q in small_q + [one, minus_one, 2**31 - 1]:
            if q == p:
                continue
            want = Fraction(naive_lemma1_sum(p, q), q - naive_legendre(q, p))
            assert want.denominator == 1, (p, q)
            assert class_number_lemma1(p, q).h == want, (p, q)


def test_forms_matches_dirichlet_across_blocks():
    # from p near 4e5 the odd b <= sqrt(p/3) fill two or more blocks of
    # _FORMS_BLOCK (b, A) pairs, and the streams over j = 1..(p-1)/2 take
    # several chunks of 2**16 with a partial last one
    for x in np.geomspace(4e5, 3e6, 30, endpoint=False):
        p = int(x) | 3
        while not naive_is_prime(p):
            p += 4
        top = math.isqrt(p // 3)
        assert (top + 1) // 2 > _FORMS_BLOCK // top, p
        half = (p - 1) // 2
        assert half > 1 << 16 and half % (1 << 16), p
        h = class_number_forms(p).h
        # Dirichlet streams, and the scan's route reads the residues of the
        # first of n = 2 blocks, 1..(p-1)/2, from a residue index
        assert _dirichlet(p).h == h, p
        residues, _ = _block_counts([p], np.array([0]), np.array([2]), [1])
        assert residues[0] + residues[1] == half, p
        two = np.array([legendre(2, p)])
        assert _half_interval_h(np.array([p]), residues[:1], two) == [h], p
        for q in (3, 97, 2**31 - 1):
            assert class_number_lemma1(p, q).h == h, (p, q)


def test_streamed_dirichlet_matches_forms():
    # the first-moment formula at every prime p == 3 (mod 4) with
    # 7 <= p < 2e4
    for p in primes_matching(20_000, [CongruenceConstraint(4, 3)])[1:]:
        half = (p - 1) // 2
        h = half - half * (half + 1) // 3 + 2 * _square_floor_sum(p)
        assert h == class_number_forms(p).h, p


BOUNDED_P = 268_435_399


def run_capped(code):
    """Run code in a child whose address space is capped at 1 GiB."""
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(gaussprod.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, preexec_fn=cap_address_space,
                          timeout=120)


def test_class_number_in_bounded_memory():
    # a sorted list of the squares at p = 268,435,399 would take 1 GiB, the
    # whole cap of the child; every route to h(-p) runs in O(2**16 + sqrt(p))
    # memory
    p, q_below_p = BOUNDED_P, 268_435_367
    run = run_capped(
        f"from gaussprod import *\n"
        f"print(class_number_dirichlet({p}).h, class_number_forms({p}).h,"
        f" class_number_lemma1({p}, 3).h, class_number_lemma1({p}, {q_below_p}).h)")
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["7545"] * 4


def test_block_counts_in_bounded_memory():
    # the residue index at p = 268,435,399 keeps p/4 bytes, and its build
    # peaks near 1.25p, within the 1 GiB cap; one build gives the counts of
    # 97 blocks and of the 2 halves, and the scan's route to h(-p) reads the
    # first half's
    p = BOUNDED_P
    run = run_capped(
        f"import numpy as np\n"
        f"from gaussprod.classnum import _half_interval_h\n"
        f"from gaussprod.arith import legendre\n"
        f"from gaussprod.products import _block_counts\n"
        f"res, _ = _block_counts([{p}], np.array([0, 0]), np.array([97, 2]), [1])\n"
        f"two = np.array([legendre(2, {p})])\n"
        f"h = _half_interval_h(np.array([{p}]), res[98:99], two)[0]\n"
        f"print(res[:97].sum(), res[98] + res[99], h)")
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [str((p - 1) // 2)] * 2 + ["7545"]


def test_three_routes_agree_near_1e7():
    p = 10_000_019
    assert naive_is_prime(p) and p % 4 == 3
    h = class_number_forms(p).h
    assert class_number_dirichlet(p).h == h
    assert class_number_lemma1(p, 3).h == h


def test_forms_at_2_31_is_fast():
    # O(2**16 + sqrt(p)) memory; about 0.7 s on a 2-vCPU VM, where a loop
    # over every (A, B) pair would take minutes
    start = time.perf_counter()
    h = class_number_forms.__wrapped__(2**31 - 1).h
    assert time.perf_counter() - start < 20
    assert h % 2 == 1     # h(-p) is odd for a prime p == 3 (mod 4)


def test_three_methods_agree_and_h_is_odd():
    for p in P_3MOD4:
        h = class_number_dirichlet(p).h
        assert class_number_forms(p).h == h, p
        assert h % 2 == 1, p
        for q in (3, 5, 7, 11, 13):
            if q != p:
                assert class_number_lemma1(p, q).h == h, (p, q)


def test_weighted_sum_specializes_to_half_interval_pattern():
    # substituting q = 2 in the weighted sum reproduces the plain
    # half-interval sum with denominator 2 - (2|p)
    for p in P_3MOD4[:40]:
        mask = residue_mask(p)
        total = sum((1 if mask[a] else -1) * (2 - 1 - 2 * (a * 2 // p))
                    for a in range(1, (p - 1) // 2 + 1))
        denom = 2 - legendre(2, p)
        assert total % denom == 0
        assert total // denom == class_number_dirichlet(p).h, p


def test_validation_errors():
    for bad in (5, 9, 13, 21):      # not 3 mod 4 or not prime
        with pytest.raises(ValueError):
            class_number_dirichlet(bad)
    with pytest.raises(ValueError):
        class_number_dirichlet(3)   # below the documented minimum
    assert class_number_forms(3).h == 1  # forms route admits 3 on purpose
    # m = (b*b + p)/4 <= p/3 is int32; it wrapped at the two primes
    for p in (3 << 31, 7_000_000_103, 14_000_000_159):
        with pytest.raises(ValueError, match="3\\*2\\*\\*31"):
            class_number_forms(p)
    with pytest.raises(ValueError):
        class_number_lemma1(23, 23)
    with pytest.raises(ValueError):
        class_number_lemma1(23, 4)
    with pytest.raises(ValueError, match="2\\*\\*31"):
        class_number_lemma1(23, 2**31 + 11)     # prime, but the int64 sum needs q < 2**31


def test_square_subgroup_data():
    d11 = square_subgroup(11)
    assert sorted(d11.squares) == [1, 3, 4, 5, 9]
    assert d11.neg_square_indices == (2, 6, 7, 8, 10)
    with pytest.raises(ValueError):
        square_subgroup(5)          # 5 = 1 mod 4
    with pytest.raises(ValueError):
        square_subgroup(15)


def test_squares_and_negated_squares_partition_when_q_3mod4():
    # -1 is a nonresidue mod q = 3 (mod 4), so the two sets are disjoint
    for q in (7, 11, 19, 23, 31, 43):
        d = square_subgroup(q)
        neg = set(d.neg_square_indices)
        assert neg.isdisjoint(d.squares)
        assert neg | d.squares == set(range(1, q))


def test_beta_identity_holds_for_small_q():
    for q in (7, 11, 19, 23, 31, 43, 47, 59):
        v = beta_identity_check(q)
        assert v.passed, (q, v)
    with pytest.raises(RegimeError):
        beta_identity_check(3)


def test_representation_satisfies_equation_and_sign_rule():
    for q in (3, 7, 11, 19, 23):
        ps = [p for p in primes_matching(600, [CongruenceConstraint(q, 1)])
              if p != q]
        for p in ps:
            r = hahn_lee_representation(p, q)
            assert r.a * r.a + q * r.b * r.b == 4 * p ** r.h, (p, q)
            assert r.a % q == 2, (p, q)
            assert r.b > 0
            assert r.b % p or r.a % p, (p, q)   # primitivity


# q == 3 (mod 4) primes up to 97; q = 71 is absent on purpose: h(-71) = 7
# and its smallest admissible p is 569, where the naive search would try
# about 1e9 values of b.  Criterion 10 covers q = 71 through the run-time
# checks and the eq_a/t2 verdicts instead.
NAIVE_Q = (3, 7, 11, 19, 23, 31, 43, 47, 59, 67, 79, 83)


def test_representation_matches_naive_search():
    assert set(NAIVE_Q) | {71} == {q for q in range(3, 98, 4)
                                   if naive_is_prime(q)}
    for q in NAIVE_Q:
        h = naive_class_number(q)
        # p < 3000, and the naive search tries sqrt(4*p**h/q) <= 500_000 b
        ps = [p for p in primes_matching(3000, [CongruenceConstraint(q, 1)])
              if p != q and 4 * p ** h <= q * 500_000 ** 2]
        assert ps, q
        for p in ps:
            r = hahn_lee_representation(p, q)
            assert r.h == h, (p, q)
            candidates = [(a, b) for a, b in naive_representations(p, q, h)
                          if b % p or a % p]
            assert (r.a, r.b) in candidates, (p, q)
            if q > 3:
                # unique primitive |a|: every candidate shares it
                assert len({abs(a) for a, _ in candidates}) == 1, (p, q)
            else:
                assert r.b == min(b for _, b in candidates), p


def test_sqrt_mod_prime():
    # p == 1 (mod 8) takes Tonelli-Shanks through more than one squaring
    # round (65537 = 2**16 + 1 through sixteen); 7, 11, 13 take short paths
    for p in (7, 11, 13, 17, 41, 73, 97, 113, 193, 257, 65537):
        squares = {x * x % p for x in range(1, p)}
        for n in range(min(p, 300)):
            if n in squares:
                r = _sqrt_mod_prime(n, p)
                assert 0 <= r < p and r * r % p == n, (n, p)
            else:
                with pytest.raises(InternalCheckError):
                    _sqrt_mod_prime(n, p)


def test_hensel_lift():
    for p, n in ((7, 2), (17, 2), (29, -7), (41, -23), (283, -47), (569, -71)):
        r = _sqrt_mod_prime(n, p)
        for k in range(1, 8):
            mod = p ** k
            lifted = _hensel_lift(r, n, p, k)
            assert 0 <= lifted < mod, (p, n, k)
            assert (lifted * lifted - n) % mod == 0, (p, n, k)
            assert lifted % p == r, (p, n, k)


def test_representation_skips_imprimitive_solutions():
    # 4*599**3 also equals 599**2 * 4*599, so 599 times the h=1 solution is
    # an imprimitive pair that must not be returned
    r = hahn_lee_representation(599, 23)
    assert r.b % 599 and r.a % 599
    assert r.a * r.a + 23 * r.b * r.b == 4 * 599 ** 3


def test_representation_regime_errors():
    with pytest.raises(ValueError):
        hahn_lee_representation(13, 7)   # 13 = 6 mod 7
    with pytest.raises(ValueError):
        hahn_lee_representation(29, 5)   # q = 1 mod 4
    with pytest.raises(ValueError):
        hahn_lee_representation(49, 3)   # p composite


def test_q3_representation_picks_smallest_b():
    # q=3 admits several primitive pairs; the smallest b is the documented pick
    for p in (7, 13, 19, 31, 37, 43):
        r = hahn_lee_representation(p, 3)
        pairs = [(a, b) for a, b in naive_representations(p, 3, 1)
                 if b % p or a % p]
        smallest = min(pairs, key=lambda t: t[1])
        assert r.b == smallest[1], p
        # every associate normalizes to the smallest-b pair, whichever one
        # Cornacchia happens to return
        for a, b in pairs:
            assert _smallest_b_associate(a, b) == (abs(smallest[0]), smallest[1])


@given(st.sampled_from(P_3MOD4))
@settings(max_examples=40, deadline=None)
def test_dirichlet_equals_forms_property(p):
    assert class_number_dirichlet(p).h == class_number_forms(p).h
