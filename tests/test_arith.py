import numpy as np
import pytest

from gaussprod import CongruenceConstraint, is_prime, legendre, primes_matching
from gaussprod.arith import _SEGMENT, sieve_primes

from oracles import naive_is_prime, naive_legendre

ODD_PRIMES = [p for p in range(3, 400) if naive_is_prime(p)]


def test_is_prime_against_trial_division():
    for n in range(0, 2000):
        assert is_prime(n) == naive_is_prime(n), n


@pytest.mark.parametrize("n,expect", [
    (561, False),            # Carmichael
    (2**61 - 1, True),       # Mersenne
    (1373653, False),        # strong pseudoprime to bases 2,3
    (25326001, False),       # strong pseudoprime to bases 2,3,5
    (3215031751, False),     # strong pseudoprime to bases 2,3,5,7
    (10**18 + 9, True),
])
def test_is_prime_known_hard_cases(n, expect):
    assert is_prime(n) is expect


def test_is_prime_either_side_of_the_four_witness_bound():
    # bases 2, 3, 5, 7 decide below 3215031751 and all twelve at and above
    # it; a composite within 1000 of it has a prime factor below 56700,
    # since 56701**2 < 3215031751 - 1000 and 56701 divides none of them
    ns = np.arange(3215031751 - 1000, 3215031751 + 1001)
    composite = np.zeros(ns.size, dtype=bool)
    for p in (p for p in range(2, 56700) if naive_is_prime(p)):
        composite |= ns % p == 0
    assert [is_prime(n) for n in ns.tolist()] == (~composite).tolist()
    assert composite.sum() > 1800


def test_legendre_matches_square_sets():
    for p in ODD_PRIMES[:25]:
        for a in range(0, p):
            assert legendre(a, p) == naive_legendre(a, p), (a, p)


def test_legendre_rejects_non_prime_modulus():
    for bad in (1, 2, 9, 15, 21):
        with pytest.raises(ValueError):
            legendre(2, bad)


def test_sieve_matches_trial_division():
    for limit in (0, 1, 2, 3, 4, 500):
        got = list(sieve_primes(limit))
        want = [n for n in range(limit) if naive_is_prime(n)]
        assert got == want, limit


def test_congruence_constraint_validation():
    with pytest.raises(ValueError):
        CongruenceConstraint(1, 0)
    with pytest.raises(ValueError):
        CongruenceConstraint(4, 4)


def test_primes_matching_example():
    got = primes_matching(50, [CongruenceConstraint(4, 3),
                               CongruenceConstraint(3, 1)])
    assert got == [7, 19, 31, 43]


def test_primes_matching_brute_force_equivalence():
    cons = [CongruenceConstraint(4, 3), CongruenceConstraint(7, 1)]
    got = primes_matching(3000, cons)
    want = [n for n in range(2, 3000)
            if naive_is_prime(n) and n % 4 == 3 and n % 7 == 1]
    assert got == want


def test_primes_matching_with_a_modulus_past_int64():
    # every candidate is its own residue: the residue itself, if prime and
    # below the limit, or nothing
    assert primes_matching(100, [CongruenceConstraint(1 << 70, 5)]) == [5]
    assert primes_matching(100, [CongruenceConstraint(1 << 70, 2**64 + 3)]) == []


def test_primes_matching_contradiction_is_empty():
    cons = [CongruenceConstraint(6, 1), CongruenceConstraint(4, 0)]
    assert primes_matching(10**4, cons) == []


@pytest.mark.parametrize("limit", [_SEGMENT - 1, _SEGMENT, _SEGMENT + 1,
                                   2 * _SEGMENT + 17, 2 * _SEGMENT + 1500])
def test_primes_matching_across_segment_edges(limit):
    # the 3000 numbers below each limit, at and across the sieve's segment
    # edges; the last window crosses the edge of the second segment
    lo = limit - 3000
    window = [n for n in range(lo, limit) if naive_is_prime(n)]

    def tail(cons):
        return [n for n in primes_matching(limit, cons) if n >= lo]

    assert tail([]) == window
    assert tail([CongruenceConstraint(4, 3), CongruenceConstraint(3, 1)]) == [
        n for n in window if n % 12 == 7]
    assert primes_matching(limit, [CongruenceConstraint(6, 1), CongruenceConstraint(4, 0)]) == []
    # a modulus above the limit keeps at most its residue
    top = window[-1]
    assert primes_matching(limit, [CongruenceConstraint(1 << 22, top)]) == [top]
    assert primes_matching(limit, [CongruenceConstraint(1 << 22, top + 1)]) == []


def test_primes_matching_empty_range():
    assert primes_matching(2) == []
    assert primes_matching(0) == []
