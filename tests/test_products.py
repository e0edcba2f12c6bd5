import math
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussprod import (block_counts, generalized_partial_products, legendre,
                       partial_products, primes_matching,
                       residue_cumulative_counts, residue_mask,
                       selected_block_indices, theorem1_product,
                       CongruenceConstraint)
from gaussprod.products import _enlarged_index

from oracles import (block_cuts, naive_block_counts, naive_block_ranges,
                     naive_is_prime, naive_partial_products)

SMALL_PRIMES = [p for p in range(3, 300) if naive_is_prime(p)]

SPLIT_PAIRS = [(p, q) for q in (3, 5, 7, 11, 13)
               for p in range(7, 500)
               if naive_is_prime(p) and p % q == 1]


def test_tables_match_naive_products():
    for p, q in SPLIT_PAIRS:
        assert list(partial_products(p, q).values) == naive_partial_products(p, q)
    for p in SMALL_PRIMES[2:40]:
        for q in (3, 5, 7):
            if q < p:
                got = generalized_partial_products(p, q).values
                assert list(got) == naive_partial_products(p, q, generalized=True)


def test_block_ranges_cover_everything_once():
    # the cuts of one table serve both families: in the equal-block case
    # they are those of blocks of length (p-1)/q
    for p in SMALL_PRIMES[:30]:
        for q in (3, 5, 7, 11):
            if q >= p:
                continue
            for generalized in (False, True):
                if not generalized and (p - 1) % q:
                    continue
                cuts = block_cuts(p, q)
                rs = [(lo + 1, hi) for lo, hi in zip(cuts, cuts[1:])]
                assert rs == naive_block_ranges(p, q, generalized)
                seen = [v for lo, hi in rs for v in range(lo, hi + 1)]
                assert seen == list(range(1, p))


def test_generalized_agrees_with_plain_in_split_case():
    for p, q in SPLIT_PAIRS[:80]:
        assert (generalized_partial_products(p, q).values
                == partial_products(p, q).values)


def test_input_validation():
    with pytest.raises(ValueError):
        partial_products(9, 2)          # composite p
    with pytest.raises(ValueError):
        partial_products(11, 4)         # 4 does not divide 10
    with pytest.raises(ValueError):
        partial_products(7, 1)
    with pytest.raises(ValueError):
        generalized_partial_products(7, 7)
    with pytest.raises(ValueError):
        generalized_partial_products(7, 11)
    with pytest.raises(ValueError):
        generalized_partial_products(11, 9)
    with pytest.raises(ValueError):
        partial_products(11, 5).block(6)


def test_block_products_match_scalar_loop():
    # equal blocks with n of both parities and floor-cut blocks; at
    # p = 99991 the blocks hold up to 50k integers
    layouts = {101: ((2, 4, 25, 50, 100), (3, 7, 97)),
               99991: ((2, 10, 99, 101), (3, 97))}
    for p, (equal, floor_cut) in layouts.items():
        for n, generalized in [(n, False) for n in equal] + [(q, True) for q in floor_cut]:
            want = []
            for lo, hi in naive_block_ranges(p, n, generalized):
                scalar = 1
                for j in range(lo, hi + 1):
                    scalar = scalar * j % p
                want.append(scalar)
            table = (generalized_partial_products(p, n) if generalized
                     else partial_products(p, n))
            assert list(table.values) == want, (p, n)


def test_block_layouts_are_mirror_symmetric():
    # c_(n-k) = p - 1 - c_k for the cut points c_0..c_n, on which the block
    # tables rest: n = 2, every odd prime q < p and every n | p - 1
    primes = [p for p in range(3, 600) if naive_is_prime(p)]
    for p in primes:
        layouts = [(n, False) for n in range(2, p) if (p - 1) % n == 0]
        layouts += [(q, True) for q in primes if q < p]
        for n, generalized in layouts:
            cuts = [0] + [hi for _, hi in naive_block_ranges(p, n, generalized)]
            assert cuts == block_cuts(p, n), (p, n, generalized)
            assert [p - 1 - c for c in cuts] == cuts[::-1], (p, n, generalized)


@given(st.sampled_from(SMALL_PRIMES), st.data())
@settings(max_examples=60)
def test_prefix_factorials_are_factorials(p, data):
    divisors = [n for n in range(2, p) if (p - 1) % n == 0]
    n = data.draw(st.sampled_from(divisors))
    table = partial_products(p, n)
    m = (p - 1) // n
    pref = list(accumulate(table.values, lambda a, v: a * v % p))
    for i in (1, n // 2 + 1, n):
        assert pref[i - 1] == math.factorial(i * m) % p


def test_wilson_closure():
    for p in SMALL_PRIMES:
        for n in (2, (p - 1) // 2, p - 1):
            if n >= 2 and (p - 1) % n == 0:
                assert partial_products(p, n).full_product() == p - 1


def test_mirror_symmetry_of_split_tables():
    # block k and block q+1-k carry the same value when p = 3 (mod 4)
    for p, q in SPLIT_PAIRS:
        if p % 4 != 3:
            continue
        vals = partial_products(p, q).values
        for k in range(1, q + 1):
            assert vals[k - 1] == vals[q - k], (p, q, k)


def test_central_block_is_nonresidue_in_split_case():
    for p, q in SPLIT_PAIRS:
        if p % 4 != 3:
            continue
        central = partial_products(p, q).block((q + 1) // 2)
        assert legendre(central, p) == -1, (p, q)


def test_counts_match_naive_and_sum_to_half():
    for p, q in SPLIT_PAIRS[:80]:
        c = block_counts(p, q)
        res, nonres = naive_block_counts(p, q)
        assert list(c.residues) == res
        assert list(c.nonresidues) == nonres
        assert sum(c.residues) == sum(c.nonresidues) == (p - 1) // 2
    for p in SMALL_PRIMES[3:30]:
        for q in (3, 5, 7):
            c = block_counts(p, q, generalized=True)
            res, nonres = naive_block_counts(p, q, generalized=True)
            assert list(c.residues) == res
            assert list(c.nonresidues) == nonres


def test_residue_mask_and_cumulative_counts():
    for p in SMALL_PRIMES[:20]:
        mask = residue_mask(p)
        squares = {x * x % p for x in range(1, p)}
        assert {i for i in range(p) if mask[i]} == squares
        cum = residue_cumulative_counts(p)
        assert int(cum[p - 1]) == (p - 1) // 2
        running = 0
        for v in range(1, p):
            running += v in squares
            assert int(cum[v]) == running


def test_selected_block_indices():
    # exactly every other index counting down from just below the center
    for q in range(3, 100, 2):
        ks = selected_block_indices(q)
        assert all(((q + 1) // 2 - k) % 2 == 1 for k in ks)
        assert len(ks) == (q - 1) // 4 + (1 if (q + 1) // 2 % 2 == 0 else 0)


def test_selected_product_equals_prefix_factorial_product():
    # multiplying blocks k with multiplicity (q+1)/2 - k over the lower half
    # gives the product of the first (q-1)/2 prefix factorials; the selected
    # product differs from it by a perfect square
    for p, q in SPLIT_PAIRS:
        if p % 4 != 3 or p > 2000:
            continue
        table = partial_products(p, q)
        pref = list(accumulate(table.values, lambda a, v: a * v % p))
        lhs = 1
        for i in range(1, (q - 1) // 2 + 1):
            lhs = lhs * pref[i - 1] % p
        rhs = 1
        for k in range(1, (q - 1) // 2 + 1):
            rhs = rhs * pow(table.block(k), (q + 1) // 2 - k, p) % p
        assert lhs == rhs, (p, q)
        assert legendre(lhs, p) == legendre(theorem1_product(p, q), p), (p, q)


def test_enlarged_block_index_formula():
    qs = primes_matching(10**4)[2:]     # every prime 5 <= q < 1e4
    assert len(qs) == 1227
    for q in qs:
        assert _enlarged_index(q) == -(-q // 3), q   # ceil(q/3)


def test_enlarged_blocks_match_observed_sizes():
    pairs = [(p, q) for q in (5, 7, 11, 13)
             for p in primes_matching(3000, [CongruenceConstraint(4, 3),
                                             CongruenceConstraint(q, 3)])
             if p > q]
    assert pairs
    for p, q in pairs:
        counts = block_counts(p, q, generalized=True)
        kstar = _enlarged_index(q)
        base = (p - 3) // q
        sizes = [r + n for r, n in zip(counts.residues, counts.nonresidues)]
        assert sizes == [base + (k in (kstar, q + 1 - kstar)) for k in range(1, q + 1)], (p, q)
