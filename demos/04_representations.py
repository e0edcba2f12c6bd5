"""Norm-form representations 4*p**h = a^2 + q*b^2 and the symbol they predict.

Run:  python demos/04_representations.py
"""

from gaussprod import (CongruenceConstraint, beta_identity_check,
                       hahn_lee_representation, legendre, primes_matching,
                       square_subgroup, verify_eq_a)

print("For q = 3 (mod 4) and p = 1 (mod q), the pair (a, b) with")
print("a^2 + q*b^2 = 4*p^(h(-q)) and a = 2 (mod q) is essentially unique:")
for q in (7, 11, 23):
    for p in primes_matching(150, [CongruenceConstraint(q, 1)]):
        r = hahn_lee_representation(p, q)
        a_txt = f"({r.a})" if r.a < 0 else f"{r.a}"
        print(f"  q={q:>2} p={p:>3}: 4*{p}^{r.h} = {a_txt}^2 + {q}*{r.b}^2, "
              f"(a|p) = {legendre(r.a, p):+d}")
print()

print("Larger class numbers need no search: a root of -q mod p is lifted to p^h")
print("and Cornacchia's algorithm finds the pair in O(h log p) steps:")
for q in (47, 71):
    for p in primes_matching(2000, [CongruenceConstraint(q, 1)])[:3]:
        r = hahn_lee_representation(p, q)
        a_txt = f"({r.a})" if r.a < 0 else f"{r.a}"
        print(f"  q={q} p={p:>4}: 4*{p}^{r.h} = {a_txt}^2 + {q}*{r.b}^2, "
              f"(a|p) = {legendre(r.a, p):+d}")
print()

print("The subgroup of squares mod q and the indices with -i a square:")
for q in (7, 11, 19):
    d = square_subgroup(q)
    print(f"  q={q:>2}: squares {sorted(d.squares)}, negated {d.neg_square_indices}, "
          f"beta={d.beta}")
print()

print("beta ties back to h(-q) by (h+1)/2 + (q-3)/4 for every q > 3:")
for q in (7, 11, 19, 23, 31, 43):
    v = beta_identity_check(q)
    print(f"  q={q:>2}: predicted {v.predicted} computed {v.computed} "
          f"-> {'ok' if v.passed else 'FAIL'}")
print("  q= 3: excluded, beta = 2/3 is not even an integer there")
print()

print("(a|p) equals the signed product of block factorials over those indices:")
for p in primes_matching(400, [CongruenceConstraint(11, 1)]):
    v = verify_eq_a(p, 11)
    print(f"  p={p:>3}: left {v.predicted:+d} right {v.computed:+d} [{v.detail}]")
