"""Tour of block partial products: tables, mirror symmetry, Wilson closure.

Run:  python demos/01_block_products.py
"""

import math
from itertools import accumulate

from gaussprod import (generalized_partial_products, legendre,
                       partial_products, selected_block_indices,
                       theorem1_product)


def show_table(p, q, generalized=False):
    table = (generalized_partial_products(p, q) if generalized
             else partial_products(p, q))
    kind = "floor-cut" if generalized else "equal"
    print(f"p={p}, q={q} ({kind} blocks): {list(table.values)}")
    return table


print("Splitting 1..p-1 into q blocks and reducing each block product mod p.")
print()

t = show_table(43, 7)
print("  the table reads the same forwards and backwards:",
      list(t.values) == list(reversed(t.values)))
center = t.block((7 + 1) // 2)
print(f"  central block value {center} is a nonresidue:",
      legendre(center, 43) == -1)
print(f"  product of all blocks is p-1 = {t.full_product()} (Wilson)")
print()

print("Prefix products of the blocks are factorials of the cut points:")
pref = list(accumulate(t.values, lambda a, v: a * v % 43))
print(f"  (6m)! for m=6: blocks 1..6 multiply to {pref[5]}, "
      f"and 36! mod 43 is indeed {math.factorial(36) % 43}")
print()

print("When q does not divide p-1 the cuts move to floor(kp/q):")
show_table(23, 5, generalized=True)
show_table(11, 3, generalized=True)
print()

q = 11
ks = selected_block_indices(q)
print(f"Selected lower-half blocks for q={q} (odd distance from center): {ks}")
for p in (23, 67, 89, 199):
    if p % q == 1 and p % 4 == 3:
        val = theorem1_product(p, q)
        print(f"  p={p}: selected product = {val}, symbol = {legendre(val, p):+d}")
