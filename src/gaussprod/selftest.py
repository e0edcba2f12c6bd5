"""Built-in fixture checks: every documented example value, frozen.

Each fixture recomputes one small quantity and compares it against a literal
that was derived independently (hand calculation or a brute-force reference)
before this package existed, so a regression here means the code drifted,
not the fixtures.
"""

from __future__ import annotations

import os
from argparse import Namespace
from fractions import Fraction

from . import arith, classnum, products, scan, theorems
from .arith import CongruenceConstraint
from .errors import RegimeError
from .scan import ScanConfig, run_scan


def _raises(exc_type, fn, *args, **kwargs) -> bool:
    try:
        fn(*args, **kwargs)
    except exc_type:
        return True
    except Exception:
        return False
    return False


def _scan_totals(p_max: int, theorem: str, q: int) -> tuple[int, int, int]:
    rep = run_scan(ScanConfig(p_max=p_max, theorems=(theorem,), q_values=(q,)))
    t = rep.totals[theorem]
    return (t["applicable"], t["passed"], t["failed"])


def _verdict_core(v) -> tuple:
    return (v.predicted, v.computed, v.passed)


def _compute_human(**kw) -> str:
    from .cli import _compute_payload
    base = dict(p=None, q=None, what=None, generalized=False,
                theorem=None, format="human")
    base.update(kw)
    return _compute_payload(Namespace(**base))[1]


# (module, name, thunk, expected)
FIXTURES: list[tuple[str, str, object, object]] = [
    # ---- arith ----
    ("arith", "is_prime 2", lambda: arith.is_prime(2), True),
    ("arith", "is_prime 1", lambda: arith.is_prime(1), False),
    ("arith", "is_prime carmichael 561", lambda: arith.is_prime(561), False),
    ("arith", "is_prime 7919", lambda: arith.is_prime(7919), True),
    ("arith", "is_prime mersenne 2^61-1", lambda: arith.is_prime(2**61 - 1), True),
    ("arith", "legendre residue", lambda: arith.legendre(2, 7), 1),
    ("arith", "legendre nonresidue", lambda: arith.legendre(3, 7), -1),
    ("arith", "legendre multiple of p", lambda: arith.legendre(14, 7), 0),
    ("arith", "legendre rejects composite modulus",
     lambda: _raises(ValueError, arith.legendre, 2, 9), True),
    ("arith", "primes matching two constraints",
     lambda: arith.primes_matching(50, [CongruenceConstraint(4, 3),
                                        CongruenceConstraint(3, 1)]),
     [7, 19, 31, 43]),
    ("arith", "primes matching unconstrained",
     lambda: arith.primes_matching(30), [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]),
    ("arith", "primes matching contradictory constraints",
     lambda: arith.primes_matching(100, [CongruenceConstraint(2, 0),
                                         CongruenceConstraint(2, 1)]), []),
    # ---- products ----
    ("products", "table (7,2)", lambda: products.partial_products(7, 2).values, (6, 1)),
    ("products", "table (7,3)", lambda: products.partial_products(7, 3).values, (2, 5, 2)),
    ("products", "table (7,6)",
     lambda: products.partial_products(7, 6).values, (1, 2, 3, 4, 5, 6)),
    ("products", "table (11,5)",
     lambda: products.partial_products(11, 5).values, (2, 1, 8, 1, 2)),
    ("products", "table (43,7)",
     lambda: products.partial_products(43, 7).values, (32, 27, 3, 20, 3, 27, 32)),
    ("products", "rejects non-divisor block count",
     lambda: _raises(ValueError, products.partial_products, 11, 4), True),
    ("products", "generalized table (11,3)",
     lambda: products.generalized_partial_products(11, 3).values, (6, 4, 5)),
    ("products", "generalized table (23,5)",
     lambda: products.generalized_partial_products(23, 5).values, (1, 9, 2, 14, 1)),
    ("products", "generalized equals plain when p=1 mod q",
     lambda: products.generalized_partial_products(7, 3).values
     == products.partial_products(7, 3).values, True),
    ("products", "full product is p-1 (11,5)",
     lambda: products.partial_products(11, 5).full_product(), 10),
    ("products", "counts (7,3)",
     lambda: (products.block_counts(7, 3).residues,
              products.block_counts(7, 3).nonresidues), ((2, 1, 0), (0, 1, 2))),
    ("products", "counts (11,5)",
     lambda: (products.block_counts(11, 5).residues,
              products.block_counts(11, 5).nonresidues),
     ((1, 2, 1, 0, 1), (1, 0, 1, 2, 1))),
    ("products", "counts (31,3)",
     lambda: (products.block_counts(31, 3).residues,
              products.block_counts(31, 3).nonresidues), ((8, 5, 2), (2, 5, 8))),
    ("products", "counts (43,7)",
     lambda: (products.block_counts(43, 7).residues,
              products.block_counts(43, 7).nonresidues),
     ((3, 3, 5, 3, 1, 3, 3), (3, 3, 1, 3, 5, 3, 3))),
    ("products", "generalized block sizes (23,5)",
     lambda: tuple(map(sum, zip(products.block_counts(23, 5, generalized=True).residues,
                               products.block_counts(23, 5, generalized=True).nonresidues))),
     (4, 5, 4, 5, 4)),
    ("products", "selected indices q=3", lambda: products.selected_block_indices(3), (1,)),
    ("products", "selected indices q=5", lambda: products.selected_block_indices(5), (2,)),
    ("products", "selected indices q=7", lambda: products.selected_block_indices(7), (1, 3)),
    ("products", "selected indices q=11",
     lambda: products.selected_block_indices(11), (1, 3, 5)),
    ("products", "selected indices q=13",
     lambda: products.selected_block_indices(13), (2, 4, 6)),
    ("products", "selected product (7,3)", lambda: products.theorem1_product(7, 3), 2),
    ("products", "selected product (11,5)", lambda: products.theorem1_product(11, 5), 1),
    ("products", "selected product (31,5)", lambda: products.theorem1_product(31, 5), 20),
    ("products", "selected product (43,7)", lambda: products.theorem1_product(43, 7), 10),
    ("products", "selected generalized product (11,3)",
     lambda: products.theorem1_product(11, 3, generalized=True), 6),
    ("products", "residue count up to (p-1)/2 at p=7",
     lambda: int(products.residue_cumulative_counts(7)[3]), 2),
    # ---- classnum ----
    ("classnum", "dirichlet h(-7)", lambda: classnum.class_number_dirichlet(7).h, 1),
    ("classnum", "dirichlet h(-23)", lambda: classnum.class_number_dirichlet(23).h, 3),
    ("classnum", "dirichlet h(-31)", lambda: classnum.class_number_dirichlet(31).h, 3),
    ("classnum", "dirichlet h(-47)", lambda: classnum.class_number_dirichlet(47).h, 5),
    ("classnum", "dirichlet h(-71)", lambda: classnum.class_number_dirichlet(71).h, 7),
    ("classnum", "weighted sum h(-23) via q=3",
     lambda: classnum.class_number_lemma1(23, 3).h, 3),
    ("classnum", "weighted sum h(-7) via q=5",
     lambda: classnum.class_number_lemma1(7, 5).h, 1),
    ("classnum", "weighted sum h(-31) via q=7",
     lambda: classnum.class_number_lemma1(31, 7).h, 3),
    ("classnum", "weighted sum h(-7) via q=29 = 1 (mod 7), no cuts",
     lambda: classnum.class_number_lemma1(7, 29).h, 1),
    ("classnum", "weighted sum h(-23) via q=2**31-1 > p",
     lambda: classnum.class_number_lemma1(23, 2**31 - 1).h, 3),
    ("classnum", "forms h(-3)", lambda: classnum.class_number_forms(3).h, 1),
    ("classnum", "forms h(-11)", lambda: classnum.class_number_forms(11).h, 1),
    ("classnum", "forms h(-23)", lambda: classnum.class_number_forms(23).h, 3),
    ("classnum", "forms h(-47)", lambda: classnum.class_number_forms(47).h, 5),
    ("classnum", "three routes agree at p=83",
     lambda: (classnum.class_number_dirichlet(83).h,
              classnum.class_number_lemma1(83, 3).h,
              classnum.class_number_forms(83).h), (3, 3, 3)),
    ("classnum", "squares mod 7",
     lambda: sorted(classnum.square_subgroup(7).squares), [1, 2, 4]),
    ("classnum", "negated-square indices mod 7",
     lambda: classnum.square_subgroup(7).neg_square_indices, (3, 5, 6)),
    ("classnum", "beta q=7", lambda: classnum.square_subgroup(7).beta, Fraction(2)),
    ("classnum", "beta q=11", lambda: classnum.square_subgroup(11).beta, Fraction(3)),
    ("classnum", "beta q=23", lambda: classnum.square_subgroup(23).beta, Fraction(7)),
    ("classnum", "beta q=3 is 2/3",
     lambda: classnum.square_subgroup(3).beta, Fraction(2, 3)),
    ("classnum", "beta identity q=7",
     lambda: _verdict_core(classnum.beta_identity_check(7)), (2, 2, True)),
    ("classnum", "beta identity q=23",
     lambda: _verdict_core(classnum.beta_identity_check(23)), (7, 7, True)),
    ("classnum", "beta identity rejects q=3",
     lambda: _raises(RegimeError, classnum.beta_identity_check, 3), True),
    ("classnum", "representation (7,3)",
     lambda: (lambda r: (r.a, r.b, r.h))(classnum.hahn_lee_representation(7, 3)),
     (5, 1, 1)),
    ("classnum", "representation (19,3)",
     lambda: (lambda r: (r.a, r.b, r.h))(classnum.hahn_lee_representation(19, 3)),
     (8, 2, 1)),
    ("classnum", "representation (43,7)",
     lambda: (lambda r: (r.a, r.b, r.h))(classnum.hahn_lee_representation(43, 7)),
     (-12, 2, 1)),
    ("classnum", "representation (29,7)",
     lambda: (lambda r: (r.a, r.b, r.h))(classnum.hahn_lee_representation(29, 7)),
     (2, 4, 1)),
    ("classnum", "representation (89,11)",
     lambda: (lambda r: (r.a, r.b, r.h))(classnum.hahn_lee_representation(89, 11)),
     (-9, 5, 1)),
    ("classnum", "representation rejects p not 1 mod q",
     lambda: _raises(ValueError, classnum.hahn_lee_representation, 13, 7), True),
    # ---- theorems ----
    ("theorems", "mordell p=7",
     lambda: _verdict_core(theorems.verify_mordell(7)), (-1, -1, True)),
    ("theorems", "mordell p=23",
     lambda: _verdict_core(theorems.verify_mordell(23)), (1, 1, True)),
    ("theorems", "mordell rejects p=1 mod 4",
     lambda: _raises(RegimeError, theorems.verify_mordell, 13), True),
    ("theorems", "t1 (7,3)",
     lambda: _verdict_core(theorems.verify_theorem1(7, 3)), (1, 1, True)),
    ("theorems", "t1 (31,5)",
     lambda: _verdict_core(theorems.verify_theorem1(31, 5)), (1, 1, True)),
    ("theorems", "t1 rejects wrong residue class",
     lambda: _raises(RegimeError, theorems.verify_theorem1, 13, 3), True),
    ("theorems", "corollary (43,7)",
     lambda: _verdict_core(theorems.verify_corollary(43, 7)), (0, 0, True)),
    ("theorems", "corollary (43,7) pair symbols recorded",
     lambda: "pair (-1,-1)" in theorems.verify_corollary(43, 7).detail, True),
    ("theorems", "eq_a (43,7)",
     lambda: _verdict_core(theorems.verify_eq_a(43, 7)), (1, 1, True)),
    ("theorems", "eq_a (29,7)",
     lambda: _verdict_core(theorems.verify_eq_a(29, 7)), (-1, -1, True)),
    ("theorems", "eq_a (23,11)",
     lambda: theorems.verify_eq_a(23, 11).passed, True),
    ("theorems", "eq_a rejects q=3",
     lambda: _raises(RegimeError, theorems.verify_eq_a, 7, 3), True),
    ("theorems", "t2 (7,3)",
     lambda: _verdict_core(theorems.verify_theorem2(7, 3)), ((-1, 1), (-1, 1), True)),
    ("theorems", "t2 (43,7)",
     lambda: _verdict_core(theorems.verify_theorem2(43, 7)), ((1, 1), (1, 1), True)),
    ("theorems", "t3 (11,3)",
     lambda: _verdict_core(theorems.verify_theorem3(11, 3)), ((-1, 1), (-1, 1), True)),
    ("theorems", "t3 (23,7)",
     lambda: _verdict_core(theorems.verify_theorem3(23, 7)), ((-1, 1), (-1, 1), True)),
    ("theorems", "t3 (7,5)",
     lambda: _verdict_core(theorems.verify_theorem3(7, 5)), ((1, 1), (1, 1), True)),
    ("theorems", "t4 (23,5)",
     lambda: _verdict_core(theorems.verify_theorem4(23, 5)),
     ((1, 1, 1, 1), (1, 1, 1, 1), True)),
    ("theorems", "t4 (31,7)",
     lambda: _verdict_core(theorems.verify_theorem4(31, 7)),
     ((1, 1, 1, 1), (1, 1, 1, 1), True)),
    ("theorems", "t4 (47,11)",
     lambda: _verdict_core(theorems.verify_theorem4(47, 11)),
     ((1, 1, 1, 1), (1, 1, 1, 1), True)),
    ("theorems", "t4 rejects q=3",
     lambda: _raises(RegimeError, theorems.verify_theorem4, 31, 3), True),
    ("theorems", "count identities (7,3)",
     lambda: _verdict_core(theorems.verify_eq2_parity(7, 3)),
     ((2, 0, 0), (2, 0, 0), True)),
    ("theorems", "count identities (31,3)",
     lambda: _verdict_core(theorems.verify_eq2_parity(31, 3)),
     ((6, 2, 0), (6, 2, 0), True)),
    ("theorems", "count identities (43,7)",
     lambda: _verdict_core(theorems.verify_eq2_parity(43, 7)),
     ((4, 16, 0), (4, 16, 0), True)),
    ("theorems", "symmetry (7,3)",
     lambda: _verdict_core(theorems.verify_symmetry(7, 3)),
     ((0, -1, -1), (0, -1, -1), True)),
    ("theorems", "symmetry (11,5)",
     lambda: _verdict_core(theorems.verify_symmetry(11, 5)),
     ((0, -1, -1), (0, -1, -1), True)),
    ("theorems", "symmetry (43,7)",
     lambda: theorems.verify_symmetry(43, 7).passed, True),
    ("theorems", "dispatch by id",
     lambda: theorems.verify("t1", 7, 3).passed, True),
    ("theorems", "dispatch rejects unknown id",
     lambda: _raises(ValueError, theorems.verify, "t9", 7, 3), True),
    ("theorems", "q reason for eq_a at 3",
     lambda: theorems.regime_q_reason("eq_a", 3) is not None, True),
    ("theorems", "q reason accepts t4 at 5",
     lambda: theorems.regime_q_reason("t4", 5), None),
    # ---- scan ----
    ("scan", "t1 sweep p<100 q=3 finds six pairs",
     lambda: _scan_totals(100, "t1", 3), (6, 6, 0)),
    ("scan", "empty regime is vacuous",
     lambda: _scan_totals(10, "t1", 7), (0, 0, 0)),
    ("scan", "mordell sweep p<100",
     lambda: _scan_totals(100, "mordell", 3), (12, 12, 0)),
    ("scan", "json report has no failures on a clean sweep",
     lambda: '"failures": []' in scan.render_json(
         run_scan(ScanConfig(p_max=100, theorems=("t1",), q_values=(3,)))), True),
    ("scan", "csv header",
     lambda: scan.render_csv(
         run_scan(ScanConfig(p_max=50, theorems=("mordell",)))).splitlines()[0],
     "theorem_id,p,q,predicted,computed,detail"),
    # ---- cli ----
    ("cli", "compute products text",
     lambda: _compute_human(what="products", p=7, q=3), "[2, 5, 2]"),
    ("cli", "compute generalized products text",
     lambda: _compute_human(what="products", p=11, q=3, generalized=True), "[6, 4, 5]"),
    ("cli", "compute classnumber text",
     lambda: _compute_human(what="classnumber", p=23, q=3),
     "dirichlet=3 lemma1(q=3)=3 forms=3"),
    ("cli", "compute representation text",
     lambda: _compute_human(what="representation", p=7, q=3), "a=5 b=1"),
    ("cli", "scan exits zero on a clean range",
     lambda: __import__("gaussprod.cli", fromlist=["main"]).main(
         ["scan", "--p-max", "100", "--q", "3", "--theorems", "t1",
          "--format", "json", "--output", os.devnull]), 0),
]


def run_selftest(quiet: bool = False) -> int:
    """Run every fixture; print per-module tallies; 0 if all hold, else 3."""
    failures = []
    tallies: dict[str, int] = {}
    for module, name, thunk, want in FIXTURES:
        try:
            got = thunk()
        except Exception as exc:  # a fixture must never raise
            failures.append((module, name, f"raised {exc!r}", want))
            continue
        if got != want:
            failures.append((module, name, got, want))
        tallies[module] = tallies.get(module, 0) + 1
    if not quiet:
        for module in sorted(tallies):
            print(f"{module}: {tallies[module]} fixtures")
    for module, name, got, want in failures:
        print(f"SELFTEST FAIL [{module}] {name}: got {got!r}, want {want!r}")
    total = len(FIXTURES)
    status = "ok" if not failures else f"{len(failures)} FAILED"
    print(f"selftest: {total} fixtures, {status}")
    return 0 if not failures else 3
