"""Block products of consecutive integers mod p and their residue symbols.

The package computes partial products of the blocks cutting 1..p-1 into q
pieces (equal pieces when q divides p - 1, floor-cut pieces otherwise),
class numbers h(-p) by three independent methods, norm-form representations
4*p**h = a^2 + q*b^2, and verifies a family of quadratic-residue identities
connecting all of these over exhaustive prime ranges.
"""

from .arith import CongruenceConstraint, is_prime, legendre, primes_matching
from .classnum import (ClassNumberResult, Representation, SquareSubgroupData,
                       beta_identity_check, class_number_dirichlet,
                       class_number_forms, class_number_lemma1,
                       hahn_lee_representation, square_subgroup)
from .errors import InternalCheckError, RegimeError
from .products import (BlockCounts, PartialProductTable, block_counts,
                       generalized_partial_products, partial_products,
                       residue_cumulative_counts, residue_mask,
                       selected_block_indices, theorem1_product)
from .scan import (DEFAULT_Q_MAX, ScanConfig, ScanReport, render_csv,
                   render_human, render_json, run_scan, stream_report)
from .theorems import (THEOREM_IDS, regime_q_reason, verify, verify_corollary,
                       verify_eq2_parity, verify_eq_a, verify_mordell,
                       verify_symmetry, verify_theorem1, verify_theorem2,
                       verify_theorem3, verify_theorem4)
from .verdict import Verdict

__version__ = "0.1.0"

__all__ = [
    "BlockCounts",
    "ClassNumberResult",
    "CongruenceConstraint",
    "DEFAULT_Q_MAX",
    "InternalCheckError",
    "PartialProductTable",
    "RegimeError",
    "Representation",
    "ScanConfig",
    "ScanReport",
    "SquareSubgroupData",
    "THEOREM_IDS",
    "Verdict",
    "beta_identity_check",
    "block_counts",
    "class_number_dirichlet",
    "class_number_forms",
    "class_number_lemma1",
    "generalized_partial_products",
    "hahn_lee_representation",
    "is_prime",
    "legendre",
    "partial_products",
    "primes_matching",
    "regime_q_reason",
    "render_csv",
    "render_human",
    "render_json",
    "residue_cumulative_counts",
    "residue_mask",
    "run_scan",
    "selected_block_indices",
    "square_subgroup",
    "stream_report",
    "theorem1_product",
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
