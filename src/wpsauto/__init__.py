"""wpsauto: prime-power automorphism orders of quasi-smooth weighted hypersurfaces.

Exact-arithmetic criteria, bounds, and a brute-force oracle deciding which
prime powers occur as automorphism orders of quasi-smooth hypersurfaces of
degree d in a weighted projective space with weights a, together with the
extremal cyclic ("Klein") hypersurfaces that realize the maximal prime.
"""

__version__ = "0.1.0"

from .arith import (
    PrimePowerOrder,
    effective_order,
    gcd_all,
    is_prime,
    prime_power_decompose,
)
from .ambient import (
    MonomialSystem,
    WeightedFamily,
    enumerate_monomials,
    is_linear_cone,
    lin_finite,
    mm_hypothesis,
    well_form_normalize,
    well_formed,
)
from .quasismooth import (
    ExplicitPolynomial,
    SingularSearchResult,
    exists_quasismooth,
    general_member_quasismooth,
    random_member,
    required_monomial,
    singular_point_search,
)
from .orders import (
    BoundReport,
    CycleChain,
    FamilyAnalysis,
    OrderVerdict,
    Signature,
    admissible_orders,
    bound_coprime,
    bound_divides_d,
    chain_invariance_check,
    divides_d_criterion,
    family_analysis,
    necessary_condition,
    oracle_exists_order,
    order_verdict,
    signature_from_chain,
    sufficient_condition,
)
from .klein import (
    KleinData,
    klein_eigenspace_check,
    klein_exists,
    klein_max_prime,
    klein_quasismooth,
    klein_singularity_R,
)
from . import errors

__all__ = [
    "__version__",
    "errors",
    "PrimePowerOrder",
    "WeightedFamily",
    "MonomialSystem",
    "ExplicitPolynomial",
    "SingularSearchResult",
    "CycleChain",
    "Signature",
    "OrderVerdict",
    "BoundReport",
    "FamilyAnalysis",
    "KleinData",
    "is_prime",
    "prime_power_decompose",
    "gcd_all",
    "effective_order",
    "well_formed",
    "well_form_normalize",
    "mm_hypothesis",
    "lin_finite",
    "is_linear_cone",
    "enumerate_monomials",
    "exists_quasismooth",
    "general_member_quasismooth",
    "required_monomial",
    "singular_point_search",
    "random_member",
    "necessary_condition",
    "signature_from_chain",
    "chain_invariance_check",
    "sufficient_condition",
    "divides_d_criterion",
    "bound_divides_d",
    "bound_coprime",
    "family_analysis",
    "oracle_exists_order",
    "order_verdict",
    "admissible_orders",
    "klein_exists",
    "klein_quasismooth",
    "klein_singularity_R",
    "klein_max_prime",
    "klein_eigenspace_check",
]
