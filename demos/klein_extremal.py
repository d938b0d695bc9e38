"""Cyclic (Klein) hypersurfaces: maximal prime orders and their eigenspaces.

For weights coprime to the degree, the largest prime that can occur as an
automorphism order is (prod(m_i) + (-1)^(n+1)) / d along the full variable
cycle, and the invariant degree-d monomials of that automorphism span
exactly the cycle polynomial.  The script also shows the one genuinely
singular case being caught by the finite-field falsifier.
"""

from wpsauto import (
    ExplicitPolynomial,
    MonomialSystem,
    WeightedFamily,
    family_analysis,
    klein_eigenspace_check,
    klein_exists,
    klein_max_prime,
    klein_quasismooth,
    klein_singularity_R,
    singular_point_search,
)
from wpsauto.klein import eigenspace_filter

for weights, degree in [
    ((1, 1, 1), 4),
    ((1, 1, 1, 1, 1), 3),
    ((1, 1, 1, 1), 3),
    ((3, 7, 2, 4, 5), 37),  # a genuinely weighted case: maximal prime 1213
]:
    an = family_analysis(WeightedFamily(weights, degree))  # shared by the calls below
    data = klein_exists(an)
    print(f"P{weights}, d = {degree}:")
    print(f"  cycle ordering {data.ordering} with exponents {data.exponents} "
          f"({data.cycle_count} distinct cycles)")
    print(f"  singularity quantity R = {klein_singularity_R(data)}  "
          f"(quasi-smooth: {klein_quasismooth(an)})")
    result = klein_max_prime(an)
    if result.value is None:
        print(f"  maximal prime: none ({result.reason}, candidate {result.candidate})")
    else:
        invariant, total = eigenspace_filter(an, result.value)
        print(f"  maximal prime order: {result.value}")
        print(f"  eigenspace check: {klein_eigenspace_check(an)} "
              f"({invariant} invariant monomials of {total})")
    print()

# The degree-2 cycle on four variables is the classical singular case: the
# polynomial factors as (x0 + x2)(x1 + x3) and the falsifier exhibits a
# singular point over any prime field.
quadric = WeightedFamily((1, 1, 1, 1), 2)
monos = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1))
poly = ExplicitPolynomial(MonomialSystem(quadric, monos), (1,) * len(monos))
print(f"P(1,1,1,1), d = 2: quasi-smooth per classification: {klein_quasismooth(quadric)}")
for prime in (101, 499, 997):
    found = singular_point_search(poly, prime, budget=60_000)
    print(f"  singular point over F_{prime}: {found.witness}")
