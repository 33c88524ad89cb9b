"""Exact computation with finite rings, finite left modules, submodule
products, radicals, and Goldie-style predicates.

The layers, bottom up; each imports only from the layers listed before it:

- ``config``: caps and the fixed size bounds.
- ``intlat``: Smith/Hermite normal forms, congruence solving, canonical
  subgroups of finite abelian groups.
- ``algebra``: rings from structure constants, modules from action matrices,
  module maps, quotients and direct sums.
- ``homspace``: Hom groups, the maps into a submodule, and endomorphism
  rings, exactly.
- ``lattice``: canonical submodules, images and kernels, lattice
  enumeration, fully invariant members, predicate profiles.
- ``product``: the submodule product, powers, nil and locally nilpotent
  tests.
- ``radical``: annihilator operators, the locally nilpotent radical, prime
  and semiprime structure.
- ``oracle``: independent brute-force ground truth.
- ``harness``: the statement catalog, corpus generation, verification runs,
  counterexample search.
- ``cli``: instance files and the ``finmod`` command.
"""

from .algebra import (
    FiniteModule,
    FiniteRing,
    Homomorphism,
    ValidationError,
    compose,
    cyclic_module,
    direct_sum,
    matrix_ring,
    opposite_ring,
    product_ring,
    quotient_module,
    regular_module,
    triangular_ring,
    validate_module,
    validate_ring,
    zn_ring,
)
from .config import Caps, CapExceeded, DEFAULT_CAPS
from .harness import (
    STATEMENT_IDS,
    Corpus,
    Instance,
    VerificationReport,
    check_statement,
    generate_corpus,
    run_suite,
    search_counterexamples,
)
from .homspace import (
    EndRing,
    HomGroup,
    end_ring,
    hom_group,
)
from .intlat import (
    CanonicalSubgroup,
    snf,
    solve_homogeneous_congruences,
)
from .lattice import (
    PredicateProfile,
    Submodule,
    all_submodules,
    annihilator_lattice,
    cyclic_submodule,
    fully_invariant_submodules,
    image,
    is_goldie,
    is_quasi_projective,
    is_retractable,
    kernel,
    socle,
    submodule_as_module,
    uniform_dimension,
)
from .oracle import (
    BudgetExceeded,
    brute_all_submodules,
    brute_annihilator_lattice,
    brute_ell,
    brute_fully_invariant_submodules,
    brute_hom_group,
    brute_is_locally_nilpotent,
    brute_is_nil_submodule,
    brute_is_quasi_projective,
    brute_prime_radical,
    brute_product,
)
from .product import (
    PowerTrace,
    is_locally_nilpotent,
    is_nil_submodule,
    nilpotency_index,
    power_trace,
    product,
)
from .radical import (
    RadicalProfile,
    ann_left,
    ann_right,
    ell,
    is_prime_submodule,
    is_semiprime_submodule,
    l_rel,
    prime_radical,
    r_rel,
    subm_sequence,
)

__version__ = "0.1.0"
