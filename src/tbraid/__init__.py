"""
tbraid: the Artin braid group, its quotient by commutators of transversal
half-twists, exact normal forms through a central-extension coordinate
group, and prime-element checkers for groups acted on by the quotient.
"""

from .braid import (
    BraidWord,
    HalfTwist,
    PairRelation,
    Perm,
    artin_images,
    bn_equal,
    bn_normal_form,
    classify_pair,
    exponent_sum,
    frame,
    frame_transport,
    ht_conjugate,
    ht_endpoints,
    ht_word,
    linking_matrix,
    parse_word,
    format_word,
    psi,
    quadrangle_relator,
    tits_lift,
    transversal_commutator,
    transversal_pair,
    z_ij,
)
from .freegroup import FreeWord, fw_apply
from .gn import (
    GnElement,
    act_generator,
    act_word,
    format_element,
    gn_inv,
    gn_mul,
    gn_nu,
    gn_pow,
    parse_element,
    q_form,
    s_ij,
)
from .primes import (
    GnInstance,
    PolarizedPair,
    PrimeReport,
    axiom_spot_check,
    canonical_prime,
    check_prime_frame,
    check_prop71,
    make_pair,
    prime_identity_suite,
    transport,
)
from .quotient import (
    TbnNormalForm,
    c_word,
    degree_decomposition,
    in_kernel,
    lift,
    normal_form,
    s2_table,
    tbn_equal,
    tbn_mul,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
