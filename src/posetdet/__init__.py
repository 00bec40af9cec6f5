"""Exact verification of determinant identities for matrices built from
posets, divisor sets, weighted path systems, and noncrossing partitions.
"""

from .arith import binomial, divisors, euler_phi, kth_root, mobius, ramanujan_sum
from .chromatic import (
    SetPartition,
    all_partitions,
    beraha,
    chromatic_join_det,
    chromatic_join_matrix,
    is_noncrossing,
    join_partitions,
    noncrossing_partitions,
    refines,
    verify_chromatic_join_det,
)
from .identities import (
    FAIL,
    HYPOTHESIS_FAILED,
    PASS,
    IdentityReport,
    gcd_matrix,
    incidence_matrix,
    incidence_product_det,
    incidence_product_matrix,
    is_factor_closed,
    kth_root_matrix,
    kth_root_matrix_det,
    make_report,
    meet_closed_det,
    meet_closed_matrix,
    meet_matrix,
    meet_matrix_det,
    product_matrix_invertible,
    product_matrix_positive_definite,
    ramanujan_matrix,
    ramanujan_matrix_det,
    scale_by_source,
    totient_product,
    weighted_product_det,
    weighted_product_matrix,
)
from .lgv import (
    PathFamily,
    WeightedDigraph,
    digraph_from_dict,
    digraph_to_dict,
    family_weight,
    iter_paths,
    nonintersecting_families,
    nonintersecting_weights,
    path_weight,
    path_weight_sum,
    path_weight_sum_dp,
    stembridge_matrix,
    three_layer_digraph,
    verify_stembridge,
)
from .matrix import SquareMatrix, det_bareiss, det_cofactor, leading_principal_minors
from .poset import (
    IncidenceFunction,
    MeetError,
    Poset,
    delta_function,
    divisor_poset,
    incidence_from_dict,
    mobius_function,
    poset_from_dict,
    poset_to_dict,
    zeta_function,
)
from .ring import (
    InexactDivisionError,
    Poly,
    RingValue,
    TagMismatchError,
    one_like,
    ring_value_from_json,
    zero_like,
)

__version__ = "0.1.0"
