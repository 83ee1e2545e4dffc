"""Mallows-distributed random elements of finite Coxeter groups.

Types A, B and D are stored as (signed) permutation windows, and the
dihedral groups I2(m) through closed forms in their length list; the library
computes lengths, descents, the two-sided descent statistic and its exact or
sampled distribution, and carries the verification checks (moment formulas,
coupling bounds, normal-approximation distances) that the `coxmal` command
drives.
"""

from .coxeter import (
    EnumerationCapError,
    GroupDescriptor,
    ProductDescriptor,
    descriptor_factors,
    parse_group,
)
from .mallows import (
    MallowsSpec,
    normalization_constant,
    normalization_enumeration_check,
    pattern_probability_bound_check,
    reversal_identity_check,
    sample_statistic,
)
from .moments import (
    DiscreteDistribution,
    cube_moment_bound_check,
    descent_indicator_mean_check,
    exact_distribution,
    goodness_of_fit,
    mean_formula_check,
    mean_two_sided,
    variance_bounds_check,
    variance_bounds_two_sided,
)
from .normal import (
    exact_w2_floor,
    smooth_bound_checks,
    tail_bound_check,
    w1_bound_check,
    w1_to_normal_by_cdf,
    w2_bound_check,
    w2_with_se,
    wasserstein_from_samples,
    wasserstein_p_to_normal,
)
from .reports import CheckResult, ExperimentReport
from .sizebias import (
    conditional_star_law_check,
    coupling_boundedness_check,
    covariance_type_sums,
    generic_stein_bound,
    size_bias_law_check,
    stein_bound_rhs,
    stein_error_terms,
)

__version__ = "0.1.0"
