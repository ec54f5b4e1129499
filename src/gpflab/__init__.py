"""gpflab: exact desk-scale computations around greatest prime factors of
shifted products, smooth numbers, and prime-distribution discrepancies."""

from ._accel import backend
from .ap import (
    DiscrepancyReport,
    bv_sum,
    default_rough_z,
    dyadic_abs_sum,
    error_term,
    lambda_extension_sum,
    pi_ap,
    pi_of,
    psi_ap,
    psi_cheb,
    signed_sum,
    theorem4_sum,
    theta_of,
    trivial_bound_ratio,
)
from .errors import (
    ConstructionFailedError,
    GpflabError,
    InvalidArgumentError,
    RangeBudgetError,
)
from .products import (
    LedgerReport,
    LogSplitResult,
    SquareErrorsResult,
    ledger_report,
    log_E,
    log_E1,
    log_E2,
    square_errors_check,
)
from .sequences import (
    DIVISOR_SELECTORS,
    ConditionReport,
    HeathBrownResult,
    WeightedSequence,
    a1_lhs,
    check_A2,
    check_A3,
    check_A4,
    delta,
    divisor_sum_lhs,
    divisor_sum_rhs_shape,
    heath_brown_terms,
    norm,
)
from .shifted import (
    FORD_EXPONENT,
    LV_COUNT_CAP,
    GammaResult,
    IndexSet,
    adversarial_sets,
    ford_ratio,
    gamma_plus,
    lv_count,
    prime_in_interval_search,
    theorem1_sum,
    theorem1_thresholds,
    theorem2_sum,
)
from .sieve import (
    MAX_SIEVE_LIMIT,
    PrimeSieve,
    build_sieve,
    divisor_list,
    euler_phi,
    factorize,
    greatest_prime_factor,
    greatest_prime_factor_batch,
    is_prime_u64,
    segmented_primes,
    tau_table,
    verify_factorization_roundtrip,
    von_mangoldt,
)
from .smooth import (
    PsiApproxReport,
    build_dickman_table,
    default_dickman_table,
    dickman_rho,
    psi_approx_report,
    psi_count,
)
