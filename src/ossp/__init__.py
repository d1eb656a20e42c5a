"""Species sampling problems with ordering under the ordered Pitman-Yor process.

Simulation (ordered CRP and misspecified generators), exact prior and
posterior laws of order-ranked species frequencies, empirical-Bayes
parameter estimation, and enumeration / conditional-MC verification oracles.
"""

from .partition import (
    EmptyInput,
    MalformedCsv,
    ObservedSample,
    OrderedPartition,
    PrefixStats,
    PypParams,
    WeightConflict,
    prefix_stats,
    read_records_csv,
    reduce_records,
    write_records_csv,
)
from .specialfn import (
    log_gen_factorial,
    log_noncentral_gf_scaled,
    log_rising,
)
from .laws import (
    dist_Kmn,
    dist_Kn,
    expected_Kmn,
    expected_Kn,
    log_eppf,
    log_ordered_eppf,
    log_prior_first_r,
    log_prior_first_r_given_k,
    prior_first_r_table,
    prob_oldest,
    prob_oldest_curve,
)
from .posterior import (
    PosteriorW1,
    W1Moments,
    expected_W1,
    expected_W1_parts,
    log_posterior_first_r_new,
    log_posterior_first_r_old,
    posterior_W1,
    predict_K,
    prob_A1_B1,
)
from .ocrp import (
    ContinuationStats,
    MisspecConfig,
    MisspecProcess,
    continue_ocrp,
    misspec_simulate,
    ordered_step_probs,
    ordering_distribution,
    simulate,
    unordered_step_probs,
)
from .estimate import (
    DegenerateSample,
    FitResult,
    METHOD_NAMES,
    expected_M1,
    fit,
    fit_all,
    fit_lsK,
    fit_lsX1,
    fit_mle_ordered,
    fit_mle_ordered_dp,
    fit_mle_std,
)
from .oracle import (
    AcceptanceTooLow,
    CapExceeded,
    ConditionalMC,
    conditional_mc,
    enumerate_ordered_partitions,
    exact_ordering_distribution,
    ordered_total_mass,
)

__version__ = "0.1.0"
