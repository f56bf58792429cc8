"""Distribution-privacy mechanisms for protecting global dataset properties.

The package calibrates noise so an attacker observing a released
statistic cannot tell which of two protected data distributions produced
it: exact bottleneck-transport calibration for general discrete
distributions, expected-value and direction-aware Gaussian calibrations
for translation-like families, adversarial-uncertainty variants that
credit the data's own randomness, relaxed budget accounting for
imperfect modeling assumptions, plus a property-inference attack
benchmark on census-style tables.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    AssumptionReport,
    GaussianModel,
    PairFamily,
    PrivacyParams,
    SecretLabel,
    check_assumptions,
    delta_E,
    eigendecompose,
    estimate_gaussian,
    fit_common_direction,
)
from .transport import (  # noqa: F401
    ClosenessCertificate,
    DiscreteDistribution,
    closeness_from_bounds,
    discretize_samples,
    is_w_delta_close,
    max_mass_within,
    min_w_for_delta,
    winf_distance,
)
from .mechanisms import (  # noqa: F401
    AuditReport,
    NoisePlan,
    RelaxedBudget,
    apply,
    apply_batch,
    audit,
    calibrate_approx_wasserstein,
    calibrate_directional,
    calibrate_expm,
    calibrate_wasserstein,
    dau_plan,
    eig_plan,
    group_dp_calibrate,
    no_noise_check,
    per_record_sensitivity,
    relaxed_budget_maxdiv,
    relaxed_budget_wasserstein,
)
from .attack import (  # noqa: F401
    LinearClassifier,
    ShadowConfig,
    evaluate_attack,
    run_attack_trial,
    train_meta_classifier,
)
from .dataio import (  # noqa: F401
    PropertySpec,
    SplitTables,
    Table,
    compute_query,
    load_adult,
    split_dataset,
)
