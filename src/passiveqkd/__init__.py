"""Security analysis for quantum key distribution with an untrusted source.

The package covers the passive monitoring scheme in which a beam splitter
and threshold comparator bound the fraction of untagged pulses leaving an
adversarially controlled source, and the key-rate formulas that consume
that bound: adversarial and Poissonian photon-number analyses, GLLP-style
BB84 rates, and three-intensity decoy-state estimation.
"""

from .confidence import ConfidenceResult, clopper_pearson
from .keyrate import (
    ChannelParams,
    DecoySettings,
    RatePoint,
    SchemeCase,
    apn_delta_bar,
    binary_entropy,
    channel_gain_qber,
    decoy_rate_trusted,
    decoy_rate_untagged,
    gllp_rate,
    lambda_A,
    pna_rate_bb84,
    poisson_multiphoton,
    tagged_rate,
    trusted_delta_bar,
)
from .montecarlo import (
    ExplicitSource,
    PipelineResult,
    PoissonianSource,
    RunConfig,
    RunResult,
    run,
    run_pipeline,
)
from .noise_bounds import (
    GaussianNoise,
    NoiseModel,
    PoissonNoise,
    ThresholdWindow,
    UntaggedBound,
    gaussian_b123,
    poisson_b,
    poisson_bbar,
    poisson_window_mass,
    untagged_lower_bound_gaussian,
    untagged_lower_bound_poisson,
)
from .photon_stats import (
    PassiveSchemeParams,
    PhotonNumberDistribution,
    bernoulli_transform,
    multiphoton_probability,
    poisson_pnd,
)
from .worstcase import WorstCaseResult, coefficient_a, maximize_ratio

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # photon_stats
    "PhotonNumberDistribution",
    "PassiveSchemeParams",
    "poisson_pnd",
    "bernoulli_transform",
    "multiphoton_probability",
    # worstcase
    "WorstCaseResult",
    "coefficient_a",
    "maximize_ratio",
    # confidence
    "ConfidenceResult",
    "clopper_pearson",
    # noise_bounds
    "PoissonNoise",
    "GaussianNoise",
    "NoiseModel",
    "ThresholdWindow",
    "UntaggedBound",
    "poisson_window_mass",
    "poisson_bbar",
    "poisson_b",
    "untagged_lower_bound_poisson",
    "gaussian_b123",
    "untagged_lower_bound_gaussian",
    # keyrate
    "ChannelParams",
    "DecoySettings",
    "SchemeCase",
    "RatePoint",
    "binary_entropy",
    "channel_gain_qber",
    "gllp_rate",
    "tagged_rate",
    "poisson_multiphoton",
    "apn_delta_bar",
    "trusted_delta_bar",
    "lambda_A",
    "pna_rate_bb84",
    "decoy_rate_untagged",
    "decoy_rate_trusted",
    # montecarlo
    "PoissonianSource",
    "ExplicitSource",
    "RunConfig",
    "RunResult",
    "PipelineResult",
    "run",
    "run_pipeline",
]
