"""The library's range checks reject NaN, and infinity where a value must be finite."""

import math

import pytest

from passiveqkd import (
    ChannelParams,
    DecoySettings,
    GaussianNoise,
    PassiveSchemeParams,
    PoissonianSource,
    PoissonNoise,
    ThresholdWindow,
    channel_gain_qber,
    coefficient_a,
    decoy_rate_trusted,
    gaussian_b123,
    gllp_rate,
    maximize_ratio,
    poisson_bbar,
    poisson_multiphoton,
    poisson_pnd,
    tagged_rate,
)

NAN, INF = math.nan, math.inf
CHANNEL = ChannelParams(eta_B=1.0, alpha_prime=0.21, Y0=0.0, e_det=0.0)
WINDOW = ThresholdWindow(40.0, 60.0)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: PassiveSchemeParams(0.5, 1.0, 0.002, NAN), id="scheme-mu-nan"),
        pytest.param(lambda: PassiveSchemeParams(0.5, 1.0, 0.002, INF), id="scheme-mu-inf"),
        pytest.param(lambda: ChannelParams(1.0, NAN, 0.0, 0.0), id="alpha_prime-nan"),
        pytest.param(lambda: ChannelParams(1.0, INF, 0.0, 0.0), id="alpha_prime-inf"),
        pytest.param(lambda: ChannelParams(1.0, 0.21, 0.0, 0.0, L=NAN), id="L-nan"),
        pytest.param(lambda: ChannelParams(1.0, 0.21, 0.0, 0.0, L=INF), id="L-inf"),
        pytest.param(lambda: DecoySettings(0.5, 0.1, 1.0, 0.5, f_ec=NAN), id="decoy-f_ec-nan"),
        pytest.param(lambda: DecoySettings(INF, 0.1, 1.0, 0.5), id="decoy-nu_s-inf"),
        pytest.param(lambda: PoissonNoise(NAN), id="gamma-nan"),
        pytest.param(lambda: GaussianNoise(NAN), id="sigma2-nan"),
        pytest.param(lambda: PoissonianSource(NAN), id="source-mu-nan"),
        pytest.param(lambda: PoissonianSource(INF), id="source-mu-inf"),
        pytest.param(lambda: gllp_rate(NAN, 0.01, 0.1), id="gllp-Q-nan"),
        pytest.param(lambda: gllp_rate(INF, 0.01, 0.1), id="gllp-Q-inf"),
        pytest.param(lambda: gllp_rate(0.1, 0.01, 0.1, f_ec=NAN), id="gllp-f_ec-nan"),
        pytest.param(lambda: channel_gain_qber(NAN, CHANNEL), id="gain-qber-nan"),
        pytest.param(lambda: poisson_multiphoton(NAN), id="multiphoton-nan"),
        pytest.param(lambda: poisson_multiphoton(INF), id="multiphoton-inf"),
        pytest.param(lambda: poisson_bbar(WINDOW, NAN), id="bbar-gamma-nan"),
        pytest.param(lambda: coefficient_a(NAN, 0.1), id="coefficient_a-k-nan"),
        pytest.param(lambda: coefficient_a([2, INF], 0.1), id="coefficient_a-k-inf"),
        pytest.param(lambda: coefficient_a(2, NAN), id="coefficient_a-int-k-eta-nan"),
        pytest.param(lambda: tagged_rate(0.5, NAN, CHANNEL), id="tagged_rate-p_multi-nan"),
        pytest.param(lambda: tagged_rate(0.5, -1e-3, CHANNEL), id="tagged_rate-p_multi-negative"),
        pytest.param(lambda: decoy_rate_trusted(CHANNEL, INF, 0.1), id="decoy_trusted-nu_s-inf"),
        pytest.param(lambda: maximize_ratio(1e-3, INF), id="maximize_ratio-mu-inf"),
        pytest.param(lambda: poisson_pnd(INF), id="poisson_pnd-inf"),
        pytest.param(lambda: gaussian_b123(WINDOW, NAN), id="gaussian_b123-nan"),
    ],
)
def test_non_finite_input_raises_value_error(call):
    with pytest.raises(ValueError):
        call()
