"""Security analysis for quantum key distribution with an untrusted source.

The package covers the passive monitoring scheme in which a beam splitter
and threshold comparator bound the fraction of untagged pulses leaving an
adversarially controlled source, and the key-rate formulas that consume
that bound: adversarial and Poissonian photon-number analyses, GLLP-style
BB84 rates, and three-intensity decoy-state estimation.

Each library module's ``__all__`` is its public API; the package exports
their union.  The command line (``passiveqkd.cli``) is not imported here.
"""

from . import confidence, keyrate, montecarlo, noise_bounds, photon_stats, worstcase
from .confidence import *  # noqa: F403
from .keyrate import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .noise_bounds import *  # noqa: F403
from .photon_stats import *  # noqa: F403
from .worstcase import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (photon_stats, worstcase, confidence, noise_bounds, keyrate, montecarlo)
    for name in module.__all__
]
