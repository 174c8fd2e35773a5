"""Photon-pair generation in tapered nanofibers.

Mode dispersion of the subwavelength waist, joint spectral amplitude of
spontaneous four-wave-mixing photon pairs, absolute rate bookkeeping, and
time-tag coincidence/autocorrelation analysis.

The headline API is re-exported here; the full surface (exporters, error
types, lower-level solvers) lives in the submodules :mod:`~taperfwm.dispersion`,
:mod:`~taperfwm.profile`, :mod:`~taperfwm.biphoton`, :mod:`~taperfwm.rates`
and :mod:`~taperfwm.tags`.
"""

__version__ = "0.1.0"

from .biphoton import (
    JsaGrid,
    ModeBank,
    PumpSpec,
    SpectralGrid,
    jsa,
    marginals,
    phase_matched_pair,
    phase_matching,
    pump_function,
    schmidt_analysis,
)
from .dispersion import (
    FUSED_SILICA,
    CrossSection,
    DispersionError,
    SellmeierGlass,
    load_glass,
    neff_table,
    solve_mode,
)
from .profile import SegmentedProfile, TaperProfile, load_profile, parse_profile, segment
from .rates import (
    DEFAULT_CONVERSION_EFFICIENCY,
    LossBudget,
    fit_power_scan,
    pair_rates,
    rate_budget_report,
)
from .tags import (
    SimulationConfig,
    TagStream,
    coincidence_histogram,
    heralded_g2,
    parse_tags,
    peak_and_accidentals,
    simulate_tags,
)

__all__ = [
    "__version__",
    # dispersion
    "DispersionError",
    "SellmeierGlass",
    "FUSED_SILICA",
    "CrossSection",
    "solve_mode",
    "neff_table",
    "load_glass",
    # taper profiles
    "TaperProfile",
    "SegmentedProfile",
    "parse_profile",
    "load_profile",
    "segment",
    # joint spectra
    "PumpSpec",
    "SpectralGrid",
    "JsaGrid",
    "ModeBank",
    "pump_function",
    "phase_matching",
    "jsa",
    "schmidt_analysis",
    "marginals",
    "phase_matched_pair",
    # rates
    "DEFAULT_CONVERSION_EFFICIENCY",
    "LossBudget",
    "pair_rates",
    "fit_power_scan",
    "rate_budget_report",
    # time tags
    "TagStream",
    "parse_tags",
    "SimulationConfig",
    "simulate_tags",
    "coincidence_histogram",
    "peak_and_accidentals",
    "heralded_g2",
]
