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

# The submodule that defines each public name.  ``__getattr__`` imports it on
# first access (PEP 562), so ``import taperfwm`` and ``import taperfwm.tags``
# load no scipy.
_EXPORTS = {
    "biphoton": (
        "JsaGrid", "ModeBank", "PumpSpec", "SpectralGrid", "jsa", "marginals",
        "phase_matched_pair", "phase_matching", "pump_function", "schmidt_analysis",
    ),
    "dispersion": (
        "FUSED_SILICA", "CrossSection", "DispersionError", "SellmeierGlass", "load_glass",
        "neff_table", "solve_mode",
    ),
    "profile": ("SegmentedProfile", "TaperProfile", "load_profile", "parse_profile", "segment"),
    "rates": ("DEFAULT_CONVERSION_EFFICIENCY", "fit_power_scan", "rate_budget_report"),
    "tags": (
        "SimulationConfig", "TagStream", "coincidence_histogram", "heralded_g2", "parse_tags",
        "peak_and_accidentals", "simulate_tags",
    ),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SUBMODULE_OF]


def __getattr__(name):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SUBMODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
