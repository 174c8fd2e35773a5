"""Command-line front end: mode tables, JSI maps, tag analysis, power fits.

Every command reads one flat JSON config document (``--config run.json``)
validated against a versioned schema; any config value can be overridden by
a flag of the same name (``--grid_points 128``).  A flag of a string key is
taken verbatim (``--out_dir 2024``); other flag values are parsed as JSON
(``--signal_window_nm "[850, 950]"``).  Outputs are plot-ready CSV/JSON
files written into ``out_dir`` under fixed names; identical config + seed
produces byte-identical files.

Exit codes: 0 success, 2 config error (schema violation, missing key, bad
usage), 3 domain error (below-cutoff request, invalid parameter value),
4 input/output error (missing, unreadable, or malformed data files).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .dispersion import (
    C_VAC,
    FUSED_SILICA,
    CrossSection,
    DispersionError,
    _solve_many,
    load_glass,
)
from .profile import TaperProfile, load_profile, segment
from .biphoton import (
    _CSV_BLOCK_ROWS,
    JsaGrid,
    PumpSpec,
    SpectralGrid,
    phase_matching,
    pump_function,
    schmidt_analysis,
    write_marginals_csv,
    write_matrix_csv,
)
from .rates import fit_power_scan, read_power_scan_csv, write_fit_report_json
from .tags import (
    SimulationConfig,
    TagParseError,
    _check_car_window,
    _write_json,
    coincidence_histogram,
    heralded_g2,
    parse_tags,
    peak_and_accidentals,
    simulate_tags,
    write_coincidence_csv,
    write_coincidence_json,
    write_g2_csv,
    write_g2_json,
    write_tags_binary,
    write_tags_text,
)

SCHEMA_VERSION = "taperfwm.run/1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Config document violates the schema (unknown key, wrong type, missing value)."""


class InputDataError(Exception):
    """An input data file exists but cannot be parsed."""


# --------------------------------------------------------------------------
# config schema
# --------------------------------------------------------------------------

# key -> (kind, length, default, help); kind is one of "str" | "int" |
# "float" | "floats".  default None means the key is optional and commands
# that need it raise ConfigError when it is absent.
_SCHEMA: dict = {
    "glass": ("str", None, "fused-silica", "core glass: 'fused-silica' or a Sellmeier file path"),
    "profile": ("str", None, None, "taper profile file (z_m diameter_m per line)"),
    "diameter_nm": ("float", None, None, "uniform waist diameter in nm (alternative to 'profile')"),
    "length_mm": ("float", None, None, "uniform waist length in mm (with 'diameter_nm')"),
    "n_segments": ("int", None, 100, "number of piecewise-uniform segments"),
    "pump_wavelength_nm": ("float", None, 1062.0, "pump center wavelength in nm"),
    "pump_fwhm_nm": ("float", None, 2.0, "pump spectral FWHM in nm"),
    "signal_window_nm": ("floats", 2, (850.0, 950.0), "signal wavelength window [lo, hi] in nm"),
    "idler_window_nm": ("floats", 2, (1250.0, 1450.0), "idler wavelength window [lo, hi] in nm"),
    "grid_points": ("int", None, 256, "points per spectral axis"),
    "eta_mode": ("str", None, "per_point", "overlap evaluation: 'per_point' or 'center'"),
    "wavelength_range_nm": ("floats", 2, (800.0, 1400.0), "mode-scan wavelength range [lo, hi] in nm"),
    "wavelength_points": ("int", None, 61, "mode-scan sample count"),
    "out_dir": ("str", None, "out", "directory for result files"),
    "seed": ("int", None, 0, "simulation random seed"),
    "tags_in": ("str", None, None, "input tag file (text or binary)"),
    "tags_out": ("str", None, None, "output tag file; '.bin'/'.ttag' selects binary"),
    "duration_s": ("float", None, 0.1, "simulated acquisition duration in s"),
    "mean_pairs_per_pulse": ("float", None, 0.05, "mean generated pairs per pump pulse"),
    "rep_period_ns": ("float", None, 54.0, "pulse repetition period in ns"),
    "herald_transmittance": ("float", None, 0.1, "pair source -> herald detector transmittance"),
    "signal_transmittance": ("float", None, 0.4, "pair source -> signal splitter transmittance"),
    "splitter_ratio": ("float", None, 0.47, "signal splitter fraction routed to channel 1"),
    "dark_rates_hz": ("floats", 3, (0.0, 0.0, 0.0), "dark count rates [ch1, ch2, ch3] in Hz"),
    "dead_time_us": ("float", None, 15.0, "detector dead time in us"),
    "jitter_ps": ("float", None, 0.0, "detection timing jitter std in ps"),
    "pair_statistics": ("str", None, "poisson", "pair-number statistics: 'poisson' or 'thermal'"),
    "bin_width_ticks": ("int", None, 10, "coincidence histogram bin width in ticks"),
    "delay_range_ticks": ("int", None, 2670, "coincidence histogram half-range in ticks"),
    "ch_a": ("int", None, None, "first channel (default: 1)"),
    "ch_b": ("int", None, None, "second channel (default: 2 for coincidences, 3 for g2h)"),
    "herald_ch": ("int", None, 2, "herald channel for g2h"),
    "window_ticks": ("int", None, 10, "coincidence window width in ticks"),
    "m_max": ("int", None, 10, "largest herald separation for g2h"),
    "power_scan": ("str", None, None, "power-scan CSV file (power_mW,rate_Hz)"),
    "weighting": ("str", None, "none", "power-fit weighting: 'none' or 'poisson'"),
}


def _validated(key: str, value):
    """Normalize one config value against the schema; raise ConfigError otherwise."""
    if key not in _SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    kind, length, _, _ = _SCHEMA[key]
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"config key {key!r} expects a string, got {value!r}")
        return value
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config key {key!r} expects an integer, got {value!r}")
        return value
    if kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {key!r} expects a number, got {value!r}")
        value = float(value)
        if not np.isfinite(value):
            raise ConfigError(f"config key {key!r} expects a finite number, got {value!r}")
        return value
    # kind == "floats"
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"config key {key!r} expects a list of numbers, got {value!r}")
    if length is not None and len(value) != length:
        raise ConfigError(f"config key {key!r} expects {length} numbers, got {len(value)}")
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, (int, float)) or not np.isfinite(item):
            raise ConfigError(f"config key {key!r} expects finite numbers, got {item!r}")
        out.append(float(item))
    return tuple(out)


class RunConfig:
    """Validated flat key-value run description (schema ``taperfwm.run/1``)."""

    def __init__(self, values: Optional[dict] = None):
        self.values: dict = {}
        for key, value in (values or {}).items():
            self.values[key] = _validated(key, value)

    @classmethod
    def from_sources(cls, config_path, overrides: dict) -> "RunConfig":
        """Load the JSON config document (if any), then apply flag overrides."""
        values: dict = {}
        if config_path is not None:
            try:
                text = Path(config_path).read_text(encoding="utf-8")
            except UnicodeDecodeError as err:
                raise ConfigError(f"{config_path}: not UTF-8 text: {err}") from None
            try:
                document = json.loads(text)
            except json.JSONDecodeError as err:
                raise ConfigError(f"{config_path}: not valid JSON: {err}") from None
            if not isinstance(document, dict):
                raise ConfigError(f"{config_path}: config document must be a JSON object")
            values.update(document)
        values.update(overrides)
        return cls(values)

    def get(self, key: str, default=None):
        """Value for ``key``, falling back to the schema default, then ``default``."""
        if key in self.values:
            return self.values[key]
        schema_default = _SCHEMA[key][2]
        return default if schema_default is None else schema_default

    def require(self, key: str):
        value = self.get(key)
        if value is None:
            raise ConfigError(f"missing required config key {key!r}")
        return value


# --------------------------------------------------------------------------
# shared builders
# --------------------------------------------------------------------------


def _resolve_glass(config: RunConfig):
    name = config.get("glass")
    if name in ("fused-silica", "fused_silica"):
        return FUSED_SILICA
    try:
        return load_glass(Path(name))
    except ValueError as err:
        raise InputDataError(str(err)) from None


def _resolve_segmented(config: RunConfig):
    """Segmented profile from 'profile' path or the uniform diameter/length pair."""
    glass = _resolve_glass(config)
    n_segments = config.get("n_segments")
    if config.get("profile") is not None:
        try:
            profile = load_profile(Path(config.get("profile")))
        except ValueError as err:
            raise InputDataError(str(err)) from None
    else:
        if config.get("diameter_nm") is None or config.get("length_mm") is None:
            raise ConfigError(
                "set 'profile' or both 'diameter_nm' and 'length_mm' to define the taper"
            )
        diameter, length = config.get("diameter_nm") * 1e-9, config.get("length_mm") * 1e-3
        for key, value in (("diameter_nm", diameter), ("length_mm", length)):
            if not value > 0:
                raise ValueError(f"{key} must be positive, got {config.get(key)!r}")
        profile = TaperProfile(np.array([0.0, length]), np.array([diameter, diameter]),
                               label=f"uniform-{config.get('diameter_nm')!r}nm")
    return segment(profile, n_segments, core=glass)


def _resolve_grid(config: RunConfig) -> SpectralGrid:
    signal = tuple(v * 1e-9 for v in config.get("signal_window_nm"))
    idler = tuple(v * 1e-9 for v in config.get("idler_window_nm"))
    return SpectralGrid.from_wavelength_windows(signal, idler, n_points=config.get("grid_points"))


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.get("out_dir"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _finite_or_none(x: float):
    return float(x) if np.isfinite(x) else None


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def cmd_modes(config: RunConfig) -> int:
    """Fundamental-mode effective index over a wavelength range -> modes.csv."""
    diameter = config.require("diameter_nm") * 1e-9
    lo, hi = config.get("wavelength_range_nm")
    n_points = config.get("wavelength_points")
    if not 0 < lo < hi:
        raise ConfigError("wavelength_range_nm must satisfy 0 < lo < hi")
    if n_points < 2:
        raise ConfigError("wavelength_points must be at least 2")
    glass = _resolve_glass(config)
    cross_section = CrossSection(diameter, core=glass)

    wavelengths = np.linspace(lo * 1e-9, hi * 1e-9, n_points)
    n_effs = _solve_many(cross_section, 2.0 * np.pi * C_VAC / wavelengths)

    path = _out_dir(config) / "modes.csv"
    lines = [
        "# HE11 effective index vs vacuum wavelength",
        f"# diameter_nm {config.require('diameter_nm')!r}",
        f"# glass {glass.name}",
        "wavelength_nm,n_eff",
    ]
    lines += [f"{float(wl * 1e9)!r},{float(neff)!r}" for wl, neff in zip(wavelengths, n_effs)]
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def _intensity_peak(amplitude: np.ndarray) -> tuple[float, int]:
    """``(intensity.max(), np.argmax(intensity))`` of intensity = |amplitude|^2, finite amplitude.

    The intensity is formed ``_CSV_BLOCK_ROWS`` rows at a time.  A block
    replaces the peak only when its maximum is larger, so a tie keeps the
    first cell in C order, as ``np.argmax`` does.
    """
    peak, at = -np.inf, 0
    for start in range(0, amplitude.shape[0], _CSV_BLOCK_ROWS):
        block = np.abs(amplitude[start:start + _CSV_BLOCK_ROWS]) ** 2
        i = int(np.argmax(block))
        if block.flat[i] > peak:
            peak, at = float(block.flat[i]), start * amplitude.shape[1] + i
    return peak, at


def cmd_jsi(config: RunConfig) -> int:
    """Phase-matching, pump, and JSI panels plus marginals and Schmidt report."""
    segmented = _resolve_segmented(config)
    pump = PumpSpec.from_spectral_fwhm(config.get("pump_wavelength_nm") * 1e-9,
                                       config.get("pump_fwhm_nm") * 1e-9)
    grid = _resolve_grid(config)
    eta_mode = config.get("eta_mode")

    matched = phase_matching(segmented, grid, pump.omega0, eta_mode=eta_mode)
    envelope = pump_function(pump, grid)
    # Every panel is elementwise, so each is formed in blocks of rows as it
    # is written.  Only |matched|^2 is kept whole: the amplitude takes
    # matched's place, with the bits of envelope * matched.
    matched_intensity = np.empty(matched.shape)
    for start in range(0, grid.n_signal, _CSV_BLOCK_ROWS):
        band = slice(start, start + _CSV_BLOCK_ROWS)
        matched_intensity[band] = np.abs(matched[band]) ** 2
    # rejects a non-finite amplitude before any write
    jsa_grid = JsaGrid(grid, np.multiply(envelope, matched, out=matched))
    amplitude = jsa_grid.amplitude
    del matched
    raw_peak, peak_at = _intensity_peak(amplitude)
    if raw_peak == 0.0:
        raise ValueError("joint spectral intensity is identically zero on this grid")

    profile_hash = segmented.content_hash()
    provenance = [
        f"profile {segmented.label or '<unnamed>'} hash {profile_hash}",
        f"n_segments {segmented.n_segments}",
        f"eta_mode {eta_mode}",
        f"pump_wavelength_nm {config.get('pump_wavelength_nm')!r}"
        f" fwhm_nm {config.get('pump_fwhm_nm')!r}",
    ]
    out = _out_dir(config)
    paths = {
        "phase_matching": out / "phase_matching.csv",
        "pump": out / "pump.csv",
        "jsi": out / "jsi.csv",
        "marginals": out / "marginals.csv",
        "schmidt": out / "schmidt.json",
    }
    # The SVD releases the GIL, so it runs on a second core while the main
    # thread formats the CSVs; no write touches jsa_grid.amplitude, which it
    # reads.  Leaving the block joins the worker on every exit path.
    from concurrent.futures import ThreadPoolExecutor  # here, not at import: ~10 ms per command

    with ThreadPoolExecutor(1) as pool:
        schmidt = pool.submit(schmidt_analysis, jsa_grid)
        write_matrix_csv(
            paths["phase_matching"], grid, matched_intensity,
            name="phase-matching intensity |J|^2 (m^2)", comments=provenance,
        )
        del matched_intensity
        write_matrix_csv(
            paths["pump"], grid, lambda band: envelope[band] ** 2,
            name="pump envelope intensity |I|^2", comments=provenance,
        )
        del envelope
        write_matrix_csv(
            paths["jsi"], grid, lambda band: np.abs(amplitude[band]) ** 2 / raw_peak,
            name="joint spectral intensity (peak-normalized)",
            comments=provenance + [f"raw_peak_intensity {raw_peak!r}"],
        )
        write_marginals_csv(jsa_grid, paths["marginals"])
        report = schmidt.result()

    coefficients = report["schmidt_coefficients"]
    _write_json(
        {
            "schema": "taperfwm.schmidt/1",
            "schmidt_number": report["schmidt_number"],
            "heralded_purity": report["heralded_purity"],
            "schmidt_coefficients": [float(v) for v in coefficients[:32]],
            "n_coefficients_total": int(len(coefficients)),
            "eta_mode": eta_mode,
            "profile_hash": profile_hash,
            "n_segments": segmented.n_segments,
            "grid_points": [grid.n_signal, grid.n_idler],
            "raw_peak_intensity": raw_peak,
            "version": __version__,
        },
        paths["schmidt"],
    )

    i_s, i_i = divmod(peak_at, grid.n_idler)
    peak_s = float(2.0 * np.pi * C_VAC / grid.signal_omega[i_s] * 1e9)
    peak_i = float(2.0 * np.pi * C_VAC / grid.idler_omega[i_i] * 1e9)
    print(f"JSI peak at signal {peak_s!r} nm, idler {peak_i!r} nm")
    print(f"Schmidt number {report['schmidt_number']!r}")
    for path in paths.values():
        print(f"wrote {path}")
    return EXIT_OK


def cmd_tags_simulate(config: RunConfig) -> int:
    """Monte Carlo pulsed pair source -> tag file (text, or binary by extension)."""
    sim = SimulationConfig(
        duration=config.get("duration_s"),
        mean_pairs_per_pulse=config.get("mean_pairs_per_pulse"),
        rep_period=config.get("rep_period_ns") * 1e-9,
        herald_transmittance=config.get("herald_transmittance"),
        signal_transmittance=config.get("signal_transmittance"),
        splitter_ratio=config.get("splitter_ratio"),
        dark_rates=config.get("dark_rates_hz"),
        dead_time=config.get("dead_time_us") * 1e-6,
        jitter_std=config.get("jitter_ps") * 1e-12,
        pair_statistics=config.get("pair_statistics"),
        seed=config.get("seed"),
    )
    stream = simulate_tags(sim)
    path = Path(config.require("tags_out"))
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix in (".bin", ".ttag"):
        write_tags_binary(stream, path)
    else:
        write_tags_text(stream, path)
    print(f"wrote {path} ({len(stream)} records)")
    return EXIT_OK


def _load_stream(config: RunConfig):
    return parse_tags(Path(config.require("tags_in")))


def cmd_tags_coincidences(config: RunConfig) -> int:
    """Cross-correlation histogram (+ CAR summary) from a tag file."""
    window = config.get("window_ticks")
    rep_period = config.get("rep_period_ns") * 1e-9
    _check_car_window(rep_period, window)
    stream = _load_stream(config)
    rep_ticks = rep_period / stream.tick_duration
    if not 2.0 * rep_ticks < 2.0**63:  # the accidental windows sit two periods out, in int64 ticks
        raise ValueError(
            f"rep_period_ns={config.get('rep_period_ns')!r} is {rep_ticks:.6g} ticks of "
            f"{stream.tick_duration!r} s: two periods pass the largest 64-bit tick"
        )
    hist = coincidence_histogram(
        stream,
        config.get("ch_a", 1),
        config.get("ch_b", 2),
        bin_width=config.get("bin_width_ticks"),
        delay_range=config.get("delay_range_ticks"),
    )
    out = _out_dir(config)
    write_coincidence_csv(hist, out / "coincidences.csv")
    write_coincidence_json(hist, out / "coincidences.json")
    print(f"wrote {out / 'coincidences.csv'}")
    print(f"wrote {out / 'coincidences.json'}")

    try:
        summary = peak_and_accidentals(hist, rep_ticks, window)
    except ValueError as err:
        print(f"CAR not computed: {err}")
        return EXIT_OK
    _write_json(
        {
            "schema": "taperfwm.car/1",
            "peak_rate_hz": _finite_or_none(summary["peak_rate"]),
            "accidental_rate_hz": _finite_or_none(summary["accidental_rate"]),
            "car": _finite_or_none(summary["CAR"]),
            "rep_period_ticks": rep_ticks,
            "window_ticks": window,
        },
        out / "car.json",
    )
    print(f"CAR = {summary['CAR']!r}")
    print(f"wrote {out / 'car.json'}")
    return EXIT_OK


def cmd_tags_g2h(config: RunConfig) -> int:
    """Heralded autocorrelation vs herald separation from a tag file."""
    stream = _load_stream(config)
    result = heralded_g2(
        stream,
        config.get("herald_ch"),
        config.get("ch_a", 1),
        config.get("ch_b", 3),
        window=config.get("window_ticks"),
        m_max=config.get("m_max"),
    )
    out = _out_dir(config)
    write_g2_csv(result, out / "g2h.csv")
    write_g2_json(result, out / "g2h.json")
    print(f"g2_h(0) = {result.zero_separation!r}")
    print(f"wrote {out / 'g2h.csv'}")
    print(f"wrote {out / 'g2h.json'}")
    return EXIT_OK


def cmd_tags_fit_power(config: RunConfig) -> int:
    """Dark + linear + quadratic decomposition of a power-scan CSV."""
    path = Path(config.require("power_scan"))
    try:
        points = read_power_scan_csv(path)
    except ValueError as err:
        raise InputDataError(str(err)) from None
    fit = fit_power_scan(points, weighting=config.get("weighting"))
    out = _out_dir(config)
    write_fit_report_json(fit, out / "power_fit.json", points[:, 0])
    print(f"dark rate {fit.dark!r} Hz")
    print(f"linear (Raman) coefficient {fit.linear!r} Hz/W")
    print(f"quadratic (pair) coefficient {fit.quadratic!r} Hz/W^2")
    print(f"wrote {out / 'power_fit.json'}")
    return EXIT_OK


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def _coerce_flag(key: str, text: str):
    """A flag's value: its text for a string key, else the JSON it holds (or its text)."""
    if _SCHEMA[key][0] != "str":
        try:
            text = json.loads(text)
        except json.JSONDecodeError:
            pass
    return _validated(key, text)


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-c", "--config", metavar="FILE", help="JSON run-config document")
    group = parser.add_argument_group("config overrides")
    for key, (_, _, default, help_text) in _SCHEMA.items():
        shown = f"{help_text} (default: {default})" if default is not None else help_text
        group.add_argument(f"--{key}", metavar="VALUE", dest=key, help=shown)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taperfwm",
        description="Photon-pair spectra and tag-stream analysis for tapered-fiber sources.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__} (config schema {SCHEMA_VERSION})",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    modes = commands.add_parser("modes", help="effective-index table over a wavelength range")
    modes.set_defaults(func=cmd_modes)
    _add_common_arguments(modes)

    jsi = commands.add_parser("jsi", help="phase-matching / pump / JSI maps + Schmidt report")
    jsi.set_defaults(func=cmd_jsi)
    _add_common_arguments(jsi)

    tags = commands.add_parser("tags", help="time-tag simulation and analysis")
    tag_commands = tags.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")
    for name, func, help_text in (
        ("simulate", cmd_tags_simulate, "Monte Carlo pair source -> tag file"),
        ("coincidences", cmd_tags_coincidences, "cross-correlation histogram + CAR"),
        ("g2h", cmd_tags_g2h, "heralded autocorrelation vs herald separation"),
        ("fit-power", cmd_tags_fit_power, "dark/linear/quadratic power-scan fit"),
    ):
        sub = tag_commands.add_parser(name, help=help_text)
        sub.set_defaults(func=func)
        _add_common_arguments(sub)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra and extra[0].startswith("--"):  # a flag outside the schema reads as a config key
        parser.error(f"unknown config key {extra[0][2:].split('=')[0]!r}")
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    overrides = {}
    try:
        for key in _SCHEMA:
            raw = getattr(args, key, None)
            if raw is not None:
                overrides[key] = _coerce_flag(key, raw)
        config = RunConfig.from_sources(args.config, overrides)
        return args.func(config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (TagParseError, InputDataError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_IO
    except (DispersionError, ValueError, MemoryError, OverflowError) as err:
        print(f"domain error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
