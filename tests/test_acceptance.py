"""Acceptance gate: ten end-to-end checks, one printed PASS/FAIL line each.

Each test records its verdict line; conftest's terminal-summary hook echoes
the full list at the end of every pytest run.  Tolerances and operating
points are stated inline; statistical checks use fixed seeds and 3-sigma
bands.
"""

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.constants import c as C_VAC

import oracles
from taperfwm.biphoton import (
    PumpSpec,
    SpectralGrid,
    jsa,
    overlap_integral,
    phase_matching,
    pump_function,
    schmidt_analysis,
)
from taperfwm.cli import main as cli_main
from taperfwm.dispersion import CrossSection, solve_mode
from taperfwm.profile import TaperProfile, segment
from taperfwm.rates import fit_power_scan
from taperfwm.tags import (
    SimulationConfig,
    coincidence_histogram,
    heralded_g2,
    simulate_tags,
)

SIGNAL_WINDOW = (850e-9, 950e-9)
IDLER_WINDOW = (1250e-9, 1450e-9)
LAMBDA_PUMP = 1062e-9
REP_TICKS = 54e-9 / 81e-12


REPORT_LINES: list = []


def _report(criterion, ok: bool, detail: str) -> None:
    line = f"[acceptance {criterion:>3}] {'PASS' if ok else 'FAIL'} - {detail}"
    REPORT_LINES.append(line)
    print(line)
    assert ok, line


def omega(lam: float) -> float:
    return 2.0 * np.pi * C_VAC / lam


def uniform_profile(diameter: float, length: float = 0.014) -> TaperProfile:
    return TaperProfile(np.array([0.0, length]), np.array([diameter, diameter]))


@pytest.fixture(scope="module")
def pump():
    return PumpSpec.from_spectral_fwhm(LAMBDA_PUMP, 2e-9)


def _jsi_peak_nm(diameter, pump, n_grid=256, n_segments=100):
    grid = SpectralGrid.from_wavelength_windows(SIGNAL_WINDOW, IDLER_WINDOW, n_grid)
    result = jsa(segment(uniform_profile(diameter), n_segments), pump, grid)
    i, j = np.unravel_index(int(np.argmax(result.intensity)), result.intensity.shape)
    return (
        float(2.0 * np.pi * C_VAC / grid.signal_omega[i] * 1e9),
        float(2.0 * np.pi * C_VAC / grid.idler_omega[j] * 1e9),
        result,
    )


def test_01_jsi_peak_location_900nm_waist(pump):
    # The full-vector dispersion model places the zero-mismatch pair of a
    # 900 nm waist near (851, 1412) nm, so the in-window JSI peak sits there
    # rather than at the required (880, 1310) nm; that target corresponds to
    # a waist near 885 nm (companion check below).  The criterion is
    # asserted as stated and currently fails on the physics, not on
    # runtime or plumbing.
    start = time.perf_counter()
    peak_s, peak_i, _ = _jsi_peak_nm(900e-9, pump)
    elapsed = time.perf_counter() - start
    ok = abs(peak_s - 880.0) <= 10.0 and abs(peak_i - 1310.0) <= 20.0 and elapsed <= 60.0
    _report(
        1, ok,
        f"900 nm waist JSI peak ({peak_s:.1f}, {peak_i:.1f}) nm vs (880+-10, 1310+-20) nm "
        f"on 256x256, N=100, in {elapsed:.2f} s",
    )


def test_01_companion_885nm_waist_hits_target_window(pump):
    peak_s, peak_i, _ = _jsi_peak_nm(885e-9, pump)
    ok = abs(peak_s - 880.0) <= 10.0 and abs(peak_i - 1310.0) <= 20.0
    _report(
        "1*", ok,
        f"companion: 885 nm waist JSI peak ({peak_s:.1f}, {peak_i:.1f}) nm "
        f"falls inside (880+-10, 1310+-20) nm",
    )


def test_02_overlap_magnitude():
    cs = CrossSection(890e-9)
    mode_p = solve_mode(cs, omega(1062e-9))
    mode_s = solve_mode(cs, omega(880e-9))
    mode_i = solve_mode(cs, omega(1310e-9))
    eta = overlap_integral(mode_p, mode_p, mode_s, mode_i)
    ok = 0.5e12 <= eta <= 2.0e12
    _report(2, ok, f"overlap eta = {eta:.4e} m^-2, required within x2 of 1e12 m^-2")


def test_03_segmentation_identity(pump):
    grid = SpectralGrid.from_wavelength_windows(SIGNAL_WINDOW, IDLER_WINDOW, 64)
    profile = uniform_profile(900e-9)
    start = time.perf_counter()
    reference = phase_matching(segment(profile, 1), grid, pump.omega0)
    scale = float(np.max(np.abs(reference)))
    worst = 0.0
    for n in (2, 7, 100):
        total = phase_matching(segment(profile, n), grid, pump.omega0)
        worst = max(worst, float(np.max(np.abs(total - reference))) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(
        3, ok,
        f"N-segment sum vs single-segment closed form: worst rel {worst:.2e} "
        f"(<= 1e-9) for N in {{2, 7, 100}} in {elapsed:.2f} s",
    )


def test_04_pump_convolution_dual_route(pump):
    grid = SpectralGrid.from_wavelength_windows(SIGNAL_WINDOW, IDLER_WINDOW, 128)
    analytic = np.abs(pump_function(pump, grid))
    numeric = oracles.pump_autoconvolution(pump.omega0, pump.sigma, grid.signal_omega, grid.idler_omega)
    denom = np.maximum(analytic, numeric)
    rel = np.where(denom > 0, np.abs(analytic - numeric) / np.where(denom > 0, denom, 1.0), 0.0)
    fraction = float(np.mean(rel <= 1e-6))
    ok = fraction >= 0.99
    _report(
        4, ok,
        f"numeric vs closed-form pump envelope: {100 * fraction:.2f}% of grid points "
        f"within 1e-6 (need >= 99%)",
    )


def test_05_mode_solver_against_dense_scan():
    rng = np.random.default_rng(2024)
    worst = 0.0
    bounds_ok = True
    for _ in range(10):
        diameter = rng.uniform(600e-9, 1200e-9)
        lam = rng.uniform(800e-9, 1500e-9)
        cs = CrossSection(diameter)
        n_eff = solve_mode(cs, omega(lam)).n_eff
        worst = max(worst, abs(n_eff - oracles.dense_scan_he11(diameter, lam)))
        bounds_ok &= 1.0 < n_eff < float(cs.core.index(lam))  # between air and the core
    ok = worst <= 1e-8 and bounds_ok
    _report(
        5, ok,
        f"solve_mode vs dense characteristic-equation scan at 10 random (d, lambda): "
        f"worst |diff| {worst:.2e} (<= 1e-8), bounds {'ok' if bounds_ok else 'VIOLATED'}",
    )


def test_06_power_scan_fit_recovery():
    dark, linear, quadratic = 400.0, 5.7e4, 4.3e6  # Hz, Hz/W, Hz/W^2
    powers = np.linspace(20e-3, 120e-3, 10)
    rates = dark + linear * powers + quadratic * powers**2
    rng = np.random.default_rng(42)
    noisy = rates * (1.0 + 0.01 * rng.standard_normal(powers.size))
    fit = fit_power_scan(np.column_stack([powers, noisy]))
    errors = {
        "dark": abs(fit.dark - dark) / dark,
        "linear": abs(fit.linear - linear) / linear,
        "quadratic": abs(fit.quadratic - quadratic) / quadratic,
    }
    ok = all(err <= 0.05 for err in errors.values())
    _report(
        6, ok,
        "power-scan fit under 1% noise (seed 42): rel errors "
        + ", ".join(f"{k} {v:.2%}" for k, v in errors.items())
        + " (all <= 5%)",
    )


def test_07_coincidence_comb():
    # Dead time off: a 15 us dead time exceeds the mean herald spacing at
    # this rate and suppresses the accidental comb the criterion looks for.
    config = SimulationConfig(
        duration=2_000_000 * 54e-9,
        mean_pairs_per_pulse=0.05,
        dark_rates=(300.0, 300.0, 300.0),
        dead_time=0.0,
        jitter_std=120e-12,
        seed=21,
    )
    stream = simulate_tags(config)
    hist = coincidence_histogram(stream, 1, 2, bin_width=10, delay_range=2670)
    centers, counts = hist.delay_centers, hist.counts
    positions = []
    for m in range(-3, 4):
        sel = np.abs(centers - m * REP_TICKS) <= REP_TICKS / 2
        positions.append(int(centers[sel][np.argmax(counts[sel])]))
    spacings = np.diff(positions)
    spacing_ok = bool(np.all(np.abs(spacings - REP_TICKS) <= hist.bin_width))
    zero_count = int(counts[np.where(centers == 0)[0][0]])
    tallest_ok = bool(np.all(zero_count > counts[centers != 0]))
    ok = spacing_ok and tallest_ok and positions[3] == 0
    _report(
        7, ok,
        f"54 ns comb: peak spacings {spacings.tolist()} ticks vs {REP_TICKS:.1f} "
        f"(+-1 bin of 10), zero-delay {zero_count} vs next {int(np.max(counts[centers != 0]))}",
    )


def test_08_heralded_g2_oracle():
    mu, q, eta_s, rho = 0.05, 0.3, 0.5, 0.47
    n_pulses = 10_000_000
    config = SimulationConfig(
        duration=n_pulses * 54e-9,
        mean_pairs_per_pulse=mu,
        herald_transmittance=q,
        signal_transmittance=eta_s,
        splitter_ratio=rho,
        dead_time=0.0,
        seed=17,
    )
    hist = heralded_g2(simulate_tags(config), window=10, m_max=6)
    predicted = oracles.g2h_zero_prediction(mu, q, eta_s * rho, eta_s * (1.0 - rho))
    sigma0 = hist.g2[0] * math.sqrt(
        1.0 / hist.triples[0] + 1.0 / hist.singles_a + 1.0 / hist.singles_b
    )
    zero_ok = abs(hist.zero_separation - predicted) <= 3.0 * sigma0
    side_ok = all(
        abs(hist.g2[m] - 1.0) <= 3.0 * hist.g2[m] / math.sqrt(hist.triples[m])
        for m in range(1, 7)
    )

    small = simulate_tags(SimulationConfig(
        duration=70_000 * 54e-9, mean_pairs_per_pulse=0.2, herald_transmittance=q,
        signal_transmittance=eta_s, splitter_ratio=rho, dead_time=0.0, seed=23,
    ))
    fast = heralded_g2(small, window=9, m_max=5)
    brute = oracles.brute_force_g2(small, 2, 1, 3, 9, 5)
    brute_ok = len(small) >= 10_000 and all(
        fast.triples[k] == t and fast.g2[k] == v for k, (_, t, v) in enumerate(brute)
    )
    ok = zero_ok and side_ok and brute_ok
    _report(
        8, ok,
        f"g2_h(0) {hist.zero_separation:.4f} vs closed form {predicted:.4f} "
        f"(|z| {abs(hist.zero_separation - predicted) / sigma0:.2f} <= 3) on 1e7 pulses; "
        f"g2_h(1..6) unity within 3 sigma: {side_ok}; "
        f"brute-force equality on {len(small)} events: {brute_ok}",
    )


def test_09_schmidt_sanity(pump):
    # separable amplitude: rank-one outer product with separable phases
    ws = np.linspace(-1.0, 1.0, 80)
    wi = np.linspace(-1.0, 1.0, 90)
    f_s = np.exp(-(ws**2) / 0.18) * np.exp(1j * 0.3 * ws)
    f_i = np.exp(-(wi**2) / 0.05) * np.exp(-1j * 0.7 * wi)
    k_sep = schmidt_analysis(np.outer(f_s, f_i))["schmidt_number"]
    separable_ok = abs(k_sep - 1.0) <= 1e-6

    # refinement target is the 885 nm fixture, whose ridge is fully resolved
    # inside the window; the 900 nm waist phase matches at the window edge,
    # where K tracks the cropping rather than the discretization
    k_by_grid = {}
    for n in (128, 256):
        grid = SpectralGrid.from_wavelength_windows(SIGNAL_WINDOW, IDLER_WINDOW, n)
        result = jsa(segment(uniform_profile(885e-9), 3), pump, grid)
        k_by_grid[n] = schmidt_analysis(result)["schmidt_number"]
    drift = abs(k_by_grid[128] - k_by_grid[256]) / k_by_grid[256]
    refine_ok = drift <= 0.01
    ok = separable_ok and refine_ok
    _report(
        9, ok,
        f"separable JSA K = 1 {k_sep - 1.0:+.2e} (|dev| <= 1e-6); fixture K "
        f"{k_by_grid[128]:.3f} -> {k_by_grid[256]:.3f} on refinement, drift {drift:.2%} (<= 1%)",
    )


def test_10_cli_determinism(tmp_path):
    jsi_outs = [tmp_path / f"jsi{i}" for i in range(2)]
    for out in jsi_outs:
        code = cli_main([
            "jsi", "--diameter_nm", "900", "--length_mm", "14", "--n_segments", "3",
            "--grid_points", "24", "--out_dir", str(out),
        ])
        assert code == 0
    jsi_names = ("phase_matching.csv", "pump.csv", "jsi.csv", "marginals.csv", "schmidt.json")
    jsi_ok = all(
        (jsi_outs[0] / name).read_bytes() == (jsi_outs[1] / name).read_bytes()
        for name in jsi_names
    )

    tag_ok = True
    for suffix in ("txt", "bin"):
        files = [tmp_path / f"tags{i}.{suffix}" for i in range(2)]
        for path in files:
            code = cli_main([
                "tags", "simulate", "--duration_s", "0.003", "--seed", "6",
                "--tags_out", str(path),
            ])
            assert code == 0
        tag_ok &= files[0].read_bytes() == files[1].read_bytes()

    ok = jsi_ok and tag_ok
    _report(
        10, ok,
        f"byte-identical reruns: cmd_jsi over {len(jsi_names)} files: {jsi_ok}; "
        f"cmd_tags simulate (text and binary): {tag_ok}",
    )
