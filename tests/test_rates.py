"""Rate bookkeeping: the rate budget report and power-scan decomposition."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taperfwm.dispersion import C_VAC
from taperfwm.rates import (
    DEFAULT_CONVERSION_EFFICIENCY,
    PowerScanFit,
    fit_power_scan,
    rate_budget_report,
    read_power_scan_csv,
    write_fit_report_json,
)

# Scan model used throughout: dark 400 Hz, Raman 0.057 kHz/mW, SFWM
# 0.0043 kHz/mW^2, expressed in SI (Hz, Hz/W, Hz/W^2).
DARK = 400.0
LINEAR = 5.7e4
QUAD = 4.3e6
POWERS = np.linspace(20e-3, 120e-3, 10)


def scan_rates(powers):
    return DARK + LINEAR * powers + QUAD * powers**2


# The paper's pump: 1062 nm pulses at 18 MHz and 118 mW average power.
WAVELENGTH = 1062e-9
REP_RATE = 18e6
AVG_POWER = 0.118
PUMP = (WAVELENGTH, REP_RATE, AVG_POWER)


def energy_photon_number():
    """Pump photons per pulse from pulse energy / photon energy."""
    return AVG_POWER / REP_RATE / (1.054571817e-34 * 2.0 * np.pi * C_VAC / WAVELENGTH)


class TestFitPowerScan:
    def test_exact_recovery_on_noiseless_data(self):
        fit = fit_power_scan(np.column_stack([POWERS, scan_rates(POWERS)]))
        assert fit.dark == pytest.approx(DARK, rel=1e-9)
        assert fit.linear == pytest.approx(LINEAR, rel=1e-9)
        assert fit.quadratic == pytest.approx(QUAD, rel=1e-9)
        assert fit.residual_norm < 1e-6 * scan_rates(POWERS).max()
        assert fit.n_points == POWERS.size

    def test_constant_rates_fit_pure_dark(self):
        pts = np.column_stack([POWERS, np.full_like(POWERS, 1234.5)])
        fit = fit_power_scan(pts)
        assert fit.dark == pytest.approx(1234.5, rel=1e-9)
        assert abs(fit.linear) < 1e-4
        assert abs(fit.quadratic) < 1e-2

    def test_one_percent_noise_recovery_frozen_seed(self):
        # The dark term is <2% of the total rate over most of the scan, so
        # its recovery under multiplicative noise is seed-sensitive; the seed
        # is fixed and the covariance-based check below covers generic seeds.
        rng = np.random.default_rng(42)
        noisy = scan_rates(POWERS) * (1.0 + 0.01 * rng.standard_normal(POWERS.shape))
        fit = fit_power_scan(np.column_stack([POWERS, noisy]))
        assert fit.dark == pytest.approx(DARK, rel=0.05)
        assert fit.linear == pytest.approx(LINEAR, rel=0.05)
        assert fit.quadratic == pytest.approx(QUAD, rel=0.05)

    @pytest.mark.parametrize("seed", range(20))
    def test_recovery_consistent_with_reported_covariance(self, seed):
        rng = np.random.default_rng(seed)
        noisy = scan_rates(POWERS) * (1.0 + 0.01 * rng.standard_normal(POWERS.shape))
        fit = fit_power_scan(np.column_stack([POWERS, noisy]))
        sigma = np.sqrt(np.diag(fit.covariance))
        pulls = np.abs(np.array([fit.dark, fit.linear, fit.quadratic]) - np.array([DARK, LINEAR, QUAD]))
        assert np.all(pulls <= 5.0 * sigma)

    @pytest.mark.parametrize("log2_scale", [-8, 3, 20])
    def test_scale_equivariance_exact_for_binary_scales(self, log2_scale):
        scale = 2.0**log2_scale
        pts = np.column_stack([POWERS, scan_rates(POWERS)])
        base = fit_power_scan(pts)
        scaled = fit_power_scan(np.column_stack([POWERS, scale * pts[:, 1]]))
        assert scaled.dark == scale * base.dark
        assert scaled.linear == scale * base.linear
        assert scaled.quadratic == scale * base.quadratic

    @given(scale=st.floats(1e-3, 1e3))
    @settings(max_examples=40, deadline=None)
    def test_scale_equivariance_general(self, scale):
        rng = np.random.default_rng(7)
        noisy = scan_rates(POWERS) * (1.0 + 0.01 * rng.standard_normal(POWERS.shape))
        base = fit_power_scan(np.column_stack([POWERS, noisy]))
        scaled = fit_power_scan(np.column_stack([POWERS, scale * noisy]))
        assert scaled.dark == pytest.approx(scale * base.dark, rel=1e-9)
        assert scaled.linear == pytest.approx(scale * base.linear, rel=1e-9)
        assert scaled.quadratic == pytest.approx(scale * base.quadratic, rel=1e-9)

    def test_fewer_than_three_distinct_powers_rejected(self):
        pts = [(0.02, 100.0), (0.02, 101.0), (0.05, 200.0), (0.05, 201.0)]
        with pytest.raises(ValueError, match="distinct"):
            fit_power_scan(pts)

    def test_nonfinite_points_rejected(self):
        pts = np.column_stack([POWERS, scan_rates(POWERS)])
        pts[3, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fit_power_scan(pts)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            fit_power_scan(np.arange(12.0).reshape(4, 3))

    def test_poisson_weighting_keeps_exact_fit_exact(self):
        pts = np.column_stack([POWERS, scan_rates(POWERS)])
        fit = fit_power_scan(pts, weighting="poisson")
        assert fit.dark == pytest.approx(DARK, rel=1e-9)
        assert fit.linear == pytest.approx(LINEAR, rel=1e-9)
        assert fit.quadratic == pytest.approx(QUAD, rel=1e-9)

    def test_poisson_weighting_requires_positive_rates(self):
        pts = np.column_stack([POWERS, scan_rates(POWERS)])
        pts[0, 1] = 0.0
        with pytest.raises(ValueError, match="positive rates"):
            fit_power_scan(pts, weighting="poisson")

    def test_unknown_weighting_rejected(self):
        pts = np.column_stack([POWERS, scan_rates(POWERS)])
        with pytest.raises(ValueError, match="weighting"):
            fit_power_scan(pts, weighting="huber")

    def test_covariance_is_symmetric_and_nonnegative_on_diagonal(self):
        rng = np.random.default_rng(3)
        noisy = scan_rates(POWERS) * (1.0 + 0.01 * rng.standard_normal(POWERS.shape))
        fit = fit_power_scan(np.column_stack([POWERS, noisy]))
        assert fit.covariance.shape == (3, 3)
        assert np.allclose(fit.covariance, fit.covariance.T, rtol=1e-10)
        assert np.all(np.diag(fit.covariance) >= 0)

    def test_components_sum_to_total(self):
        fit = fit_power_scan(np.column_stack([POWERS, scan_rates(POWERS)]))
        curves = fit.components(POWERS)
        total = curves["dark"] + curves["raman_linear"] + curves["sfwm_quadratic"]
        np.testing.assert_allclose(total, curves["total"], rtol=1e-12)
        np.testing.assert_allclose(curves["total"], fit.evaluate(POWERS), rtol=0)

    def test_nonfinite_coefficients_rejected_by_type(self):
        with pytest.raises(ValueError, match="finite"):
            PowerScanFit(np.nan, 1.0, 1.0, np.zeros((3, 3)), 0.0, 5)


class TestRateBudgetReport:
    def test_reference_operating_point(self):
        # eta 7e-10 with 2.67e8 photons/pulse at 18 MHz: 3.36e6 internal pairs/s.
        report = rate_budget_report(DEFAULT_CONVERSION_EFFICIENCY, *PUMP, 2.67e8)
        assert "R_internal = eta * photons_per_pulse * rep_rate = 3.364e+06 pairs/s" in report

    @pytest.mark.parametrize("eta", [0.0, -1e-10])
    def test_nonpositive_efficiency_rejected(self, eta):
        with pytest.raises(ValueError, match="efficiency"):
            rate_budget_report(eta, *PUMP, 2.67e8)

    @pytest.mark.parametrize("rep_rate", [0.0, -18e6])
    def test_nonpositive_rep_rate_rejected(self, rep_rate):
        with pytest.raises(ValueError, match="rep_rate must be positive"):
            rate_budget_report(7e-10, WAVELENGTH, rep_rate, AVG_POWER, 2.67e8)

    def test_negative_photon_number_rejected(self):
        with pytest.raises(ValueError, match="photons_per_pulse"):
            rate_budget_report(7e-10, *PUMP, -1.0)

    def test_both_loss_readings_present(self):
        report = rate_budget_report(7e-10, *PUMP, 2.67e8)
        r_internal = 7e-10 * 2.67e8 * 18e6
        assert f"{r_internal:.3e}" in report
        assert f"{r_internal * 10 ** -1.7:.3e}" in report  # -17 dB combined
        assert f"{r_internal * 10 ** -3.4:.3e}" in report  # -17 dB per channel
        assert "combined over both channels" in report
        assert "in each channel" in report

    def test_photon_number_mismatch_flagged(self):
        # 2.67e8 photons/pulse vs pulse-energy estimate ~3.5e10: ~130x apart.
        report = rate_budget_report(7e-10, *PUMP, 2.67e8)
        assert "WARNING" in report
        n_energy = energy_photon_number()
        assert f"{n_energy:.3e}" in report
        assert n_energy / 2.67e8 > 100

    def test_consistent_photon_number_not_flagged(self):
        report = rate_budget_report(7e-10, *PUMP, energy_photon_number())
        assert "WARNING" not in report

    def test_positive_loss_rejected(self):
        with pytest.raises(ValueError, match="total_loss_db"):
            rate_budget_report(7e-10, *PUMP, 2.67e8, total_loss_db=1.0)

    @pytest.mark.parametrize("value", [0.0, -1.0])
    @pytest.mark.parametrize("field", ["wavelength", "rep_rate", "avg_power"])
    def test_nonpositive_pump_rejected(self, field, value):
        pump = dict(zip(("wavelength", "rep_rate", "avg_power"), PUMP), **{field: value})
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            rate_budget_report(7e-10, **pump, photons_per_pulse=2.67e8)


class TestPowerScanCsv:
    def test_roundtrip_with_comments(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text(
            "# singles vs pump power\n"
            "power_mW,rate_Hz\n"
            "20.0,3260.0\n"
            "\n"
            "50.0,14000.0\n"
            "120.0,69160.0\n"
        )
        pts = read_power_scan_csv(path)
        np.testing.assert_allclose(pts[:, 0], [0.020, 0.050, 0.120], rtol=1e-12)
        np.testing.assert_allclose(pts[:, 1], [3260.0, 14000.0, 69160.0], rtol=0)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("20.0,3260.0\n")
        with pytest.raises(ValueError, match="header"):
            read_power_scan_csv(path)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("power_mW,rate_Hz\n20.0,3260.0\n50.0;14000.0\n")
        with pytest.raises(ValueError, match=r":3:"):
            read_power_scan_csv(path)

    def test_nonnumeric_field_reports_line_number(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("power_mW,rate_Hz\n20.0,fast\n")
        with pytest.raises(ValueError, match=r":2:"):
            read_power_scan_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="missing header"):
            read_power_scan_csv(path)


class TestFitReportJson:
    def test_report_contents_and_determinism(self, tmp_path):
        fit = fit_power_scan(np.column_stack([POWERS, scan_rates(POWERS)]))
        path = tmp_path / "fit.json"
        write_fit_report_json(fit, path, POWERS)
        first = path.read_bytes()
        write_fit_report_json(fit, path, POWERS)
        assert path.read_bytes() == first

        payload = json.loads(first)
        assert payload["schema"] == "taperfwm.power_fit/1"
        assert payload["parameters"]["dark_hz"] == pytest.approx(DARK, rel=1e-9)
        assert payload["covariance_order"] == ["dark", "linear", "quadratic"]
        assert np.asarray(payload["covariance"]).shape == (3, 3)
        curves = payload["curves"]
        total = (
            np.asarray(curves["dark"])
            + np.asarray(curves["raman_linear"])
            + np.asarray(curves["sfwm_quadratic"])
        )
        np.testing.assert_allclose(total, curves["total"], rtol=1e-12)
        assert len(curves["power_w"]) == POWERS.size
