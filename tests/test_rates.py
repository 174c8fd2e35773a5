"""Rate bookkeeping: budgets, pair rates, power-scan decomposition."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taperfwm.biphoton import PumpSpec
from taperfwm.rates import (
    DEFAULT_CONVERSION_EFFICIENCY,
    LossBudget,
    PowerScanFit,
    fit_power_scan,
    pair_rates,
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


@pytest.fixture(scope="module")
def pump():
    return PumpSpec.from_spectral_fwhm(1062e-9, 2e-9, 100e-12, 18e6, 0.118)


class TestLossBudget:
    def test_detector_efficiency_defaults(self):
        budget = LossBudget(-5.0, -8.0)
        assert budget.detector_efficiency_signal == 0.40
        assert budget.detector_efficiency_idler == 0.12

    @pytest.mark.parametrize("kwargs", [{"signal_db": 0.1}, {"idler_db": 3.0}])
    def test_positive_db_rejected(self, kwargs):
        base = {"signal_db": 0.0, "idler_db": 0.0}
        base.update(kwargs)
        with pytest.raises(ValueError, match="dB"):
            LossBudget(**base)

    @pytest.mark.parametrize("eff", [0.0, -0.2, 1.5])
    def test_efficiency_outside_unit_interval_rejected(self, eff):
        with pytest.raises(ValueError, match="detector_efficiency"):
            LossBudget(0.0, 0.0, detector_efficiency_signal=eff)
        with pytest.raises(ValueError, match="detector_efficiency"):
            LossBudget(0.0, 0.0, detector_efficiency_idler=eff)

    def test_transmittance_decades(self):
        budget = LossBudget(-10.0, -20.0)
        assert budget.signal_transmittance == pytest.approx(0.1, rel=1e-12)
        assert budget.idler_transmittance == pytest.approx(0.01, rel=1e-12)
        unity = LossBudget(0.0, 0.0)
        assert unity.signal_transmittance == 1.0
        assert unity.idler_transmittance == 1.0


class TestPairRates:
    def test_reference_operating_point(self, pump):
        # eta 7e-10 with 2.67e8 photons/pulse at 18 MHz: 3.36e6 internal pairs/s.
        rates = pair_rates(DEFAULT_CONVERSION_EFFICIENCY, pump, 2.67e8, LossBudget(0.0, 0.0))
        expected = 7e-10 * 2.67e8 * 18e6
        assert rates["R_internal"] == pytest.approx(expected, rel=1e-12)
        assert rates["R_internal"] == pytest.approx(3.4e6, rel=0.02)

    def test_zero_photons_gives_zero_rates(self, pump):
        rates = pair_rates(7e-10, pump, 0.0, LossBudget(-3.0, -7.0))
        assert rates["R_internal"] == 0.0
        assert rates["R_observed"] == 0.0

    def test_identity_budget(self, pump):
        rates = pair_rates(7e-10, pump, 1e8, LossBudget(0.0, 0.0))
        assert rates["R_observed"] == rates["R_internal"]

    def test_observed_factorizes_over_channels(self, pump):
        rates = pair_rates(7e-10, pump, 1e8, LossBudget(-4.0, -13.0))
        expected = rates["R_internal"] * 10 ** (-4.0 / 10) * 10 ** (-13.0 / 10)
        assert rates["R_observed"] == pytest.approx(expected, rel=1e-12)

    @given(
        photons=st.floats(1.0, 1e12),
        scale=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=50, deadline=None)
    def test_linear_in_photon_number(self, pump, photons, scale):
        budget = LossBudget(-2.0, -11.0)
        base = pair_rates(7e-10, pump, photons, budget)
        scaled = pair_rates(7e-10, pump, scale * photons, budget)
        assert scaled["R_internal"] == pytest.approx(scale * base["R_internal"], rel=1e-12)
        assert scaled["R_observed"] == pytest.approx(scale * base["R_observed"], rel=1e-12)

    @pytest.mark.parametrize("eta", [0.0, -1e-10])
    def test_nonpositive_efficiency_rejected(self, pump, eta):
        with pytest.raises(ValueError, match="efficiency"):
            pair_rates(eta, pump, 1e8, LossBudget(0.0, 0.0))

    def test_negative_photon_number_rejected(self, pump):
        with pytest.raises(ValueError, match="photons_per_pulse"):
            pair_rates(7e-10, pump, -1.0, LossBudget(0.0, 0.0))


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
    def test_both_loss_readings_present(self, pump):
        report = rate_budget_report(7e-10, pump, 2.67e8)
        r_internal = 7e-10 * 2.67e8 * 18e6
        assert f"{r_internal:.3e}" in report
        assert f"{r_internal * 10 ** -1.7:.3e}" in report  # -17 dB combined
        assert f"{r_internal * 10 ** -3.4:.3e}" in report  # -17 dB per channel
        assert "combined over both channels" in report
        assert "in each channel" in report

    def test_photon_number_mismatch_flagged(self, pump):
        # 2.67e8 photons/pulse vs pulse-energy estimate ~3.5e10: ~130x apart.
        report = rate_budget_report(7e-10, pump, 2.67e8)
        assert "WARNING" in report
        n_energy = pump.pulse_energy / (1.054571817e-34 * pump.omega0)
        assert f"{n_energy:.3e}" in report
        assert n_energy / 2.67e8 > 100

    def test_consistent_photon_number_not_flagged(self, pump):
        n_energy = pump.pulse_energy / (1.054571817e-34 * pump.omega0)
        report = rate_budget_report(7e-10, pump, n_energy)
        assert "WARNING" not in report

    def test_positive_loss_rejected(self, pump):
        with pytest.raises(ValueError, match="total_loss_db"):
            rate_budget_report(7e-10, pump, 2.67e8, total_loss_db=1.0)


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
