import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.constants import c as C_VAC
from scipy.integrate import quad
from scipy.ndimage import label as ndlabel

import oracles
from taperfwm import biphoton, dispersion
from taperfwm.biphoton import (
    GridCoverageWarning,
    JsaGrid,
    ModeBank,
    PumpSpec,
    SpectralGrid,
    _eta,
    delta_k,
    jsa,
    marginals,
    overlap_integral,
    phase_matched_pair,
    phase_matching,
    pump_function,
    schmidt_analysis,
    write_marginals_csv,
    write_matrix_csv,
)
from taperfwm.dispersion import CrossSection, NeffTable, NoGuidedModeError, solve_mode
from taperfwm.profile import TaperProfile, load_profile, segment

DATA = Path(__file__).resolve().parents[1] / "data"

LAMBDA_PUMP = 1062e-9
SIGNAL_WINDOW = (850e-9, 950e-9)
IDLER_WINDOW = (1250e-9, 1400e-9)


def omega(lam):
    return 2.0 * np.pi * C_VAC / lam


def window_grid(n_signal, n_idler):
    """The uniform-in-omega grid over both windows, with its own count per axis."""
    return SpectralGrid(np.linspace(omega(SIGNAL_WINDOW[1]), omega(SIGNAL_WINDOW[0]), n_signal),
                        np.linspace(omega(IDLER_WINDOW[1]), omega(IDLER_WINDOW[0]), n_idler))


def count_neff_tables(monkeypatch) -> list:
    """Record the cross-section of every table that biphoton builds.

    Tables come from the stacked ``neff_tables`` (each table it returns, not
    the errors) and from ``neff_table`` (one cross-section alone).
    """
    calls = []
    build, build_many = biphoton.neff_table, biphoton.neff_tables

    def counted(cross_section, omega_grid):
        calls.append(cross_section)
        return build(cross_section, omega_grid)

    def counted_many(cross_sections, omega_grid):
        tables = build_many(cross_sections, omega_grid)
        calls.extend(cs for cs, table in zip(cross_sections, tables) if isinstance(table, NeffTable))
        return tables

    monkeypatch.setattr(biphoton, "neff_table", counted)
    monkeypatch.setattr(biphoton, "neff_tables", counted_many)
    return calls


def count_term_builds(monkeypatch) -> list:
    """Record the shape of every segment term (``_phase_terms`` call) that biphoton builds."""
    shapes = []
    build = biphoton._phase_terms

    def counted(half, length, eta):
        shapes.append(half.shape)
        return build(half, length, eta)

    monkeypatch.setattr(biphoton, "_phase_terms", counted)
    return shapes


def set_sum_block(monkeypatch, block):
    """Set biphoton's band size in grid values; ``None`` keeps the default."""
    if block is not None:
        monkeypatch.setattr(biphoton, "_SUM_BLOCK", block)


def n_bands(n_signal, n_idler):
    """Bands of signal rows that the segment sum takes on an n_signal x n_idler grid."""
    rows = max(1, biphoton._SUM_BLOCK // n_idler)
    return -(-n_signal // rows)


def uniform_profile(diameter, length=0.014):
    return TaperProfile(np.array([0.0, length]), np.array([diameter, diameter]))


@pytest.fixture(scope="module")
def pump():
    return PumpSpec.from_spectral_fwhm(LAMBDA_PUMP, 2e-9)


@pytest.fixture(scope="module")
def grid128():
    return SpectralGrid.from_wavelength_windows(SIGNAL_WINDOW, IDLER_WINDOW, 128)


@pytest.fixture(scope="module")
def jsa_885(pump, grid128):
    return jsa(segment(uniform_profile(885e-9), 3), pump, grid128)


class TestPumpSpec:
    def test_sigma_fwhm_relation(self, pump):
        # |E(w0 +/- fwhm_w/2)|^2 must be exactly half the peak intensity,
        # with fwhm_w the first-order wavelength->frequency conversion.
        fwhm_w = 2.0 * np.pi * C_VAC * 2e-9 / LAMBDA_PUMP**2
        intensity = np.exp(-((0.5 * fwhm_w) ** 2) / pump.sigma**2)
        assert intensity == pytest.approx(0.5, rel=1e-12)

    def test_sigma_magnitude(self, pump):
        assert pump.sigma == pytest.approx(2.006036e12, rel=1e-5)

    def test_omega0(self, pump):
        assert pump.omega0 == pytest.approx(2.0 * np.pi * C_VAC / LAMBDA_PUMP, rel=0)

    @pytest.mark.parametrize("field", ["wavelength", "sigma"])
    def test_positivity(self, field):
        kwargs = dict(wavelength=1062e-9, sigma=2e12)
        kwargs[field] = 0.0
        with pytest.raises(ValueError, match=field):
            PumpSpec(**kwargs)

    def test_sigma_must_stay_below_the_centre_frequency(self, pump):
        # an amplitude spectrum this wide reaches zero frequency
        with pytest.raises(ValueError, match="omega0"):
            PumpSpec(LAMBDA_PUMP, pump.omega0)
        assert PumpSpec(LAMBDA_PUMP, np.nextafter(pump.omega0, 0.0)).sigma < pump.omega0


class TestSpectralGrid:
    def test_window_endpoints_exact(self, grid128):
        assert grid128.signal_omega[0] == omega(SIGNAL_WINDOW[1])
        assert grid128.signal_omega[-1] == omega(SIGNAL_WINDOW[0])
        assert grid128.idler_omega[0] == omega(IDLER_WINDOW[1])

    def test_uniform_in_omega(self, grid128):
        steps = np.diff(grid128.signal_omega)
        assert np.allclose(steps, steps[0], rtol=1e-12)

    def test_default_size(self):
        g = SpectralGrid.from_wavelength_windows(SIGNAL_WINDOW, IDLER_WINDOW)
        assert g.n_signal == 256 and g.n_idler == 256

    def test_bad_windows(self):
        with pytest.raises(ValueError, match="window"):
            SpectralGrid.from_wavelength_windows((950e-9, 850e-9), IDLER_WINDOW)
        with pytest.raises(ValueError, match="two samples"):
            SpectralGrid.from_wavelength_windows(SIGNAL_WINDOW, IDLER_WINDOW, n_points=1)

    def test_axes_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            SpectralGrid(np.array([2.0e15, 1.0e15]), np.array([1.0e15, 2.0e15]))
        with pytest.raises(ValueError, match="1-D"):
            SpectralGrid(np.array([[1.0e15, 2.0e15]]), np.array([1.0e15, 2.0e15]))

    @given(
        lo=st.floats(min_value=700e-9, max_value=1000e-9),
        width=st.floats(min_value=10e-9, max_value=300e-9),
        n=st.integers(min_value=2, max_value=64),
    )
    @settings(max_examples=30, deadline=None)
    def test_axes_always_increasing_inside_window(self, lo, width, n):
        g = SpectralGrid.from_wavelength_windows((lo, lo + width), (1.2e-6, 1.5e-6), n_points=n)
        assert np.all(np.diff(g.signal_omega) > 0)
        assert g.signal_omega[0] >= omega(lo + width) * (1 - 1e-12)
        assert g.signal_omega[-1] <= omega(lo) * (1 + 1e-12)


class _DiskGaussian:
    """Analytic normalized profile exp(-r^2/w0^2) * sqrt(2/pi)/w0 for overlap oracles."""

    def __init__(self, w0, cross_section, w=4.0):
        self.w0 = w0
        self.cross_section = cross_section
        self.w = w  # decay hint for the quadrature node map

    def field_at(self, r):
        return np.sqrt(2.0 / np.pi) / self.w0 * np.exp(-(np.asarray(r) ** 2) / self.w0**2)


class TestOverlapIntegral:
    def test_gaussian_inverse_effective_area(self):
        # For four identical unit-normalized Gaussians the overlap is
        # int |u|^4 d2rho = 1 / (pi w0^2), the inverse effective area.
        cs = CrossSection(890e-9)
        g = _DiskGaussian(w0=0.6 * cs.diameter, cross_section=cs)
        eta = overlap_integral(g, g, g, g)
        assert eta == pytest.approx(1.0 / (np.pi * g.w0**2), rel=1e-9)

    def test_gaussian_against_adaptive_quadrature(self):
        cs = CrossSection(890e-9)
        g = _DiskGaussian(w0=0.4 * cs.diameter, cross_section=cs)
        direct, _ = quad(lambda r: g.field_at(r) ** 4 * 2.0 * np.pi * r, 0.0, 20.0 * g.w0)
        assert overlap_integral(g, g, g, g) == pytest.approx(direct, rel=1e-9)

    def test_zero_field_gives_zero(self):
        cs = CrossSection(890e-9)
        g = _DiskGaussian(w0=0.5 * cs.diameter, cross_section=cs)

        class Zero:
            cross_section = cs
            w = 2.0

            @staticmethod
            def field_at(r):
                return np.zeros_like(np.asarray(r, dtype=float))

        assert overlap_integral(g, g, g, Zero()) == 0.0

    def test_mismatched_cross_sections(self):
        g1 = _DiskGaussian(0.5e-6, CrossSection(890e-9))
        g2 = _DiskGaussian(0.5e-6, CrossSection(900e-9))
        with pytest.raises(ValueError, match="cross-section"):
            overlap_integral(g1, g1, g1, g2)

    def test_fundamental_quartet_magnitude(self):
        # 890 nm waist, 1062/880/1310 nm all-fundamental quartet: the overlap
        # should sit within a factor two of 1e12 per square meter.
        cs = CrossSection(890e-9)
        mp = solve_mode(cs, omega(1062e-9))
        ms = solve_mode(cs, omega(880e-9))
        mi = solve_mode(cs, omega(1310e-9))
        eta = overlap_integral(mp, mp, ms, mi)
        assert 0.5e12 <= eta <= 2.0e12
        assert eta > 0

    def test_solver_modes_against_adaptive_quadrature(self):
        cs = CrossSection(890e-9)
        mp = solve_mode(cs, omega(1062e-9))
        ms = solve_mode(cs, omega(880e-9))
        mi = solve_mode(cs, omega(1310e-9))

        def integrand(r):
            arr = np.array([r])
            return (
                mp.field_at(arr)[0] ** 2
                * ms.field_at(arr)[0]
                * mi.field_at(arr)[0]
                * 2.0
                * np.pi
                * r
            )

        a = cs.diameter / 2.0
        inner, _ = quad(integrand, 0.0, a, limit=200)
        outer, _ = quad(integrand, a, 60.0 * a, limit=200)
        assert overlap_integral(mp, mp, ms, mi) == pytest.approx(inner + outer, rel=1e-7)

    def test_grid_eta_matches_direct_overlap(self):
        cs = CrossSection(885e-9)
        bank = ModeBank(omega(1400e-9), omega(850e-9))
        ws, wi = omega(880e-9), omega(1320e-9)
        from_grid = _eta(bank.table(cs), omega(LAMBDA_PUMP), np.array([ws]), np.array([wi]))[0, 0]
        mp = solve_mode(cs, omega(LAMBDA_PUMP))
        direct = overlap_integral(mp, mp, solve_mode(cs, ws), solve_mode(cs, wi))
        assert from_grid == pytest.approx(direct, rel=1e-8)

    def test_legendre_rule_cached_and_read_only(self):
        x, wt = biphoton._legendre_rule()
        fresh_x, fresh_wt = leggauss(biphoton._QUAD_ORDER)
        assert np.array_equal(x, fresh_x) and np.array_equal(wt, fresh_wt)
        assert biphoton._legendre_rule()[0] is x
        for arr in (x, wt):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


def record_eta_factors(monkeypatch) -> dict:
    """Record the eta factor (or error) that biphoton computes for each cross-section."""
    factors = {}
    build = biphoton._eta_factors

    def recorded(cross_sections, *args):
        out = build(cross_sections, *args)
        factors.update(zip(cross_sections, out))
        return out

    monkeypatch.setattr(biphoton, "_eta_factors", recorded)
    return factors


WIDE_SIGNAL, WIDE_IDLER = (600e-9, 1050e-9), (1070e-9, 3000e-9)


class TestEtaNodes:
    """phase_matching's eta, interpolated from Chebyshev nodes, against every
    grid point's direct overlap (``oracles.eta_per_point``): within ``_ETA_TOL``
    of the oracle's peak, except where eta's own rounding noise is larger."""

    def eta_gaps(self, pump, seg, grid, monkeypatch) -> dict:
        """Each distinct diameter's gap to the oracle, and its factor's node count."""
        factors = record_eta_factors(monkeypatch)
        phase_matching(seg, grid, pump.omega0)
        assert set(factors) == set(seg.segments)
        gaps = {}
        for cs, factor in factors.items():
            eta = biphoton._eta_rows(factor, slice(None))
            exact = oracles.eta_per_point(cs, pump.omega0, grid.signal_omega, grid.idler_omega)
            gaps[cs] = (np.max(np.abs(eta - exact)) / np.max(np.abs(exact)), factor[1].shape[0])
        return gaps

    def test_measured_profile(self, pump, monkeypatch):
        seg = segment(load_profile(DATA / "measured_profile.txt"), 16)
        grid = SpectralGrid.from_wavelength_windows(SIGNAL_WINDOW, IDLER_WINDOW, 256)
        gaps = self.eta_gaps(pump, seg, grid, monkeypatch)
        assert len(gaps) == 16
        assert all(gap <= biphoton._ETA_TOL and m == biphoton._ETA_NODES for gap, m in gaps.values())

    @pytest.mark.parametrize("diameter", [300e-9, 900e-9, 20e-6])
    def test_uniform_waists(self, pump, monkeypatch, diameter):
        grid = SpectralGrid.from_wavelength_windows(SIGNAL_WINDOW, IDLER_WINDOW, 256)
        gaps = self.eta_gaps(pump, segment(uniform_profile(diameter), 3), grid, monkeypatch)
        ((gap, m),) = gaps.values()
        assert gap <= biphoton._ETA_TOL and m == biphoton._ETA_NODES

    def test_wide_window_takes_the_second_pass(self, pump, monkeypatch):
        # 16 nodes per axis miss the held-out check for a 500 nm waist here
        grid = SpectralGrid.from_wavelength_windows(WIDE_SIGNAL, WIDE_IDLER, 256)
        gaps = self.eta_gaps(pump, segment(uniform_profile(500e-9), 3), grid, monkeypatch)
        ((gap, m),) = gaps.values()
        assert gap <= biphoton._ETA_TOL and m == 2 * biphoton._ETA_NODES

    def test_rounding_noise_sets_the_floor(self, pump, monkeypatch):
        # one ulp of n_eff moves a 2 mm waist's eta by 3e-9 of its peak, so no
        # evaluation meets 1e-9 there; the check allows _ETA_ULPS times that
        seg = segment(uniform_profile(2e-3), 3)
        grid = SpectralGrid.from_wavelength_windows(SIGNAL_WINDOW, IDLER_WINDOW, 64)
        ((gap, m),) = self.eta_gaps(pump, seg, grid, monkeypatch).values()
        assert biphoton._ETA_TOL < gap <= 1e-8 and m == biphoton._ETA_NODES
        monkeypatch.setattr(biphoton, "_ETA_ULPS", 0)
        with pytest.raises(dispersion.SolverConvergenceError, match="diameter 2000000.0 nm"):
            phase_matching(seg, grid, pump.omega0)

    def test_miss_at_both_passes_names_the_diameter(self, pump, monkeypatch):
        monkeypatch.setattr(biphoton, "_ETA_TOL", 1e-300)
        monkeypatch.setattr(biphoton, "_ETA_ULPS", 0)
        grid = SpectralGrid.from_wavelength_windows(SIGNAL_WINDOW, IDLER_WINDOW, 8)
        with pytest.raises(dispersion.SolverConvergenceError,
                           match=r"^four-mode overlap missed its held-out check at diameter 900\.0 nm "
                                 r"by .* \(> 1e-300\) even at 32 Chebyshev nodes per axis$"):
            phase_matching(segment(uniform_profile(900e-9), 2), grid, pump.omega0)

    def test_held_out_points_share_the_node_field_matrices(self, pump, monkeypatch):
        # pump, signal and idler: three field matrices per diameter, each axis's
        # with its nodes and its held-out points twice (as solved, n_eff one ulp up)
        calls = []
        build = biphoton.batch_field_matrix

        def counted(cross_section, omegas, n_effs, r):
            calls.append(np.size(omegas))
            return build(cross_section, omegas, n_effs, r)

        monkeypatch.setattr(biphoton, "batch_field_matrix", counted)
        grid = SpectralGrid.from_wavelength_windows(SIGNAL_WINDOW, IDLER_WINDOW, 64)
        phase_matching(stepped_taper(), grid, pump.omega0)
        columns = biphoton._ETA_NODES + 2 * biphoton._ETA_CHECKS
        assert calls == [1, columns, columns] * 4


class TestModeBank:
    def test_spans_every_frequency_given(self):
        grid = ModeBank(3.0e15, 1.5e15, 2.0e15)._grid
        assert (grid[0], grid[-1], grid.size) == (1.5e15, 3.0e15, biphoton._BANK_NODES)

    @pytest.mark.parametrize("omegas", [
        (2.0e15, 1.0e15, float("nan")),  # Python's min and max would skip this NaN
        (float("nan"), 1.0e15),
        (1.0e15, 1.0e15),
        (-1.0e15, 2.0e15),
    ])
    def test_rejects_nan_and_empty_or_non_positive_spans(self, omegas):
        with pytest.raises(ValueError, match="positive frequencies"):
            ModeBank(*omegas)


class TestDeltaK:
    def test_degenerate_is_exactly_zero(self):
        cs = CrossSection(900e-9)
        w0 = omega(LAMBDA_PUMP)
        assert delta_k(cs, w0, w0, w0) == 0.0

    def test_signal_idler_symmetry(self):
        cs = CrossSection(900e-9)
        table = ModeBank(omega(1500e-9), omega(800e-9)).table(cs)
        rng = np.random.default_rng(7)
        w0 = omega(LAMBDA_PUMP)
        ws = omega(rng.uniform(850e-9, 950e-9, 6))
        wi = omega(rng.uniform(1250e-9, 1400e-9, 6))
        fwd = delta_k(cs, w0, ws, wi, table)
        rev = delta_k(cs, w0, wi, ws, table)
        np.testing.assert_allclose(fwd, rev, rtol=0, atol=1e-6)

    def test_table_path_matches_direct_solves(self):
        cs = CrossSection(890e-9)
        table = ModeBank(omega(1450e-9), omega(840e-9)).table(cs)
        w0 = omega(LAMBDA_PUMP)
        ws, wi = omega(880e-9), omega(1310e-9)
        fast = delta_k(cs, w0, ws, wi, table)
        slow = delta_k(cs, w0, ws, wi)
        assert fast == pytest.approx(slow, abs=0.01)  # rad/m; values are O(1e3)

    def test_direct_path_matches_per_point_solves(self):
        cs = CrossSection(890e-9)
        w0 = omega(LAMBDA_PUMP)
        ws = omega(np.array([950e-9, 900e-9, 880e-9, 850e-9]))
        wi = omega(np.array([1450e-9, 1310e-9, 1250e-9]))
        got = delta_k(cs, w0, ws[:, None], wi[None, :])
        beta = lambda w: float(w) * solve_mode(cs, w).n_eff / C_VAC  # noqa: E731
        want = np.array([[beta(w0) + beta(s + i - w0) - beta(s) - beta(i) for i in wi] for s in ws])
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_cutoff_propagates(self):
        with pytest.raises(NoGuidedModeError):
            delta_k(CrossSection(200e-9), omega(LAMBDA_PUMP), omega(880e-9), omega(1310e-9))

    def test_unphysical_returned_frequency(self):
        with pytest.raises(ValueError, match="positive"):
            delta_k(CrossSection(900e-9), omega(500e-9), omega(2000e-9), omega(2100e-9))


class TestPhaseMatchedPair:
    def test_900nm_crossing_location(self):
        # Regression lock on the zero-mismatch pair of a 900 nm waist with a
        # 1062 nm pump (characteristic equation independently verified).
        ws, wi = phase_matched_pair(
            CrossSection(900e-9), omega(LAMBDA_PUMP), (omega(950e-9), omega(850e-9))
        )
        assert 2.0 * np.pi * C_VAC / ws == pytest.approx(851.0e-9, abs=1.0e-9)
        assert 2.0 * np.pi * C_VAC / wi == pytest.approx(1412.1e-9, abs=1.5e-9)

    def test_885nm_crossing_location(self):
        ws, wi = phase_matched_pair(
            CrossSection(885e-9), omega(LAMBDA_PUMP), (omega(950e-9), omega(850e-9))
        )
        assert 2.0 * np.pi * C_VAC / ws == pytest.approx(885.4e-9, abs=1.0e-9)
        assert 2.0 * np.pi * C_VAC / wi == pytest.approx(1326.6e-9, abs=1.5e-9)

    def test_energy_conservation_exact(self):
        w0 = omega(LAMBDA_PUMP)
        ws, wi = phase_matched_pair(CrossSection(890e-9), w0, (omega(950e-9), omega(850e-9)))
        assert ws + wi == pytest.approx(2.0 * w0, rel=1e-15)

    def test_builds_one_table(self, monkeypatch):
        # the root search evaluates the mismatch many times; all of them read one table.
        calls = count_neff_tables(monkeypatch)
        phase_matched_pair(CrossSection(885e-9), omega(LAMBDA_PUMP), (omega(950e-9), omega(850e-9)))
        assert len(calls) == 1

    def test_no_crossing_raises(self):
        with pytest.raises(ValueError, match="sign"):
            phase_matched_pair(
                CrossSection(900e-9), omega(LAMBDA_PUMP), (omega(940e-9), omega(860e-9))
            )


class TestPhaseMatching:
    def test_uniform_segment_sum_matches_closed_form(self, pump):
        # Splitting a uniform waist into N segments must telescope back to
        # the single-segment closed form.
        grid = SpectralGrid.from_wavelength_windows(SIGNAL_WINDOW, IDLER_WINDOW, 64)
        profile = uniform_profile(900e-9)
        reference = phase_matching(segment(profile, 1), grid, pump.omega0)
        scale = np.max(np.abs(reference))
        for n in (2, 7, 100):
            total = phase_matching(segment(profile, n), grid, pump.omega0)
            assert np.max(np.abs(total - reference)) <= 1e-9 * scale

    def test_single_segment_at_zero_mismatch(self, pump):
        cs = CrossSection(885e-9)
        ws0, wi0 = phase_matched_pair(cs, pump.omega0, (omega(950e-9), omega(850e-9)))
        grid = SpectralGrid(np.array([ws0, ws0 * 1.0001]), np.array([wi0, wi0 * 1.0001]))
        value = phase_matching(segment(uniform_profile(885e-9), 1), grid, pump.omega0)[0, 0]
        mp = solve_mode(cs, pump.omega0)
        eta = overlap_integral(mp, mp, solve_mode(cs, ws0), solve_mode(cs, wi0))
        assert value.real == pytest.approx(0.014 * eta, rel=1e-8)
        assert abs(value.imag) < 1e-5 * abs(value)

    def test_measured_profile_single_ridge(self, pump):
        profile = load_profile(DATA / "measured_profile.txt")
        grid = SpectralGrid.from_wavelength_windows(SIGNAL_WINDOW, IDLER_WINDOW, 128)
        total = phase_matching(segment(profile, 50), grid, pump.omega0)
        power = np.abs(total) ** 2
        # 8-connectivity: the ridge runs diagonally and must not be split by
        # the labeling convention.
        _, n_regions = ndlabel(power >= 0.5 * power.max(), structure=np.ones((3, 3)))
        assert n_regions == 1

    def test_cutoff_error_names_segment_and_frequency(self, pump, monkeypatch):
        # Step to a 120 nm tail: far below cutoff at every grid frequency.
        # The step sits between segment midpoints so no segment lands on the
        # weakly-guided slope in between.
        profile = TaperProfile(
            np.array([0.0, 0.0077, 0.0078, 0.014]),
            np.array([900e-9, 900e-9, 120e-9, 120e-9]),
        )
        grid = SpectralGrid.from_wavelength_windows(SIGNAL_WINDOW, IDLER_WINDOW, 8)
        for block in (None, 7):  # one band, then one-row bands
            set_sum_block(monkeypatch, block)
            # Segments 5-8 are all at 120 nm; the walk from the output end meets 8 first.
            with pytest.raises(NoGuidedModeError, match=r"^segment 8 \(diameter 120\.0 nm\): .*nm"):
                phase_matching(segment(profile, 9), grid, pump.omega0)

    def test_cutoff_reported_before_an_overflowing_phase(self, pump, monkeypatch):
        # Below cutoff at both ends (110 nm in, 120 nm out) and a segment
        # length of 1e305 m, whose phase dk l / 2 overflows.  The error names
        # the below-cutoff segment nearest the output, in the text of that
        # diameter's own table build, and no segment term is formed.
        length = 9e305
        z = np.array([0.0, 0.1, 0.11, 0.55, 0.56, 1.0]) * length
        d = np.array([110e-9, 110e-9, 900e-9, 900e-9, 120e-9, 120e-9])
        seg = segment(TaperProfile(z, d), 9)
        assert seg.segments[0].diameter == 110e-9 and seg.segments[8].diameter == 120e-9
        grid = SpectralGrid.from_wavelength_windows(SIGNAL_WINDOW, IDLER_WINDOW, 8)
        bank = ModeBank(*grid.signal_omega[[0, -1]], *grid.idler_omega[[0, -1]], pump.omega0,
                        grid.signal_omega[0] + grid.idler_omega[0] - pump.omega0,
                        grid.signal_omega[-1] + grid.idler_omega[-1] - pump.omega0)
        with pytest.raises(NoGuidedModeError) as alone:
            bank.table(CrossSection(120e-9))
        builds = count_term_builds(monkeypatch)
        with pytest.raises(NoGuidedModeError) as err:
            phase_matching(seg, grid, pump.omega0)
        assert str(err.value) == f"segment 8 (diameter 120.0 nm): {alone.value}"
        assert str(alone.value).startswith("no guided HE11 mode at diameter 120.0 nm for wavelengths: ")
        assert builds == []
        # without the tail the input end is the one below cutoff ...
        seg = segment(TaperProfile(z[:4], d[:4]), 9)
        with pytest.raises(NoGuidedModeError, match=r"^segment 1 \(diameter 110\.0 nm\)"):
            phase_matching(seg, grid, pump.omega0)
        # ... and a guided waist of the same segment length reaches the overflowing phase
        seg = segment(uniform_profile(900e-9, length), 9)
        with pytest.raises(ValueError, match="the phase dk l / 2 overflows"):
            phase_matching(seg, grid, pump.omega0)

    def test_center_eta_close_to_per_point(self, pump, grid128):
        seg = segment(uniform_profile(885e-9), 2)
        per_point = phase_matching(seg, grid128, pump.omega0, eta_mode="per_point")
        center = phase_matching(seg, grid128, pump.omega0, eta_mode="center")
        peak = np.unravel_index(np.argmax(np.abs(per_point)), per_point.shape)
        assert abs(center[peak]) == pytest.approx(abs(per_point[peak]), rel=0.05)

    def test_center_mode_reports_error_bound(self, pump, grid128):
        result = jsa(segment(uniform_profile(885e-9), 2), pump, grid128, eta_mode="center")
        bound = result.metadata["eta_center_relative_error_bound"]
        assert 0.0 < bound < 0.2

    def test_invalid_eta_mode(self, pump, grid128):
        with pytest.raises(ValueError, match="eta_mode"):
            phase_matching(segment(uniform_profile(885e-9), 1), grid128, pump.omega0, eta_mode="fast")

    def test_exchange_symmetry_of_magnitude(self, pump):
        seg = segment(uniform_profile(885e-9), 5)
        fwd = SpectralGrid.from_wavelength_windows(SIGNAL_WINDOW, IDLER_WINDOW, 48)
        rev = SpectralGrid.from_wavelength_windows(IDLER_WINDOW, SIGNAL_WINDOW, 48)
        a = np.abs(phase_matching(seg, fwd, pump.omega0))
        b = np.abs(phase_matching(seg, rev, pump.omega0)).T
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9 * a.max())


def stepped_taper():
    """975/950/925/900/925/950 nm plateaus over 8 segments of 1.75 mm.

    Every step sits between two segment midpoints, so the segments take
    exactly four diameters; 950 and 925 nm repeat across the waist, and the
    975 nm end makes the segment order matter.
    """
    z = np.array([0.0, 1.7, 1.8, 3.45, 3.55, 5.2, 5.3, 8.7, 8.8, 10.45, 10.55, 14.0]) * 1e-3
    d = np.array([975, 975, 950, 950, 925, 925, 900, 900, 925, 925, 950, 950]) * 1e-9
    return segment(TaperProfile(z, d), 8)


class TestPhaseTerms:
    """One sin/cos pair gives numpy's sinc/exp segment terms to rounding.

    np.sinc takes sin(pi * (half / pi)), whose relative error grows near the
    zeros of sin, so ``base`` is bounded on the term's scale l eta: 1e-15 of
    it, and ``step`` within 1e-15.
    """

    def test_against_sinc_and_exp(self):
        rng = np.random.default_rng(7)
        half = np.concatenate([
            rng.uniform(-1e3, 1e3, 20000), rng.uniform(-1.0, 1.0, 2000),
            np.pi * np.arange(-50, 51) + rng.uniform(-1e-9, 1e-9, 101), [0.0, -0.0, 5e-324],
        ])
        eta = rng.uniform(0.5, 2.0, half.size) * 1e12
        length = 1.4e-4
        base, step = biphoton._phase_terms(half, length, eta)
        ref_base, ref_step = oracles.sinc_exp_terms(half, length, eta)
        assert np.all(np.abs(base - ref_base) <= 1e-15 * length * eta)
        assert np.all(np.abs(step - ref_step) <= 1e-15)

    def test_sinc_is_one_at_zero_phase(self):
        base, step = biphoton._phase_terms(np.zeros(3), 2e-3, np.array([1.0, 2.0, 4.0]))
        assert np.array_equal(base, [2e-3, 4e-3, 8e-3])
        assert np.array_equal(step, np.ones(3))


class TestSegmentSumBands:
    """The row-banded segment sum equals the whole-grid loop bit for bit."""

    def test_repeated_diameters_across_waist(self, pump, grid128):
        seg = stepped_taper()
        assert len(set(seg.segments)) == 4
        assert seg.segments[2] == seg.segments[5] and seg.segments[1] == seg.segments[7]
        expected, _ = oracles.segment_sum_loop(seg, grid128, pump.omega0, "per_point")
        assert np.array_equal(phase_matching(seg, grid128, pump.omega0), expected)

    def test_one_table_per_distinct_diameter(self, pump, monkeypatch):
        calls = count_neff_tables(monkeypatch)
        grid = SpectralGrid.from_wavelength_windows(SIGNAL_WINDOW, IDLER_WINDOW, 8)
        phase_matching(stepped_taper(), grid, pump.omega0)
        assert len(calls) == 4 and len(set(calls)) == 4

    # each diameter's eta pass: the pump, the span centre and 16 nodes and 5
    # held-out grid points per axis
    @pytest.mark.parametrize("nodes, tol, passes", [
        (32, None, [16 * (32 + 48 + 5), 16 * (2 + 2 * (16 + 5))]),
        # from 11 nodes, 14 of the 16 diameters miss 4e-10 and are solved again at 22
        (11, 4e-10, [16 * (11 + 48 + 5), 14 * 22, 16 * (2 + 2 * (16 + 5))]),
    ], ids=["default", "refined"])
    def test_one_root_pass_per_refinement(self, pump, monkeypatch, nodes, tol, passes):
        seg = segment(load_profile(DATA / "measured_profile.txt"), 16)
        assert len(set(seg.segments)) == 16
        monkeypatch.setattr(dispersion, "_TABLE_NODES", nodes)
        if tol is not None:
            monkeypatch.setattr(dispersion, "_TABLE_TOL", tol)
        sizes = []
        root = dispersion._root

        def counted(h, end1, end2):
            sizes.append(end1[0].size)
            return root(h, end1, end2)

        monkeypatch.setattr(dispersion, "_root", counted)
        calls = count_neff_tables(monkeypatch)
        grid = SpectralGrid.from_wavelength_windows(SIGNAL_WINDOW, IDLER_WINDOW, 8)
        total = phase_matching(seg, grid, pump.omega0)
        # the first pass holds every diameter's nodes, grid and five held-out
        # midpoints, the next the doubled nodes of those that missed the check,
        # and the last every diameter's eta columns
        assert sizes == passes
        assert len(calls) == 16 and len(set(calls)) == 16
        monkeypatch.setattr(dispersion, "_root", root)
        expected, _ = oracles.segment_sum_loop(seg, grid, pump.omega0, "per_point")
        assert np.array_equal(total, expected)

    @pytest.mark.parametrize("block", [None, 1, 7, 64])
    @pytest.mark.parametrize("n_signal, n_idler", [(37, 53), (37, 3)])
    def test_band_sizes(self, pump, monkeypatch, block, n_signal, n_idler):
        # On 37 x 3, blocks 7 and 64 give bands of 2 and 21 rows: the last band is short.
        grid = window_grid(n_signal, n_idler)
        seg = stepped_taper()
        expected, _ = oracles.segment_sum_loop(seg, grid, pump.omega0, "per_point")
        set_sum_block(monkeypatch, block)
        total = phase_matching(seg, grid, pump.omega0)
        assert total.shape == (n_signal, n_idler)
        assert np.array_equal(total, expected)

    def test_center_mode_and_bound(self, pump, monkeypatch):
        grid = window_grid(37, 53)
        seg = stepped_taper()
        expected, expected_bound = oracles.segment_sum_loop(seg, grid, pump.omega0, "center")
        monkeypatch.setattr(biphoton, "_SUM_BLOCK", 7)
        result = jsa(seg, pump, grid, eta_mode="center")
        assert result.amplitude.dtype == np.complex128
        assert np.array_equal(result.amplitude, pump_function(pump, grid) * expected)
        assert result.metadata["eta_center_relative_error_bound"] == expected_bound
        assert np.array_equal(phase_matching(seg, grid, pump.omega0, eta_mode="center"), expected)

    @pytest.mark.parametrize("block", [None, 7, 200])
    def test_uniform_waist_builds_once_per_band(self, pump, monkeypatch, block):
        # 37 x 53 takes 1, 37 and 13 bands; every segment shares one diameter.
        set_sum_block(monkeypatch, block)
        builds = count_term_builds(monkeypatch)
        phase_matching(segment(uniform_profile(900e-9), 100), window_grid(37, 53), pump.omega0)
        assert len(builds) == n_bands(37, 53)
        assert sum(rows for rows, _ in builds) == 37

    @pytest.mark.parametrize("block", [None, 7, 200])
    def test_each_diameter_builds_once_per_band(self, pump, monkeypatch, block):
        set_sum_block(monkeypatch, block)
        builds = count_term_builds(monkeypatch)
        phase_matching(stepped_taper(), window_grid(37, 53), pump.omega0)
        assert len(builds) == 4 * n_bands(37, 53)
        assert sum(rows for rows, _ in builds) == 4 * 37


class TestSegmentSumMemory:
    """The sum holds one m x n_idler eta factor per distinct diameter plus band-sized arrays.

    Peaks are traced with tracemalloc, which numpy reports its buffers to, on
    a 192 x 192 grid in bands of 21 rows (4096 values).  The arrays that
    every call holds (the complex result, the n_signal x m interpolation
    matrix, the field matrices of one diameter's nodes) cancel in the
    differences.
    """

    N = 192
    BLOCK = 4096

    def traced_peak(self, pump, seg):
        grid = window_grid(self.N, self.N)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            phase_matching(seg, grid, pump.omega0)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_segments_of_one_diameter_add_no_grid(self, pump, monkeypatch):
        set_sum_block(monkeypatch, self.BLOCK)
        waist = uniform_profile(900e-9)
        self.traced_peak(pump, segment(waist, 1))  # first-call caches
        one, hundred = (self.traced_peak(pump, segment(waist, n)) for n in (1, 100))
        # one band's temporaries: four complex arrays of BLOCK values
        assert hundred - one <= 4 * 16 * self.BLOCK

    def test_each_distinct_diameter_adds_one_node_factor(self, pump, monkeypatch):
        set_sum_block(monkeypatch, self.BLOCK)
        linear = TaperProfile(np.array([0.0, 0.014]), np.array([900e-9, 1000e-9]))
        self.traced_peak(pump, segment(linear, 2))  # first-call caches
        two, ten = (self.traced_peak(pump, segment(linear, n)) for n in (2, 10))
        # 8 B per value of the m x N factor, plus 64 KB of slack for the n_eff
        # table (30 KB at 753 knots) and small objects; a real eta grid would be
        # 8 N^2 B
        assert (ten - two) / 8 <= 8 * biphoton._ETA_NODES * self.N + 65536


class TestPumpFunction:
    def test_peak_on_energy_line(self, pump, grid128):
        envelope = np.abs(pump_function(pump, grid128))
        i, j = np.unravel_index(np.argmax(envelope), envelope.shape)
        total = grid128.signal_omega[i] + grid128.idler_omega[j]
        cell = np.diff(grid128.signal_omega).max() + np.diff(grid128.idler_omega).max()
        assert abs(total - 2.0 * pump.omega0) <= cell

    def test_peak_value_closed_form(self, pump):
        # Put a grid point exactly on the energy line: the convolution there
        # equals sigma*sqrt(pi) for a unit-amplitude Gaussian spectrum.
        w0 = pump.omega0
        grid = SpectralGrid(np.array([0.9 * w0, 1.1 * w0]), np.array([0.9 * w0, 1.1 * w0]))
        envelope = pump_function(pump, grid)
        assert envelope[0, 1].real == pytest.approx(pump.sigma * np.sqrt(np.pi), rel=1e-12)

    def test_real_envelope_promotes_bit_for_bit(self, pump, grid128):
        envelope = pump_function(pump, grid128)
        assert envelope.dtype == np.float64
        matched = np.exp(1j * np.linspace(0.0, 7.0, envelope.size)).reshape(envelope.shape)
        assert np.array_equal(envelope * matched, envelope.astype(complex) * matched)
        # jsa() and cmd_jsi form the product in matched's buffer.  Where the
        # envelope underflows to 0 the sign of each zero part comes from the
        # signs of matched's parts, so every quadrant and signed zeros occur.
        assert np.count_nonzero(envelope == 0.0) > envelope.size // 8
        matched.flat[::5] = complex(-0.0, -0.0)
        matched.flat[1::5] = -matched.flat[1::5]
        matched.flat[2::5] = complex(0.0, -3.5)
        assert np.any((envelope == 0.0) & (matched.real < 0) & (matched.imag < 0))
        want = envelope * matched
        got = np.multiply(envelope, matched, out=matched)
        assert got is matched
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_jsa_amplitude_is_the_envelope_product(self, pump, grid128):
        seg = segment(uniform_profile(885e-9), 3)
        want = pump_function(pump, grid128) * phase_matching(seg, grid128, pump.omega0)
        got = jsa(seg, pump, grid128).amplitude
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_quadrature_route_matches_analytic(self, pump, grid128):
        analytic = np.abs(pump_function(pump, grid128))
        numeric = oracles.pump_autoconvolution(
            pump.omega0, pump.sigma, grid128.signal_omega, grid128.idler_omega
        )
        denom = np.maximum(analytic, numeric)
        rel = np.where(denom > 0, np.abs(analytic - numeric) / np.where(denom > 0, denom, 1.0), 0.0)
        # Cells where both routes underflow to subnormals (~300 orders below
        # peak) carry no relative precision; they are the only ones excused.
        assert np.mean(rel <= 1e-6) >= 0.99
        peak_cell = np.unravel_index(np.argmax(analytic), analytic.shape)
        assert rel[peak_cell] <= 1e-9

    def test_band_width_shrinks_with_sigma(self, grid128):
        counts = []
        for fwhm in (4e-9, 2e-9, 1e-9):
            p = PumpSpec.from_spectral_fwhm(LAMBDA_PUMP, fwhm)
            envelope = np.abs(pump_function(p, grid128))
            counts.append(int(np.sum(envelope >= 0.5 * envelope.max())))
        assert counts[0] > counts[1] > counts[2]

    def test_same_bits_as_the_whole_grid_expression(self, pump, grid128):
        ws, wi, w0, sigma = grid128.signal_omega, grid128.idler_omega, pump.omega0, pump.sigma
        total = ws[:, None] + wi[None, :]
        want = sigma * np.sqrt(np.pi) * np.exp(-((total - 2.0 * w0) ** 2) / (4.0 * sigma**2))
        got = pump_function(pump, grid128)
        assert np.count_nonzero(got == 0.0) > got.size // 8  # underflowed cells too
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_one_grid_of_memory(self, pump):
        # the envelope is formed in its own buffer: one real grid, plus numpy's
        # buffer of 8192 values per operand (128 KB) for the broadcast sum and
        # small objects
        grid = window_grid(192, 160)
        pump_function(pump, grid)  # first-call caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pump_function(pump, grid)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 192 * 160 + 160 * 1024

    def test_coverage_warning_on_clipped_band(self, pump):
        tight = SpectralGrid.from_wavelength_windows(
            (879.9e-9, 880.1e-9), (1338.8e-9, 1339.1e-9), 8
        )
        with pytest.warns(GridCoverageWarning):
            pump_function(pump, tight)

    def test_no_warning_on_wide_window(self, pump, grid128, recwarn):
        pump_function(pump, grid128)
        assert not any(isinstance(w.message, GridCoverageWarning) for w in recwarn.list)


class TestJsa:
    def test_metadata_block(self, jsa_885):
        meta = jsa_885.metadata
        assert meta == {
            "eta_mode": "per_point",
            "eta_center_relative_error_bound": None,
            "tolerances": {"neff_table_midpoint_abs": biphoton._TABLE_TOL,
                           "eta_nodes_relative": biphoton._ETA_TOL},
        }

    def test_amplitude_finite_and_shaped(self, jsa_885, grid128):
        assert jsa_885.amplitude.shape == (grid128.n_signal, grid128.n_idler)
        assert np.all(np.isfinite(jsa_885.amplitude))

    def test_peak_for_885nm_waist_in_expected_window(self, pump):
        grid = SpectralGrid.from_wavelength_windows(SIGNAL_WINDOW, IDLER_WINDOW, 256)
        result = jsa(segment(uniform_profile(885e-9), 100), pump, grid)
        i, j = np.unravel_index(np.argmax(result.intensity), result.intensity.shape)
        ls = 2.0 * np.pi * C_VAC / grid.signal_omega[i]
        li = 2.0 * np.pi * C_VAC / grid.idler_omega[j]
        assert 870e-9 <= ls <= 890e-9
        assert 1290e-9 <= li <= 1330e-9

    def test_peak_for_900nm_waist_rides_window_edge(self, pump):
        # The 900 nm waist phase matches at (851, 1412) nm, outside this
        # idler window, so the in-window peak pins to the long-wave edge.
        grid = SpectralGrid.from_wavelength_windows(SIGNAL_WINDOW, IDLER_WINDOW, 256)
        result = jsa(segment(uniform_profile(900e-9), 100), pump, grid)
        i, j = np.unravel_index(np.argmax(result.intensity), result.intensity.shape)
        assert 2.0 * np.pi * C_VAC / grid.idler_omega[j] >= 1390e-9
        assert 850e-9 <= 2.0 * np.pi * C_VAC / grid.signal_omega[i] <= 862e-9

    def test_energy_band_contains_all_mass(self, pump, jsa_885, grid128):
        total = grid128.signal_omega[:, None] + grid128.idler_omega[None, :]
        outside = np.abs(total - 2.0 * pump.omega0) > 10.0 * pump.sigma
        intensity = jsa_885.intensity
        assert intensity[outside].sum() <= 1e-4 * intensity.sum()

    def test_peak_on_antidiagonal(self, pump, jsa_885, grid128):
        i, j = np.unravel_index(np.argmax(jsa_885.intensity), jsa_885.intensity.shape)
        total = grid128.signal_omega[i] + grid128.idler_omega[j]
        cell = np.diff(grid128.signal_omega).max() + np.diff(grid128.idler_omega).max()
        assert abs(total - 2.0 * pump.omega0) <= cell

    def test_mismatched_amplitude_shape_rejected(self, grid128):
        with pytest.raises(ValueError, match="shape"):
            JsaGrid(grid128, np.zeros((3, 3), dtype=complex))

    def test_non_finite_amplitude_rejected(self, grid128):
        bad = np.zeros((grid128.n_signal, grid128.n_idler), dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            JsaGrid(grid128, bad)


class TestSegmentationConvergence:
    def test_measured_fixture_n100_vs_n200(self, pump):
        profile = load_profile(DATA / "measured_profile.txt")
        grid = SpectralGrid.from_wavelength_windows(SIGNAL_WINDOW, IDLER_WINDOW, 256)
        coarse = jsa(segment(profile, 100), pump, grid).intensity
        fine = jsa(segment(profile, 200), pump, grid).intensity
        change = np.max(np.abs(coarse / coarse.max() - fine / fine.max()))
        assert change <= 0.01


class TestSchmidt:
    def test_separable_amplitude_unit_schmidt_number(self):
        x = np.linspace(-2, 2, 64)
        f = np.exp(-(x**2))
        report = schmidt_analysis(np.outer(f, f).astype(complex))
        assert report["schmidt_number"] == pytest.approx(1.0, abs=1e-6)
        assert report["heralded_purity"] == pytest.approx(1.0, abs=1e-6)

    def test_two_equal_orthogonal_terms(self):
        amp = np.zeros((8, 8), dtype=complex)
        amp[0, 0] = 1.0
        amp[1, 1] = 1.0
        report = schmidt_analysis(amp)
        assert report["schmidt_number"] == pytest.approx(2.0, abs=1e-6)

    def test_coefficients_descending_unit_sum(self, jsa_885):
        report = schmidt_analysis(jsa_885)
        lam = report["schmidt_coefficients"]
        assert np.all(lam >= 0)
        assert np.all(np.diff(lam) <= 0)
        assert lam.sum() == pytest.approx(1.0, abs=1e-9)

    def test_scale_invariance(self, jsa_885):
        k1 = schmidt_analysis(jsa_885.amplitude)["schmidt_number"]
        k2 = schmidt_analysis(17.3 * jsa_885.amplitude)["schmidt_number"]
        assert k1 == pytest.approx(k2, rel=1e-12)

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            schmidt_analysis(np.zeros((4, 4), dtype=complex))

    def test_grid_refinement_stability(self, pump):
        seg = segment(uniform_profile(900e-9), 20)
        values = []
        for n in (128, 256):
            grid = SpectralGrid.from_wavelength_windows(SIGNAL_WINDOW, IDLER_WINDOW, n)
            values.append(schmidt_analysis(jsa(seg, pump, grid))["schmidt_number"])
        assert abs(values[0] - values[1]) <= 0.01 * values[1]


class TestMarginals:
    def test_unit_sums(self, jsa_885):
        sig, idl = marginals(jsa_885)
        assert sig.sum() == pytest.approx(1.0, abs=1e-9)
        assert idl.sum() == pytest.approx(1.0, abs=1e-9)

    def test_uniform_amplitude_uniform_marginals(self):
        sig, idl = marginals(np.ones((16, 24), dtype=complex))
        np.testing.assert_allclose(sig, 1.0 / 16, rtol=1e-12)
        np.testing.assert_allclose(idl, 1.0 / 24, rtol=1e-12)

    def test_idler_peak_for_885nm_waist(self, pump):
        grid = SpectralGrid.from_wavelength_windows(SIGNAL_WINDOW, IDLER_WINDOW, 256)
        result = jsa(segment(uniform_profile(885e-9), 100), pump, grid)
        _, idl = marginals(result)
        peak = 2.0 * np.pi * C_VAC / grid.idler_omega[np.argmax(idl)]
        assert 1290e-9 <= peak <= 1330e-9

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            marginals(np.zeros((4, 4), dtype=complex))


class TestExports:
    def test_csv_roundtrip(self, jsa_885, grid128, tmp_path):
        path = tmp_path / "jsi.csv"
        intensity = jsa_885.intensity / jsa_885.intensity.max()
        write_matrix_csv(path, grid128, intensity, name="jsi")
        rows = [
            line.split(",") for line in path.read_text().splitlines() if not line.startswith("#")
        ]
        header = np.array([float(v) for v in rows[0][1:]])
        np.testing.assert_array_equal(header, grid128.idler_omega)
        body = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        np.testing.assert_array_equal(body, intensity)

    def test_csv_shape_mismatch(self, grid128, tmp_path):
        with pytest.raises(ValueError, match="shape"):
            write_matrix_csv(tmp_path / "x.csv", grid128, np.zeros((2, 2)), name="x")

    @settings(max_examples=40, deadline=None)
    @given(n_signal=st.integers(2, 3 * biphoton._CSV_BLOCK_ROWS + 1), n_idler=st.integers(2, 9),
           seed=st.integers(0, 2**32 - 1))
    def test_row_function_writes_the_array_bytes(self, tmp_path_factory, n_signal, n_idler, seed):
        # row counts on both sides of whole blocks, so the last block is often short
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((n_signal, n_idler)) * 10.0 ** rng.integers(-300, 300, n_idler)
        matrix[rng.random(matrix.shape) < 0.3] = 0.0
        grid = window_grid(n_signal, n_idler)
        out = tmp_path_factory.mktemp("rows")
        slices = []

        def rows_of(band):
            slices.append((band.start, band.stop))
            return matrix[band]

        for path, source in ((out / "array.csv", matrix), (out / "rows.csv", rows_of)):
            write_matrix_csv(path, grid, source, name="m", comments=["c"])
        assert (out / "rows.csv").read_bytes() == (out / "array.csv").read_bytes()
        block = biphoton._CSV_BLOCK_ROWS
        assert slices == [(s, min(s + block, n_signal)) for s in range(0, n_signal, block)]

    @pytest.mark.parametrize("rows_of, array", [
        (lambda band: np.zeros((band.stop - band.start, 5), dtype=complex),
         np.zeros((40, 5), dtype=complex)),
        (lambda band: np.zeros((band.stop - band.start, 4)), np.zeros((40, 4))),
        (lambda band: np.zeros(5), np.zeros(5)),
        # the second block of 40 rows has 8 rows, not 32
        (lambda band: np.zeros((biphoton._CSV_BLOCK_ROWS, 5)), np.zeros((64, 5))),
    ], ids=["complex", "columns", "one_dimensional", "short_block_too_long"])
    def test_row_function_gets_the_array_checks(self, tmp_path, rows_of, array):
        grid = window_grid(40, 5)
        with pytest.raises((TypeError, ValueError)) as from_array:
            write_matrix_csv(tmp_path / "array.csv", grid, array, name="x")
        with pytest.raises(from_array.type) as from_rows:
            write_matrix_csv(tmp_path / "rows.csv", grid, rows_of, name="x")
        assert str(from_rows.value) == str(from_array.value)
        assert str(from_array.value) in ("matrix shape does not match grid",
                                         "write_matrix_csv needs a real matrix")
        assert (from_array.type is TypeError) == np.iscomplexobj(array)

    def test_marginals_csv(self, jsa_885, tmp_path):
        path = tmp_path / "marginals.csv"
        write_marginals_csv(jsa_885, path)
        lines = path.read_text().splitlines()
        assert lines[1] == "axis,omega_rad_s,weight"
        assert sum(1 for l in lines if l.startswith("signal,")) == 128

    def test_zero_export_rejected(self, grid128, tmp_path):
        empty = JsaGrid(grid128, np.zeros((128, 128), dtype=complex))
        with pytest.raises(ValueError, match="zero"):
            write_marginals_csv(empty, tmp_path / "z.csv")
        assert not (tmp_path / "z.csv").exists()
