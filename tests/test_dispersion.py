import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import c as C_VAC
from scipy.integrate import quad, simpson
from scipy.special import jv, kve

from taperfwm import dispersion
from taperfwm.dispersion import (
    FUSED_SILICA,
    CrossSection,
    ExtrapolationError,
    NoGuidedModeError,
    SellmeierGlass,
    WavelengthRangeError,
    load_glass,
    neff_table,
    parse_glass,
    solve_mode,
)
from taperfwm.profile import load_profile, segment

from oracles import (
    bisect_logw_he11,
    dense_scan_he11,
    field_rows_general,
    he11_char_fn_general,
    pchip,
    scan_bisect_he11,
)

DATA = Path(__file__).resolve().parents[1] / "data"


def omega_of(lam):
    return 2.0 * np.pi * C_VAC / lam


# ---------------------------------------------------------------- Sellmeier


class TestSellmeier:
    def test_frozen_malitson_values(self):
        # frozen from a 40-digit evaluation of the Sellmeier sum
        assert FUSED_SILICA.index(1.062e-6) == pytest.approx(1.44965500342, abs=1e-9)
        assert FUSED_SILICA.index(0.880e-6) == pytest.approx(1.45204407893, abs=1e-9)
        # coarse handbook anchors
        assert FUSED_SILICA.index(1.062e-6) == pytest.approx(1.4498, abs=5e-4)
        assert FUSED_SILICA.index(0.880e-6) == pytest.approx(1.4518, abs=5e-4)

    def test_single_zero_term_is_vacuum(self):
        glass = SellmeierGlass("nothing", ((0.0, 1.0),), (0.3, 2.0))
        assert glass.index(1.0e-6) == 1.0

    def test_out_of_validity_names_interval(self):
        with pytest.raises(WavelengthRangeError, match=r"0\.21.*3\.71"):
            FUSED_SILICA.index(0.15e-6)
        with pytest.raises(WavelengthRangeError):
            FUSED_SILICA.index(4.0e-6)

    def test_vectorized_matches_scalar(self):
        lams = np.array([0.5e-6, 1.0e-6, 1.5e-6])
        vec = FUSED_SILICA.index(lams)
        assert vec.shape == (3,)
        for lam, n in zip(lams, vec):
            assert n == FUSED_SILICA.index(float(lam))

    @pytest.mark.parametrize(
        "terms, validity",
        [
            ((), (0.2, 2.0)),
            (((-0.1, 1.0),), (0.2, 2.0)),
            (((0.5, 0.0),), (0.2, 2.0)),
            (((0.5, 1.0),), (2.0, 0.2)),
            (((0.5, math.nan),), (0.2, 2.0)),
            (((math.nan, 1.0),), (0.2, 2.0)),
            (((math.inf, 1.0),), (0.2, 2.0)),
            (((0.5, math.inf),), (0.2, 2.0)),
            (((0.5, 1.0),), (math.nan, 2.0)),
            (((0.5, 1.0),), (0.2, math.inf)),
        ],
    )
    def test_invalid_construction(self, terms, validity):
        with pytest.raises(ValueError):
            SellmeierGlass("bad", terms, validity)


class TestGlassFile:
    def test_shipped_silica_matches_builtin(self):
        glass = load_glass(DATA / "silica.glass")
        assert glass.name == FUSED_SILICA.name
        assert glass.terms == FUSED_SILICA.terms
        assert glass.validity_um == FUSED_SILICA.validity_um

    def test_unknown_key_reports_line(self):
        with pytest.raises(ValueError, match=":3:"):
            parse_glass("name x\nB 1.0\nbogus 2.0\nC 1.0\nvalidity_um 0.2 2.0")

    def test_missing_key(self):
        with pytest.raises(ValueError, match="missing"):
            parse_glass("name x\nB 1.0\nC 1.0")

    def test_term_count_mismatch(self):
        with pytest.raises(ValueError, match="entries"):
            parse_glass("name x\nB 1.0 2.0\nC 1.0\nvalidity_um 0.2 2.0")

    def test_duplicate_key(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_glass("name x\nname y\nB 1.0\nC 1.0\nvalidity_um 0.2 2.0")

    def test_malformed_number_reports_line(self):
        with pytest.raises(ValueError, match=":2:"):
            parse_glass("name x\nB one\nC 1.0\nvalidity_um 0.2 2.0")


# ---------------------------------------------------------------- solve_mode

WAIST = CrossSection(diameter=890e-9)
OM_PUMP = omega_of(1062e-9)
# a resonance above the band pulls n below 1: 0.9802 at 1062 nm
SUB_UNITY_GLASS = SellmeierGlass("sub-unity", ((0.1, 4.0),), (0.5, 1.5))


class TestSolveMode:
    def test_he11_inside_guidance_bounds(self):
        sol = solve_mode(WAIST, OM_PUMP)
        assert 1.0 < sol.n_eff < WAIST.core.index(1062e-9)

    def test_decay_parameter_consistency_exact(self):
        # w = a k0 sqrt(n_eff^2 - 1), the outside decay that overlap_integral reads
        sol = solve_mode(WAIST, OM_PUMP)
        assert sol.w == WAIST.diameter / 2.0 * sol.omega / C_VAC * np.sqrt(sol.n_eff**2 - 1.0)

    def test_he11_frozen_regression(self):
        # anchored against an independent high-precision boundary-condition solve
        sol = solve_mode(WAIST, OM_PUMP)
        assert sol.n_eff == pytest.approx(1.2624669181981, abs=2e-10)

    @pytest.mark.parametrize(
        "d, lam",
        [
            (890e-9, 1062e-9),
            (900e-9, 851e-9),
            (900e-9, 1310e-9),
            (1200e-9, 1550e-9),
            (700e-9, 980e-9),
            (3000e-9, 1062e-9),  # V ~ 9: several HE1n guided, HE11 is the largest root
        ],
    )
    def test_dense_scan_oracle_agreement(self, d, lam):
        mine = solve_mode(CrossSection(diameter=d), omega_of(lam)).n_eff
        assert abs(mine - dense_scan_he11(d, lam)) <= 1e-8

    @pytest.mark.parametrize("d", [300e-9, 900e-9, 3e-6, 20e-6])
    def test_scan_and_bisect_oracle_agreement(self, d):
        # the earlier n_eff scan and bisection, wherever both solve
        omegas = omega_of(np.linspace(500e-9, 1600e-9, 61))
        n1, ak0 = dispersion._guide_params(CrossSection(diameter=d), omegas)
        ref = scan_bisect_he11(n1, 1.0, ak0)  # in air
        assert np.all(np.isfinite(ref))
        assert np.max(np.abs(dispersion._solve_many(CrossSection(diameter=d), omegas) - ref)) <= 2e-15

    @pytest.mark.parametrize(
        "d, lam_hi, tol",
        [(300e-9, 1600e-9, 1e-15), (900e-9, 1600e-9, 1e-15), (3e-6, 1600e-9, 1e-15),
         (20e-6, 1600e-9, 1e-15), (120e-9, 750e-9, 2e-15)],
    )
    def test_logw_bisection_oracle_agreement(self, d, lam_hi, tol):
        # the earlier 60-step bisection in log w on the same bracket.  At 120 nm
        # the roots reach the bottom clip (n_eff - 1 ~ 1e-9) and the rounding
        # noise of h spans about 1e-15 in n_eff: on this grid both solvers are
        # within 1.1e-15 of a 50-digit root and differ by up to 1.1e-15
        omegas = omega_of(np.linspace(500e-9, lam_hi, 61))
        n1, ak0 = dispersion._guide_params(CrossSection(diameter=d), omegas)
        ref = bisect_logw_he11(n1, ak0)
        assert np.all(np.isfinite(ref))
        assert np.max(np.abs(dispersion._solve_many(CrossSection(diameter=d), omegas) - ref)) <= tol

    @pytest.mark.parametrize(
        "d, steps",
        [(2e-3, [125, 200, 496, 904]), (3e-3, [3, 79, 342, 1220, 5051])],
    )
    def test_thick_waist_solves_where_bisection_failed(self, d, steps):
        # points of an 8001-point 800-1600 nm sweep (lam = 800 nm + step x 0.1 nm)
        # where the bisection's geometric-mean root failed the residual check;
        # the better of the two adjacent doubles passes it
        omegas = omega_of(np.linspace(800e-9, 1600e-9, 8001)[steps])
        n1, ak0 = dispersion._guide_params(CrossSection(diameter=d), omegas)
        n_eff = np.array([solve_mode(CrossSection(diameter=d), om).n_eff for om in omegas])
        assert np.all((1.0 < n_eff) & (n_eff < n1))
        assert np.max(np.abs(n_eff - bisect_logw_he11(n1, ak0))) <= 1e-15

    @pytest.mark.parametrize("d", [700e-9, 900e-9, 3e-6])
    def test_char_fn_evaluations_per_frequency(self, d, monkeypatch):
        # a 753-point solve (a 48-node table grid refined 16 times) evaluates
        # h at most 16 times per frequency, the bracket ends included
        evaluated = []
        char_fn = dispersion._char_fn

        def counting(nu, v):
            h = char_fn(nu, v)
            return lambda w: (evaluated.append(np.size(w)), h(w))[1]

        monkeypatch.setattr(dispersion, "_char_fn", counting)
        omegas = np.linspace(omega_of(1600e-9), omega_of(800e-9), 753)
        dispersion._solve_many(CrossSection(diameter=d), omegas)
        assert sum(evaluated) <= 16 * omegas.size

    def test_root_stops_at_adjacent_doubles(self):
        # x^3 - c on [1, 2] for c = 2 and 3, and a column whose h turns NaN
        # on (1.3, 1.6), where the first step (sqrt 2) lands
        c = np.array([2.0, 3.0, 2.0])
        seen = []

        def h(cols, x):
            seen.append(cols.copy())
            f = x**3 - c[cols]
            return np.where((cols == 2) & (1.3 < x) & (x < 1.6), np.nan, f), x**3 + c[cols]

        ends = [(x, *h(np.arange(3), x)) for x in (np.ones(3), np.full(3, 2.0))]
        seen.clear()
        w, fw, sw, ok = dispersion._root(h, *ends)
        assert ok.tolist() == [True, True, False]
        assert seen[0].tolist() == [0, 1, 2] and seen[1].tolist() == [0, 1]  # a stopped column is not asked again
        for x, f, s, target in zip(w[:2], fw[:2], sw[:2], c[:2]):
            down, up = np.nextafter(x, 0.0), np.nextafter(x, 3.0)
            other = up if np.signbit(down**3 - target) == np.signbit(f) else down
            assert np.signbit(other**3 - target) != np.signbit(f)  # adjacent doubles bracket the root
            assert abs(f) <= abs(other**3 - target)  # the end with the smaller |h|
            assert f == x**3 - target and s == x**3 + target
        assert w[0] == pytest.approx(2.0 ** (1 / 3), rel=1e-15)
        assert w[1] == pytest.approx(3.0 ** (1 / 3), rel=1e-15)

    def test_guidance_violation(self):
        # a glass file can give a core index below that of the air around it
        cs = CrossSection(diameter=890e-9, core=SUB_UNITY_GLASS)
        assert cs.core.index(1062e-9) == pytest.approx(0.9802, abs=1e-4)
        with pytest.raises(NoGuidedModeError, match="guidance condition violated"):
            solve_mode(cs, OM_PUMP)

    def test_invalid_omega(self):
        with pytest.raises(ValueError):
            solve_mode(WAIST, -1.0)

    def test_monotone_in_diameter(self):
        # larger core confines more: n_eff(HE11) non-decreasing over 0.5-2.0 um
        diams = np.linspace(0.5e-6, 2.0e-6, 7)
        neffs = [solve_mode(CrossSection(diameter=d), OM_PUMP).n_eff for d in diams]
        assert np.all(np.diff(neffs) >= 0)

    def test_cladding_limit_large_diameter(self):
        sol = solve_mode(CrossSection(diameter=50e-6), OM_PUMP)
        assert abs(sol.n_eff - WAIST.core.index(1062e-9)) <= 1e-3


class TestModeField:
    @pytest.mark.parametrize("name", ["HE11"])
    def test_normalization_within_tolerance(self, name):
        # Simpson rule over the sampled profile: uniform core grid, geometric
        # cladding grid out to K_0(w r/a) ~ e^-37
        sol = solve_mode(WAIST, OM_PUMP)
        a = WAIST.diameter / 2.0
        r_core = np.linspace(0.0, a, 601)
        r_clad = a * np.exp(np.linspace(0.0, np.log1p(37.0 / sol.w), 2401))
        core = simpson(2.0 * np.pi * r_core * sol.field_at(r_core) ** 2, x=r_core)
        clad = simpson(2.0 * np.pi * r_clad * sol.field_at(r_clad) ** 2, x=r_clad)
        assert core + clad == pytest.approx(1.0, abs=1e-6)

    def test_normalization_independent_quadrature(self):
        # dual route: adaptive quadrature of the closed-form profile
        sol = solve_mode(WAIST, OM_PUMP)
        a = WAIST.diameter / 2.0
        integrand = lambda r: sol.field_at(r) ** 2 * 2.0 * np.pi * r
        core, _ = quad(integrand, 0.0, a, limit=200)
        clad, _ = quad(integrand, a, a * (1.0 + 40.0 / sol.w), limit=200)
        assert core + clad == pytest.approx(1.0, abs=1e-7)

    def test_field_continuous_at_interface(self):
        sol = solve_mode(WAIST, OM_PUMP)
        a = WAIST.diameter / 2.0
        assert sol.field_at(a * (1 - 1e-9)) == pytest.approx(sol.field_at(a * (1 + 1e-9)), rel=1e-6)

    def test_field_decays_outside(self):
        sol = solve_mode(WAIST, OM_PUMP)
        a = WAIST.diameter / 2.0
        assert abs(sol.field_at(4 * a)) < abs(sol.field_at(1.5 * a)) < abs(sol.field_at(a))

    def test_negative_radius_rejected(self):
        sol = solve_mode(WAIST, OM_PUMP)
        with pytest.raises(ValueError):
            sol.field_at(-1e-9)


# ---------------------------------------------------------------- PCHIP
# dispersion._Pchip against scipy's PchipInterpolator (oracles.pchip): equal
# bit for bit, NaN positions included, with no tolerance.

PCHIP_DATA = ("random_walk", "smooth", "flat", "sign_changing")


def pchip_knots(rng, n, kind):
    x = np.cumsum(rng.uniform(0.05, 2.0, n)) + rng.normal(0.0, 10.0)
    if kind == "random_walk":
        y = np.cumsum(rng.normal(size=n))
    elif kind == "smooth":
        y = np.sin(np.linspace(0.0, rng.uniform(1.0, 12.0), n)) * rng.uniform(0.1, 10.0)
    elif kind == "flat":  # plateaus: zero slopes on either side of a knot
        y = np.round(np.cumsum(rng.normal(size=n)) / 3.0)
    else:  # the slope changes sign at every knot
        y = (-1.0) ** np.arange(n) * rng.uniform(0.5, 1.5, n)
    return x, y


def pchip_queries(rng, x):
    mids = x[:-1] + 0.5 * np.diff(x)
    edges = [x[0], x[-1], np.nextafter(x[0], -np.inf), np.nextafter(x[-1], np.inf),
             x[0] - 1.0, x[-1] + 1.0, np.nan]
    # more queries than one evaluation block (dispersion._PCHIP_BLOCK)
    spread = rng.uniform(x[0] - 1.0, x[-1] + 1.0, 2 * dispersion._PCHIP_BLOCK + 7)
    return np.concatenate([x, mids, edges, spread])


def assert_pchip_matches_scipy(x, y, q):
    assert np.array_equal(dispersion._Pchip(x, y)(q), pchip(x, y)(q), equal_nan=True)


class TestPchip:
    @pytest.mark.parametrize("kind", PCHIP_DATA)
    def test_bit_identical_to_scipy(self, kind):
        rng = np.random.default_rng(PCHIP_DATA.index(kind))
        for n in [2, 3, 4, 5, 800, *rng.integers(2, 801, 30)]:
            x, y = pchip_knots(rng, int(n), kind)
            assert_pchip_matches_scipy(x, y, pchip_queries(rng, x))

    def test_nan_outside_the_knots_only(self):
        x, y = np.array([0.0, 1.0, 3.0]), np.array([1.0, 2.0, 0.5])
        out = dispersion._Pchip(x, y)(np.array([-1e-300, 0.0, 3.0, np.nextafter(3.0, 4.0)]))
        assert np.array_equal(np.isnan(out), [True, False, False, True])
        assert out[1:3].tolist() == [1.0, 0.5]

    def test_scalar_query_gives_zero_dim(self):
        x, y = np.array([0.0, 1.0, 3.0]), np.array([1.0, 2.0, 0.5])
        out = dispersion._Pchip(x, y)(np.float64(2.0))
        assert np.ndim(out) == 0
        assert out == pchip(x, y)(2.0)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # scipy's slopes
    @settings(max_examples=200, deadline=None)
    @given(
        knots=st.lists(
            st.tuples(st.floats(1e-3, 1e3), st.floats(-1e6, 1e6)), min_size=2, max_size=60
        ),
        fractions=st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=30),
    )
    def test_bit_identical_to_scipy_property(self, knots, fractions):
        steps, y = map(np.array, zip(*knots))
        x = np.cumsum(steps)
        q = np.concatenate([x, x[0] + np.array(fractions) * (x[-1] - x[0])])
        assert_pchip_matches_scipy(x, y, q)

    @pytest.mark.parametrize("diameter", [
        900e-9,
        segment(load_profile(DATA / "measured_profile.txt"), 16).segments[0].diameter,
    ], ids=["uniform_900nm", "measured_segment_0"])
    def test_neff_table_same_as_with_scipy_pchip(self, monkeypatch, diameter):
        # the table's interpolant is the one call site of _Pchip
        cs = CrossSection(diameter=diameter)
        grid = np.linspace(omega_of(1500e-9), omega_of(800e-9), 48)
        queries = np.random.default_rng(7).uniform(grid[0], grid[-1], 1000)
        table = neff_table(cs, grid)
        monkeypatch.setattr(dispersion, "_Pchip", pchip)
        reference = neff_table(cs, grid)
        assert np.array_equal(table(grid), reference(grid))
        assert np.array_equal(table(queries), reference(queries))


# ---------------------------------------------------------------- neff_table


class TestNeffTable:
    def test_midpoint_agreement_with_direct_solve(self):
        grid = np.linspace(omega_of(1400e-9), omega_of(800e-9), 64)
        table = neff_table(WAIST, grid)
        for lam in (1062e-9, 850e-9, 1333e-9):
            om = omega_of(lam)
            assert abs(table(om) - solve_mode(WAIST, om).n_eff) <= 1e-8

    def test_values_stored_at_grid(self):
        # the grid's frequencies are knots of the interpolant: it passes through their solves
        grid = np.linspace(omega_of(1200e-9), omega_of(900e-9), 8)
        table = neff_table(WAIST, grid)
        direct = [solve_mode(WAIST, om).n_eff for om in grid]
        np.testing.assert_allclose(table(grid), direct, rtol=0, atol=1e-14)

    def test_k_is_omega_neff_over_c(self):
        grid = np.linspace(omega_of(1200e-9), omega_of(900e-9), 8)
        table = neff_table(WAIST, grid)
        om = grid[3]
        assert table.k(om) == pytest.approx(om * table(om) / C_VAC, rel=1e-15)

    def test_single_point_grid_rejected(self):
        with pytest.raises(ValueError, match="at least two points"):
            neff_table(WAIST, np.array([omega_of(1062e-9)]))

    def test_extrapolation_error(self):
        grid = np.linspace(omega_of(1200e-9), omega_of(900e-9), 8)
        table = neff_table(WAIST, grid)
        with pytest.raises(ExtrapolationError):
            table(grid[0] * 0.5)
        with pytest.raises(ExtrapolationError):
            table(np.array([grid[2], grid[-1] * 1.5]))

    def test_below_cutoff_lists_frequencies(self):
        # at d = 120 nm every HE11 root over 1400-1500 nm lies in the bottom clip
        grid = np.linspace(omega_of(1500e-9), omega_of(1400e-9), 5)
        lam_nm = 2.0 * np.pi * C_VAC / grid * 1e9
        with pytest.raises(NoGuidedModeError, match="nm") as err:
            neff_table(CrossSection(diameter=120e-9), grid)
        for lam in lam_nm:
            assert f"{lam:.2f} nm" in str(err.value)

    def test_one_solve_for_grid_and_checks(self, monkeypatch):
        # the dense grid and the five held-out midpoints share one solve, and
        # give the same table and check values as two separate solves would
        grid = np.linspace(omega_of(1600e-9), omega_of(800e-9), 48)
        dense = dispersion._refined_grid(grid, dispersion._TABLE_REFINE)
        checks = dense[:-1] + 0.5 * np.diff(dense)
        checks = checks[np.linspace(0, checks.size - 1, 5).astype(int)]
        solved = []
        solve_many = dispersion._solve_many

        def recording(cs, omegas):
            solved.append(np.array(omegas))
            return solve_many(cs, omegas)

        monkeypatch.setattr(dispersion, "_solve_many", recording)
        table = neff_table(WAIST, grid)
        assert len(solved) == 1 and np.array_equal(solved[0], np.concatenate((dense, checks)))
        joint = solve_many(WAIST, solved[0])
        assert np.array_equal(joint[:dense.size], solve_many(WAIST, dense))
        assert np.array_equal(joint[dense.size:], solve_many(WAIST, checks))
        assert np.array_equal(table(grid), dispersion._Pchip(dense, solve_many(WAIST, dense))(grid))

    def test_non_increasing_grid_rejected(self):
        om = omega_of(1062e-9)
        with pytest.raises(ValueError):
            neff_table(WAIST, np.array([om, om]))


# ------------------------------------------------ order-specialised kernels
# The solver's Bessel kernels (j0/j1, k0e/k1e and recurrences) against the
# general-order jv/jvp/kve forms in oracles.py, taken at m = 1 on the HE
# branch.  Tolerances: n_eff 1e-13 absolute; field rows 1e-12 relative to the
# row's largest value; h 1e-12 of the magnitude of the terms it is built from,
# with each J_n(u) replaced by max(|J_n|, |J_n+1|), which stays near the
# Bessel envelope at the zeros.

KERNEL_MODES = ["HE11"]


def _kernel_points(name):
    """(diameter, wavelengths): random multimode points (3-5 um waists), the
    50 um waist (w in the hundreds), and subwavelength waists."""
    rng = np.random.default_rng(sum(map(ord, name)))
    points = [(d, rng.uniform(0.8e-6, 1.5e-6, 4)) for d in rng.uniform(3e-6, 5e-6, 3)]
    points.append((50e-6, np.array([0.85e-6, 1.3e-6])))
    points += [(d, rng.uniform(0.5e-6, 1.6e-6, 4)) for d in (0.3e-6, 0.9e-6)]
    return points


def _envelope(n, u):
    return np.maximum(np.abs(jv(n, u)), np.abs(jv(n + 1, u)))


def _char_fn_scale(nu, v, w):
    u = np.sqrt((v - w) * (v + w))
    kk = (kve(0, w) + kve(2, w)) / (2.0 * w * kve(1, w))
    csq = (1.0 / u**2 + 1.0 / w**2) * (1.0 / u**2 + nu / w**2)
    x = kk * (1.0 + nu) / 2.0 + np.sqrt((kk * (1.0 - nu) / 2.0) ** 2 + csq)
    return _envelope(0, u) + (1.0 / u + x * u) * _envelope(1, u)


class TestBesselKernels:
    def test_k_recurrence_matches_kve(self):
        w = np.geomspace(1e-3, 1e3, 2001)
        ks = dispersion._bessel_ke(w)
        assert len(ks) == 3
        for n, k in enumerate(ks):
            np.testing.assert_allclose(k, kve(n, w), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("name", KERNEL_MODES)
    def test_char_fn_matches_general_order(self, name):
        # interior points and points 1e-12 to 1e-3 of the bracket width from
        # both ends of the w bracket: the bottom one approaches w -> 0 (or
        # u -> j_{0,1} above V = j_{0,1}), the top one u -> 0
        edge = np.geomspace(1e-12, 1e-3, 10)
        t = np.concatenate([np.linspace(0.0, 1.0, 201), edge, 1.0 - edge])[:, None]
        for d, lams in _kernel_points(name):
            n1, ak0 = dispersion._guide_params(CrossSection(diameter=d), omega_of(lams))
            nu, v = 1.0 / n1**2, ak0 * np.sqrt(n1**2 - 1.0)
            w_lo, w_hi = dispersion._w_bracket(v)
            w = w_lo + t * (w_hi - w_lo)
            mine = dispersion._char_fn(nu, v)(w)[0]
            ref = he11_char_fn_general(nu, v)(w)[0]
            assert np.all(np.isfinite(mine)) and np.all(np.isfinite(ref))
            assert np.all(np.abs(mine - ref) <= 1e-12 * _char_fn_scale(nu, v, w))

    @pytest.mark.parametrize("name", KERNEL_MODES)
    def test_solver_and_fields_match_general_order(self, name, monkeypatch):
        for d, lams in _kernel_points(name):
            cs = CrossSection(diameter=d)
            omegas = omega_of(lams)
            mine = dispersion._solve_many(cs, omegas)
            with monkeypatch.context() as m:
                m.setattr(dispersion, "_char_fn", he11_char_fn_general)
                ref = dispersion._solve_many(cs, omegas)
            np.testing.assert_allclose(mine, ref, rtol=0, atol=1e-13)

            a = d / 2.0
            r = np.concatenate([np.linspace(0.0, a, 101), a * np.linspace(1.0, 4.0, 151)[1:]])
            rows = dispersion.batch_field_matrix(cs, omegas, mine, r)
            u, w = dispersion._transverse_params(cs, omegas, mine)
            ref_rows = field_rows_general(a, u, w, 0, r)  # HE11 is LP01: Bessel order 0
            peak = np.max(np.abs(ref_rows), axis=1, keepdims=True)
            assert np.all(np.abs(rows - ref_rows) <= 1e-12 * peak)


# -------------------------------------------------------- property: geometry


@settings(max_examples=20, deadline=None)
@given(d_nm=st.floats(min_value=700, max_value=1500), lam_nm=st.floats(min_value=800, max_value=1500))
def test_he11_always_inside_bounds(d_nm, lam_nm):
    cs = CrossSection(diameter=d_nm * 1e-9)
    sol = solve_mode(cs, omega_of(lam_nm * 1e-9))
    assert 1.0 < sol.n_eff < cs.core.index(lam_nm * 1e-9)


@settings(max_examples=200, deadline=None)
@given(log_d=st.floats(min_value=-7.0, max_value=-4.0), lam=st.floats(min_value=0.5e-6, max_value=1.6e-6))
def test_root_or_not_guided(log_d, lam):
    # 100 nm to 100 um: solve_mode returns only roots that pass its residual
    # check, so it either returns one or reports HE11 as not guided, and
    # never raises SolverConvergenceError
    cs = CrossSection(diameter=10.0**log_d)
    try:
        sol = solve_mode(cs, omega_of(lam))
    except NoGuidedModeError:
        return
    assert 1.0 < sol.n_eff < cs.core.index(lam)
