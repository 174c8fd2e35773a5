import math
import warnings
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
    DispersionError,
    ExtrapolationError,
    NeffTable,
    NoGuidedModeError,
    SellmeierGlass,
    SolverConvergenceError,
    WavelengthRangeError,
    load_glass,
    neff_table,
    neff_tables,
    parse_glass,
    solve_mode,
)
from taperfwm.profile import load_profile, segment

from oracles import (
    bessel_j_mpmath,
    bessel_j_scipy,
    bessel_ke_scipy,
    bessel_ulps,
    bisect_logw_he11,
    dense_scan_he11,
    field_rows_general,
    he11_char_fn_general,
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
        # a 753-point solve (the knots of a 48-node table grid) evaluates
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

    @pytest.mark.parametrize("d_mm, past_j01", [(1.0, False), (3.0, True)])
    def test_rows_past_j01_rejected(self, d_mm, past_j01):
        # A 48-node table keeps u below j_{0,1} at 20001 queries on both waists
        # (a PCHIP table of the 3 mm waist put u 2.7e-4 past it).  On the 3 mm
        # waist, n_eff lowered until u is 4.4e-4 past j_{0,1} at one query is
        # rejected with the diameter named.
        cs = CrossSection(diameter=d_mm * 1e-3)
        nodes = np.linspace(omega_of(1600e-9), omega_of(800e-9), 48)
        omegas = np.linspace(nodes[0], nodes[-1], 20001)
        n_effs = neff_table(cs, nodes)(omegas)
        r = np.linspace(0.0, cs.diameter, 5)
        assert np.all(np.isfinite(dispersion.batch_field_matrix(cs, omegas, n_effs, r)))
        if past_j01:
            n1, ak0 = dispersion._guide_params(cs, omegas[-1])
            n_effs[-1] = np.sqrt(n1**2 - ((dispersion._J01_HI + 4.4e-4) / ak0) ** 2)
            with pytest.raises(DispersionError, match="diameter 3000000.0 nm"):
                dispersion.batch_field_matrix(cs, omegas, n_effs, r)


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
        with pytest.raises(ExtrapolationError):
            table.locate(np.array([grid[2], np.nan]))

    def test_below_cutoff_lists_frequencies(self):
        # at d = 120 nm every HE11 root over 1400-1500 nm lies in the bottom clip
        grid = np.linspace(omega_of(1500e-9), omega_of(1400e-9), 5)
        lam_nm = 2.0 * np.pi * C_VAC / grid * 1e9
        with pytest.raises(NoGuidedModeError, match="nm") as err:
            neff_table(CrossSection(diameter=120e-9), grid)
        for lam in lam_nm:
            assert f"{lam:.2f} nm" in str(err.value)

    def test_one_solve_for_grid_and_checks(self, monkeypatch):
        # the 32 Chebyshev nodes, the grid and the five held-out knot midpoints
        # share one solve, and each part gets the bits of its own solve; the
        # table is within 1e-14 of the grid's solves and _TABLE_TOL of the checks'
        grid = np.linspace(omega_of(1600e-9), omega_of(800e-9), 48)
        knots = dispersion._refined_grid(grid, dispersion._TABLE_REFINE)
        checks = knots[:-1] + 0.5 * np.diff(knots)
        checks = checks[np.linspace(0, checks.size - 1, 5).astype(int)]
        nodes = dispersion._chebyshev_maps(grid[0], grid[-1], 32, knots)[0]
        solved = []
        column_params = dispersion._column_params
        solve_many = dispersion._solve_many

        def recording(cs, omegas):
            solved.append(np.array(omegas))
            return column_params(cs, omegas)

        monkeypatch.setattr(dispersion, "_column_params", recording)
        table = neff_table(WAIST, grid)
        monkeypatch.undo()
        assert len(solved) == 1 and np.array_equal(solved[0], np.concatenate((nodes, grid, checks)))
        joint = solve_many(WAIST, solved[0])
        for part in (nodes, grid, checks):
            assert np.array_equal(joint[np.isin(solved[0], part)], solve_many(WAIST, part))
        assert np.max(np.abs(table(grid) - solve_many(WAIST, grid))) <= 1e-14
        assert np.max(np.abs(table(checks) - solve_many(WAIST, checks))) <= dispersion._TABLE_TOL

    @pytest.mark.parametrize("d", [300e-9, 600e-9, 900e-9, 2e-6, 20e-6])
    def test_error_against_direct_solves(self, d):
        # over the default bank's 850-1450 nm the error is 2e-15 to 4e-14
        cs = CrossSection(diameter=d)
        grid = np.linspace(omega_of(1450e-9), omega_of(850e-9), 48)
        queries = np.random.default_rng(31).uniform(grid[0], grid[-1], 1000)
        error = np.max(np.abs(neff_table(cs, grid)(queries) - dispersion._solve_many(cs, queries)))
        assert error <= dispersion._TABLE_TOL

    def test_cutoff_between_grid_end_and_nearest_node(self):
        # bisect the diameter whose HE11 is below cutoff only at the grid's
        # 1450 nm end: the nearest Chebyshev node (1449.38 nm) is guided, and
        # the error names that end as a solve of the grid alone does
        grid = np.linspace(omega_of(1450e-9), omega_of(850e-9), 48)
        lo, hi = 100e-9, 400e-9  # below cutoff at 1450 nm, guided there
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            try:
                dispersion._solve_many(CrossSection(mid), grid[:1])
                hi = mid
            except NoGuidedModeError:
                lo = mid
        cs = CrossSection(lo)
        nodes = dispersion._chebyshev_maps(grid[0], grid[-1], 32, grid)[0]
        assert np.all(np.isfinite(dispersion._solve_many(cs, np.concatenate((nodes, grid[1:])))))
        with pytest.raises(NoGuidedModeError) as alone:
            dispersion._solve_many(cs, grid)
        assert str(alone.value).endswith("for wavelengths: 1450.00 nm (mode below cutoff)")
        with pytest.raises(NoGuidedModeError) as err:
            neff_table(cs, grid)
        assert str(err.value) == str(alone.value)
        stored = neff_tables([WAIST, cs, CrossSection(120e-9)], grid)
        assert isinstance(stored[0], NeffTable) and str(stored[1]) == str(alone.value)
        with pytest.raises(NoGuidedModeError) as all_below:
            dispersion._solve_many(CrossSection(120e-9), grid)
        assert str(stored[2]) == str(all_below.value) and "(+40 more)" in str(stored[2])

    def test_non_increasing_grid_rejected(self):
        om = omega_of(1062e-9)
        with pytest.raises(ValueError):
            neff_table(WAIST, np.array([om, om]))


# ---------------------------------------------------------------- neff_tables
# The stacked build against the one-diameter neff_table it replaces: equal
# bit for bit on the dense n_eff, the knots and the table values.

BANK = np.linspace(omega_of(1400e-9), omega_of(850e-9), 48)


def measured_diameters(n_segments):
    """The distinct cross-sections of the measured taper cut into ``n_segments``."""
    return list(dict.fromkeys(segment(load_profile(DATA / "measured_profile.txt"), n_segments).segments))


def assert_same_tables(tables, cross_sections, grid):
    queries = np.random.default_rng(5).uniform(grid[0], grid[-1], 500)
    for table, cs in zip(tables, cross_sections, strict=True):
        reference = neff_table(cs, grid)
        assert table.cross_section == cs and np.array_equal(table.knots, reference.knots)
        assert all(np.array_equal(a, b) for a, b in zip(table._coef, reference._coef))
        assert np.array_equal(table(queries), reference(queries))
        assert np.array_equal(table.at(table.locate(queries)), reference(queries))


class TestNeffTables:
    @pytest.mark.parametrize("n_segments", [16, 100, 200])
    def test_measured_profile_equals_per_diameter_tables(self, n_segments):
        diameters = measured_diameters(n_segments)
        tables = neff_tables(diameters, BANK)
        assert len(tables) == len(diameters) and len({id(t.knots) for t in tables}) == 1
        assert_same_tables(tables, diameters, BANK)

    @pytest.mark.parametrize("n_segments", [16, 100, 200])
    def test_stacked_columns_equal_per_diameter_solves(self, n_segments):
        # the Chebyshev-node, grid and held-out solves of every diameter from one column pass
        diameters = measured_diameters(n_segments)
        knots = dispersion._refined_grid(BANK, dispersion._TABLE_REFINE)
        checks = knots[:-1] + 0.5 * np.diff(knots)
        nodes = dispersion._chebyshev_maps(BANK[0], BANK[-1], dispersion._TABLE_NODES, knots)[0]
        omegas = np.concatenate((nodes, BANK, checks[np.linspace(0, checks.size - 1, 5).astype(int)]))
        ak0, v, nu = (np.concatenate(p) for p in
                      zip(*(dispersion._column_params(cs, omegas) for cs in diameters)))
        w = dispersion._solve_columns(v, nu)[0]
        n_eff = np.sqrt(1.0 + (w / ak0) ** 2).reshape(len(diameters), omegas.size)
        for row, cs in zip(n_eff, diameters):
            assert np.array_equal(row, dispersion._solve_many(cs, omegas))

    @pytest.mark.parametrize("tol, refines", [(3e-11, {11, 22}), (5.9e-12, {22})])
    def test_refine_doubling_per_diameter(self, monkeypatch, tol, refines):
        # Node doubling, here from 11 Chebyshev nodes to 22.  On BANK the
        # held-out gaps at 11 nodes are 2.3e-10 to 1.1e-9 for the 16 measured
        # diameters and 1.8e-11 for a 20 um waist, and below 1e-13 for all at
        # 22.  So at 3e-11 the 20 um table is built from 11 nodes and the rest
        # from 22 (``refines``, the node counts the tables were built from), and
        # at 5.9e-12 all from 22.  Each equals the table built from its node
        # count alone.  At 1e-16 every table misses, and each error names its diameter.
        diameters = [*measured_diameters(16), CrossSection(20e-6)]
        monkeypatch.setattr(dispersion, "_TABLE_NODES", 11)
        monkeypatch.setattr(dispersion, "_TABLE_TOL", tol)
        tables = neff_tables(diameters, BANK)
        assert all(isinstance(t, NeffTable) for t in tables)
        monkeypatch.setattr(dispersion, "_TABLE_TOL", np.inf)
        alone = {}
        for nodes in (11, 22):
            monkeypatch.setattr(dispersion, "_TABLE_NODES", nodes)
            alone[nodes] = neff_tables(diameters, BANK)
        used = [[n for n, built in alone.items()
                 if all(np.array_equal(a, b) for a, b in zip(t._coef, built[k]._coef))]
                for k, t in enumerate(tables)]
        assert used[-1] == [min(refines)] and all(u == [22] for u in used[:-1])
        assert {n for u in used for n in u} == refines
        monkeypatch.setattr(dispersion, "_TABLE_NODES", 11)
        monkeypatch.setattr(dispersion, "_TABLE_TOL", 1e-16)
        for cs, err in zip(diameters, neff_tables(diameters, BANK)):
            assert type(err) is SolverConvergenceError
            assert f"at diameter {cs.diameter * 1e9:.1f} nm by " in str(err)
            assert str(err).endswith("even at degree 21 (22 Chebyshev nodes)")

    def test_below_cutoff_diameter_returns_its_error(self):
        # the error names the grid's own frequencies below cutoff, not the dense grid's
        diameters = [CrossSection(900e-9), CrossSection(120e-9), CrossSection(885e-9)]
        tables = neff_tables(diameters, BANK)
        assert type(tables[1]) is NoGuidedModeError
        with pytest.raises(NoGuidedModeError) as alone:
            dispersion._solve_many(diameters[1], BANK)
        assert str(tables[1]) == str(alone.value)
        assert str(tables[1]).startswith("no guided HE11 mode at diameter 120.0 nm for wavelengths: ")
        with pytest.raises(NoGuidedModeError) as err:
            neff_table(diameters[1], BANK)
        assert str(err.value) == str(alone.value)
        assert_same_tables([tables[0], tables[2]], [diameters[0], diameters[2]], BANK)

    def test_failing_diameters_return_their_errors(self):
        # a V^2 that overflows, a glass below air and a 5 mm waist whose root
        # fails the residual check at 927.53 nm (the worst of its node, grid and
        # held-out columns), each beside a table that builds
        sub_unity = SellmeierGlass("sub-unity", ((0.1, 4.0),), (0.5, 1.5))
        diameters = [CrossSection(1e160), CrossSection(900e-9, sub_unity), CrossSection(5e-3), WAIST]
        tables = neff_tables(diameters, BANK)
        assert [type(t) for t in tables[:3]] == [DispersionError, NoGuidedModeError, SolverConvergenceError]
        assert "overflows" in str(tables[0])
        assert "guidance condition violated" in str(tables[1])
        assert "root residual" in str(tables[2]) and "927.53 nm" in str(tables[2])
        for cs, stored in zip(diameters[:3], tables):
            with pytest.raises(DispersionError) as err:
                neff_table(cs, BANK)
            assert type(err.value) is type(stored) and str(err.value) == str(stored)
        assert_same_tables(tables[3:], diameters[3:], BANK)

    def test_grid_checked_like_neff_table(self):
        with pytest.raises(ValueError, match="at least two points"):
            neff_tables([WAIST], BANK[:1])
        with pytest.raises(ValueError, match="strictly increasing"):
            neff_tables([WAIST], BANK[::-1])
        assert neff_tables([], BANK) == []

    @pytest.mark.parametrize("index, value", [(-1, math.nan), (-1, math.inf), (3, math.nan)],
                             ids=["nan_end", "inf_end", "interior_nan"])
    @pytest.mark.parametrize("build", [neff_table, lambda cs, grid: neff_tables([cs], grid)],
                             ids=["neff_table", "neff_tables"])
    def test_non_finite_grid_point_named(self, build, index, value):
        grid = BANK[:8].copy()
        grid[index] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            named = rf"omega_grid\[{index % grid.size}\] is {value!r}"
            with pytest.raises(ValueError, match=named) as err:
                build(WAIST, grid)
        assert not isinstance(err.value, DispersionError)


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


class TestBesselKernelReferences:
    """The package's kernels against scipy (oracles.bessel_*_scipy) and mpmath.

    Bounds, in ulps of the reference: K_0 e^x 20 and K_1 e^x 10 against
    scipy for 1e-6 <= x <= 1e5 (15 and 7 seen), and 10 and 6 against mpmath
    (8 and 5 seen, where scipy's k0e and k1e were 10 and 4 off); J_1 8
    against scipy on (0, 2.5] (6 seen); J_0 10 against scipy up to u = 2 (7
    seen); J_0 and J_1 4 against mpmath at j01, in the 1e-5 below it and up
    to 2.5 (3 seen).
    """

    def test_k_against_scipy(self):
        rng = np.random.default_rng(11)
        x = np.concatenate([np.exp(rng.uniform(np.log(1e-6), np.log(1e5), 200_000)),
                            2.0 + rng.uniform(-1e-3, 1e-3, 10_000), [2.0, np.nextafter(2.0, 0.0)]])
        for mine, ref, bound in zip(dispersion._bessel_k(x), bessel_ke_scipy(x), (20, 10)):
            assert np.max(bessel_ulps(mine, ref)) <= bound

    def test_k_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        x = np.concatenate([np.geomspace(1e-6, 1e5, 301), np.linspace(1.5, 2.5, 201)])
        with mpmath.workdps(30):
            refs = [np.array([float(mpmath.besselk(n, t) * mpmath.exp(t)) for t in map(mpmath.mpf, x)])
                    for n in (0, 1)]
        for mine, ref, bound in zip(dispersion._bessel_k(x), refs, (10, 6)):
            assert np.max(bessel_ulps(mine, ref)) <= bound

    def test_k_limits(self):
        k0, k1 = dispersion._bessel_k(np.array([np.inf, 1e300]))
        assert np.array_equal(k0, k1) and k0[0] == 0.0
        np.testing.assert_allclose(k0[1], np.sqrt(np.pi / 2e300), rtol=1e-15)

    def test_j_against_scipy(self):
        u = np.random.default_rng(12).uniform(0.0, 2.5, 200_000)
        (j0u, j1u), (ref0, ref1) = dispersion._bessel_j(u), bessel_j_scipy(u)
        assert np.max(bessel_ulps(j1u, ref1)) <= 8
        near = u <= 2.0
        assert np.max(bessel_ulps(j0u[near], ref0[near])) <= 10
        assert np.max(np.abs(j0u - ref0)) <= 1e-15

    def test_j_at_and_near_the_zero_against_mpmath(self):
        # the bracket floor puts u at j01 and a few ulps above it (the t = 0
        # points of test_char_fn_matches_general_order)
        j01 = dispersion._J01_HI
        u = np.concatenate([j01 + np.arange(-8, 9) * np.spacing(j01),
                            j01 - np.geomspace(1e-15, 1e-5, 100), j01 + np.geomspace(1e-15, 1e-4, 30),
                            np.linspace(2.0, 2.5, 31)])
        for mine, ref in zip(dispersion._bessel_j(u), bessel_j_mpmath(u)):
            assert np.max(bessel_ulps(mine, ref)) <= 4

    def test_j_beyond_its_fit_is_nan(self):
        j0u, j1u = dispersion._bessel_j(np.array([2.5, np.nextafter(2.5, 3.0), 4.1, np.nan]))
        assert np.all(np.isfinite(j0u[:1])) and np.all(np.isfinite(j1u[:1]))
        assert np.all(np.isnan(j0u[1:])) and np.all(np.isnan(j1u[1:]))

    @pytest.mark.parametrize("kernel", ["_bessel_j", "_bessel_k"])
    def test_blocks_and_shapes(self, kernel, monkeypatch):
        x = np.random.default_rng(13).uniform(0.1, 2.4, (7, 9))
        whole = getattr(dispersion, kernel)(x)
        monkeypatch.setattr(dispersion, "_KERNEL_BLOCK", 5)
        blocked = getattr(dispersion, kernel)(x)
        assert all(a.shape == x.shape and np.array_equal(a, b) for a, b in zip(whole, blocked))
        assert [a.shape for a in getattr(dispersion, kernel)(1.5)] == [(), ()]
        assert np.array_equal(getattr(dispersion, kernel)(x, 1)[0], whole[0])


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
