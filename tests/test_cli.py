"""CLI: config schema, flag overrides, exit codes, file outputs, determinism."""

import json
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from streams import counts_by_channel, from_records
from taperfwm import biphoton, cli, dispersion
from taperfwm.biphoton import PumpSpec, SpectralGrid, phase_matching, pump_function
from taperfwm.cli import EXIT_CONFIG, EXIT_DOMAIN, EXIT_IO, EXIT_OK, build_parser, main
from taperfwm.dispersion import FUSED_SILICA, CrossSection, solve_mode
from taperfwm.profile import parse_profile, segment
from taperfwm.tags import parse_tags, write_tags_text

ROOT = Path(__file__).resolve().parents[1]
FIXTURE_PROFILE = ROOT / "data" / "uniform_waist_900.txt"
REMOVED_PUMP_KEYS = ["pump_duration_ps", "rep_rate_mhz", "avg_power_mw"]


def run(*argv):
    return main([str(a) for a in argv])


def read_matrix_csv(path):
    """Axis header + body of the grid CSV written by cmd_jsi."""
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    idler = np.array([float(v) for v in rows[0].split(",")[1:]])
    body = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    return body[:, 0], idler, body[:, 1:]


def data_rows(path):
    return [
        line
        for line in path.read_text().splitlines()
        if line and not line.startswith("#") and not line[0].isalpha()
    ]


def write_scan_csv(path, noise_seed=None):
    powers = np.linspace(20e-3, 120e-3, 10)
    rates = 400.0 + 5.7e4 * powers + 4.3e6 * powers**2
    if noise_seed is not None:
        rng = np.random.default_rng(noise_seed)
        rates = rates * (1.0 + 0.01 * rng.standard_normal(powers.size))
    lines = ["power_mW,rate_Hz"]
    lines += [f"{float(p * 1e3)!r},{float(r)!r}" for p, r in zip(powers, rates)]
    path.write_text("\n".join(lines) + "\n")
    return powers, rates


class TestVersionAndUsage:
    def test_version_embeds_schema_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "taperfwm 0.1.0" in out
        assert "config schema taperfwm.run/1" in out

    def test_main_allocates_nothing_before_parsing(self, capsys):
        # numpy reports its buffers to tracemalloc; a bad flag exits in the parser
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit):
                run("jsi", "--grid_pointz", 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["modes", "--help"], ["jsi", "--help"], ["tags", "--help"],
         ["tags", "simulate", "--help"]],
    )
    def test_help_exits_zero_with_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_no_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 2

    def test_unknown_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run("modes", "--not_a_key", "3")
        assert exc.value.code == 2

    def test_every_schema_key_has_a_flag(self):
        parser = build_parser()
        text = parser.format_help()
        # the subcommands carry the flags; check one leaf parser directly
        sub = [a for a in parser._actions if hasattr(a, "choices") and a.choices][0]
        leaf_help = sub.choices["modes"].format_help()
        for key in ("glass", "grid_points", "out_dir", "seed", "weighting"):
            assert f"--{key}" in leaf_help
        assert "COMMAND" in text

    def test_docs_config_table_lists_the_schema_keys_in_order(self):
        text = (ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
        table = text.split("| key | type | default | meaning |\n")[1].split("\n\n")[0]
        rows = table.splitlines()[1:]  # below the |---| rule
        assert [row.split("|")[1].strip().strip("`") for row in rows] == list(cli._SCHEMA)


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"grid_pointz": 16}')
        assert run("jsi", "-c", cfg) == EXIT_CONFIG
        assert "grid_pointz" in capsys.readouterr().err

    @pytest.mark.parametrize("key", REMOVED_PUMP_KEYS)
    def test_removed_pump_key_is_unknown(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"diameter_nm": 900.0, "length_mm": 14.0, key: 5.0}))
        assert run("jsi", "-c", cfg, "--out_dir", tmp_path / "out") == EXIT_CONFIG
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", REMOVED_PUMP_KEYS)
    def test_removed_pump_flag_is_unknown(self, tmp_path, capsys, key):
        with pytest.raises(SystemExit) as exc:
            run("jsi", "--diameter_nm", 900, "--length_mm", 14, f"--{key}", 5,
                "--out_dir", tmp_path / "out")
        assert exc.value.code == EXIT_CONFIG
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_invalid_json_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        assert run("jsi", "-c", cfg) == EXIT_CONFIG
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_document_rejected(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("[1, 2]")
        assert run("jsi", "-c", cfg) == EXIT_CONFIG

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert run("jsi", "-c", tmp_path / "absent.json") == EXIT_IO

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(b"\xff\xfe{}")
        assert run("jsi", "-c", cfg) == EXIT_CONFIG
        assert "run.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            {"grid_points": "many"},
            {"grid_points": True},
            {"grid_points": 16.0},
            {"pump_fwhm_nm": "2"},
            {"pump_fwhm_nm": 1e999},
            {"signal_window_nm": [850.0]},
            {"signal_window_nm": 850.0},
            {"dark_rates_hz": [0.0, 0.0]},
            {"glass": 7},
        ],
    )
    def test_type_violations_rejected(self, tmp_path, payload, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(payload))
        assert run("jsi", "-c", cfg) == EXIT_CONFIG
        assert next(iter(payload)) in capsys.readouterr().err

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "diameter_nm": 890.0,
            "wavelength_range_nm": [900.0, 1100.0],
            "wavelength_points": 4,
            "out_dir": str(tmp_path / "out"),
        }))
        assert run("modes", "-c", cfg, "--wavelength_points", 6) == EXIT_OK
        assert len(data_rows(tmp_path / "out" / "modes.csv")) == 6

    def test_flag_values_parse_as_json(self, tmp_path):
        out = tmp_path / "out"
        assert run(
            "modes", "--diameter_nm", 890, "--wavelength_points", 3,
            "--wavelength_range_nm", "[1000, 1100]", "--out_dir", out,
        ) == EXIT_OK
        rows = data_rows(out / "modes.csv")
        assert float(rows[0].split(",")[0]) == pytest.approx(1000.0, rel=1e-12)
        assert float(rows[-1].split(",")[0]) == pytest.approx(1100.0, rel=1e-12)

    @pytest.mark.parametrize("text", ["2024", "null", "[1, 2]", '"quoted"', "true"])
    def test_string_flags_taken_verbatim(self, tmp_path, monkeypatch, text):
        # a JSON-looking value of a string key was decoded and then rejected
        for key, (kind, *_) in cli._SCHEMA.items():
            if kind == "str":
                assert cli._coerce_flag(key, text) == text
        monkeypatch.chdir(tmp_path)
        assert run("modes", "--diameter_nm", 900, "--wavelength_points", 3,
                   "--out_dir", text) == EXIT_OK
        assert (tmp_path / text / "modes.csv").exists()

    def test_bad_flag_value_is_config_error(self, capsys):
        assert run("modes", "--wavelength_points", "3.5") == EXIT_CONFIG
        assert "wavelength_points" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, missing",
        [
            (["modes"], "diameter_nm"),
            (["tags", "simulate"], "tags_out"),
            (["tags", "coincidences"], "tags_in"),
            (["tags", "g2h"], "tags_in"),
            (["tags", "fit-power"], "power_scan"),
        ],
    )
    def test_missing_required_key(self, argv, missing, capsys):
        assert run(*argv) == EXIT_CONFIG
        assert missing in capsys.readouterr().err

    def test_jsi_needs_profile_or_uniform_pair(self, capsys):
        assert run("jsi", "--grid_points", 8) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "profile" in err and "diameter_nm" in err


class TestModes:
    @pytest.mark.parametrize("diameter_nm", [890.0, 50000.0])
    def test_table_matches_solver(self, tmp_path, diameter_nm):
        # one batched solve over the scan gives each point's single-point root
        out = tmp_path / "out"
        assert run(
            "modes", "--diameter_nm", diameter_nm, "--wavelength_range_nm", "[800, 1400]",
            "--wavelength_points", 5, "--out_dir", out,
        ) == EXIT_OK
        cs = CrossSection(diameter_nm * 1e-9)
        wavelengths = np.linspace(800.0 * 1e-9, 1400.0 * 1e-9, 5)  # as cmd_modes scales them
        rows = data_rows(out / "modes.csv")
        assert len(rows) == wavelengths.size
        for row, wavelength in zip(rows, wavelengths):
            wl_nm, n_eff = (float(v) for v in row.split(","))
            assert wl_nm == float(wavelength * 1e9)
            assert n_eff == solve_mode(cs, 2.0 * np.pi * 299792458.0 / wavelength).n_eff
            assert 1.0 < n_eff < 1.46

    def test_below_cutoff_is_domain_error(self, tmp_path, capsys):
        code = run(
            "modes", "--diameter_nm", 120, "--wavelength_range_nm", "[1400, 1500]",
            "--wavelength_points", 3, "--out_dir", tmp_path / "out",
        )
        assert code == EXIT_DOMAIN
        assert "cutoff" in capsys.readouterr().err

    def test_thin_waist_solves_up_to_the_clip(self, tmp_path):
        # at d = 120 nm, n_eff - 1 is about 1e-9 near 745 nm
        out = tmp_path / "out"
        assert run(
            "modes", "--diameter_nm", 120, "--wavelength_range_nm", "[700, 745]",
            "--wavelength_points", 4, "--out_dir", out,
        ) == EXIT_OK
        n_eff = np.array([float(row.split(",")[1]) for row in data_rows(out / "modes.csv")])
        assert n_eff.size == 4 and np.all(n_eff > 1.0) and np.all(np.diff(n_eff) < 0)

    def test_near_cutoff_names_wavelength_and_diameter(self, tmp_path, capsys):
        # 760 nm is the one point of the scan whose root is below the bottom clip
        code = run(
            "modes", "--diameter_nm", 120, "--wavelength_range_nm", "[700, 760]",
            "--wavelength_points", 5, "--out_dir", tmp_path / "out",
        )
        assert code == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("domain error:") and "Traceback" not in err
        assert "760.00 nm" in err and "745.00 nm" not in err
        assert "120.0 nm" in err and "cutoff" in err

    def test_millimetre_waist_solves(self, tmp_path):
        # V is about 4 000; the solve costs what a 1 um waist costs.  HE11's
        # u stays near 2.4, so n_eff sits about 1e-7 below the core index
        out = tmp_path / "out"
        assert run("modes", "--diameter_nm", 1e6, "--out_dir", out) == EXIT_OK
        wl_nm, n_eff = np.array([row.split(",") for row in data_rows(out / "modes.csv")], float).T
        gap = FUSED_SILICA.index(wl_nm * 1e-9) - n_eff
        assert n_eff.size == 61 and np.all((0.0 < gap) & (gap < 1e-6))

    def test_centimetre_waist_is_not_guided(self, tmp_path, capsys):
        # V of about 41 000 at 800 nm, above j_{0,1}/sqrt(_CLIP_TOP) ~ 24 000, puts
        # HE11 inside the top clip
        code = run("modes", "--diameter_nm", 1e7, "--out_dir", tmp_path / "out")
        assert code == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("domain error: no guided HE11 mode at diameter 10000000.0 nm")
        assert "800.00 nm" in err and "Traceback" not in err

    def test_overflowing_scan_size_is_domain_error(self, tmp_path, capsys):
        # V^2 overflows to inf, so the solver cannot form u
        code = run("modes", "--diameter_nm", 1e300, "--out_dir", tmp_path / "out")
        assert code == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("domain error:") and "diameter 1e+300 nm" in err
        assert "Traceback" not in err

    def test_unallocatable_scan_is_domain_error(self, tmp_path, capsys):
        # 2**45 wavelengths need 256 TiB per array, beyond any 47-bit address
        # space, so the allocation is refused before any memory is touched
        code = run("modes", "--diameter_nm", 900, "--wavelength_points", 2**45,
                   "--out_dir", tmp_path / "out")
        assert code == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("domain error: Unable to allocate 256. TiB") and "Traceback" not in err

    def test_sub_unity_glass_is_domain_error(self, tmp_path, capsys):
        # n = 0.98 at 1062 nm: below the air around the core, so nothing is guided
        glass = tmp_path / "sub_unity.glass"
        glass.write_text("name sub-unity\nB 0.1\nC 4.0\nvalidity_um 0.5 1.5\n")
        code = run("modes", "--diameter_nm", 890, "--glass", glass, "--out_dir", tmp_path / "out")
        assert code == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("domain error: guidance condition violated") and "Traceback" not in err
        assert not (tmp_path / "out" / "modes.csv").exists()

    def test_nested_out_dir_created(self, tmp_path):
        out = tmp_path / "a" / "b" / "c"
        assert run(
            "modes", "--diameter_nm", 890, "--wavelength_points", 2, "--out_dir", out,
        ) == EXIT_OK
        assert (out / "modes.csv").exists()

    def test_bad_wavelength_range_rejected(self):
        assert run(
            "modes", "--diameter_nm", 890, "--wavelength_range_nm", "[1400, 800]",
        ) == EXIT_CONFIG


JSI_ARGS = (
    "jsi", "--diameter_nm", 900, "--length_mm", 14, "--n_segments", 3,
    "--grid_points", 24,
)
JSI_CSVS = ("phase_matching.csv", "pump.csv", "jsi.csv", "marginals.csv")


def slowed_schmidt_analysis(ran_on_worker):
    """A ``cli.schmidt_analysis`` that sleeps 0.2 s first, so it outlasts the CSV writers.

    After each call it appends to ``ran_on_worker`` whether it ran off the main thread.
    """
    def slowed(jsa_like):
        time.sleep(0.2)
        report = biphoton.schmidt_analysis(jsa_like)
        ran_on_worker.append(threading.current_thread() is not threading.main_thread())
        return report

    return slowed


@pytest.fixture(scope="module")
def jsi_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("jsi")
    assert run(*JSI_ARGS, "--out_dir", out) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def comb_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("comb")
    tags = out / "tags.bin"
    # 10^6 pulses at the 54 ns default period; dead time off so the
    # accidental comb at +-1, +-2 periods is populated.
    assert run(
        "tags", "simulate", "--duration_s", 0.054, "--dead_time_us", 0,
        "--seed", 3, "--tags_out", tags,
    ) == EXIT_OK
    assert run("tags", "coincidences", "--tags_in", tags, "--out_dir", out) == EXIT_OK
    return out


class TestJsi:
    def test_writes_all_panels(self, jsi_out):
        for name in ("phase_matching.csv", "pump.csv", "jsi.csv", "marginals.csv",
                     "schmidt.json"):
            assert (jsi_out / name).exists()

    def test_jsi_grid_matches_library_pipeline(self, jsi_out):
        # unit conversions replicate the CLI's arithmetic bit-for-bit
        diameter, length = 900.0 * 1e-9, 14.0 * 1e-3
        profile = parse_profile(f"0 {diameter!r}\n{length!r} {diameter!r}")
        segmented = segment(profile, 3)
        pump = PumpSpec.from_spectral_fwhm(1062.0 * 1e-9, 2.0 * 1e-9)
        grid = SpectralGrid.from_wavelength_windows(
            (850.0 * 1e-9, 950.0 * 1e-9), (1250.0 * 1e-9, 1450.0 * 1e-9), n_points=24
        )
        want = np.abs(pump_function(pump, grid) * phase_matching(
            segmented, grid, pump.omega0)) ** 2
        want /= want.max()

        signal, idler, matrix = read_matrix_csv(jsi_out / "jsi.csv")
        np.testing.assert_allclose(signal, grid.signal_omega, rtol=0)
        np.testing.assert_allclose(idler, grid.idler_omega, rtol=0)
        np.testing.assert_allclose(matrix, want, rtol=1e-12, atol=1e-15)

    def test_panel_product_reconstructs_jsi(self, jsi_out):
        _, _, matched = read_matrix_csv(jsi_out / "phase_matching.csv")
        _, _, envelope = read_matrix_csv(jsi_out / "pump.csv")
        _, _, jsi = read_matrix_csv(jsi_out / "jsi.csv")
        product = matched * envelope
        np.testing.assert_allclose(product / product.max(), jsi, rtol=1e-9, atol=1e-12)

    def test_schmidt_report_contents(self, jsi_out):
        report = json.loads((jsi_out / "schmidt.json").read_text())
        assert report["schema"] == "taperfwm.schmidt/1"
        assert report["schmidt_number"] * report["heralded_purity"] == pytest.approx(1.0)
        coeffs = report["schmidt_coefficients"]
        assert coeffs == sorted(coeffs, reverse=True)
        assert sum(coeffs) == pytest.approx(1.0, abs=1e-9)  # 24 <= 32, all stored
        assert report["grid_points"] == [24, 24]

    def test_marginals_each_sum_to_one(self, jsi_out):
        weights = {"signal": 0.0, "idler": 0.0}
        for row in (jsi_out / "marginals.csv").read_text().splitlines():
            if row.startswith(("signal,", "idler,")):
                axis, _, w = row.split(",")
                weights[axis] += float(w)
        assert weights["signal"] == pytest.approx(1.0, abs=1e-12)
        assert weights["idler"] == pytest.approx(1.0, abs=1e-12)

    def test_single_segment_equals_many_for_uniform_waist(self, tmp_path):
        grids = {}
        for n in (1, 100):
            out = tmp_path / f"n{n}"
            assert run(
                "jsi", "--diameter_nm", 900, "--length_mm", 14, "--n_segments", n,
                "--grid_points", 16, "--out_dir", out,
            ) == EXIT_OK
            grids[n] = read_matrix_csv(out / "jsi.csv")[2]
        assert np.max(np.abs(grids[1] - grids[100])) <= 1e-9

    def test_shipped_fixture_equals_uniform_flags(self, tmp_path):
        out_file = tmp_path / "file"
        out_flags = tmp_path / "flags"
        common = ("--n_segments", 4, "--grid_points", 12)
        assert run("jsi", "--profile", FIXTURE_PROFILE, *common,
                   "--out_dir", out_file) == EXIT_OK
        assert run("jsi", "--diameter_nm", 900, "--length_mm", 14, *common,
                   "--out_dir", out_flags) == EXIT_OK
        a = read_matrix_csv(out_file / "jsi.csv")[2]
        b = read_matrix_csv(out_flags / "jsi.csv")[2]
        # one-ULP difference between the file's 900e-9 and the flag's
        # 900.0 * 1e-9 propagates through the solver
        np.testing.assert_allclose(a, b, rtol=1e-8, atol=0)

    def test_missing_profile_file_is_io_error(self, tmp_path, capsys):
        code = run("jsi", "--profile", tmp_path / "absent.profile", "--grid_points", 8)
        assert code == EXIT_IO
        assert "absent.profile" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--profile", "0 900e-9\nfoo bar\n"),
            ("--glass", "name x\nB 0.5\n"),
            ("--glass", "name x\nB 0.6961663 0.4079426 0.8974794\n"
                        "C 0.00467914826 nan 97.9340025\nvalidity_um 0.21 3.71\n"),
            ("--glass", "name x\nB 0.6961663 inf 0.8974794\n"
                        "C 0.00467914826 0.01351206307 97.9340025\nvalidity_um 0.21 3.71\n"),
        ],
        ids=["profile", "glass", "glass_nan", "glass_inf"],
    )
    def test_malformed_data_file_is_input_error(self, tmp_path, capsys, flag, text):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        code = run("jsi", "--diameter_nm", 900, "--length_mm", 1, flag, bad,
                   "--grid_points", 8, "--out_dir", tmp_path / "out")
        assert code == EXIT_IO
        assert "bad.txt" in capsys.readouterr().err

    def test_non_finite_profile_sample_names_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.profile"
        bad.write_text("0 900e-9\nnan 900e-9\n0.014 900e-9\n")
        code = run("jsi", "--profile", bad, "--grid_points", 8, "--out_dir", tmp_path / "out")
        assert code == EXIT_IO
        assert f"input error: {bad}:2: samples must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("diameter_nm, length_mm", [
        (900.0, 14.0), (885.0, 7.3), (1e-3, 1e-6), (123.456789, 0.1 + 0.2)])
    def test_uniform_waist_equals_the_parsed_profile(self, diameter_nm, length_mm):
        # built directly, the taper is the one the two-line profile text gave
        config = cli.RunConfig({"diameter_nm": diameter_nm, "length_mm": length_mm,
                                "n_segments": 3})
        diameter, length = diameter_nm * 1e-9, length_mm * 1e-3
        parsed = parse_profile(f"0 {diameter!r}\n{length!r} {diameter!r}",
                               label=f"uniform-{diameter_nm!r}nm")
        assert cli._resolve_segmented(config) == segment(parsed, 3)

    @pytest.mark.parametrize("key, value", [
        ("length_mm", 0), ("length_mm", -14), ("diameter_nm", 0), ("diameter_nm", -900),
        ("diameter_nm", 1e-320),  # underflows to 0 m
    ])
    def test_non_positive_uniform_waist_is_named(self, tmp_path, capsys, key, value):
        # a zero length exited 3 with "<string>:2: z=0.0 duplicates the previous sample"
        flags = {"diameter_nm": 900, "length_mm": 14, key: value}
        argv = [item for k, v in flags.items() for item in (f"--{k}", v)]
        assert run("jsi", *argv, "--grid_points", 8, "--out_dir", tmp_path / "out") == EXIT_DOMAIN
        assert f"{key} must be positive, got {float(value)!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_center_eta_mode_accepted(self, tmp_path):
        assert run(*JSI_ARGS, "--eta_mode", "center",
                   "--out_dir", tmp_path / "out") == EXIT_OK

    def test_unknown_eta_mode_is_domain_error(self, tmp_path):
        assert run(*JSI_ARGS, "--eta_mode", "corners",
                   "--out_dir", tmp_path / "out") == EXIT_DOMAIN

    @pytest.mark.parametrize("flag, value", [
        ("--pump_fwhm_nm", "1.4e142"),  # sigma**2 overflowed in pump_function
        ("--pump_fwhm_nm", "1e150"),
        ("--pump_fwhm_nm", "1e300"),  # an infinite sigma wrote inf and nan cells
        ("--pump_fwhm_nm", "1769"),  # past 2 sqrt(ln 2) x 1062 nm: reaches zero frequency
        ("--pump_wavelength_nm", "1e308"),  # wavelength**2 overflows
    ])
    def test_absurd_pump_is_domain_error_writing_nothing(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning on the way
            code = run("jsi", "--diameter_nm", 900, "--length_mm", 14, "--n_segments", 2,
                       "--grid_points", 8, flag, value, "--out_dir", out)
        assert code == EXIT_DOMAIN
        message = "pump FWHM" if flag == "--pump_fwhm_nm" else "pump wavelength"
        assert capsys.readouterr().err.startswith(f"domain error: {message} ")
        assert not out.exists()

    def test_widest_pump_below_the_bound_runs(self, tmp_path):
        assert run("jsi", "--diameter_nm", 900, "--length_mm", 14, "--n_segments", 2,
                   "--grid_points", 8, "--pump_fwhm_nm", 1768,
                   "--out_dir", tmp_path / "out") == EXIT_OK

    @pytest.mark.parametrize("flag, value, message", [
        ("--length_mm", "1e308", "segment length 1e+305 m"),  # once wrote nan-filled files
        ("--pump_wavelength_nm", "1e300", "pump wavelength 1.0000000000000001e+291 m"),
    ])
    def test_overflowing_input_is_named_and_nothing_written(self, tmp_path, capsys, monkeypatch,
                                                            flag, value, message):
        out = tmp_path / "out"
        for block in (biphoton._SUM_BLOCK, 7):  # the segment sum's band size; 7 gives one-row bands
            monkeypatch.setattr(biphoton, "_SUM_BLOCK", block)
            assert run("jsi", "--diameter_nm", 900, "--length_mm", 14, "--n_segments", 1,
                       "--grid_points", 4, flag, value, "--out_dir", out) == EXIT_DOMAIN
            assert capsys.readouterr().err.startswith(f"domain error: {message} is out of range")
            assert not out.exists()

    def test_below_cutoff_segment_is_named_and_nothing_written(self, tmp_path, capsys, monkeypatch):
        # a 120 nm tail from segment 5 on; the walk from the output end meets segment 8 first
        profile = tmp_path / "tail.profile"
        profile.write_text("0 900e-9\n0.0077 900e-9\n0.0078 120e-9\n0.014 120e-9\n")
        out = tmp_path / "out"
        for block in (biphoton._SUM_BLOCK, 7):
            monkeypatch.setattr(biphoton, "_SUM_BLOCK", block)
            assert run("jsi", "--profile", profile, "--n_segments", 9, "--grid_points", 8,
                       "--out_dir", out) == EXIT_DOMAIN
            err = capsys.readouterr().err
            assert err.startswith("domain error: segment 8 (diameter 120.0 nm): ") and "cutoff" in err
            assert not out.exists()

    def test_held_out_miss_names_the_diameter(self, tmp_path, capsys, monkeypatch):
        # no table meets a 1e-16 held-out check, even from 64 Chebyshev nodes
        monkeypatch.setattr(dispersion, "_TABLE_TOL", 1e-16)
        profile = tmp_path / "two.profile"
        profile.write_text("0 900e-9\n0.007 900e-9\n0.0071 885e-9\n0.014 885e-9\n")
        out = tmp_path / "out"
        assert run("jsi", "--profile", profile, "--n_segments", 2, "--grid_points", 8,
                   "--out_dir", out) == EXIT_DOMAIN
        err = capsys.readouterr().err
        # the walk from the output end meets the 885 nm segment first
        assert err.startswith("domain error: neff_table missed its held-out check for HE11 "
                              "at diameter 885.0 nm by ")
        assert err.rstrip().endswith("(> 1e-16) even at degree 63 (64 Chebyshev nodes)")
        assert not out.exists()

    @pytest.mark.parametrize("n_segments, grid_points, size", [
        (2**45, 8, "256. TiB"),  # 2**45 segment midpoints
        (2, 2**23, "512. TiB"),  # a 2**23 x 2**23 grid
    ])
    def test_unallocatable_size_is_domain_error(self, tmp_path, capsys, n_segments, grid_points, size):
        # requests of 2**48 bytes and more exceed any 47-bit address space
        code = run("jsi", "--diameter_nm", 900, "--length_mm", 14, "--n_segments", n_segments,
                   "--grid_points", grid_points, "--out_dir", tmp_path / "out")
        assert code == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith(f"domain error: Unable to allocate {size}") and "Traceback" not in err

    def test_failed_svd_is_domain_error_after_the_csvs(self, tmp_path, capsys, monkeypatch):
        def no_convergence(jsa_like):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "schmidt_analysis", no_convergence)
        out = tmp_path / "out"
        threads = threading.active_count()
        assert run(*JSI_ARGS, "--out_dir", out) == EXIT_DOMAIN
        assert threading.active_count() == threads
        assert capsys.readouterr().err.startswith("domain error: SVD did not converge")
        assert all((out / name).is_file() for name in JSI_CSVS)
        assert not (out / "schmidt.json").exists()

    def test_unwritable_panel_is_io_error_and_joins_the_svd(self, tmp_path, capsys, monkeypatch):
        ran_on_worker = []
        monkeypatch.setattr(cli, "schmidt_analysis", slowed_schmidt_analysis(ran_on_worker))
        out = tmp_path / "out"
        (out / "jsi.csv").mkdir(parents=True)
        threads = threading.active_count()
        assert run(*JSI_ARGS, "--out_dir", out) == EXIT_IO
        assert threading.active_count() == threads
        assert ran_on_worker == [True]  # the SVD, still asleep when jsi.csv failed, was waited for
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert not (out / "schmidt.json").exists()

    def test_slow_svd_writes_the_same_bytes(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"

        def outputs():
            assert run(*JSI_ARGS, "--out_dir", out) == EXIT_OK
            return capsys.readouterr().out, {f.name: f.read_bytes() for f in sorted(out.iterdir())}

        plain = outputs()
        ran_on_worker = []
        monkeypatch.setattr(cli, "schmidt_analysis", slowed_schmidt_analysis(ran_on_worker))
        assert outputs() == plain
        assert ran_on_worker == [True]
        assert sorted(plain[1]) == sorted(JSI_CSVS + ("schmidt.json",))


class TestJsiMemory:
    """cmd_jsi forms its panels in row blocks, so it holds few whole-grid arrays.

    Traced with tracemalloc, which numpy reports its buffers to, in units of
    one real grid (8 B per cell) on a 384 x 384 uniform waist.  The writer
    phase holds the amplitude (2 units), |matched|^2 until its panel is
    written (1) and the envelope until its panel is written (1), beside one
    32-row block's formatting temporaries (about 2.8 units at this width).
    The segment sum and the pump envelope peak near 5.5.  Forming each panel
    whole would hold matched beside the amplitude, the intensity and the
    panel's own grid: about 10 units.
    """

    N = 384

    def test_traced_peak_is_bounded_in_grids(self, tmp_path, capsys):
        def jsi(n):
            return run("jsi", "--diameter_nm", 900, "--length_mm", 14, "--n_segments", 1,
                       "--grid_points", n, "--out_dir", tmp_path)

        assert jsi(8) == EXIT_OK  # first-call caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert jsi(self.N) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak / (8 * self.N**2) <= 8.0, peak


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (31, 4), (32, 5), (33, 2), (70, 3)])
@pytest.mark.parametrize("seed", range(6))
def test_intensity_peak_is_max_and_first_argmax(shape, seed):
    # few distinct magnitudes, so ties are common, in cells of several blocks
    rng = np.random.default_rng(seed)
    amplitude = (rng.integers(-2, 3, shape) + 1j * rng.integers(-2, 3, shape)).astype(complex)
    intensity = np.abs(amplitude) ** 2
    assert cli._intensity_peak(amplitude) == (intensity.max(), np.argmax(intensity))


@pytest.mark.parametrize("cells", [[(31, 1), (32, 0)], [(32, 0), (31, 1)], [(63, 2), (64, 0), (0, 2)],
                                   [(5, 1)], [(69, 2), (40, 0)]])
def test_intensity_peak_ties_across_block_edges(cells):
    # equal peaks in several blocks: the first in C order wins, as np.argmax's does
    assert cli._CSV_BLOCK_ROWS == 32  # rows 31/32 and 63/64 lie in different blocks
    amplitude = np.full((70, 3), 0.5 + 0.5j)
    for at in cells:
        amplitude[at] = 3.0 - 4.0j if sum(at) % 2 else -4.0 + 3.0j  # |a|^2 = 25 either way
    intensity = np.abs(amplitude) ** 2
    peak, at = cli._intensity_peak(amplitude)
    assert (peak, at) == (intensity.max(), np.argmax(intensity)) == (25.0, 3 * min(cells)[0] + min(cells)[1])


class TestTagsSimulate:
    def test_text_and_binary_agree(self, tmp_path):
        txt = tmp_path / "tags.txt"
        bin_ = tmp_path / "tags.bin"
        for path in (txt, bin_):
            assert run(
                "tags", "simulate", "--duration_s", 0.003, "--dead_time_us", 0,
                "--seed", 5, "--tags_out", path,
            ) == EXIT_OK
        a, b = parse_tags(txt), parse_tags(bin_)
        np.testing.assert_array_equal(a.channels, b.channels)
        np.testing.assert_array_equal(a.timestamps, b.timestamps)
        assert len(a) > 0

    def test_same_seed_byte_identical(self, tmp_path):
        paths = [tmp_path / f"run{i}.txt" for i in range(2)]
        for path in paths:
            assert run("tags", "simulate", "--duration_s", 0.003,
                       "--tags_out", path) == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_changes_output(self, tmp_path):
        streams = []
        for seed in (0, 1):
            path = tmp_path / f"seed{seed}.txt"
            assert run("tags", "simulate", "--duration_s", 0.003, "--seed", seed,
                       "--tags_out", path) == EXIT_OK
            streams.append(path.read_bytes())
        assert streams[0] != streams[1]

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--splitter_ratio", "1.5"),
            ("--mean_pairs_per_pulse", "-0.1"),
            ("--pair_statistics", "bose"),
            ("--duration_s", "-1"),
            ("--duration_s", "1e300"),  # past the int64 tick range: rejected before any pulse
        ],
    )
    def test_invalid_source_parameters_are_domain_errors(self, tmp_path, flag, value):
        assert run("tags", "simulate", flag, value,
                   "--tags_out", tmp_path / "t.txt") == EXIT_DOMAIN

    @pytest.mark.parametrize("flag, value, name", [
        ("--mean_pairs_per_pulse", "1e30", "mean_pairs_per_pulse"),  # numpy's "lam value too large"
        ("--jitter_ps", "1e30", "jitter_std"),  # overflowed the int64 tick cast
    ])
    def test_out_of_range_source_parameter_is_named(self, tmp_path, capsys, flag, value, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("tags", "simulate", "--duration_s", 0.0005, flag, value,
                       "--tags_out", tmp_path / "t.txt") == EXIT_DOMAIN
        assert capsys.readouterr().err.startswith(f"domain error: {name} ")
        assert not (tmp_path / "t.txt").exists()

    def test_all_signal_to_arm_a_leaves_channel_3_dark(self, tmp_path):
        # splitter_ratio 1 at full transmittance: no pair photon reaches arm B
        path = tmp_path / "t.txt"
        assert run("tags", "simulate", "--duration_s", 0.003, "--mean_pairs_per_pulse", 0.5,
                   "--signal_transmittance", 1, "--splitter_ratio", 1, "--dead_time_us", 0,
                   "--tags_out", path) == EXIT_OK
        counts = counts_by_channel(parse_tags(path))
        assert counts.get(3, 0) == 0 and counts[1] > 0 and counts[2] > 0

    def test_pulses_shorter_than_a_tick_exit_before_simulating(self, tmp_path, monkeypatch, capsys):
        # about 1e300 pulses: rejected when the source is configured
        def no_simulation(config):
            raise AssertionError("simulate_tags called")

        monkeypatch.setattr(cli, "simulate_tags", no_simulation)
        assert run("tags", "simulate", "--duration_s", 1, "--rep_period_ns", "1e-291",
                   "--tags_out", tmp_path / "t.txt") == EXIT_DOMAIN
        assert "tick_duration" in capsys.readouterr().err
        assert not (tmp_path / "t.txt").exists()


class TestTagsCoincidences:
    def test_histogram_comb_spacing_and_zero_peak(self, comb_out):
        payload = json.loads((comb_out / "coincidences.json").read_text())
        delays = np.array(payload["delay_ticks"])
        counts = np.array(payload["counts"])
        rep_ticks = 54e-9 / 81e-12
        positions = []
        for m in range(-3, 4):
            sel = np.abs(delays - m * rep_ticks) <= rep_ticks / 2
            positions.append(delays[sel][np.argmax(counts[sel])])
        spacings = np.diff(positions)
        assert np.all(np.abs(spacings - rep_ticks) <= payload["bin_width_ticks"])
        assert positions[3] == 0
        zero = counts[np.where(delays == 0)[0][0]]
        assert np.all(zero > counts[delays != 0])

    def test_car_summary(self, comb_out):
        payload = json.loads((comb_out / "car.json").read_text())
        assert payload["schema"] == "taperfwm.car/1"
        assert payload["car"] > 5.0
        assert payload["peak_rate_hz"] > payload["accidental_rate_hz"] > 0.0

    def test_csv_and_json_counts_agree(self, comb_out):
        payload = json.loads((comb_out / "coincidences.json").read_text())
        rows = data_rows(comb_out / "coincidences.csv")
        got = [tuple(int(v) for v in row.split(",")) for row in rows]
        want = list(zip(payload["delay_ticks"], payload["counts"]))
        assert got == want

    def test_channel_flags_respected(self, comb_out, tmp_path):
        out = tmp_path / "swap"
        assert run(
            "tags", "coincidences", "--tags_in", comb_out / "tags.bin",
            "--ch_a", 3, "--ch_b", 2, "--out_dir", out,
        ) == EXIT_OK
        payload = json.loads((out / "coincidences.json").read_text())
        assert (payload["ch_a"], payload["ch_b"]) == (3, 2)

    def test_missing_tags_file_is_io_error(self, tmp_path):
        assert run("tags", "coincidences", "--tags_in", tmp_path / "none.txt") == EXIT_IO

    @pytest.mark.parametrize("flag, channel", [
        ("--ch_a", 7), ("--ch_a", 300), ("--ch_a", -1), ("--ch_b", 0),
    ])
    def test_undeclared_channel_is_domain_error(self, comb_out, tmp_path, capsys, flag, channel):
        out = tmp_path / "out"
        assert run("tags", "coincidences", "--tags_in", comb_out / "tags.bin", flag, channel,
                   "--out_dir", out) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert f"{flag[2:]} {channel} not in declared set [1, 2, 3]" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--window_ticks", 0), ("--rep_period_ns", 0), ("--rep_period_ns", -54),
        ("--rep_period_ns", 1e-320),  # positive, but 0.0 once in seconds
    ])
    def test_bad_car_window_is_domain_error_before_any_work(self, comb_out, tmp_path, capsys,
                                                            flag, value):
        out = tmp_path / "out"
        assert run("tags", "coincidences", "--tags_in", comb_out / "tags.bin", flag, value,
                   "--out_dir", out) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert "must be" in captured.err and "Traceback" not in captured.err
        assert "CAR not computed" not in captured.out
        assert not out.exists()

    def test_stream_without_duration_skips_car(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_bytes(b"#tick_ps 81\n")
        out = tmp_path / "out"
        assert run("tags", "coincidences", "--tags_in", empty, "--out_dir", out) == EXIT_OK
        assert "CAR not computed: histogram carries no acquisition duration" in (
            capsys.readouterr().out)
        assert (out / "coincidences.csv").exists() and not (out / "car.json").exists()

    def test_unallocatable_delay_range_is_domain_error(self, tmp_path, capsys):
        # 2e15 + 1 int64 bins (16 PB) exceed any address space, so the
        # allocation fails at once without reserving memory
        empty = tmp_path / "empty.txt"
        empty.write_bytes(b"#tick_ps 81\n")
        assert run(
            "tags", "coincidences", "--tags_in", empty, "--delay_range_ticks", 10**15,
            "--bin_width_ticks", 1, "--out_dir", tmp_path / "out",
        ) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert "cannot allocate 2000000000000001 histogram bins" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "coincidences.csv").exists()

    def test_int64_overflowing_delay_range_is_domain_error(self, tmp_path, capsys):
        top = 2**63 - 1
        tags = tmp_path / "top.txt"
        write_tags_text(from_records([(1, top - 9), (2, top - 5)]), tags)
        assert run(
            "tags", "coincidences", "--tags_in", tags, "--delay_range_ticks", top,
            "--bin_width_ticks", top, "--out_dir", tmp_path / "out",
        ) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert "2 * delay_range + bin_width must be at most 2**63 - 1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "coincidences.csv").exists()

    @pytest.mark.parametrize("value", [1e18, 1e308])
    def test_int64_overflowing_rep_period_is_domain_error(self, comb_out, tmp_path, capsys,
                                                          value):
        # the accidental windows sit two periods out: 2 * 1e18 ns is 2.5e19 ticks of 81 ps
        out = tmp_path / "out"
        assert run("tags", "coincidences", "--tags_in", comb_out / "tags.bin", "--rep_period_ns",
                   value, "--out_dir", out) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith(f"domain error: rep_period_ns={value!r} is ")
        assert "two periods pass the largest 64-bit tick" in err and "Traceback" not in err
        assert not out.exists()

    def test_malformed_tags_file_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1\t2\t3\n")
        assert run("tags", "coincidences", "--tags_in", bad) == EXIT_IO
        assert "line 1" in capsys.readouterr().err


class TestTagsG2h:
    def test_perfect_pairs_give_zero_at_zero_separation(self, tmp_path):
        # one herald + one signal photon per pulse, arm alternating: no pulse
        # ever fires both arms, so the zero-separation coincidence is empty.
        n = 400
        ticks = np.arange(n, dtype=np.int64) * 670
        channels = np.empty(2 * n, dtype=np.int64)
        times = np.repeat(ticks, 2)
        channels[0::2] = 2
        channels[1::2] = np.where(np.arange(n) % 2 == 0, 1, 3)
        stream = from_records(list(zip(channels.tolist(), times.tolist())))
        tags = tmp_path / "perfect.txt"
        write_tags_text(stream, tags)

        out = tmp_path / "out"
        assert run("tags", "g2h", "--tags_in", tags, "--m_max", 4,
                   "--out_dir", out) == EXIT_OK
        payload = json.loads((out / "g2h.json").read_text())
        assert payload["schema"] == "taperfwm.g2h/1"
        assert payload["g2"][0] == 0.0
        assert payload["triples"][0] == 0
        # strict arm alternation: arm 1 fires on even pulses only, arm 3 on
        # odd, so cross-triples exist exactly at odd herald separations
        assert all(payload["g2"][m] > 0 for m in range(1, 5, 2))
        assert all(payload["g2"][m] == 0.0 for m in range(2, 5, 2))
        assert payload["n_heralds"] == n

    def test_simulated_source_is_nonclassical(self, tmp_path):
        tags = tmp_path / "tags.bin"
        assert run(
            "tags", "simulate", "--duration_s", 0.054, "--dead_time_us", 0,
            "--seed", 9, "--tags_out", tags,
        ) == EXIT_OK
        out = tmp_path / "out"
        assert run("tags", "g2h", "--tags_in", tags, "--out_dir", out) == EXIT_OK
        payload = json.loads((out / "g2h.json").read_text())
        assert (payload["herald_ch"], payload["ch_a"], payload["ch_b"]) == (2, 1, 3)
        assert 0.0 <= payload["g2"][0] < 0.5

    def test_m_max_sets_row_count(self, tmp_path):
        tags = tmp_path / "tags.txt"
        assert run("tags", "simulate", "--duration_s", 0.003, "--dead_time_us", 0,
                   "--tags_out", tags) == EXIT_OK
        out = tmp_path / "out"
        assert run("tags", "g2h", "--tags_in", tags, "--m_max", 4,
                   "--out_dir", out) == EXIT_OK
        rows = data_rows(out / "g2h.csv")
        assert len(rows) == 5  # separations 0..4

    def test_zero_text_tick_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "zero_tick.txt"
        bad.write_text("#tick_ps 0\n1\t5\n2\t7\n")
        assert run("tags", "g2h", "--tags_in", bad, "--out_dir", tmp_path / "out") == EXIT_IO
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, line",
        [
            ("#tick_ps 81\n1\t99999999999999999999\n", "line 2"),
            ("#tick_ps 40.5\n1\t5\n2\t7\n", "line 1"),
            ("#tick_ps 81\n1\t5\n2\t1_000\n", "line 3"),
            ("1\t5\n2\t+7\n", "line 2"),
            ("1\t5\n2\t7\n3\t\u0661\u0662\n", "line 3"),
        ],
        ids=["timestamp_overflow", "fractional_tick", "underscore_digits", "plus_sign",
             "non_ascii_digits"],
    )
    def test_malformed_text_tags_are_input_errors(self, tmp_path, capsys, text, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(text, encoding="utf-8")
        assert run("tags", "g2h", "--tags_in", bad, "--out_dir", tmp_path / "out") == EXIT_IO
        assert line in capsys.readouterr().err

    def test_window_beyond_int64_is_domain_error(self, tmp_path, capsys):
        tags = tmp_path / "three.txt"
        write_tags_text(from_records([(1, 0), (2, 1), (3, 2)]), tags)
        assert run("tags", "g2h", "--tags_in", tags, "--window_ticks", 2**63,
                   "--out_dir", tmp_path / "out") == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert "window must be at most 2**63 - 1 ticks" in err and "Traceback" not in err

    def test_undeclared_herald_channel_is_domain_error(self, tmp_path, capsys):
        tags = tmp_path / "three.txt"
        write_tags_text(from_records([(1, 0), (2, 1), (3, 2)]), tags)
        assert run("tags", "g2h", "--tags_in", tags, "--herald_ch", 7,
                   "--out_dir", tmp_path / "out") == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert "herald_ch 7 not in declared set [1, 2, 3]" in err and "no herald" not in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--window_ticks", 0, "window must be at least one tick"),
        ("--m_max", -1, "m_max must be non-negative"),
    ])
    def test_bad_window_or_m_max_is_domain_error(self, tmp_path, capsys, flag, value, message):
        tags = tmp_path / "three.txt"
        write_tags_text(from_records([(1, 0), (2, 1), (3, 2)]), tags)
        assert run("tags", "g2h", "--tags_in", tags, flag, value,
                   "--out_dir", tmp_path / "out") == EXIT_DOMAIN
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_no_heralds_is_domain_error(self, tmp_path, capsys):
        stream = from_records([(1, 0), (1, 100), (3, 200)])
        tags = tmp_path / "noherald.txt"
        write_tags_text(stream, tags)
        assert run("tags", "g2h", "--tags_in", tags) == EXIT_DOMAIN
        assert "herald" in capsys.readouterr().err


class TestTagsFitPower:
    def test_noiseless_scan_recovers_exactly(self, tmp_path):
        scan = tmp_path / "scan.csv"
        write_scan_csv(scan)
        out = tmp_path / "out"
        assert run("tags", "fit-power", "--power_scan", scan, "--out_dir", out) == EXIT_OK
        payload = json.loads((out / "power_fit.json").read_text())
        params = payload["parameters"]
        assert params["dark_hz"] == pytest.approx(400.0, rel=1e-9)
        assert params["linear_hz_per_w"] == pytest.approx(5.7e4, rel=1e-9)
        assert params["quadratic_hz_per_w2"] == pytest.approx(4.3e6, rel=1e-9)

    def test_noisy_scan_within_five_percent(self, tmp_path):
        scan = tmp_path / "scan.csv"
        write_scan_csv(scan, noise_seed=42)
        out = tmp_path / "out"
        assert run("tags", "fit-power", "--power_scan", scan, "--out_dir", out) == EXIT_OK
        params = json.loads((out / "power_fit.json").read_text())["parameters"]
        assert params["dark_hz"] == pytest.approx(400.0, rel=0.05)
        assert params["linear_hz_per_w"] == pytest.approx(5.7e4, rel=0.05)
        assert params["quadratic_hz_per_w2"] == pytest.approx(4.3e6, rel=0.05)

    def test_poisson_weighting_accepted(self, tmp_path):
        scan = tmp_path / "scan.csv"
        write_scan_csv(scan)
        assert run("tags", "fit-power", "--power_scan", scan, "--weighting", "poisson",
                   "--out_dir", tmp_path / "out") == EXIT_OK

    def test_unknown_weighting_is_domain_error(self, tmp_path):
        scan = tmp_path / "scan.csv"
        write_scan_csv(scan)
        assert run("tags", "fit-power", "--power_scan", scan,
                   "--weighting", "cauchy") == EXIT_DOMAIN

    def test_malformed_scan_is_input_error(self, tmp_path, capsys):
        scan = tmp_path / "scan.csv"
        scan.write_text("power_mW,rate_Hz\n20,abc\n")
        assert run("tags", "fit-power", "--power_scan", scan) == EXIT_IO
        assert ":2:" in capsys.readouterr().err

    def test_missing_scan_file_is_io_error(self, tmp_path):
        assert run("tags", "fit-power", "--power_scan", tmp_path / "none.csv") == EXIT_IO


class TestDeterminism:
    def test_jsi_runs_are_byte_identical(self, tmp_path):
        outs = [tmp_path / f"run{i}" for i in range(2)]
        for out in outs:
            assert run(
                "jsi", "--diameter_nm", 900, "--length_mm", 14, "--n_segments", 2,
                "--grid_points", 12, "--out_dir", out,
            ) == EXIT_OK
        for name in ("phase_matching.csv", "pump.csv", "jsi.csv", "marginals.csv",
                     "schmidt.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_analysis_outputs_are_byte_identical(self, tmp_path):
        tags = tmp_path / "tags.bin"
        assert run("tags", "simulate", "--duration_s", 0.003, "--dead_time_us", 0,
                   "--tags_out", tags) == EXIT_OK
        outs = [tmp_path / f"run{i}" for i in range(2)]
        for out in outs:
            assert run("tags", "coincidences", "--tags_in", tags,
                       "--out_dir", out) == EXIT_OK
            assert run("tags", "g2h", "--tags_in", tags, "--out_dir", out) == EXIT_OK
        for name in ("coincidences.csv", "coincidences.json", "car.json",
                     "g2h.csv", "g2h.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
