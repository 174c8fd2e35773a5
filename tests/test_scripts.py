"""The example scripts run end to end against the current package API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def run_script(name: str, *args: str) -> str:
    return run_python(str(ROOT / "scripts" / name), *args)


def test_jsi_map_writes_its_tables(tmp_path):
    out = tmp_path / "jsi_map"
    stdout = run_script("jsi_map.py", "--steps", "2", "--d-min", "880", "--d-max", "890",
                        "--out", str(out))
    for name in ("pairs_vs_diameter.csv", "jsi_detail.csv"):
        path = out / name
        assert f"wrote {path}" in stdout
        assert path.is_file()
    pairs = (out / "pairs_vs_diameter.csv").read_text().splitlines()
    assert pairs[0] == "diameter_nm,signal_nm,idler_nm"
    assert len(pairs) == 3  # both waists phase-match inside the signal band
    assert "Schmidt number" in stdout


def test_g2_scan_prints_one_row_per_mu():
    stdout = run_script("g2_scan.py", "--duration", "0.05", "--mu", "0.01", "0.05")
    rows = stdout.splitlines()
    assert rows[0].split() == ["mu", "heralds/s", "g2h(0)", "CAR"]
    assert [float(row.split()[0]) for row in rows[1:]] == [0.01, 0.05]


def test_rate_budget_recovers_the_scan_decomposition():
    stdout = run_script("rate_budget.py")
    assert "power-scan decomposition (true -> fitted):" in stdout
    assert "quadratic fraction" in stdout


def test_bessel_kernels_regenerates_the_committed_literals():
    pytest.importorskip("mpmath")
    source = (ROOT / "src" / "taperfwm" / "dispersion.py").read_text()
    block = re.search(r"# generated by scripts/bessel_kernels\.py: begin\n.*?"
                      r"# generated by scripts/bessel_kernels\.py: end\n", source, re.S)
    assert run_script("bessel_kernels.py") == block.group(0)


def test_readme_python_quick_start_runs():
    # its tf.X names resolve through the package's lazy __getattr__
    code = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    lines = run_python("-c", code).splitlines()
    assert lines[0].startswith("n_eff = 1.2")
    assert len(lines) == 3


def test_output_digest_lists_every_output_and_stdout(tmp_path):
    jsi = ["phase_matching.csv", "pump.csv", "jsi.csv", "marginals.csv", "schmidt.json"]
    tag_results = ["coincidences.csv", "coincidences.json", "car.json", "g2h.csv", "g2h.json"]
    expected = set()
    for case, prefix in (("jsi_measured", "out/"), ("jsi_uniform_hires", "out/"),
                         ("jsi_default", ""), ("jsi_center_10", "")):
        expected |= {f"{case}/jsi.stdout", *(f"{case}/{prefix}{name}" for name in jsi)}
    for case, tag_file in (("tags_deadtime", "tags.bin"), ("tags_text_wide", "tags.txt")):
        expected |= {f"{case}/{command}.stdout" for command in ("simulate", "coincidences", "g2h")}
        expected |= {f"{case}/{tag_file}", *(f"{case}/out/{name}" for name in tag_results)}
    for case in ("modes_builtin", "modes_file_glass"):
        expected |= {f"{case}/modes.stdout", f"{case}/modes.csv"}
    for case in ("fit_power_none", "fit_power_poisson"):
        expected |= {f"{case}/fit-power.stdout", f"{case}/power_fit.json"}
    expected |= {"jsi_map/jsi_map.stdout", "jsi_map/pairs_vs_diameter.csv", "jsi_map/jsi_detail.csv"}

    lines = run_script("output_digest.py", str(tmp_path / "out")).splitlines()
    names = [line.split("  ")[1] for line in lines]
    assert sorted(names) == sorted(expected)
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
