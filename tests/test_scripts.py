"""The example scripts run end to end against the current package API."""

import os
import re
import subprocess
import sys
from pathlib import Path

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


def test_readme_python_quick_start_runs():
    # its tf.X names resolve through the package's lazy __getattr__
    code = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    lines = run_python("-c", code).splitlines()
    assert lines[0].startswith("n_eff = 1.2")
    assert len(lines) == 3
