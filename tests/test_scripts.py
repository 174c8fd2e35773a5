"""The example scripts run end to end against the current package API."""

import importlib.util
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


def load_output_digest():
    spec = importlib.util.spec_from_file_location("output_digest", ROOT / "scripts" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digest_against_a_perturbed_copy(tmp_path):
    # the old run is this tree's, with one jsi cell and one modes header changed
    old, new = tmp_path / "old", tmp_path / "new"
    listing = run_script("output_digest.py", str(old)).splitlines()
    jsi = old / "jsi_default" / "jsi.csv"
    lines = jsi.read_text().split("\n")
    row = next(i for i, line in enumerate(lines) if line and not line.startswith("#")) + 40
    cells = lines[row].split(",")
    col = max(range(1, len(cells)), key=lambda j: float(cells[j]))
    peak = max(float(c) for line in lines[row - 39:] if line for c in line.split(",")[1:])
    cells[col] = repr(float(cells[col]) + 0.25)
    lines[row] = ",".join(cells)
    jsi.write_text("\n".join(lines))
    modes = old / "modes_builtin" / "modes.csv"
    modes.write_text(modes.read_text().replace("wavelength_nm,n_eff", "wavelength_um,n_eff"))

    result = subprocess.run([sys.executable, str(ROOT / "scripts" / "output_digest.py"), str(new),
                             "--against", str(old)], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert result.returncode == 1, result.stderr
    report = {line.split("  ")[1]: line for line in result.stdout.splitlines()}
    assert sorted(report) == sorted(line.split("  ")[1] for line in listing)
    assert report.pop("jsi_default/jsi.csv") == f"{0.25 / peak:.2g}  jsi_default/jsi.csv  body"
    failed = report.pop("modes_builtin/modes.csv")
    assert failed.startswith("FAIL  modes_builtin/modes.csv  text differs: 'wavelength_um,n_eff'")
    assert all(line == f"0  {name}" for name, line in report.items())


def test_output_digest_drift_fields(tmp_path):
    digest = load_output_digest()
    old, new = tmp_path / "old", tmp_path / "new"

    def pair(name, before, after):
        (old / name).parent.mkdir(parents=True, exist_ok=True)
        (new / name).parent.mkdir(parents=True, exist_ok=True)
        (old / name).write_text(before)
        (new / name).write_text(after)
        return digest.drift(new / name, old / name)

    # a table CSV: each column against its own peak
    assert pair("m.csv", "# d 1\naxis,omega,w\ns,100.0,0.5\ni,200.0,0.25\n",
                "# d 1\naxis,omega,w\ns,100.0,0.5\ni,200.0,0.3\n") == pytest.approx((0.1, "column w"))
    # a matrix CSV: its axes apart from its body
    assert pair("j.csv", ",1e15,2e15\n3e15,1.0,0.5\n", ",1e15,2e15\n3e15,1.0,0.55\n") \
        == pytest.approx((0.05, "body"))
    assert pair("k.csv", ",1e15,2e15\n3e15,1.0,0.5\n", ",1e15,2.2e15\n3e15,1.0,0.5\n") \
        == pytest.approx((0.1 * 2 / 3, "axes"))
    # JSON: one field per key, list items together
    assert pair("s.json", '{"a":[1,2,4],"k":10}', '{"a":[1,2,4.4],"k":10}') == pytest.approx((0.1, ".a[]"))
    # stdout: each number alone; a hash and a name with digits are text
    assert pair("x.stdout", "K 2.0 at HE11 ab12\n", "K 2.5 at HE11 ab12\n") \
        == pytest.approx((0.25, "line 1 number 1"))
    for name, before, after in (("h.stdout", "hash 1a2b\n", "hash 1a2c\n"),
                                ("s.csv", "a,b\n1,2\n", "a,b\n1,2\n3,4\n"),
                                ("n.csv", "a,b\n1,2\n", "a,b\n1,nan\n"),
                                ("k.json", '{"a":1}', '{"b":1}'),
                                ("l.json", '{"a":[1]}', '{"a":[1,1]}'),
                                ("b.json", '{"a":true}', '{"a":1}')):
        with pytest.raises(digest.Mismatch):
            pair(name, before, after)
    assert pair("same.csv", "a\n1\n", "a\n1\n") == (0.0, "")
    assert pair("zero.csv", "a\n0\n", "a\n0.0\n") == (0.0, "column a")
