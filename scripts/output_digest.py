#!/usr/bin/env python3
"""Print the sha256 of every output file and stdout of a fixed set of CLI runs.

The set covers both perfbench ``jsi`` configs and both perfbench tag chains
(seed 1), the default 100-segment ``jsi`` and a 10-segment ``eta_mode center``
``jsi`` on ``data/measured_profile.txt``, ``modes`` with the built-in glass
and with ``data/silica.glass``, ``tags fit-power`` with both weightings, and
``scripts/jsi_map.py`` over four diameters (its phase-matched pairs come from
``delta_k`` on a table, which no CLI command reaches).  Each command runs in a
fresh interpreter with one BLAS thread.  Every line is ``sha256  name``, with
``OUT`` standing for the output directory in stdout.

A refactor keeps every output byte-identical when the listings of the old and
the new source tree are equal:

    python3 scripts/output_digest.py /tmp/old --src ../old/src > old.txt
    python3 scripts/output_digest.py /tmp/new > new.txt
    diff old.txt new.txt
"""

import argparse
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, make_job  # noqa: E402

SEED = 1
PROFILE = str(ROOT / "data" / "measured_profile.txt")


def power_scan(path: Path) -> None:
    """A dark + Raman + pair power scan with fixed 1% deviations."""
    rng = random.Random(SEED)
    lines = ["power_mW,rate_Hz"]
    for i in range(10):
        p = 20e-3 + 1e-2 * i
        rate = (400.0 + 5.7e4 * p + 4.3e6 * p * p) * (1.0 + rng.uniform(-0.01, 0.01))
        lines.append(f"{p * 1e3!r},{rate!r}")
    path.write_text("\n".join(lines) + "\n")


def cases(out: Path):
    """Yield (name, commands, output files) for each case, inputs written.

    A command is the arguments of ``taperfwm``, or a script's path and its arguments.
    """
    for workload in WORKLOADS:
        job = make_job(workload, SEED, ROOT, out / workload)
        yield workload, job["commands"], [Path(p) for p in job["outputs"]]
    for name, extra in (("jsi_default", []),
                        ("jsi_center_10", ["--n_segments", "10", "--eta_mode", "center"])):
        yield name, [["jsi", "--profile", PROFILE, *extra, "--out_dir", str(out / name)]], None
    for name, extra in (("modes_builtin", []),
                        ("modes_file_glass", ["--glass", str(ROOT / "data" / "silica.glass")])):
        yield name, [["modes", "--diameter_nm", "900", *extra, "--out_dir", str(out / name)]], None
    scan = out / "power_scan.csv"
    power_scan(scan)
    for weighting in ("none", "poisson"):
        name = f"fit_power_{weighting}"
        yield name, [["tags", "fit-power", "--power_scan", str(scan), "--weighting", weighting,
                      "--out_dir", str(out / name)]], None
    jsi_map = ["--d-min", "860", "--d-max", "920", "--steps", "4", "--out", str(out / "jsi_map")]
    yield "jsi_map", [[str(ROOT / "scripts" / "jsi_map.py"), *jsi_map]], None


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path, help="directory for the runs' inputs and outputs")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="taperfwm source tree to run")
    args = ap.parse_args()
    out = args.out.resolve()
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out.mkdir(parents=True, exist_ok=True)
    for name, commands, outputs in cases(out):
        for command in commands:
            if command[0].endswith(".py"):
                argv, label = command, Path(command[0]).stem
            else:
                argv = ["-m", "taperfwm", *command]
                label = command[1] if command[0] == "tags" else command[0]
            result = subprocess.run([sys.executable, *argv], env=env, capture_output=True)
            if result.returncode:
                sys.stderr.write(result.stderr.decode(errors="replace"))
                raise SystemExit(f"{name}: {' '.join(command)} exited {result.returncode}")
            stdout = result.stdout.replace(str(out).encode(), b"OUT")
            print(f"{digest(stdout)}  {name}/{label}.stdout")
        for path in outputs or sorted((out / name).iterdir()):
            print(f"{digest(path.read_bytes())}  {name}/{path.relative_to(out / name)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
