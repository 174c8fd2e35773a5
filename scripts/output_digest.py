#!/usr/bin/env python3
"""Print the sha256 of every output file and stdout of a fixed set of CLI runs.

The set covers both perfbench ``jsi`` configs and both perfbench tag chains
(seed 1), the default 100-segment ``jsi`` and a 10-segment ``eta_mode center``
``jsi`` on ``data/measured_profile.txt``, ``modes`` with the built-in glass
and with ``data/silica.glass``, ``tags fit-power`` with both weightings, and
``scripts/jsi_map.py`` over four diameters (its phase-matched pairs come from
``delta_k`` on a table, which no CLI command reaches).  Each command runs in a
fresh interpreter with one BLAS thread.  Every line is ``sha256  name``, with
``OUT`` standing for the output directory in stdout, which is kept as the
file ``name``.

A refactor keeps every output byte-identical when the listings of the old and
the new source tree are equal:

    python3 scripts/output_digest.py /tmp/old --src ../old/src > old.txt
    python3 scripts/output_digest.py /tmp/new > new.txt
    diff old.txt new.txt

A change that moves outputs on purpose reports how far with ``--against``,
which runs the case set and compares each output with the old run's:

    python3 scripts/output_digest.py /tmp/new --against /tmp/old

Each line is then ``drift  name  field``: the largest |new - old| of the
file's numbers over the peak |old| of their field, ``0`` where the numbers are
equal.  A field is a column of a table CSV, the axes or the body of a matrix
CSV, one JSON key (list items share it) or one number of other text.  Where
anything but the numbers differs (headers, shapes, JSON keys or other text),
the line reads ``FAIL`` and the exit status is 1.
"""

import argparse
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, make_job  # noqa: E402

SEED = 1
PROFILE = str(ROOT / "data" / "measured_profile.txt")

# a number standing alone: not part of a word, a hash or a dotted name
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


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


class Mismatch(Exception):
    """Two outputs differ in more than their numbers."""


def _json_numbers(value, field, text, fields, values):
    """Append a parsed JSON value's numbers to ``fields`` and ``values``, and the rest to ``text``."""
    if isinstance(value, dict):
        text.append((field, sorted(value)))
        for key in sorted(value):
            _json_numbers(value[key], f"{field}.{key}", text, fields, values)
    elif isinstance(value, list):
        text.append((field, len(value)))
        for item in value:
            _json_numbers(item, f"{field}[]", text, fields, values)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        fields.append(field)
        values.append(float(value))
    else:
        text.append((field, value))


def numbers(path: Path) -> tuple:
    """``(text, fields, values)``: what of ``path`` is not a number, and each number with its field."""
    text, fields, values = [], [], []
    if path.suffix == ".json":
        _json_numbers(json.loads(path.read_text()), "", text, fields, values)
        return text, fields, values
    header = None
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if path.suffix == ".csv" and not line.startswith("#"):
            cells = line.split(",")
            first = header is None
            header = cells.copy() if first else header
            matrix = header[0] == ""  # axis values across the top, after an empty corner
            for j, cell in enumerate(cells):
                if NUMBER.fullmatch(cell):
                    fields.append(("axes" if first or j == 0 else "body") if matrix
                                  else f"column {header[j] if j < len(header) else j}")
                    values.append(float(cell))
                    cells[j] = "#"
            text.append(",".join(cells))
        else:
            for i, match in enumerate(NUMBER.finditer(line), start=1):
                fields.append(f"line {lineno} number {i}")
                values.append(float(match.group()))
            text.append(NUMBER.sub("#", line))
    return text, fields, values


def drift(new: Path, old: Path) -> tuple:
    """``(relative drift, field)`` of ``new`` against ``old``; raises Mismatch beyond numbers."""
    if new.read_bytes() == old.read_bytes():
        return 0.0, ""
    try:
        text, fields, values = numbers(new)
        old_text, old_fields, old_values = numbers(old)
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise Mismatch("the bytes differ and are not text") from None
    if text != old_text or fields != old_fields:
        for a, b in zip(text, old_text):
            if a != b:
                raise Mismatch(f"text differs: {b!r} became {a!r}")
        raise Mismatch(f"shape differs: {len(old_values)} numbers became {len(values)}")
    largest, peak = {}, {}
    for field, a, b in zip(fields, values, old_values):
        largest[field] = max(largest.get(field, 0.0), abs(a - b))
        peak[field] = max(peak.get(field, 0.0), abs(b))
    ratios = {f: largest[f] / peak[f] if peak[f] else (0.0 if not largest[f] else float("inf"))
              for f in largest}
    field = max(ratios, key=ratios.get, default="")
    return ratios.get(field, 0.0), field


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path, help="directory for the runs' inputs and outputs")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="taperfwm source tree to run")
    ap.add_argument("--against", type=Path, metavar="OLD_OUT",
                    help="report the drift of each output from an earlier run's directory")
    args = ap.parse_args()
    out = args.out.resolve()
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out.mkdir(parents=True, exist_ok=True)
    failed = False

    def report(name: str) -> None:
        nonlocal failed
        if args.against is None:
            print(f"{digest((out / name).read_bytes())}  {name}")
            return
        try:
            change, field = drift(out / name, args.against / name)
            print(f"{change:.2g}  {name}  {field}".rstrip())
        except (Mismatch, OSError) as err:
            failed = True
            print(f"FAIL  {name}  {err}")

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
            (out / name).mkdir(parents=True, exist_ok=True)
            (out / name / f"{label}.stdout").write_bytes(result.stdout.replace(str(out).encode(), b"OUT"))
            report(f"{name}/{label}.stdout")
        listed = outputs or sorted(p for p in (out / name).iterdir() if p.suffix != ".stdout")
        for path in listed:
            report(f"{name}/{path.relative_to(out / name)}")
    return int(failed)


if __name__ == "__main__":
    raise SystemExit(main())
