#!/usr/bin/env python3
"""Benchmark of the taperfwm CLI on four workloads, with end-to-end and per-layer figures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a taperfwm source tree.  With ``--trace 0`` it runs
closed-loop rounds of the workload, each in a fresh interpreter, for about
S seconds and reports the median wall time, set-up time and peak RSS.  With
``--trace 1`` it reports the per-layer figures of one traced round instead.
Either way it checks the outputs, and the last line of stdout is one JSON
object: correct, attempted, failed and metrics.  README.md has the details.
"""

import os

# Fixed before numpy is imported here or in any child: with the default
# OpenBLAS pool the first SVD of a fresh process sometimes costs 0.5-1 s.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, make_job  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_ROUNDS = 4
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark could not run the workload at all."""


def spawn(mode: str, job_path: Path, python_flags=()) -> dict:
    """Run child.py in a fresh interpreter; its report plus the set-up time."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, *python_flags, str(HERE / "child.py"), mode, str(job_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child did not end within {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - start
    report["stderr"] = proc.stderr
    return report


def import_figures(stderr: str) -> tuple:
    """Cumulative seconds of the top-level taperfwm imports and of scipy.integrate."""
    total = integrate = 0
    for line in stderr.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2][1:]
        top_level = not name.startswith(" ")
        name = name.strip()
        if top_level and name.split(".")[0] == "taperfwm":
            total += int(fields[1])
        if name == "scipy.integrate":
            integrate = int(fields[1])
    return total / 1e6, integrate / 1e6


def timed_rounds(job_path: Path, seconds: float) -> tuple:
    """Rounds of (set-up probe, workload) until the next would overrun ``seconds``."""
    spawn("probe", job_path)  # warm-up: writes bytecode, fills the file cache
    setups, rounds, lengths = [], [], []
    start = time.monotonic()
    while True:
        begin = time.monotonic()
        setups.append(spawn("probe", job_path)["setup_s"])
        report = spawn("run", job_path)
        setups.append(report["setup_s"])
        rounds.append(report)
        lengths.append(time.monotonic() - begin)
        elapsed = time.monotonic() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + statistics.median(lengths) > seconds:
            return setups, rounds


def traced_round(job_path: Path) -> tuple:
    """Per-layer figures of one traced round; the overhead is the mean traced
    minus the mean plain wall time of two rounds each, run plain, traced,
    traced, plain."""
    spawn("probe", job_path)
    imports = [import_figures(spawn("probe", job_path, ("-X", "importtime"))["stderr"])
               for _ in range(IMPORT_SAMPLES)]
    rounds = [spawn(mode, job_path) for mode in ("run", "trace", "trace", "run")]
    plain, traced = rounds[0::3], rounds[1:3]
    layers = dict(traced[0]["layers"])
    layers["setup.import_s"] = statistics.median(s for s, _ in imports)
    layers["setup.import_scipy_integrate_s"] = statistics.median(i for _, i in imports)
    layers["trace.overhead_s"] = (statistics.fmean(r["wall_s"] for r in traced)
                                  - statistics.fmean(r["wall_s"] for r in plain))
    counts = [{k: v for k, v in r["layers"].items() if not k.endswith((".s", "_s"))} for r in traced]
    if counts[0] != counts[1]:
        raise BenchError(f"two traced rounds of the same inputs counted different work: {counts}")
    return layers, rounds


def declared_metrics(trace: bool) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "taperfwm" / "__init__.py").is_file():
        print(f"no taperfwm source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    job = make_job(args.workload, args.seed, ROOT, work)
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job, indent=1) + "\n")
    units = declared_metrics(bool(args.trace))

    try:
        if args.trace:
            values, rounds = traced_round(job_path)
            setups = []
        else:
            setups, rounds = timed_rounds(job_path, args.seconds)
            values = {
                "wall_s": statistics.median(r["wall_s"] for r in rounds),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
            }
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    if set(values) != set(units):
        print(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json", file=sys.stderr)
        return 2

    attempted = sum(len(r["codes"]) for r in rounds)
    failed = sum(code != 0 for r in rounds for code in r["codes"])
    failures = [e for r in rounds for e in r["errors"]]
    if len({r["digest"] for r in rounds}) != 1:
        failures.append("rounds of the same inputs wrote different outputs")
    import checks

    try:
        verdicts = checks.run_checks(job)
        failures += verdicts.failures
        passed = verdicts.passed
    except Exception:  # a check that crashes counts as failed, with its traceback
        failures.append(traceback.format_exc())
        passed = 0

    env = rounds[-1]["env"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "values": values, "setup_samples": setups,
        "rounds": [{k: r[k] for k in ("wall_s", "rss_mb", "setup_s", "codes", "digest")} for r in rounds],
        "checks_passed": passed, "check_failures": failures,
        "spans": next((r["spans"] for r in rounds if "spans" in r), None),
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, {len(setups)} set-up samples; "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']}, "
          f"BLAS threads {env['blas_threads']}, {env['cpus_usable']} of {env['cpu_count']} CPUs")
    print(f"checks: {passed} passed, {len(failures)} failed")
    for message in failures:
        print(f"FAILED: {message}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
