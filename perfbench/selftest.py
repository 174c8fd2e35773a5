#!/usr/bin/env python3
"""Shows that the output checks catch corrupted outputs.

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

For each workload it runs one round through the CLI, runs the checks, which
must pass, and then corrupts one written file at a time; the checks must
report every corruption.  Exit code 0 when all of that holds.
"""

import argparse
import json
import sys
from pathlib import Path

from run import OUT, ROOT, spawn
from workloads import WORKLOADS, make_job


def matrix_rows(text: str):
    """Line indices and values of the body rows of a CSV matrix."""
    lines = text.splitlines()
    body = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    return lines, body, [[float(x) for x in lines[i].split(",")[1:]] for i in body]


def scale_cell(text: str, row: int, col: int) -> str:
    """Scale one cell of a CSV matrix body by 1.001."""
    lines, body, values = matrix_rows(text)
    cells = lines[body[row]].split(",")
    cells[col + 1] = repr(values[row][col] * 1.001)
    lines[body[row]] = ",".join(cells)
    return "\n".join(lines) + "\n"


def largest_cell(path: Path) -> tuple:
    _, _, values = matrix_rows(path.read_text())
    flat = max((v, r, c) for r, row in enumerate(values) for c, v in enumerate(row))
    return flat[1], flat[2]


def drop_record(data: bytes) -> bytes:
    """Remove one click from the middle of a tag file, text or binary."""
    if data.startswith(b"TTAG1"):
        n = (len(data) - 9) // 9
        at = 9 + 9 * (n // 2)
        return data[:at] + data[at + 9:]
    lines = data.split(b"\n")
    del lines[len(lines) // 2]
    return b"\n".join(lines)


def scale_largest_weight(text: str) -> str:
    """Scale the largest signal weight of marginals.csv by 1.01."""
    lines = text.splitlines()
    i = max((k for k, line in enumerate(lines) if line.startswith("signal,")),
            key=lambda k: float(lines[k].split(",")[2]))
    axis, omega, weight = lines[i].split(",")
    lines[i] = f"{axis},{omega},{float(weight) * 1.01!r}"
    return "\n".join(lines) + "\n"


def edit_json(text: str, key: str, edit) -> str:
    doc = json.loads(text)
    doc[key] = edit(doc[key])
    return json.dumps(doc)


def bump_middle(values: list) -> list:
    values[len(values) // 2] += 1
    return values


def as_text(edit):
    return lambda data: edit(data.decode()).encode()


def corruptions(job: dict) -> dict:
    """What is corrupted -> (file, function from its bytes to corrupted bytes)."""
    out = Path(job["out_dir"])
    if job["workload"].startswith("jsi_"):
        row, col = largest_cell(out / "jsi.csv")
        at_peak = as_text(lambda t: scale_cell(t, row, col))
        return {
            "the pump.csv cell at the JSI peak": (out / "pump.csv", at_peak),
            "the jsi.csv peak": (out / "jsi.csv", at_peak),
            "the phase_matching.csv cell at the JSI peak": (out / "phase_matching.csv", at_peak),
            "the largest signal marginal weight": (out / "marginals.csv", as_text(scale_largest_weight)),
            "the Schmidt number": (out / "schmidt.json", as_text(
                lambda t: edit_json(t, "schmidt_number", lambda k: k * 1.01))),
        }
    return {
        "one removed click": (Path(job["config"]["tags_file"]), drop_record),
        "one coincidence count": (out / "coincidences.json", as_text(
            lambda t: edit_json(t, "counts", bump_middle))),
        "one g2h triple": (out / "g2h.json", as_text(lambda t: edit_json(t, "triples", bump_middle))),
    }


def selftest(name: str, seed: int) -> list:
    import checks

    work = OUT / "selftest" / name
    job = make_job(name, seed, ROOT, work)
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job))
    report = spawn("run", job_path)
    problems = [f"{name}: {e}" for e in report["errors"]]
    verdicts = checks.run_checks(job)
    problems += [f"{name}: clean outputs fail: {f}" for f in verdicts.failures]
    for what, (path, corrupt) in corruptions(job).items():
        original = path.read_bytes()
        path.write_bytes(corrupt(original))
        try:
            caught = checks.run_checks(job).failures
        except Exception as err:  # unreadable output: the run would report it as failed
            caught = [f"{type(err).__name__}: {err}"]
        finally:
            path.write_bytes(original)
        print(f"{name}: {what}: {'caught' if caught else 'NOT CAUGHT'}"
              + (f" ({caught[0][:100]})" if caught else ""))
        if not caught:
            problems.append(f"{name}: {what} was not caught")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args()
    problems = [p for name in args.workload for p in selftest(name, args.seed)]
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
