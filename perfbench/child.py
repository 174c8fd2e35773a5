"""One fresh interpreter per round: import taperfwm, run the job's commands, report.

    python3 perfbench/child.py probe|run|trace JOB.json

``probe`` stops once taperfwm and its CLI are imported and the job's inputs
are found; ``run`` then times the commands through ``taperfwm.cli.main`` in
this process, one after the other; ``trace`` does the same with the
wrappers of ``tracer.py`` installed.  The report is one JSON line on stdout.
Only the standard library is imported before taperfwm, so ``-X importtime``
attributes numpy and scipy to it.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes() if Path(path).is_file() else b"<missing>")
    return h.hexdigest()


def main() -> None:
    mode, job_path = sys.argv[1], sys.argv[2]
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    import taperfwm.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(job["src"]).resolve()):
        raise SystemExit(f"taperfwm was imported from {cli.__file__}, not from {job['src']}")
    missing = [p for p in job["inputs"] if not Path(p).is_file()]
    if missing:
        raise SystemExit(f"missing inputs: {missing}")
    report = {"ready": time.monotonic()}
    if mode == "probe":
        print(json.dumps(report))
        return

    tracer = None
    entry = cli.main
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        entry = tracing.install(tracer)
    codes, errors = [], []
    start = time.perf_counter()
    for argv in job["commands"]:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = entry(argv)
            except SystemExit as exit_:
                code = exit_.code
        codes.append(code)
        if code != 0:
            errors.append(f"{' '.join(argv[:2])}: exit {code}: {err.getvalue().strip()}")
    report["wall_s"] = time.perf_counter() - start
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    report["codes"] = codes
    report["errors"] = errors
    report["digest"] = digest(job["outputs"])
    report["env"] = environment()
    if tracer is not None:
        report["layers"] = tracing.layer_metrics(tracer)
        report["layers"]["tags.simulate_tags.dead_time_removed"] = tracing.dead_time_removed(tracer)
        report["spans"] = tracer.spans
    print(json.dumps(report))


if __name__ == "__main__":
    main()
