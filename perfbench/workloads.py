"""The four workloads: their inputs, made from a seed, and the CLI commands that use them.

Each workload is one closed-loop round of ``taperfwm`` commands, run one after
the other in a fresh interpreter.  ``make_job`` writes the inputs for a seed
and returns the job: the commands, the files they read and write, and the
parameters the output checks need.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Sizes are chosen so that one round takes 2-4 s on one core and a run of
# 20 s holds at least four rounds; README.md gives the reasons.
JSI_MEASURED = {"n_segments": 16, "grid_points": 256, "eta_mode": "per_point"}
JSI_UNIFORM = {
    "diameter_nm": 900.0,
    "length_mm": 14.0,
    "n_segments": 100,
    "grid_points": 768,
    "eta_mode": "per_point",
}
# Pulses are 54 ns apart; durations are exact multiples of that period.
TAGS = {
    "tags_deadtime": {"duration_s": 2.16, "dead_time_us": 15.0, "suffix": ".bin",
                      "delay_range_ticks": 2670},
    "tags_text_wide": {"duration_s": 1.08, "dead_time_us": 0.0, "suffix": ".txt",
                       # +-100 us in 81 ps ticks, rounded to the 10-tick bin width
                       "delay_range_ticks": 1_234_570},
}
MEAN_PAIRS_PER_PULSE = 0.05

WORKLOADS = ("jsi_measured", "jsi_uniform_hires", "tags_deadtime", "tags_text_wide")

JSI_OUTPUTS = ("phase_matching.csv", "pump.csv", "jsi.csv", "marginals.csv", "schmidt.json")
TAG_RESULTS = ("coincidences.csv", "coincidences.json", "car.json", "g2h.csv", "g2h.json")


def pump_fwhm_nm(seed: int) -> float:
    """Pump spectral FWHM of the JSI workloads: uniform in [1.5, 2.5] nm.

    It changes the JSI, its peak and its Schmidt number, but not the
    dispersion work, which depends only on the grid windows and the pump
    centre.
    """
    return round(1.5 + random.Random(seed).random(), 6)


def make_job(name: str, seed: int, root: Path, work: Path) -> dict:
    """Write the inputs of workload ``name`` for ``seed`` under ``work``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
    work.mkdir(parents=True, exist_ok=True)
    out = work / "out"
    job = {"workload": name, "seed": seed, "src": str(root / "src"), "out_dir": str(out)}
    if name.startswith("jsi_"):
        config = dict(JSI_MEASURED if name == "jsi_measured" else JSI_UNIFORM)
        if name == "jsi_measured":
            config["profile"] = str(root / "data" / "measured_profile.txt")
        config["pump_fwhm_nm"] = pump_fwhm_nm(seed)
        config["out_dir"] = str(out)
        config_path = work / "run.json"
        config_path.write_text(json.dumps(config, indent=1) + "\n")
        job["config"] = config
        job["commands"] = [["jsi", "-c", str(config_path)]]
        job["inputs"] = [str(config_path)] + ([config["profile"]] if "profile" in config else [])
        job["outputs"] = [str(out / f) for f in JSI_OUTPUTS]
        return job

    spec = TAGS[name]
    tags_file = str(work / ("tags" + spec["suffix"]))
    simulate = ["tags", "simulate", "--duration_s", repr(spec["duration_s"]),
                "--mean_pairs_per_pulse", repr(MEAN_PAIRS_PER_PULSE),
                "--dead_time_us", repr(spec["dead_time_us"]),
                "--seed", str(seed), "--tags_out", tags_file]
    coincidences = ["tags", "coincidences", "--tags_in", tags_file, "--out_dir", str(out),
                    "--delay_range_ticks", str(spec["delay_range_ticks"])]
    g2h = ["tags", "g2h", "--tags_in", tags_file, "--out_dir", str(out)]
    job["config"] = {**spec, "mean_pairs_per_pulse": MEAN_PAIRS_PER_PULSE, "seed": seed,
                     "tags_file": tags_file}
    job["commands"] = [simulate, coincidences, g2h]
    job["inputs"] = []
    job["outputs"] = [tags_file] + [str(out / f) for f in TAG_RESULTS]
    return job
