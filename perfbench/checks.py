"""Output checks, each made apart from the program or from a property its method must have.

``run_checks(job)`` reads the files a round wrote and returns the number of
checks passed and a message for each one that failed; it raises when the
files cannot be read at all.  Statistical checks use bands whose chance of
failing on a correct run is at most 1e-6 for the whole family of values they
test, so that no seed fails them by chance.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from statistics import NormalDist

import numpy as np

import oracle

C_VAC = oracle.C_VAC
PUMP_NM = 1062.0
SIGNAL_NM = (850.0, 950.0)
IDLER_NM = (1250.0, 1450.0)
# The tag simulator's CLI defaults: tick, pulse period, herald and signal
# transmittances and the splitter ratio.
TICK_S = 81e-12
TICK_FS = 81_000
REP_PERIOD_NS = 54.0
Q_HERALD, T_SIGNAL, SPLIT = 0.1, 0.4, 0.47
BIN_WIDTH, G2_WINDOW, G2_M_MAX = 10, 10, 10
FAMILY_ALPHA = 1e-6
# Values are compared relative to themselves; only those that may have lost
# precision to underflow are compared absolutely.
TINY = 1e-290
SLICE_RECORDS = 2000


def band(n_values: int) -> float:
    """Gaussian z for which n_values two-sided tests all pass with probability 1 - FAMILY_ALPHA."""
    return NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2.0 * n_values))


def relative_error(actual, expected) -> float:
    return float(np.max(np.abs(actual - expected) / np.maximum(np.abs(expected), TINY)))


class Verdicts:
    def __init__(self):
        self.passed = 0
        self.failures: list[str] = []

    def check(self, ok, message: str) -> None:
        if bool(ok):
            self.passed += 1
        else:
            self.failures.append(message)


# -- JSI workloads ----------------------------------------------------------------


def read_matrix_csv(path):
    comments, rows = [], []
    for line in Path(path).read_text().splitlines():
        (comments if line.startswith("#") else rows).append(line)
    idler = np.array(rows[0].split(",")[1:], dtype=float)
    body = np.array([row.split(",") for row in rows[1:]], dtype=float)
    return body[:, 0], idler, body[:, 1:], comments


def omega_axis(window_nm, n):
    return np.linspace(2.0 * math.pi * C_VAC / (window_nm[1] * 1e-9),
                       2.0 * math.pi * C_VAC / (window_nm[0] * 1e-9), n)


def check_jsi(job: dict, v: Verdicts) -> None:
    config = job["config"]
    out = Path(job["out_dir"])
    n = config["grid_points"]
    ws, wi, pump, _ = read_matrix_csv(out / "pump.csv")
    ws_pm, wi_pm, pm, _ = read_matrix_csv(out / "phase_matching.csv")
    ws_j, wi_j, jsi, comments = read_matrix_csv(out / "jsi.csv")
    v.check(pump.shape == pm.shape == jsi.shape == (n, n), f"matrix shapes {pump.shape}, {pm.shape}, {jsi.shape}")
    v.check(all(np.array_equal(a, b) for a, b in ((ws, ws_pm), (ws, ws_j), (wi, wi_pm), (wi, wi_j))),
            "the three matrices do not share their axes")
    v.check(np.allclose(ws, omega_axis(SIGNAL_NM, n), rtol=1e-13, atol=0)
            and np.allclose(wi, omega_axis(IDLER_NM, n), rtol=1e-13, atol=0),
            "axes are not uniform in omega over the wavelength windows")

    # Gaussian pump: |sigma sqrt(pi) exp(-(ws + wi - 2 w0)^2 / (4 sigma^2))|^2, with
    # sigma the amplitude width that a FWHM of the intensity spectrum gives.
    lam0 = PUMP_NM * 1e-9
    omega0 = 2.0 * math.pi * C_VAC / lam0
    sigma = math.pi * C_VAC * config["pump_fwhm_nm"] * 1e-9 / (lam0**2 * math.sqrt(math.log(2.0)))
    detune = ws[:, None] + wi[None, :] - 2.0 * omega0
    expected_pump = math.pi * sigma**2 * np.exp(-detune**2 / (2.0 * sigma**2))
    v.check(np.allclose(pump, expected_pump, rtol=1e-9, atol=TINY),
            f"pump.csv differs from the closed form by {relative_error(pump, expected_pump):.2e}")

    product = pump * pm
    peak = float(product.max())
    v.check(peak > 0 and np.allclose(jsi, product / peak, rtol=1e-9, atol=TINY),
            f"jsi.csv differs from pump x phase matching by {relative_error(jsi, product / peak):.2e}")
    raw = [float(c.split()[-1]) for c in comments if c.startswith("# raw_peak_intensity")]
    v.check(raw and math.isclose(raw[0], peak, rel_tol=1e-9), f"raw peak {raw} is not {peak!r}")

    lines = (out / "marginals.csv").read_text().splitlines()[2:]
    blocks = {"signal": [], "idler": []}
    for line in lines:
        axis, omega, weight = line.split(",")
        blocks[axis].append((float(omega), float(weight)))
    for axis, grid, sums in (("signal", ws, jsi.sum(axis=1)), ("idler", wi, jsi.sum(axis=0))):
        block = np.array(blocks[axis])
        v.check(block.shape == (n, 2) and np.array_equal(block[:, 0], grid), f"{axis} marginal axis")
        v.check(abs(block[:, 1].sum() - 1.0) <= 1e-9, f"{axis} marginal sums to {float(block[:, 1].sum())!r}")
        v.check(np.allclose(block[:, 1], sums / sums.sum(), rtol=1e-9, atol=TINY),
                f"{axis} marginal differs from the JSI sums")

    report = json.loads((out / "schmidt.json").read_text())
    lam = np.array(report["schmidt_coefficients"])
    k = report["schmidt_number"]
    tail = 1.0 - lam.sum()
    v.check(k >= 1.0 and abs(report["heralded_purity"] * k - 1.0) <= 1e-12, f"K = {k!r}")
    v.check(np.all(lam >= 0) and np.all(np.diff(lam) <= 0), "Schmidt coefficients not descending")
    # The unlisted coefficients are each at most the last listed one.
    v.check(-1e-12 <= tail <= (report["n_coefficients_total"] - lam.size) * lam[-1] + 1e-12,
            f"Schmidt coefficients sum to {lam.sum()!r}, not 1")
    v.check((lam**2).sum() <= (1.0 / k) * (1 + 1e-9) <= (lam**2).sum() + tail * lam[-1] + 1e-12,
            f"K = {k!r} does not match its coefficients")
    v.check(report["grid_points"] == [n, n] and report["n_segments"] == config["n_segments"]
            and report["eta_mode"] == config["eta_mode"], "schmidt.json echoes the wrong run")

    i, j = np.unravel_index(int(np.argmax(jsi)), jsi.shape)
    step = (ws[1] - ws[0]) + (wi[1] - wi[0])
    off_line = ws[i] + wi[j] - 2.0 * omega0
    v.check(abs(off_line) <= 2.0 * sigma + step,
            f"JSI peak is {off_line / sigma:.2f} pump widths off the energy-conservation line")

    if "diameter_nm" in config:
        check_uniform_waist(job, ws, wi, pm, jsi, omega0, v)


def check_uniform_waist(job, ws, wi, pm, jsi, omega0, v: Verdicts) -> None:
    """Identical segments: the sum is one segment of the full length."""
    from taperfwm.biphoton import delta_k, overlap_integral
    from taperfwm.dispersion import CrossSection, solve_mode

    config = job["config"]
    diameter = config["diameter_nm"] * 1e-9
    length = config["length_mm"] * 1e-3

    ws_star, wi_star = oracle.zero_mismatch_pair(diameter, omega0, (ws[0], ws[-1]))
    i, j = np.unravel_index(int(np.argmax(jsi)), jsi.shape)
    i_star, j_star = int(np.argmin(np.abs(ws - ws_star))), int(np.argmin(np.abs(wi - wi_star)))
    v.check(abs(i - i_star) <= 2 and abs(j - j_star) <= 2,
            f"JSI peak at grid ({i}, {j}), zero-mismatch pair at ({i_star}, {j_star})")

    n = ws.size
    rows = np.linspace(0, n - 1, 12).astype(int)
    cols = np.argmax(pm[rows], axis=1)  # the phase-matching ridge
    rng = np.random.default_rng(job["seed"])
    rows = np.concatenate([rows, rng.integers(0, n, 8), [i]])
    cols = np.concatenate([cols, rng.integers(0, n, 8), [j]])
    cross_section = CrossSection(diameter)
    dk = delta_k(cross_section, omega0, ws[rows], wi[cols])
    pump_mode = solve_mode(cross_section, omega0)
    eta = np.array([overlap_integral(pump_mode, pump_mode, solve_mode(cross_section, ws[r]),
                                     solve_mode(cross_section, wi[c]))
                    for r, c in zip(rows, cols)])
    closed = (length * np.sinc(dk * length / (2.0 * math.pi)) * eta) ** 2
    scale = float(np.max((length * eta) ** 2))
    worst = float(np.max(np.abs(pm[rows, cols] - closed)))
    # n_eff tables are exact to 5e-9, which moves dk L / 2 by about 1e-3 rad.
    v.check(worst <= 2e-3 * scale,
            f"phase matching differs from the single-segment closed form by {worst / scale:.2e} of its peak")


# -- tag workloads ----------------------------------------------------------------


def read_tags(path):
    """(channels, ticks, tick in femtoseconds) of a text or TTAG1 binary tag file."""
    data = Path(path).read_bytes()
    if data.startswith(b"TTAG1"):
        records = np.frombuffer(data[9:], dtype=np.dtype([("channel", "u1"), ("ticks", "<u8")]))
        return (records["channel"].astype(np.int64), records["ticks"].astype(np.int64),
                int.from_bytes(data[5:9], "little"))
    lines = data.decode().splitlines()
    tick_fs = int(lines[0].split()[1]) * 1000 if lines[0].startswith("#tick_ps") else TICK_FS
    body = [line for line in lines if line and not line.startswith("#")]
    fields = np.array("\t".join(body).split("\t"), dtype=np.int64)
    if fields.size != 2 * len(body):
        raise ValueError(f"{path}: a record does not have two fields")
    return fields[0::2], fields[1::2], tick_fs


def simulation(job: dict, dead_time_us: float):
    """The CLI's simulation of this job, with the given dead time."""
    from taperfwm.tags import SimulationConfig, simulate_tags

    config = job["config"]
    stream = simulate_tags(SimulationConfig(
        duration=config["duration_s"], mean_pairs_per_pulse=config["mean_pairs_per_pulse"],
        rep_period=REP_PERIOD_NS * 1e-9, dead_time=dead_time_us * 1e-6, seed=config["seed"]))
    return stream.channels.astype(np.int64), stream.timestamps.astype(np.int64)


def dead_time_filter(ticks, dead_ticks: float):
    """Non-paralyzable dead time: a click is kept iff it comes at least
    dead_ticks after the last kept click."""
    kept, last = [], None
    for t in ticks.tolist():
        if last is None or t - last >= dead_ticks:
            kept.append(t)
            last = t
    return np.array(kept, dtype=np.int64)


def merged(per_channel: dict):
    ch = np.concatenate([np.full(t.size, c, dtype=np.int64) for c, t in per_channel.items()])
    ts = np.concatenate(list(per_channel.values()))
    order = np.lexsort((ch, ts))
    return ch[order], ts[order]


def pair_histogram(ta, tb, bin_width: int, delay_range: int):
    """Histogram of tb - ta over all pairs within range.

    Both channels are merged into one time-ordered sequence and each event is
    paired with its k-th successor for k = 1, 2, ..., until no successor is
    within range; each (a, b) pair is met once, from its earlier event.
    """
    t = np.concatenate([ta, tb])
    is_b = np.concatenate([np.zeros(ta.size, bool), np.ones(tb.size, bool)])
    order = np.argsort(t, kind="stable")
    t, is_b = t[order], is_b[order]
    half = delay_range // bin_width
    counts = np.zeros(2 * half + 1, dtype=np.int64)
    for k in range(1, t.size):
        gap = t[k:] - t[:-k]
        near = gap <= delay_range
        if not near.any():
            break
        a_first = near & ~is_b[:-k] & is_b[k:]
        b_first = near & is_b[:-k] & ~is_b[k:]
        delays = np.concatenate([gap[a_first], -gap[b_first]])
        bins = np.floor_divide(2 * delays + bin_width, 2 * bin_width) + half
        counts += np.bincount(bins, minlength=counts.size)
    return counts


def brute_histogram(ta, tb, bin_width: int, delay_range: int):
    half = delay_range // bin_width
    counts = [0] * (2 * half + 1)
    for a in ta.tolist():
        for b in tb.tolist():
            if abs(b - a) <= delay_range:
                counts[math.floor((2 * (b - a) + bin_width) / (2 * bin_width)) + half] += 1
    return np.array(counts, dtype=np.int64)


def heralded_triples(th, ta, tb):
    """Triples A_i B_(i+m) over heralds i, with A_i true when arm A clicked
    in any of the G2_WINDOW ticks starting G2_WINDOW // 2 before herald i."""
    offsets = np.arange(G2_WINDOW) - G2_WINDOW // 2
    a = np.isin(th[:, None] + offsets, ta).any(axis=1).astype(np.int64)
    b = np.isin(th[:, None] + offsets, tb).any(axis=1).astype(np.int64)
    m = np.arange(min(G2_M_MAX, th.size - 1) + 1)
    return np.array([a[: th.size - s] @ b[s:] for s in m]), int(a.sum()), int(b.sum())


def check_tags(job: dict, v: Verdicts) -> None:
    from taperfwm.tags import TagStream, coincidence_histogram, parse_tags

    config = job["config"]
    out = Path(job["out_dir"])
    ch, ts, tick_fs = read_tags(config["tags_file"])
    v.check(tick_fs == TICK_FS, f"tick is {tick_fs} fs")
    by_channel = {c: ts[ch == c] for c in (1, 2, 3)}

    if config["dead_time_us"] > 0:
        dead_ticks = config["dead_time_us"] * 1e-6 / TICK_S
        for c, t in by_channel.items():
            v.check(t.size > 1 and np.diff(t).min() >= dead_ticks,
                    f"channel {c}: clicks closer than the dead time")
        ch0, ts0 = simulation(job, 0.0)
        filtered = merged({c: dead_time_filter(ts0[ch0 == c], dead_ticks) for c in (1, 2, 3)})
        v.check(np.array_equal(filtered[0], ch) and np.array_equal(filtered[1], ts),
                "the stream is not the dead-time-free stream of the same seed, filtered")
        parsed = parse_tags(config["tags_file"])
        v.check(np.array_equal(parsed.channels, ch) and np.array_equal(parsed.timestamps, ts),
                "parse_tags does not read the binary file back as written")
    else:
        expected = simulation(job, 0.0)
        v.check(np.array_equal(expected[0], ch) and np.array_equal(expected[1], ts),
                "the text file does not parse back to the simulated stream")

    delay_range = config["delay_range_ticks"]
    hist = json.loads((out / "coincidences.json").read_text())
    counts = np.array(hist["counts"], dtype=np.int64)
    ta, tb = by_channel[1], by_channel[2]
    v.check(hist["n_ch_a"] == ta.size and hist["n_ch_b"] == tb.size, "coincidence singles")
    v.check(np.array_equal(counts, pair_histogram(ta, tb, BIN_WIDTH, delay_range)),
            "coincidence histogram differs from the merged-sequence count")

    g2 = json.loads((out / "g2h.json").read_text())
    triples, singles_a, singles_b = heralded_triples(by_channel[2], ta, by_channel[3])
    n_heralds = by_channel[2].size
    v.check(g2["triples"] == triples.tolist() and g2["singles_a"] == singles_a
            and g2["singles_b"] == singles_b and g2["n_heralds"] == n_heralds,
            f"g2h triples {g2['triples']} differ from {triples.tolist()}")
    v.check(np.allclose(g2["g2"], triples * n_heralds / (singles_a * singles_b), rtol=1e-12, atol=0),
            "g2h values do not follow from their counts")

    if config["dead_time_us"] == 0:
        check_source_statistics(job, counts, g2, v)
        head = slice(0, SLICE_RECORDS)
        piece = TagStream(ch[head], ts[head])
        program = coincidence_histogram(piece, 1, 2, bin_width=BIN_WIDTH, delay_range=delay_range)
        v.check(np.array_equal(program.counts,
                               brute_histogram(piece.channel_timestamps(1), piece.channel_timestamps(2),
                                               BIN_WIDTH, delay_range)),
                "coincidence_histogram differs from the all-pairs loop on a slice")


def check_source_statistics(job, counts, g2, v: Verdicts) -> None:
    """Dead-time-free, dark-free, jitter-free source: closed-form expectations."""
    config = job["config"]
    mu = config["mean_pairs_per_pulse"]
    p_a, p_b = T_SIGNAL * SPLIT, T_SIGNAL * (1.0 - SPLIT)
    p = oracle.click_probabilities(mu, Q_HERALD, p_a, p_b)
    n_pulses = round(config["duration_s"] / (REP_PERIOD_NS * 1e-9))

    values = np.array(g2["g2"])
    n_h, s_a, s_b = g2["n_heralds"], g2["singles_a"], g2["singles_b"]
    m = np.arange(values.size)
    expected = np.where(m == 0, oracle.g2h_zero(mu, Q_HERALD, p_a, p_b), (n_h - m) / n_h)
    sigma = expected / np.sqrt(expected * s_a * s_b / n_h)
    z = band(values.size)
    worst = int(np.argmax(np.abs(values - expected) / sigma))
    v.check(np.all(np.abs(values - expected) <= z * sigma),
            f"g2h({worst}) = {values[worst]:.4f}, expected {expected[worst]:.4f} +- {z:.1f} x {sigma[worst]:.4f}")

    # Comb peaks: all pairs whose pulses are m periods apart land within a
    # tick of m * period; nothing lands elsewhere.
    rep_ticks = REP_PERIOD_NS * 1e-9 / TICK_S
    half = counts.size // 2
    centers = (np.arange(counts.size) - half) * BIN_WIDTH
    nearest = np.rint(centers / rep_ticks)
    on_comb = np.abs(centers - nearest * rep_ticks) <= BIN_WIDTH
    v.check(counts[~on_comb].sum() == 0, f"{counts[~on_comb].sum()} coincidences off the pulse comb")
    shifts = np.unique(nearest[on_comb]).astype(np.int64)
    peaks = np.bincount((nearest[on_comb] - shifts[0]).astype(np.int64),
                        weights=counts[on_comb])[shifts - shifts[0]]
    lam = np.where(shifts == 0, n_pulses * p["AH"], (n_pulses - np.abs(shifts)) * p["A"] * p["H"])
    z = band(shifts.size)
    worst = int(np.argmax(np.abs(peaks - lam) / np.sqrt(lam)))
    v.check(np.all(np.abs(peaks - lam) <= z * np.sqrt(lam)),
            f"comb peak {shifts[worst]} holds {peaks[worst]:.0f}, expected {lam[worst]:.1f} +- {z:.1f} sigma")


def run_checks(job: dict) -> Verdicts:
    if job["src"] not in sys.path:
        sys.path.insert(0, job["src"])
    verdicts = Verdicts()
    (check_jsi if job["workload"].startswith("jsi_") else check_tags)(job, verdicts)
    return verdicts
