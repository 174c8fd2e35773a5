"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch against the underlying
definitions (textbook eigenvalue equation, closed-form Gaussian integrals,
O(n^2) pair counting) rather than importing package internals, so agreement
is meaningful.
"""

import math
from pathlib import Path

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import jv, jvp, kv, kve, kvp

# --- material: Malitson fused-silica Sellmeier, restated locally -----------

_B = (0.6961663, 0.4079426, 0.8974794)
_C = (0.0684043**2, 0.1162414**2, 9.896161**2)


def silica_index(lam_m: float) -> float:
    l2 = (lam_m * 1e6) ** 2
    return math.sqrt(1.0 + sum(b * l2 / (l2 - c) for b, c in zip(_B, _C)))


# --- mode solver oracle -----------------------------------------------------


def _product_form(neff, a, k0, n1, n2, m=1):
    """Full-vector eigenvalue equation for hybrid modes, in the pole-free
    product form (J'm + kk u Jm)(J'm + nu kk u Jm) - C^2 (u Jm)^2 with
    kk = K'm/(w Km).  Zeros are the union of the HE and EH m-family roots."""
    u = a * k0 * np.sqrt(n1**2 - neff**2)
    w = a * k0 * np.sqrt(neff**2 - n2**2)
    jm, jp = jv(m, u), jvp(m, u)
    kk = kvp(m, w) / (w * kv(m, w))
    nu = (n2 / n1) ** 2
    csq = m * m * (1.0 / u**2 + 1.0 / w**2) * (1.0 / u**2 + nu / w**2)
    ujm = u * jm
    return (jp + kk * ujm) * (jp + nu * kk * ujm) - csq * ujm**2


def dense_scan_he11(diameter: float, lam: float, points: int = 1_000_000) -> float:
    """Fundamental-mode n_eff by brute force: sign-change bracketing on a dense
    uniform n_eff grid of the product-form eigenvalue equation, refined by
    plain scalar bisection.  The fundamental is the largest root of the m=1
    family (it has no cutoff and the tightest confinement)."""
    n1, n2 = silica_index(lam), 1.0
    a, k0 = diameter / 2.0, 2.0 * math.pi / lam
    lo_edge = n2 + 1e-4 * (n1 - n2)  # clear of the w->0 cancellation zone
    hi_edge = n1 - 1e-6 * (n1 - n2)
    grid = np.linspace(lo_edge, hi_edge, points)
    with np.errstate(all="ignore"):
        vals = _product_form(grid, a, k0, n1, n2)
    sign = np.signbit(vals)
    flips = np.nonzero(sign[:-1] != sign[1:])[0]
    if flips.size == 0:
        raise ValueError(f"oracle found no guided m=1 mode at d={diameter}, lam={lam}")
    i = flips[-1]
    lo, hi, flo = grid[i], grid[i + 1], vals[i]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = float(_product_form(np.array([mid]), a, k0, n1, n2)[0])
        if math.copysign(1.0, fm) == math.copysign(1.0, flo):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- general-order Bessel forms of the mode solver's kernels ------------------
# The package evaluates J and K through order-specialised kernels (j0/j1,
# k0e/k1e and recurrences).  These are the same formulas written with the
# general-order jv/jvp/kve for every order, as the solver used them before.


def char_fn_general(family, m, n1, n2, ak0):
    """Pole-free characteristic function h(n_eff) with jv, jvp and kve."""
    n1sq = np.asarray(n1, dtype=float) ** 2
    n2sq = np.asarray(n2, dtype=float) ** 2
    ak0 = np.asarray(ak0, dtype=float)

    def h(neff):
        neff = np.asarray(neff, dtype=float)
        u = ak0 * np.sqrt(n1sq - neff**2)
        w = ak0 * np.sqrt(neff**2 - n2sq)
        if family == "TE":
            return jv(1, u) * w * kve(0, w) + kve(1, w) * u * jv(0, u)
        if family == "TM":
            return n1sq * jv(1, u) * w * kve(0, w) + n2sq * kve(1, w) * u * jv(0, u)
        kk = -(kve(m - 1, w) + kve(m + 1, w)) / (2.0 * w * kve(m, w))
        nu = n2sq / n1sq
        csq = m * m * (1.0 / u**2 + 1.0 / w**2) * (1.0 / u**2 + nu / w**2)
        mid = -kk * (1.0 + nu) / 2.0
        split = np.sqrt((kk * (1.0 - nu) / 2.0) ** 2 + csq)
        x = mid - split if family == "HE" else mid + split
        return jvp(m, u) - x * u * jv(m, u)

    return h


def field_rows_general(a, u, w, ell, r):
    """Normalized piecewise Bessel profiles, one row per (u, w) pair, with jv
    and kve: J_l(u r/a) inside, J_l(u) K_l(w r/a)/K_l(w) outside, scaled so
    that 2 pi int |g|^2 r dr = 1 by the closed-form Bessel integrals."""
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    r = np.asarray(r, dtype=float)
    i_core = 0.5 * a * a * (jv(ell, u) ** 2 - jv(ell - 1, u) * jv(ell + 1, u))
    k_ratio = (kve(ell - 1, w) * kve(ell + 1, w) - kve(ell, w) ** 2) / kve(ell, w) ** 2
    amp = 1.0 / np.sqrt(2.0 * np.pi * (i_core + 0.5 * a * a * jv(ell, u) ** 2 * k_ratio))
    out = np.empty((u.size, r.size))
    inside = r <= a
    out[:, inside] = jv(ell, u[:, None] * r[None, inside] / a)
    rr = r[~inside]
    out[:, ~inside] = (
        jv(ell, u)[:, None] / kve(ell, w)[:, None]
        * kve(ell, w[:, None] * rr[None, :] / a)
        * np.exp(-w[:, None] * (rr[None, :] / a - 1.0))
    )
    return amp[:, None] * out


# --- pump envelope by quadrature ----------------------------------------------


def pump_autoconvolution(omega0, sigma, ws, wi):
    """|int E(w) E(ws + wi - w) dw| on the (ws, wi) grid for the unit-amplitude
    Gaussian spectrum E(w) = exp(-(w - omega0)^2 / (2 sigma^2)), by the
    trapezoid rule.  The integrand is a Gaussian of width sigma/sqrt(2)
    centred on (ws + wi)/2, so each cell's +-15 sigma window tracks that
    centre; a fixed window would lose all relative accuracy in the
    far-detuned cells."""
    total = (np.asarray(ws)[:, None] + np.asarray(wi)[None, :]).ravel()
    t = np.linspace(-15.0, 15.0, 4097)
    out = np.empty(total.size)
    for start in range(0, total.size, 2048):  # bounds the (cells x nodes) block
        pair_sum = total[start : start + 2048, None]
        w = 0.5 * pair_sum + sigma * t[None, :]
        integrand = np.exp(-((w - omega0) ** 2 + (pair_sum - w - omega0) ** 2) / (2.0 * sigma**2))
        out[start : start + 2048] = np.trapezoid(integrand, dx=sigma * (t[1] - t[0]), axis=1)
    return out.reshape(len(ws), len(wi))


# --- pulsed pair-source statistics ------------------------------------------
# Closed forms for per-pulse click probabilities when the pair number N has a
# known generating function E[x^N], the idler is detected with probability q
# per pair, and each signal photon is routed to arm A with probability p_a or
# arm B with p_b (mutually exclusive).  All joint probabilities follow from
# inclusion-exclusion over "no click" events, whose per-pair survival factors
# multiply because pairs act independently.


def _pgf_poisson(mu):
    return lambda x: math.exp(-mu * (1.0 - x))


def _pgf_thermal(mu):
    return lambda x: 1.0 / (1.0 + mu * (1.0 - x))


def pulse_click_probabilities(mu, q, p_a, p_b, statistics="poisson"):
    """Per-pulse probabilities of herald/arm clicks and their coincidences."""
    gf = {"poisson": _pgf_poisson, "thermal": _pgf_thermal}[statistics](mu)
    # survival probabilities per pair for each "no click" combination
    no_h = gf(1.0 - q)
    no_a = gf(1.0 - p_a)
    no_b = gf(1.0 - p_b)
    no_ab = gf(1.0 - p_a - p_b)  # one signal photon cannot serve both arms
    no_ah = gf((1.0 - p_a) * (1.0 - q))
    no_bh = gf((1.0 - p_b) * (1.0 - q))
    no_abh = gf((1.0 - p_a - p_b) * (1.0 - q))
    p_h = 1.0 - no_h
    p_click_a = 1.0 - no_a
    p_click_b = 1.0 - no_b
    p_ah = 1.0 - no_a - no_h + no_ah
    p_bh = 1.0 - no_b - no_h + no_bh
    p_ab = 1.0 - no_a - no_b + no_ab
    p_abh = (1.0 - no_a - no_b - no_h + no_ab + no_ah + no_bh - no_abh)
    return {
        "H": p_h, "A": p_click_a, "B": p_click_b,
        "AH": p_ah, "BH": p_bh, "AB": p_ab, "ABH": p_abh,
    }


def g2h_zero_prediction(mu, q, p_a, p_b, statistics="poisson"):
    """Expected heralded g2 at zero herald separation for the pulsed source."""
    p = pulse_click_probabilities(mu, q, p_a, p_b, statistics)
    return p["ABH"] * p["H"] / (p["AH"] * p["BH"])


def car_prediction(mu, q, p_arm, statistics="poisson"):
    """Expected CAR for an arm x herald coincidence comb: same-pulse
    coincidences over the different-pulse (accidental) floor."""
    p = pulse_click_probabilities(mu, q, p_arm, 0.0, statistics)
    return p["AH"] / (p["A"] * p["H"])


# --- O(n^2) counting twins ----------------------------------------------------


def brute_force_coincidences(stream, ch_a, ch_b, bin_width, delay_range):
    """All-pairs delay histogram by nested loops; self-pairs excluded when the
    channels coincide.  Returns (delay bin centers, counts)."""
    rec = [(int(c), int(t)) for c, t in zip(stream.channels, stream.timestamps)]
    half = delay_range // bin_width
    counts = [0] * (2 * half + 1)
    a_events = [(i, t) for i, (c, t) in enumerate(rec) if c == ch_a]
    b_events = [(i, t) for i, (c, t) in enumerate(rec) if c == ch_b]
    for ia, ta in a_events:
        for ib, tb in b_events:
            if ch_a == ch_b and ia == ib:
                continue
            d = tb - ta
            if abs(d) <= delay_range:
                k = math.floor((2 * d + bin_width) / (2 * bin_width))
                counts[k + half] += 1
    centers = [k * bin_width for k in range(-half, half + 1)]
    return centers, counts


def brute_force_g2(stream, herald_ch, ch_a, ch_b, window, m_max):
    """Heralded autocorrelation by naively scanning every herald's window."""
    heralds = sorted(int(t) for c, t in zip(stream.channels, stream.timestamps)
                     if c == herald_ch)
    arm = {
        ch: sorted(int(t) for c, t in zip(stream.channels, stream.timestamps) if c == ch)
        for ch in (ch_a, ch_b)
    }

    def has_click(channel, t0):
        lo = t0 - window // 2
        return any(lo <= t < lo + window for t in arm[channel])

    a_flags = [1 if has_click(ch_a, t) else 0 for t in heralds]
    b_flags = [1 if has_click(ch_b, t) else 0 for t in heralds]
    n_h = len(heralds)
    sum_a, sum_b = sum(a_flags), sum(b_flags)
    out = []
    for m in range(min(m_max, n_h - 1) + 1):
        triples = sum(a_flags[i] * b_flags[i + m] for i in range(n_h - m))
        out.append((m, triples, triples * n_h / (sum_a * sum_b)))
    return out


# --- unvectorised twins of the tag pipeline's fast paths ----------------------


def dead_time_loop(ticks, dead_ticks):
    """Non-paralyzable dead time, one click at a time: keep a click iff it
    falls at least dead_ticks after the previously kept one.  Python ints
    compare with the float dead_ticks exactly."""
    if dead_ticks <= 0:
        return np.asarray(ticks)
    kept = []
    last = -math.inf
    for t in np.asarray(ticks).tolist():
        if t - last >= dead_ticks:
            kept.append(t)
            last = t
    return np.array(kept, dtype=np.int64)


def all_pairs_histogram(stream, ch_a, ch_b, bin_width, delay_range):
    """Delay histogram from the index arrays of every pair in range at once
    (memory grows with the number of pairs); self-pairs excluded when the
    channels coincide."""
    ta = stream.timestamps[stream.channels == ch_a]
    tb = stream.timestamps[stream.channels == ch_b]
    half = delay_range // bin_width
    if not (ta.size and tb.size):
        return np.zeros(2 * half + 1, dtype=np.int64)
    lo = np.searchsorted(ta, tb - delay_range, side="left")
    hi = np.searchsorted(ta, tb + delay_range, side="right")
    per_b = hi - lo
    b_idx = np.repeat(np.arange(tb.size), per_b)
    starts = np.concatenate(([0], np.cumsum(per_b)[:-1]))
    a_idx = np.arange(int(per_b.sum())) - np.repeat(starts, per_b) + np.repeat(lo, per_b)
    if ch_a == ch_b:
        keep = a_idx != b_idx
        a_idx, b_idx = a_idx[keep], b_idx[keep]
    delays = tb[b_idx] - ta[a_idx]
    k = np.floor_divide(2 * delays + bin_width, 2 * bin_width)
    return np.bincount((k + half).astype(np.intp), minlength=2 * half + 1).astype(np.int64)


# --- per-cell float text: the writers before the vectorised formatter ---------


def write_matrix_csv_repr(path, grid, matrix, *, name, comments=()):
    """Grid matrix CSV with one ``repr(float(v))`` call per cell."""
    lines = [f"# {name}"]
    lines += [f"# {c}" for c in comments]
    lines.append("# rows: signal_omega_rad_s; columns: idler_omega_rad_s")
    lines.append("," + ",".join(repr(float(v)) for v in grid.idler_omega))
    for i, ws in enumerate(grid.signal_omega):
        row = ",".join(repr(float(v)) for v in matrix[i])
        lines.append(f"{float(ws)!r},{row}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_marginals_csv_repr(path, signal_omega, signal_weight, idler_omega, idler_weight):
    """Two-block marginals CSV with one ``repr(float(v))`` call per value."""
    lines = ["# marginal spectra (unit sum)", "axis,omega_rad_s,weight"]
    for om, v in zip(signal_omega, signal_weight):
        lines.append(f"signal,{float(om)!r},{float(v)!r}")
    for om, v in zip(idler_omega, idler_weight):
        lines.append(f"idler,{float(om)!r},{float(v)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


# --- monotone cubic interpolation: scipy's PCHIP -------------------------------


def pchip(x, y):
    """scipy's PCHIP interpolant of y(x), NaN outside ``[x[0], x[-1]]``."""
    return PchipInterpolator(x, y, extrapolate=False)
