"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch against the underlying
definitions (textbook eigenvalue equation, closed-form Gaussian integrals,
O(n^2) pair counting) rather than importing package internals, so agreement
is meaningful.
"""

import json
import math
import struct
from pathlib import Path

import numpy as np
from scipy.special import j0, j1, jv, jvp, k0e, k1e, kv, kve, kvp

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


# --- the HE11 solver as the package ran it before it solved in w -------------


def scan_bisect_he11(n1, n2, ak0):
    """HE11 n_eff for each column of the ``n1``, ``n2``, ``a*k0`` arrays, NaN
    where there is no root: the package's earlier solver in one block.  It scans
    the pole-free characteristic function h(n_eff) on max(512, V^2/2) uniform
    points between the same clips (n_eff^2 above n2^2 + 2e-9 (n1^2 - n2^2), below
    n1^2 - 1e-8 (n1^2 - n2^2)), takes the last sign change (HE11 has the largest
    n_eff of the HE1n roots) and bisects it 46 times in n_eff, with the same
    j0/j1/k0e/k1e kernels."""
    n1sq, n2sq = n1**2, n2**2
    nu = n2sq / n1sq

    def h(neff):
        u = ak0 * np.sqrt(n1sq - neff**2)
        w = ak0 * np.sqrt(neff**2 - n2sq)
        ju0, ju1 = j0(u), j1(u)
        k0, k1 = k0e(w), k1e(w)
        kk = -(k0 + (k0 + (2.0 / w) * k1)) / (2.0 * w * k1)
        csq = (1.0 / u**2 + 1.0 / w**2) * (1.0 / u**2 + nu / w**2)
        mid = -kk * (1.0 + nu) / 2.0
        split = np.sqrt((kk * (1.0 - nu) / 2.0) ** 2 + csq)
        return (ju0 - (1 / u) * ju1) - (mid - split) * u * ju1

    dx = n1sq - n2sq
    n_lo, n_hi = np.sqrt(n2sq + 2e-9 * dx), np.sqrt(n1sq - 1e-8 * dx)
    points = max(512, int(np.ceil(0.5 * np.max(ak0 * np.sqrt(dx)) ** 2)))
    grid = n_lo + np.linspace(0.0, 1.0, points)[:, None] * (n_hi - n_lo)
    cols = np.arange(grid.shape[1])
    with np.errstate(all="ignore"):
        vals = h(grid)
        flips = np.signbit(vals[:-1]) != np.signbit(vals[1:])
        last = points - 2 - np.argmax(flips[::-1], axis=0)
        lo, hi, flo = grid[last, cols], grid[last + 1, cols], vals[last, cols]
        for _ in range(46):
            mid = 0.5 * (lo + hi)
            same = np.signbit(h(mid)) == np.signbit(flo)
            lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return np.where(flips.any(axis=0), 0.5 * (lo + hi), np.nan)


# --- the HE11 solver as the package ran it before its inverse-quadratic steps --


def bisect_logw_he11(n1, ak0):
    """HE11 n_eff for each column of the ``n1``, ``a*k0`` arrays of a rod in air,
    NaN where the clipped bracket is empty or its ends have one sign: the
    package's earlier solver in one block.  It bisects the pole-free h(w), with
    u = sqrt((V - w)(V + w)), 60 times at the geometric mean of the bracket
    [max(sqrt(2e-9) V, sqrt(V^2 - j01^2)), sqrt(1 - 1e-8) V] and takes the
    geometric mean of the last bracket, with the same j0/j1/k0e/k1e kernels."""
    nu = 1.0 / n1**2
    v = ak0 * np.sqrt(n1**2 - 1.0)
    j01 = 2.404825557695773

    def h(w):
        u = np.sqrt((v - w) * (v + w))
        ju0, ju1 = j0(u), j1(u)
        k0, k1 = k0e(w), k1e(w)
        kk = -(k0 + (k0 + (2.0 / w) * k1)) / (2.0 * w * k1)
        csq = (1.0 / u**2 + 1.0 / w**2) * (1.0 / u**2 + nu / w**2)
        mid = -kk * (1.0 + nu) / 2.0
        split = np.sqrt((kk * (1.0 - nu) / 2.0) ** 2 + csq)
        return (ju0 - (1 / u) * ju1) - (mid - split) * u * ju1

    with np.errstate(all="ignore"):
        lo = np.maximum(v * np.sqrt(2e-9), np.sqrt(np.maximum((v - j01) * (v + j01), 0.0)))
        hi = v * np.sqrt(1.0 - 1e-8)
        flo, fhi = h(lo), h(hi)
        for _ in range(60):
            mid = np.sqrt(lo) * np.sqrt(hi)
            same = np.signbit(h(mid)) == np.signbit(flo)
            lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
        w = np.sqrt(lo) * np.sqrt(hi)
    guided = (lo < hi) & (np.signbit(flo) != np.signbit(fhi))
    return np.where(guided, np.sqrt(1.0 + (w / ak0) ** 2), np.nan)


# --- references for the package's Bessel kernels ------------------------------
# dispersion._bessel_j and _bessel_k evaluate J_0, J_1 on HE11's core range
# [0, 2.5] and K_0 e^x, K_1 e^x for x > 0 from polynomials of their own.
# scipy's cephes functions are the references, in ulps of the reference,
# except near J_0's zero j01: cephes' j0 is accurate there in absolute terms
# only (1.5e9 ulp off within 1e-5 of j01), so mpmath is the reference there.


def bessel_ulps(value, reference):
    """|value - reference| in units of the reference's last place."""
    return np.abs(value - reference) / np.spacing(np.abs(reference))


def bessel_j_scipy(x):
    return j0(x), j1(x)


def bessel_ke_scipy(x):
    return k0e(x), k1e(x)


def bessel_j_mpmath(x):
    """J_0 and J_1 at each double of ``x``, from mpmath at 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        return tuple(np.array([float(mpmath.besselj(n, mpmath.mpf(float(t)))) for t in x])
                     for n in (0, 1))


# --- general-order Bessel forms of the mode solver's kernels ------------------
# The package evaluates J and K through order-specialised kernels (its own
# J_0/J_1 and K_0/K_1 and recurrences).  These are the same formulas written
# with scipy's general-order jv/jvp/kve for every order.


def he11_char_fn_general(nu, v):
    """Pole-free HE11 characteristic function h(w) with jv, jvp and kve, where
    u = sqrt((V - w)(V + w)) and nu = n2^2/n1^2.  Like the package's, it returns
    h and the size of its terms, |J_0| + |J_1/u| + (|mid| + split) u |J_1|."""

    def h(w):
        u = np.sqrt((v - w) * (v + w))
        kk = -(kve(0, w) + kve(2, w)) / (2.0 * w * kve(1, w))
        csq = (1.0 / u**2 + 1.0 / w**2) * (1.0 / u**2 + nu / w**2)
        mid = -kk * (1.0 + nu) / 2.0
        split = np.sqrt((kk * (1.0 - nu) / 2.0) ** 2 + csq)
        ju1 = jv(1, u)
        terms = np.abs(jv(0, u)) + np.abs(ju1 / u) + (np.abs(mid) + split) * u * np.abs(ju1)
        return jvp(1, u) - (mid - split) * u * ju1, terms

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


def poisson_hot(rng, mu, count):
    """Indices and pair counts of the non-empty pulses, from one Poisson
    variate per pulse."""
    pairs = rng.poisson(mu, count)
    hot = np.nonzero(pairs)[0]
    return hot, pairs[hot]


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


# --- per-record integer text: the tag writers before the numpy layout ---------


def write_tags_text_records(stream, path):
    """Tag text file with one ``f"{c}\\t{t}\\n"`` string per record."""
    with open(path, "w", newline="\n") as f:
        f.write(f"#tick_ps {round(stream.tick_duration * 1e12)}\n")
        f.write("".join(f"{c}\t{t}\n" for c, t in
                        zip(stream.channels.tolist(), stream.timestamps.tolist())))


def write_tags_binary_records(stream, path):
    """TTAG1 file: the magic, the tick in femtoseconds, one ``struct.pack`` per record."""
    with open(path, "wb") as f:
        f.write(b"TTAG1" + struct.pack("<I", round(stream.tick_duration * 1e15)))
        f.write(b"".join(struct.pack("<BQ", c, t) for c, t in
                         zip(stream.channels.tolist(), stream.timestamps.tolist())))


def write_coincidence_csv_records(hist, path):
    """Coincidence CSV with one ``f"{d},{c}\\n"`` string per bin."""
    head = [
        f"# bin_width_ticks {hist.bin_width}",
        f"# delay_range_ticks {hist.delay_range}",
        f"# tick_duration_s {hist.tick_duration!r}",
        f"# duration_ticks {hist.duration_ticks}",
        f"# channels {hist.ch_a},{hist.ch_b}",
        f"# singles {hist.n_ch_a},{hist.n_ch_b}",
        "delay_ticks,count",
    ]
    with open(path, "w", newline="\n") as f:
        f.write("".join(line + "\n" for line in head))
        f.write("".join(f"{d},{c}\n" for d, c in
                        zip(hist.delay_centers.tolist(), hist.counts.tolist())))


def write_coincidence_json_lists(hist, path):
    """Coincidence JSON from one ``json.dumps`` with both per-bin lists as Python lists."""
    Path(path).write_text(json.dumps({
        "schema": "taperfwm.coincidences/1",
        "bin_width_ticks": hist.bin_width,
        "delay_range_ticks": hist.delay_range,
        "tick_duration_s": hist.tick_duration,
        "duration_ticks": hist.duration_ticks,
        "ch_a": hist.ch_a,
        "ch_b": hist.ch_b,
        "n_ch_a": hist.n_ch_a,
        "n_ch_b": hist.n_ch_b,
        "delay_ticks": hist.delay_centers.tolist(),
        "counts": hist.counts.tolist(),
    }, sort_keys=True, separators=(",", ":")) + "\n")


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


# --- four-mode overlap: every grid point's own n_eff ----------------------------


def eta_per_point(cross_section, omega_p, ws, wi):
    """eta[signal, idler] at every point of the (ws, wi) grid, each n_eff from
    a direct solve (``_solve_many``), on the package's ``_quad_nodes`` rule:
    the per-point path that the package's Chebyshev-node interpolant replaces.
    The rule's decay scale takes the pump's w twice and, for signal and idler,
    the w at the centre of the span the package's n_eff tables cover (every
    frequency the grid's four waves reach)."""
    from taperfwm.biphoton import _quad_nodes
    from taperfwm.dispersion import _solve_many, _transverse_params, batch_field_matrix

    ends = np.array([ws[0], ws[-1], wi[0], wi[-1], omega_p,
                     ws[0] + wi[0] - omega_p, ws[-1] + wi[-1] - omega_p])
    mid = 0.5 * (ends.min() + ends.max())
    n_p, n_mid = _solve_many(cross_section, np.array([omega_p, mid]))
    w_p = _transverse_params(cross_section, omega_p, n_p)[1]
    w_mid = _transverse_params(cross_section, mid, n_mid)[1]
    r, weights = _quad_nodes(cross_section.diameter / 2.0, float(2.0 * w_p + w_mid + w_mid))
    u_p = batch_field_matrix(cross_section, np.array([omega_p]), np.array([n_p]), r)[0]
    u_s, u_i = (batch_field_matrix(cross_section, axis, _solve_many(cross_section, axis), r)
                for axis in (ws, wi))
    return u_s @ (weights * u_p**2 * u_i).T


# --- phase matching: the whole-grid segment sum before row bands ---------------


def sinc_exp_terms(half, length, eta):
    """A segment's ``(base, step)`` from numpy's sinc and complex exponential."""
    return length * np.sinc(half / np.pi) * np.exp(1j * half) * eta, np.exp(2j * half)


def segment_sum_loop(segmented, grid, omega_p, eta_mode):
    """Phase-matching sum and eta bound, summed over whole-grid arrays.

    The segment terms come from the package's own helpers; only the
    summation, one full-grid multiply-add per segment, is the reference.
    """
    from taperfwm.biphoton import ModeBank, _eta, _eta_factors, _eta_rows, _phase_terms
    from taperfwm.dispersion import C_VAC, CrossSection, DispersionError, NoGuidedModeError

    if eta_mode not in ("per_point", "center"):
        raise ValueError(f"eta_mode must be 'per_point' or 'center', got {eta_mode!r}")
    ws, wi = grid.signal_omega, grid.idler_omega
    omega_r = ws[:, None] + wi[None, :] - omega_p
    if np.any(omega_r <= 0):
        raise ValueError("grid reaches non-positive returned pump frequencies")
    bank = ModeBank(ws[0], ws[-1], wi[0], wi[-1], omega_p,
                    ws[0] + wi[0] - omega_p, ws[-1] + wi[-1] - omega_p)

    length = segmented.segment_length
    total = np.zeros((ws.size, wi.size), dtype=complex)
    suffix = np.ones_like(total)  # exp(i * sum of later segments' dk * l)
    cache: dict[CrossSection, tuple[np.ndarray, np.ndarray]] = {}
    eta_bound = 0.0

    # Sum the segment terms from the output end backwards so the running
    # suffix phase needs one complex multiply per segment.
    for q in reversed(range(segmented.n_segments)):
        cs = segmented.segments[q]
        if cs not in cache:
            try:
                table = bank.table(cs)
                k_p = float(omega_p * table(omega_p) / C_VAC)
                k_r = omega_r * table(omega_r) / C_VAC
                k_s = ws * table(ws) / C_VAC
                k_i = wi * table(wi) / C_VAC
                if eta_mode == "per_point":
                    mid = 0.5 * (table.knots[0] + table.knots[-1])
                    (factor,) = _eta_factors([cs], omega_p, mid, ws, wi)
                    if isinstance(factor, DispersionError):
                        raise factor
                    eta = _eta_rows(factor, slice(None))
                else:
                    ends_s = np.array([0.5 * (ws[0] + ws[-1]), ws[0], ws[-1]])
                    ends_i = np.array([0.5 * (wi[0] + wi[-1]), wi[0], wi[-1]])
                    probe = _eta(table, omega_p, ends_s, ends_i)
                    eta = probe[0, 0]
                    eta_bound = max(
                        eta_bound, float(np.max(np.abs(probe[1:, 1:] / probe[0, 0] - 1.0)))
                    )
            except NoGuidedModeError as err:
                raise NoGuidedModeError(
                    f"segment {q} (diameter {cs.diameter*1e9:.1f} nm): {err}"
                ) from err
            dk = k_p + k_r - k_s[:, None] - k_i[None, :]
            cache[cs] = _phase_terms(0.5 * dk * length, length, eta)
        base, step = cache[cs]
        total += base * suffix
        suffix = suffix * step

    return total, (eta_bound if eta_mode == "center" else None)
