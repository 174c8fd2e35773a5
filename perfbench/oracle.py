"""Reference physics made apart from taperfwm, for the output checks.

Nothing here imports taperfwm.  The fused-silica Sellmeier model, the
eigenvalue equation of the fundamental mode of a glass rod in air and the
click probabilities of a pulsed Poisson pair source are restated from their
textbook definitions.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import jv, jvp, kv, kvp

C_VAC = 299792458.0

# Malitson (1965) fused silica: n^2 = 1 + sum B lam^2 / (lam^2 - L^2), lam in um.
_MALITSON = ((0.6961663, 0.0684043), (0.4079426, 0.1162414), (0.8974794, 9.896161))


def silica_index(lam_m: float) -> float:
    l2 = (lam_m * 1e6) ** 2
    return math.sqrt(1.0 + sum(b * l2 / (l2 - res * res) for b, res in _MALITSON))


def _hybrid_m1(neff, a, k0, n1):
    """m = 1 hybrid-mode eigenvalue equation of a rod (index n1) in air.

    [J1'/(u J1) + K1'/(w K1)] [J1'/(u J1) + K1'/(n1^2 w K1)]
        = (1/u^2 + 1/w^2) (1/u^2 + 1/(n1^2 w^2)),
    multiplied through by (u J1)^2 so that it has no poles.
    """
    u = a * k0 * np.sqrt(n1 * n1 - neff * neff)
    w = a * k0 * np.sqrt(neff * neff - 1.0)
    j1 = jv(1, u)
    kk = kvp(1, w) / (w * kv(1, w))
    nu = 1.0 / (n1 * n1)
    lhs = (jvp(1, u) + u * j1 * kk) * (jvp(1, u) + nu * u * j1 * kk)
    return lhs - (1.0 / u**2 + 1.0 / w**2) * (1.0 / u**2 + nu / w**2) * (u * j1) ** 2


def he11_neff(diameter: float, omega: float, scan: int = 4000) -> float:
    """Effective index of HE11: the largest root of the m = 1 equation."""
    lam = 2.0 * math.pi * C_VAC / omega
    n1 = silica_index(lam)
    a, k0 = diameter / 2.0, omega / C_VAC
    grid = np.linspace(1.0 + 1e-4 * (n1 - 1.0), n1 - 1e-6 * (n1 - 1.0), scan)
    with np.errstate(all="ignore"):
        values = _hybrid_m1(grid, a, k0, n1)
    flips = np.nonzero(np.signbit(values[:-1]) != np.signbit(values[1:]))[0]
    if flips.size == 0:
        raise ValueError(f"no guided HE11 mode at diameter {diameter}, lambda {lam}")
    i = flips[-1]
    return brentq(lambda n: _hybrid_m1(n, a, k0, n1), grid[i], grid[i + 1], xtol=1e-15, rtol=1e-15)


def zero_mismatch_pair(diameter: float, omega_p: float, signal_window: tuple) -> tuple:
    """(omega_s, omega_i) on the line omega_s + omega_i = 2 omega_p where
    2 k(omega_p) - k(omega_s) - k(omega_i) = 0, for omega_s in the window."""

    def k(omega):
        return omega * he11_neff(diameter, omega) / C_VAC

    k_p = k(omega_p)

    def mismatch(omega_s):
        return 2.0 * k_p - k(omega_s) - k(2.0 * omega_p - omega_s)

    omega_s = brentq(mismatch, signal_window[0], signal_window[1], xtol=1e3)
    return omega_s, 2.0 * omega_p - omega_s


def click_probabilities(mu: float, q: float, p_a: float, p_b: float) -> dict:
    """Per-pulse probabilities that every detector in a set clicks.

    The pair number is Poisson with mean ``mu``.  Each pair's idler reaches
    the herald H with probability ``q``; its signal reaches arm A with
    probability ``p_a`` or arm B with ``p_b``, never both.  A set of
    detectors stays dark with probability exp(-mu (1 - s)), where ``s`` is
    the chance that one pair clicks none of them; inclusion-exclusion over
    the subsets gives the chance that all of them click.
    """

    def dark(subset):
        signal = 1.0 - (p_a if "A" in subset else 0.0) - (p_b if "B" in subset else 0.0)
        idler = 1.0 - q if "H" in subset else 1.0
        return math.exp(-mu * (1.0 - signal * idler))

    out = {}
    for size in (1, 2, 3):
        for group in itertools.combinations("ABH", size):
            out["".join(group)] = sum(
                (-1) ** len(sub) * dark(sub)
                for r in range(len(group) + 1)
                for sub in itertools.combinations(group, r)
            )
    return out


def g2h_zero(mu: float, q: float, p_a: float, p_b: float) -> float:
    """Expected heralded g2 at zero herald separation: P(ABH) P(H) / (P(AH) P(BH))."""
    p = click_probabilities(mu, q, p_a, p_b)
    return p["ABH"] * p["H"] / (p["AH"] * p["BH"])
