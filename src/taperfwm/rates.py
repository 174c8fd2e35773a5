"""Absolute rate bookkeeping for a pulsed photon-pair source.

Conversion-efficiency calibration to internal pair rate, a quoted loss
figure to observed rate, and decomposition of a singles-rate power scan into
constant (dark counts), linear (spontaneous Raman) and quadratic (four-wave
mixing) parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dispersion import C_VAC
from .tags import _write_json

__all__ = [
    "DEFAULT_CONVERSION_EFFICIENCY",
    "PowerScanFit",
    "fit_power_scan",
    "rate_budget_report",
    "read_power_scan_csv",
    "write_fit_report_json",
]

#: Pairs created per pump photon per pulse.  Calibration input; deriving it
#: from the fiber nonlinearity is out of scope for this package.
DEFAULT_CONVERSION_EFFICIENCY = 7e-10

#: Reduced Planck constant, J s (h is exact by the SI definition of the kilogram).
HBAR = 6.62607015e-34 / (2 * math.pi)


def _check_positive(**values) -> None:
    for name, value in values.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class PowerScanFit:
    """``rate(P) = dark + linear * P + quadratic * P**2`` with P in watts.

    The quadratic term is the four-wave-mixing contribution, the linear term
    spontaneous Raman scattering, and ``dark`` the power-independent detector
    background.  ``covariance`` is ordered (dark, linear, quadratic).
    """

    dark: float  # Hz
    linear: float  # Hz/W
    quadratic: float  # Hz/W^2
    covariance: np.ndarray  # 3x3, (dark, linear, quadratic) ordering
    residual_norm: float  # Hz (weighted norm if the fit was weighted)
    n_points: int

    def __post_init__(self):
        for name in ("dark", "linear", "quadratic"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (3, 3):
            raise ValueError("covariance must be 3x3")
        object.__setattr__(self, "covariance", cov)

    def evaluate(self, power) -> np.ndarray:
        p = np.asarray(power, dtype=float)
        return self.dark + self.linear * p + self.quadratic * p * p

    def components(self, power) -> dict:
        """Decomposed curves on ``power`` (W), keyed dark / raman_linear /
        sfwm_quadratic / total."""
        p = np.asarray(power, dtype=float)
        return {
            "dark": np.full_like(p, self.dark),
            "raman_linear": self.linear * p,
            "sfwm_quadratic": self.quadratic * p * p,
            "total": self.evaluate(p),
        }


def fit_power_scan(points, *, weighting: str = "none") -> PowerScanFit:
    """Least-squares fit of (power W, rate Hz) points in the basis {1, P, P^2}.

    ``weighting="poisson"`` uses inverse-variance weights ``1 / rate``
    (Poisson counts; a common integration time would scale every weight
    alike and leave the fit unchanged); rates must then be strictly
    positive.  The covariance is the residual-scaled ``(X^T W X)^{-1}``;
    with exactly three points it degenerates to ~0.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array of (power_W, rate_Hz)")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    power, rate = pts[:, 0], pts[:, 1]
    if np.unique(power).size < 3:
        raise ValueError("need at least 3 distinct pump powers")

    design = np.column_stack([np.ones_like(power), power, power * power])
    target = rate
    if weighting == "poisson":
        if np.any(rate <= 0):
            raise ValueError("poisson weighting requires strictly positive rates")
        sqrt_w = np.sqrt(1.0 / rate)
        design = design * sqrt_w[:, None]
        target = rate * sqrt_w
    elif weighting != "none":
        raise ValueError(f"unknown weighting {weighting!r}; use 'none' or 'poisson'")

    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < 3:
        raise ValueError("design matrix is rank-deficient; powers too degenerate to fit")
    resid = target - design @ coef
    rss = float(resid @ resid)
    dof = max(pts.shape[0] - 3, 1)
    cov = rss / dof * np.linalg.inv(design.T @ design)
    return PowerScanFit(
        dark=float(coef[0]),
        linear=float(coef[1]),
        quadratic=float(coef[2]),
        covariance=cov,
        residual_norm=float(np.sqrt(rss)),
        n_points=int(pts.shape[0]),
    )


def rate_budget_report(
    efficiency_eta: float,
    wavelength: float,
    rep_rate: float,
    avg_power: float,
    photons_per_pulse: float,
    *,
    total_loss_db: float = -17.0,
) -> str:
    """Plain-text budget walk from conversion efficiency to observed rate.

    A single quoted loss figure for a two-channel setup is ambiguous, so the
    report prints both readings: ``total_loss_db`` as the *combined* two-channel
    budget, and the same figure applied to *each* channel.  It also
    cross-checks ``photons_per_pulse`` against pulse energy / photon energy
    and flags a mismatch rather than silently substituting either value.
    The pump is given by its vacuum ``wavelength`` (m), ``rep_rate`` (Hz)
    and ``avg_power`` (W).
    """
    _check_positive(wavelength=wavelength, avg_power=avg_power,
                    efficiency_eta=efficiency_eta, rep_rate=rep_rate)
    if total_loss_db > 0:
        raise ValueError("total_loss_db must be <= 0")
    if photons_per_pulse < 0:
        raise ValueError("photons_per_pulse must be non-negative")
    r_internal = efficiency_eta * photons_per_pulse * rep_rate
    product_total = 10.0 ** (total_loss_db / 10.0)
    product_each = 10.0 ** (2.0 * total_loss_db / 10.0)
    pulse_energy = avg_power / rep_rate
    n_energy = pulse_energy / (HBAR * (2.0 * math.pi * C_VAC / wavelength))
    ratio = n_energy / photons_per_pulse if photons_per_pulse > 0 else np.inf

    lines = [
        "pair rate budget",
        f"  pump: {wavelength * 1e9:.1f} nm, rep rate {rep_rate / 1e6:.3f} MHz, "
        f"avg power {avg_power * 1e3:.1f} mW",
        f"  photons per pulse (input): {photons_per_pulse:.3e}",
        f"  photons per pulse (pulse energy / photon energy): {n_energy:.3e}",
    ]
    if not 0.5 <= ratio <= 2.0:
        lines.append(
            f"    WARNING: input photon number differs from the energy estimate "
            f"by a factor {ratio:.2e}; both retained, none substituted"
        )
    lines += [
        f"  conversion efficiency: {efficiency_eta:.3e} pairs per pump photon",
        f"  R_internal = eta * photons_per_pulse * rep_rate = {r_internal:.3e} pairs/s",
        f"  loss budget read as {total_loss_db:.1f} dB combined over both channels:",
        f"    eta_s * eta_i = {product_total:.3e}  ->  R_observed = {r_internal * product_total:.3e} pairs/s",
        f"  loss budget read as {total_loss_db:.1f} dB in each channel:",
        f"    eta_s * eta_i = {product_each:.3e}  ->  R_observed = {r_internal * product_each:.3e} pairs/s",
    ]
    return "\n".join(lines)


def read_power_scan_csv(path) -> np.ndarray:
    """Read a power scan CSV with header ``power_mW,rate_Hz``.

    '#' lines and blank lines are skipped.  Returns an (n, 2) array in SI
    units (W, Hz), ready for :func:`fit_power_scan`.
    """
    rows = []
    header_seen = False
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line.replace(" ", "") != "power_mW,rate_Hz":
                raise ValueError(f"{path}:{lineno}: expected header 'power_mW,rate_Hz', got {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected two comma-separated fields, got {line!r}")
        try:
            milliwatts, hertz = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric field in {line!r}") from None
        rows.append((milliwatts * 1e-3, hertz))
    if not header_seen:
        raise ValueError(f"{path}: missing header 'power_mW,rate_Hz'")
    return np.asarray(rows, dtype=float).reshape(-1, 2)


def write_fit_report_json(fit: PowerScanFit, path, powers) -> None:
    """Write a fit report with decomposed curves sampled on ``powers`` (W)."""
    p = np.asarray(powers, dtype=float).ravel()
    curves = fit.components(p)
    payload = {
        "schema": "taperfwm.power_fit/1",
        "parameters": {
            "dark_hz": fit.dark,
            "linear_hz_per_w": fit.linear,
            "quadratic_hz_per_w2": fit.quadratic,
        },
        "covariance_order": ["dark", "linear", "quadratic"],
        "covariance": fit.covariance.tolist(),
        "residual_norm_hz": fit.residual_norm,
        "n_points": fit.n_points,
        "curves": {
            "power_w": p.tolist(),
            "dark": curves["dark"].tolist(),
            "raman_linear": curves["raman_linear"].tolist(),
            "sfwm_quadratic": curves["sfwm_quadratic"].tolist(),
            "total": curves["total"].tolist(),
        },
    }
    _write_json(payload, path)
