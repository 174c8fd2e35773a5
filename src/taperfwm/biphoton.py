"""Joint spectral amplitude of photon pairs from pulsed four-wave mixing.

Two pump photons at ``omega_p`` convert into a signal/idler pair subject to
energy conservation ``omega_s + omega_i = 2 omega_p``.  The pair amplitude on
a (signal, idler) frequency grid factors into a pump envelope (the spectral
autoconvolution of the pulse) and a phase-matching sum over taper segments,
each weighted by the four-mode transverse overlap of that segment.  This
module assembles those pieces from the mode solver in :mod:`.dispersion` and
provides the derived analyses: marginal spectra, Schmidt decomposition, and
the zero-mismatch (phase-matched) signal/idler pair of a given cross-section.

Conventions: angular frequencies in rad/s, lengths in meters.  Matrices are
indexed ``[signal, idler]``.  All four waves travel in the fundamental
HE11 mode, so tapers that are multimode at their wide ends are still traced
with HE11 only.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._floattext import format_rows
from .dispersion import (
    C_VAC,
    CrossSection,
    DispersionError,
    NeffTable,
    NoGuidedModeError,
    _TABLE_TOL,
    _root,
    _solve_many,
    _transverse_params,
    batch_field_matrix,
    neff_table,
    neff_tables,
)
from .profile import SegmentedProfile

__all__ = [
    "PumpSpec",
    "SpectralGrid",
    "JsaGrid",
    "ModeBank",
    "GridCoverageWarning",
    "overlap_integral",
    "delta_k",
    "phase_matching",
    "pump_function",
    "jsa",
    "schmidt_analysis",
    "marginals",
    "phase_matched_pair",
    "write_matrix_csv",
    "write_marginals_csv",
]

_LN2 = float(np.log(2.0))
_BANK_NODES = 48  # table nodes across a ModeBank's frequency span


class GridCoverageWarning(UserWarning):
    """The spectral grid clips a non-negligible part of the pump energy band."""


@dataclass(frozen=True)
class PumpSpec:
    """Pulsed Gaussian pump: spectral amplitude exp(-(w - w0)^2 / (2 sigma^2)).

    ``sigma`` is the standard deviation of the *amplitude* spectrum in rad/s;
    the intensity spectrum then has FWHM ``2 sigma sqrt(ln 2)`` in angular
    frequency.  The spectral width, not the pulse duration, is the input:
    the paper's 100 ps pulses with a 2 nm spectrum are chirped, far from
    transform-limited, and spectral phase is not modeled, so the duration
    does not enter the joint spectral amplitude.  ``sigma`` must stay below
    ``omega0``: a wider spectrum reaches zero frequency.
    """

    wavelength: float  # central vacuum wavelength, m
    sigma: float  # amplitude-spectrum std dev, rad/s

    def __post_init__(self):
        for name in ("wavelength", "sigma"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not 4.0 * self.sigma**2 > 0:  # pump_function divides by it
            raise ValueError(f"sigma={self.sigma!r} rad/s is too narrow: 4 sigma^2 underflows to 0")
        if not self.sigma < self.omega0:
            raise ValueError("sigma must be below omega0, or the spectrum reaches zero frequency")

    @classmethod
    def from_spectral_fwhm(cls, wavelength: float, fwhm_wavelength: float) -> "PumpSpec":
        """Build from the intensity-spectrum FWHM expressed in wavelength.

        A wavelength FWHM ``dl`` at center ``l0`` maps to an angular-frequency
        FWHM ``2 pi c dl / l0^2``, hence ``sigma = pi c dl / (l0^2 sqrt(ln2))``.
        ``sigma < omega0`` holds exactly when ``dl < 2 sqrt(ln 2) l0``, which
        is checked before dividing.
        """
        if not fwhm_wavelength > 0:
            raise ValueError("fwhm_wavelength must be positive")
        if wavelength * wavelength == np.inf:
            raise ValueError(f"pump wavelength {wavelength!r} m is out of range: its square overflows")
        bound = 2.0 * np.sqrt(_LN2) * wavelength
        if not fwhm_wavelength < bound:
            raise ValueError(
                f"pump FWHM fwhm_wavelength={fwhm_wavelength!r} m must be below 2 sqrt(ln 2) "
                f"times the pump wavelength ({bound:.6g} m), or the spectrum reaches zero frequency"
            )
        sigma = float(np.pi * C_VAC * fwhm_wavelength / (wavelength**2 * np.sqrt(_LN2)))
        if not 4.0 * sigma**2 > 0:
            raise ValueError(
                f"pump FWHM fwhm_wavelength={fwhm_wavelength!r} m is too narrow: its amplitude "
                f"width sigma={sigma!r} rad/s squares to 0 in double precision"
            )
        return cls(wavelength, sigma)

    @property
    def omega0(self) -> float:
        """Central angular frequency 2 pi c / wavelength."""
        return 2.0 * np.pi * C_VAC / self.wavelength


@dataclass(frozen=True)
class SpectralGrid:
    """Rectangular (signal x idler) angular-frequency grid, uniform or not.

    Axes must be strictly increasing with at least two samples each.
    """

    signal_omega: np.ndarray
    idler_omega: np.ndarray

    def __post_init__(self):
        for name in ("signal_omega", "idler_omega"):
            axis = np.asarray(getattr(self, name), dtype=float)
            if axis.ndim != 1 or axis.size < 2:
                raise ValueError(f"{name} must be a 1-D axis with at least two samples")
            if not np.all(np.isfinite(axis)) or axis[0] <= 0:
                raise ValueError(f"{name} must be finite and positive")
            if np.any(np.diff(axis) <= 0):
                raise ValueError(f"{name} must be strictly increasing")
            object.__setattr__(self, name, axis)

    @classmethod
    def from_wavelength_windows(
        cls,
        signal: tuple[float, float],
        idler: tuple[float, float],
        n_points: int = 256,
    ) -> "SpectralGrid":
        """Uniform-in-omega axes of ``n_points`` samples each over
        vacuum-wavelength windows (meters).

        Window endpoints map through ``omega = 2 pi c / lambda`` exactly; the
        grid is uniform in angular frequency, not in wavelength.
        """
        if n_points < 2:
            raise ValueError("grid axes need at least two samples")
        axes = []
        for lo, hi in (signal, idler):
            if not 0 < lo < hi:
                raise ValueError("wavelength window must satisfy 0 < min < max")
            axes.append(np.linspace(2.0 * np.pi * C_VAC / hi, 2.0 * np.pi * C_VAC / lo, n_points))
        return cls(axes[0], axes[1])

    @property
    def n_signal(self) -> int:
        return self.signal_omega.size

    @property
    def n_idler(self) -> int:
        return self.idler_omega.size


@dataclass(frozen=True)
class JsaGrid:
    """Joint spectral amplitude F on a SpectralGrid, plus provenance metadata.

    ``amplitude[i, j]`` is F at (signal_omega[i], idler_omega[j]) in the raw
    (unnormalized) scale of the pump-envelope x phase-matching product.
    """

    grid: SpectralGrid
    amplitude: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        amp = np.asarray(self.amplitude, dtype=complex)
        if amp.shape != (self.grid.n_signal, self.grid.n_idler):
            raise ValueError(
                f"amplitude shape {amp.shape} does not match grid "
                f"({self.grid.n_signal}, {self.grid.n_idler})"
            )
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitude must be finite everywhere")
        object.__setattr__(self, "amplitude", amp)

    @property
    def intensity(self) -> np.ndarray:
        """Joint spectral intensity |F|^2 (raw scale)."""
        return np.abs(self.amplitude) ** 2


class ModeBank:
    """The frequency nodes of HE11 effective-index tables over one interval.

    The interval spans every angular frequency passed in; a NaN is rejected.
    ``table(cs)`` builds a new table on every call and keeps none, so callers
    build each cross-section's table once and hold it; ``tables(css)``
    builds many in one stacked solve (:func:`~taperfwm.dispersion.neff_tables`),
    and they share one knot array, so their lookups can be shared too.  All
    tables of a bank share the same angular-frequency span, so a bank built
    for a grid serves every segment of a taper.
    """

    def __init__(self, *omegas: float):
        lo, hi = np.min(omegas), np.max(omegas)
        if not 0 < lo < hi:
            raise ValueError("need positive frequencies spanning 0 < omega_lo < omega_hi")
        self._grid = np.linspace(lo, hi, _BANK_NODES)

    def table(self, cross_section: CrossSection) -> NeffTable:
        return neff_table(cross_section, self._grid)

    def tables(self, cross_sections) -> list:
        """``table(cs)`` of each cross-section, or the error that raises (see ``neff_tables``)."""
        return neff_tables(cross_sections, self._grid)


def delta_k(
    cross_section: CrossSection,
    omega_p: float,
    omega_s,
    omega_i,
    table: Optional[NeffTable] = None,
):
    """Wave-vector mismatch k(w_p) + k(w_s + w_i - w_p) - k(w_s) - k(w_i) [rad/m].

    All four waves are HE11; the second pump photon is taken at the returned
    frequency ``w_s + w_i - w_p``.  Symmetric under swapping ``omega_s`` and
    ``omega_i``; exactly zero at full degeneracy.  ``omega_s``/``omega_i``
    broadcast; without ``table`` each distinct frequency is solved directly
    (slow but exact), with ``table`` (built for ``cross_section``) its
    interpolant is used.

    Raises NoGuidedModeError if any involved frequency is below cutoff.
    """
    omega_s = np.asarray(omega_s, dtype=float)
    omega_i = np.asarray(omega_i, dtype=float)
    omega_r = omega_s + omega_i - omega_p
    if np.any(omega_r <= 0):
        raise ValueError("returned pump frequency omega_s + omega_i - omega_p must be positive")

    if table is None:
        def table(om):
            nodes, inverse = np.unique(om, return_inverse=True)
            return _solve_many(cross_section, nodes)[inverse].reshape(np.shape(om))

    omegas = (omega_p, omega_s, omega_i, omega_r)
    mismatch = _mismatch(omegas, [table(om) for om in omegas])
    return float(mismatch) if np.ndim(mismatch) == 0 else mismatch


def _mismatch(omegas, n_effs):
    """k_p + k_r - k_s - k_i, k = omega n_eff / c, of (omega_p, omega_s, omega_i, omega_r) and ``n_effs``."""
    k_p, k_s, k_i, k_r = (om * n / C_VAC for om, n in zip(omegas, n_effs))
    return k_p + k_r - k_s - k_i


# --------------------------------------------------------------------------
# four-mode overlap
# --------------------------------------------------------------------------

_QUAD_ORDER = 96
_QUAD_TAIL = 45.0  # outer integration reaches exp(-_QUAD_TAIL) of the joint decay


@functools.cache
def _legendre_rule():
    """Gauss-Legendre nodes and weights of order _QUAD_ORDER on [-1, 1], read-only."""
    x, wt = leggauss(_QUAD_ORDER)
    x.flags.writeable = False
    wt.flags.writeable = False
    return x, wt


def _quad_nodes(a: float, w_total: float):
    """Gauss-Legendre nodes and d^2rho weights (2 pi r dr) for a field product.

    The integrand is analytic on [0, a] and decays like
    ``exp(-w_total (r - a) / a)`` outside, so two fixed-order panels (one per
    region, the outer one mapped onto that decay scale) converge far below
    the 1e-6 tolerances used in tests.
    """
    x, wt = _legendre_rule()
    r_in = 0.5 * a * (x + 1.0)
    wt_in = 0.5 * a * wt
    s = 0.5 * _QUAD_TAIL * (x + 1.0)
    r_out = a * (1.0 + s / w_total)
    wt_out = 0.5 * _QUAD_TAIL * wt * a / w_total
    r = np.concatenate([r_in, r_out])
    weights = np.concatenate([wt_in, wt_out]) * 2.0 * np.pi * r
    return r, weights


def overlap_integral(mode_p, mode_p2, mode_s, mode_i) -> float:
    """Four-mode transverse overlap eta = int u_p u_p' u_s* u_i* d^2rho [m^-2].

    All four modes must live on the same cross-section.  The quasi-LP
    profiles used here are real, so conjugation is a no-op; for co-polarized
    fundamental-mode quartets the result is positive.  Any object with
    ``cross_section``, ``field_at(r)`` and an outside decay parameter ``w``
    works, which the tests use to pass analytic profiles; the sum of the four
    ``w`` sets the scale of the outer quadrature panel.
    """
    quartet = (mode_p, mode_p2, mode_s, mode_i)
    cs = mode_p.cross_section
    for m in quartet[1:]:
        if m.cross_section != cs:
            raise ValueError("mismatched cross-sections: all four modes must share one segment")
    w_total = sum(float(m.w) for m in quartet)
    r, weights = _quad_nodes(cs.diameter / 2.0, w_total)
    prod = np.ones_like(r)
    for m in quartet:
        prod = prod * np.asarray(m.field_at(r), dtype=float)
    return float(np.sum(weights * prod))


def _eta(table: NeffTable, omega_p: float, ws, wi) -> np.ndarray:
    """Four-mode overlap matrix eta[signal, idler] on the cross-section of an HE11 table.

    Both pump factors are evaluated at the central pump frequency; the
    returned-frequency detuning stays within the pump bandwidth wherever the
    pair amplitude is non-negligible, so its effect on the overlap is far
    below the quadrature tolerance.
    """
    cs = table.cross_section
    n_p = float(table(omega_p))
    mid = 0.5 * (table.knots[0] + table.knots[-1])
    w_p = _transverse_params(cs, omega_p, n_p)[1]
    w_mid = _transverse_params(cs, mid, table(mid))[1]
    # signal, then idler term: a + 2x would round differently from (a + x) + x
    w_total = float(2.0 * w_p + w_mid + w_mid)
    r, weights = _quad_nodes(cs.diameter / 2.0, w_total)
    u_p = batch_field_matrix(cs, np.array([omega_p]), np.array([n_p]), r)[0]
    pump_weight = weights * u_p**2
    u_s = batch_field_matrix(cs, ws, table(ws), r)
    u_i = batch_field_matrix(cs, wi, table(wi), r)
    return u_s @ (pump_weight[None, :] * u_i).T


# --------------------------------------------------------------------------
# phase matching and the assembled JSA
# --------------------------------------------------------------------------


def _segment_eta(table: NeffTable, omega_p: float, ws, wi, eta_mode: str):
    """One distinct diameter's four-mode overlap on the (ws, wi) grid: ``(eta, bound)``.

    For ``eta_mode='per_point'`` ``eta`` is the real grid of :func:`_eta` and
    ``bound`` is None; for ``'center'`` ``eta`` is the grid-centre value and
    ``bound`` the corner-sampled relative error of using it everywhere.
    """
    if eta_mode == "per_point":
        return _eta(table, omega_p, ws, wi), None
    ends_s = np.array([0.5 * (ws[0] + ws[-1]), ws[0], ws[-1]])
    ends_i = np.array([0.5 * (wi[0] + wi[-1]), wi[0], wi[-1]])
    probe = _eta(table, omega_p, ends_s, ends_i)
    return probe[0, 0], float(np.max(np.abs(probe[1:, 1:] / probe[0, 0] - 1.0)))


def _segment_terms(table: NeffTable, omegas, located, length: float, eta):
    """One segment's phase-matching term on a band of the grid: ``(base, step)``.

    ``base`` is ``l sinc(dk l / 2) exp(i dk l / 2) eta`` and ``step`` is
    ``exp(i dk l)``.  ``omegas`` are the band's (omega_p, omega_s column,
    omega_i row, omega_r) and ``located`` their :meth:`NeffTable.locate`
    results, so dk is :func:`delta_k` on ``table``, bit for bit.  Every
    operation is elementwise, so a band of signal rows gets the same bits as
    the same rows of a whole-grid term.
    """
    dk = _mismatch(omegas, [table.at(where) for where in located])
    with np.errstate(over="ignore"):
        half = 0.5 * dk * length
    if not np.all(np.isfinite(half)):
        raise ValueError(f"segment length {length!r} m is out of range: the phase dk l / 2 overflows")
    return _phase_terms(half, length, eta)


def _phase_terms(half, length: float, eta):
    """``(l sinc(half) exp(i half) eta, exp(2 i half))`` from one sin/cos pair.

    With c = cos(half) and s = sin(half), exp(2 i half) = (c - s)(c + s) + 2i c s;
    sinc is exactly 1 where half = 0.
    """
    c, s = np.cos(half), np.sin(half)
    scale = length * np.divide(s, half, out=np.ones_like(half), where=half != 0) * eta
    base, step = np.empty(half.shape, dtype=complex), np.empty(half.shape, dtype=complex)
    base.real, base.imag = scale * c, scale * s
    step.real, step.imag = (c - s) * (c + s), 2.0 * c * s
    return base, step


# Grid values per band of signal rows.  A band builds its segment terms and
# sums them before the next band starts, so the arrays that scale with the
# band are its suffix phase, the term being added, the terms of diameters the
# walk meets again in this band and the temporaries of one term build.  At
# 16 384 values a complex band array is 256 KB and stays in cache; with
# whole-grid arrays a 768 x 768, 100-segment sum faulted in fresh pages for
# every temporary and took about four times as long.
_SUM_BLOCK = 16384


def _phase_matching_info(segmented, grid, omega_p, eta_mode):
    """Phase-matching sum and the corner-sampled eta bound (None unless eta_mode='center').

    Every distinct diameter's table comes from one stacked solve
    (``ModeBank.tables``); the error of one it could not build is raised at
    that diameter's place in the walk, so errors keep their order.  Tables
    and eta (a real grid, 8 bytes per value, or a scalar for
    eta_mode='center') are built before the first band and held to the end,
    beside the complex result and the band-sized arrays of ``_SUM_BLOCK``.
    So a diameter below cutoff is reported before any term is formed, and so
    before a phase dk l / 2 that overflows.  Each band locates its
    frequencies once, among the knots that every table shares.
    """
    if eta_mode not in ("per_point", "center"):
        raise ValueError(f"eta_mode must be 'per_point' or 'center', got {eta_mode!r}")
    ws, wi = grid.signal_omega, grid.idler_omega
    if np.any(ws[:, None] + wi[None, :] - omega_p <= 0):
        raise ValueError("grid reaches non-positive returned pump frequencies")
    bank = ModeBank(ws[0], ws[-1], wi[0], wi[-1], omega_p,
                    ws[0] + wi[0] - omega_p, ws[-1] + wi[-1] - omega_p)
    length = segmented.segment_length
    distinct = list(dict.fromkeys(reversed(segmented.segments)))
    stacked = dict(zip(distinct, bank.tables(distinct)))

    # Walk the segments from the output end backwards so the running suffix
    # phase needs one complex multiply per segment.  The walk names each
    # segment's diameter by its index in ``overlaps``, which is cheaper to
    # look up in every band than a CrossSection.
    slots: dict[CrossSection, int] = {}
    overlaps = []  # (table, eta) of each distinct diameter
    walk = []
    eta_bound = 0.0
    for q in reversed(range(segmented.n_segments)):
        cs = segmented.segments[q]
        if cs not in slots:
            try:
                table = stacked[cs]
                if isinstance(table, DispersionError):
                    raise table
                eta, bound = _segment_eta(table, omega_p, ws, wi, eta_mode)
            except NoGuidedModeError as err:
                raise NoGuidedModeError(
                    f"segment {q} (diameter {cs.diameter*1e9:.1f} nm): {err}"
                ) from err
            if bound is not None:
                eta_bound = max(eta_bound, bound)
            slots[cs] = len(overlaps)
            overlaps.append((table, eta))
        walk.append(slots[cs])
    last_use = {d: t for t, d in enumerate(walk)}
    locate = overlaps[0][0].locate  # the tables of one neff_tables call share their knots

    total = np.zeros((ws.size, wi.size), dtype=complex)
    rows = max(1, _SUM_BLOCK // wi.size)
    for start in range(0, ws.size, rows):
        band = slice(start, start + rows)
        part = total[band]
        omegas = (omega_p, ws[band, None], wi[None, :], ws[band, None] + wi[None, :] - omega_p)
        located = [locate(om) for om in omegas]
        suffix = np.ones_like(part)  # exp(i * sum of later segments' dk * l)
        again = {}  # this band's terms of diameters the walk meets later
        for t, d in enumerate(walk):
            if d in again:
                base, step = again.pop(d)
            else:
                table, eta = overlaps[d]
                base, step = _segment_terms(table, omegas, located, length,
                                            eta[band] if eta_mode == "per_point" else eta)
            if last_use[d] > t:
                again[d] = (base, step)
            part += base * suffix
            suffix *= step

    return total, (eta_bound if eta_mode == "center" else None)


def phase_matching(
    segmented: SegmentedProfile,
    grid: SpectralGrid,
    omega_p: float,
    *,
    eta_mode: str = "per_point",
) -> np.ndarray:
    """Segmented phase-matching sum over the taper, as a complex matrix.

    Each segment of length l contributes
    ``l sinc(dk l / 2) exp(i dk l / 2) eta`` times the accumulated phase
    ``exp(i sum_later dk l)`` of the segments between it and the output, with
    ``sinc(x) = sin(x)/x``.  ``eta_mode='per_point'`` (default) evaluates the
    four-mode overlap at every grid point; ``'center'`` uses the grid-center
    value per segment (cheaper; corner-sampled error bound available through
    :func:`jsa` metadata).

    The sum runs in bands of signal rows, each band building its segment
    terms and walking every segment before the next band starts.  Each grid
    value still sees the same operations in the same order as a whole-grid
    sum, so the result does not depend on the band size.  Memory is the
    result, one n_eff table and one real eta grid (8 bytes per value; a
    scalar for ``'center'``) per distinct diameter, and band-sized
    temporaries; it does not grow with the number of segments.

    Raises NoGuidedModeError naming the offending segment and frequencies if
    any grid frequency is below cutoff somewhere along the taper.
    """
    total, _ = _phase_matching_info(segmented, grid, omega_p, eta_mode)
    return total


def pump_function(pump: PumpSpec, grid: SpectralGrid) -> np.ndarray:
    """Pump spectral autoconvolution on the grid (real float64 matrix).

    For a unit-amplitude Gaussian pump spectrum the convolution
    ``int E(w) E(ws + wi - w) dw`` has the closed form
    ``sigma sqrt(pi) exp(-(ws + wi - 2 w0)^2 / (4 sigma^2))``, which is what
    is returned.  Warns :class:`GridCoverageWarning` when the energy band
    is clipped: the band runs along the anti-diagonal, so the corner sums
    ``ws_min + wi_min`` and ``ws_max + wi_max`` must lie in its far tails.
    """
    ws, wi = grid.signal_omega, grid.idler_omega
    w0, sigma = pump.omega0, pump.sigma
    peak = sigma * np.sqrt(np.pi)
    for corner in (ws[0] + wi[0], ws[-1] + wi[-1]):
        if np.exp(-((corner - 2.0 * w0) ** 2) / (4.0 * sigma**2)) >= 1e-6:
            warnings.warn(
                "grid clips the pump energy band: boundary value exceeds 1e-6 of peak",
                GridCoverageWarning,
                stacklevel=2,
            )
            break

    total = ws[:, None] + wi[None, :]
    return peak * np.exp(-((total - 2.0 * w0) ** 2) / (4.0 * sigma**2))


def jsa(
    segmented: SegmentedProfile,
    pump: PumpSpec,
    grid: SpectralGrid,
    *,
    eta_mode: str = "per_point",
) -> JsaGrid:
    """Assemble the joint spectral amplitude (pump envelope x phase matching).

    Returns a :class:`JsaGrid` holding the raw-scale amplitude and a
    metadata block of what neither the amplitude nor the arguments tell:
    ``eta_mode``, ``eta_center_relative_error_bound`` (None unless
    ``eta_mode='center'``) and ``tolerances``.
    """
    envelope = pump_function(pump, grid)
    matched, eta_bound = _phase_matching_info(segmented, grid, pump.omega0, eta_mode)
    metadata = {
        "eta_mode": eta_mode,
        "eta_center_relative_error_bound": eta_bound,
        "tolerances": {"neff_table_midpoint_abs": _TABLE_TOL},
    }
    # in place, so the product is not held beside matched; the same bits as envelope * matched
    return JsaGrid(grid, np.multiply(envelope, matched, out=matched), metadata)


# --------------------------------------------------------------------------
# derived analyses
# --------------------------------------------------------------------------


def _amplitude_of(jsa_like) -> np.ndarray:
    amp = jsa_like.amplitude if isinstance(jsa_like, JsaGrid) else jsa_like
    return np.asarray(amp, dtype=complex)


def schmidt_analysis(jsa_like) -> dict:
    """Schmidt decomposition of the (discretized) joint spectral amplitude.

    Singular values of the amplitude matrix give the Schmidt coefficients
    ``lambda_j = s_j^2 / sum s^2`` (descending, unit sum); the Schmidt number
    ``K = 1 / sum lambda_j^2`` and heralded purity ``1/K`` follow.  Accepts a
    JsaGrid or a bare matrix; on uniform axes the discretization measure is
    a constant that cancels in the normalization.
    """
    amp = _amplitude_of(jsa_like)
    if not np.all(np.isfinite(amp)):
        raise ValueError("amplitude must be finite")
    s = np.linalg.svd(amp, compute_uv=False)
    total = float(np.sum(s**2))
    if total == 0.0:
        raise ValueError("cannot decompose an identically zero amplitude")
    coefficients = s**2 / total
    schmidt_number = 1.0 / float(np.sum(coefficients**2))
    return {
        "schmidt_coefficients": coefficients,
        "schmidt_number": schmidt_number,
        "heralded_purity": 1.0 / schmidt_number,
    }


def marginals(jsa_like) -> tuple[np.ndarray, np.ndarray]:
    """Signal and idler marginal spectra of the JSI, each normalized to unit sum."""
    intensity = np.abs(_amplitude_of(jsa_like)) ** 2
    total = float(intensity.sum())
    if total == 0.0:
        raise ValueError("cannot form marginals of an identically zero intensity")
    return intensity.sum(axis=1) / total, intensity.sum(axis=0) / total


def phase_matched_pair(
    cross_section: CrossSection,
    omega_p: float,
    signal_window: tuple[float, float],
) -> tuple[float, float]:
    """Zero-mismatch signal/idler pair on the energy-conservation line.

    Finds ``omega_s`` in ``signal_window`` (rad/s) with
    ``delta_k(omega_s, 2 omega_p - omega_s) = 0`` on one effective-index table
    and returns ``(omega_s, omega_i)``.  The root is found by the mode solver's
    bracketed search (``dispersion._root``: inverse-quadratic steps with
    geometric-mean fallbacks) to adjacent doubles in ``omega_s``.  Raises
    ValueError when the mismatch does not change sign across the window (no
    crossing for this geometry).
    """
    lo, hi = float(signal_window[0]), float(signal_window[1])
    if not 0 < lo < hi:
        raise ValueError("signal_window must satisfy 0 < min < max")
    table = ModeBank(lo, hi, 2.0 * omega_p - hi, 2.0 * omega_p - lo, omega_p).table(cross_section)

    def mismatch(cols, w):
        dk = delta_k(cross_section, omega_p, w, 2.0 * omega_p - w, table)
        return dk, np.zeros_like(dk)  # no residual check, so no term scale

    ends = np.array([[lo], [hi]])
    f, scale = mismatch(None, ends)
    if np.signbit(f[0]) == np.signbit(f[1]):
        raise ValueError(
            "phase mismatch does not change sign across the signal window; "
            "no phase-matched pair for this geometry"
        )
    omega_s = float(_root(mismatch, *zip(ends, f, scale))[0][0])
    return omega_s, 2.0 * omega_p - omega_s


# --------------------------------------------------------------------------
# exports (formats documented in docs/formats.md)
# --------------------------------------------------------------------------


_CSV_BLOCK_ROWS = 32  # grid rows formatted per step, which bounds the writer's memory


def write_matrix_csv(path, grid: SpectralGrid, matrix, *, name: str, comments=()):
    """Write one grid-shaped matrix as CSV with axis header rows.

    Layout: '#' comment lines, then a header row of idler angular
    frequencies (first cell empty), then one row per signal frequency with
    the axis value in column 0.  Floats are written with shortest
    round-trip precision (the text of ``repr``), so outputs are byte-stable
    for identical inputs.

    ``matrix`` is a real (n_signal, n_idler) array, or a function that takes
    a slice of signal rows and returns those rows of it.  The function is
    called once per block of ``_CSV_BLOCK_ROWS`` rows, in order, so the whole
    matrix need never exist; each block it returns gets the array's shape and
    real-dtype checks, and a block that fails them ends a partly written file.
    """
    if callable(matrix):
        rows_of = matrix
    else:
        matrix = np.asarray(matrix)
        _check_rows(matrix, grid.n_signal, grid.n_idler)
        rows_of = matrix.__getitem__
    head = [f"# {name}", *(f"# {c}" for c in comments),
            "# rows: signal_omega_rad_s; columns: idler_omega_rad_s", ""]
    rows = np.empty((_CSV_BLOCK_ROWS, 1 + grid.n_idler))
    with open(path, "wb") as f:
        f.write("\n".join(head).encode())
        f.write(b"," + format_rows(grid.idler_omega[None, :]))
        for start in range(0, grid.n_signal, _CSV_BLOCK_ROWS):
            block = rows[:min(_CSV_BLOCK_ROWS, grid.n_signal - start)]
            values = np.asarray(rows_of(slice(start, start + len(block))))
            _check_rows(values, len(block), grid.n_idler)
            block[:, 0] = grid.signal_omega[start:start + len(block)]
            block[:, 1:] = values
            f.write(format_rows(block))


def _check_rows(values: np.ndarray, n_rows: int, n_columns: int) -> None:
    if values.shape != (n_rows, n_columns):
        raise ValueError("matrix shape does not match grid")
    if np.iscomplexobj(values):
        raise TypeError("write_matrix_csv needs a real matrix")


def write_marginals_csv(jsa_grid: JsaGrid, path):
    """Write both unit-sum marginal spectra as a two-block CSV."""
    sig, idl = marginals(jsa_grid)
    lines = ["# marginal spectra (unit sum)", "axis,omega_rad_s,weight"]
    for axis, omega, weight in (("signal", jsa_grid.grid.signal_omega, sig),
                                ("idler", jsa_grid.grid.idler_omega, idl)):
        text = format_rows(np.column_stack([omega, weight])).decode()
        lines += [f"{axis},{row}" for row in text.splitlines()]
    Path(path).write_text("\n".join(lines) + "\n")
