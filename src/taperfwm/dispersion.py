"""Material dispersion and guided modes of a circular step-index waveguide.

The waist of a tapered fiber is modelled as a silica cylinder surrounded by
air.  This module provides the Sellmeier material model, a full-vector
solver for the fundamental HE11 mode (Bessel J core, modified Bessel K
cladding), its normalized transverse (LP01) field profile, and tabulated
``n_eff(omega)`` with monotone cubic interpolation for fast downstream
evaluation.

The effective index is found by bracketing sign changes of a pole-free form of
the m = 1 hybrid-mode characteristic equation on a uniform ``n_eff`` scan,
taking the largest one (HE11 has the highest index of the HE1n family), and
refining by bisection, which converges even arbitrarily close to cutoff.

Bessel values come from ``j0``/``j1``, with J'_1 = J_0 - J_1/u (Abramowitz &
Stegun 9.1.27), and the exponentially scaled K_n e^w from ``k0e`` and ``k1e``
with the upward recurrence K_{n+1} = K_{n-1} + (2n/w) K_n (A&S 9.6.26), which
is stable for K.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence, Union

import numpy as np
from scipy.special import j0, j1, k0e, k1e

__all__ = [
    "C_VAC",
    "DispersionError",
    "WavelengthRangeError",
    "NoGuidedModeError",
    "SolverConvergenceError",
    "ExtrapolationError",
    "SellmeierGlass",
    "FUSED_SILICA",
    "CrossSection",
    "ModeSolution",
    "NeffTable",
    "solve_mode",
    "neff_table",
    "load_glass",
    "parse_glass",
]


#: Speed of light in vacuum, m/s (exact by the SI definition of the metre).
C_VAC = 299792458.0


class DispersionError(Exception):
    """Base class for errors raised by this module."""


class WavelengthRangeError(DispersionError, ValueError):
    """Wavelength outside the validity interval of a glass model."""


class NoGuidedModeError(DispersionError, ValueError):
    """HE11 is not guided (no root of the characteristic equation)."""


class SolverConvergenceError(DispersionError, RuntimeError):
    """The root finder produced a candidate that fails its residual check."""


class ExtrapolationError(DispersionError, ValueError):
    """A tabulated quantity was queried outside its tabulation range."""


# --------------------------------------------------------------------------
# material model
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SellmeierGlass:
    """Sellmeier dispersion model ``n^2 = 1 + sum_j B_j lam^2/(lam^2 - C_j)``.

    Attributes:
        name: Text label used in error messages and file round-trips.
        terms: Resonance terms ``(B_j, C_j)`` with ``B_j`` dimensionless and
            ``C_j`` in um^2, all finite.  ``B_j = 0`` is allowed (inert
            term); ``C_j`` must be positive.
        validity_um: Finite closed wavelength interval ``(lo, hi)`` in um
            inside which the model may be evaluated.
    """

    name: str
    terms: tuple[tuple[float, float], ...]
    validity_um: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((float(b), float(c)) for b, c in self.terms))
        object.__setattr__(self, "validity_um", (float(self.validity_um[0]), float(self.validity_um[1])))
        if not self.terms:
            raise ValueError("SellmeierGlass needs at least one (B, C) term")
        # written so that NaN fails every check
        for b, c in self.terms:
            if not 0.0 <= b < np.inf:
                raise ValueError(f"Sellmeier B coefficient must be finite and >= 0, got {b}")
            if not 0.0 < c < np.inf:
                raise ValueError(f"Sellmeier C coefficient must be finite and > 0, got {c}")
        lo, hi = self.validity_um
        if not (0.0 < lo < hi < np.inf):
            raise ValueError(f"invalid validity interval {self.validity_um}")

    def index(self, wavelength: Union[float, np.ndarray]):
        """Refractive index at vacuum ``wavelength`` (meters; scalar or array).

        Raises:
            WavelengthRangeError: If any wavelength falls outside
                ``validity_um``.
        """
        lam_um = np.asarray(wavelength, dtype=float) * 1e6
        lo, hi = self.validity_um
        bad = (lam_um < lo) | (lam_um > hi) | ~np.isfinite(lam_um)
        if np.any(bad):
            offending = np.atleast_1d(lam_um)[np.atleast_1d(bad)]
            raise WavelengthRangeError(
                f"wavelength {offending[0]:.6g} um outside validity interval "
                f"[{lo} um, {hi} um] of glass {self.name!r}"
            )
        l2 = lam_um**2
        # B=0 terms are inert and must not trip 0/0 at an accidental resonance
        s = 1.0 + sum(b * l2 / (l2 - c) for b, c in self.terms if b != 0.0)
        n = np.sqrt(s)
        if not np.all(np.isfinite(n)):
            raise WavelengthRangeError(
                f"Sellmeier sum for glass {self.name!r} is not a valid index "
                f"(resonance inside the validity interval?)"
            )
        return n.item() if np.ndim(wavelength) == 0 else n


#: Fused silica, three-term Sellmeier fit (Malitson coefficients, C_j = lam_j^2).
FUSED_SILICA = SellmeierGlass(
    name="fused-silica",
    terms=(
        (0.6961663, 0.0684043**2),
        (0.4079426, 0.1162414**2),
        (0.8974794, 9.896161**2),
    ),
    validity_um=(0.21, 3.71),
)


_GLASS_KEYS = {"name", "B", "C", "validity_um"}


def parse_glass(text: str, *, source: str = "<string>") -> SellmeierGlass:
    """Parse the key-value glass format (see docs/formats.md).

    Keys: ``name`` (rest of line), ``B`` and ``C`` (whitespace-separated float
    lists of equal length, C in um^2), ``validity_um`` (two floats).  ``#``
    starts a comment; blank lines are ignored.
    """
    fields: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        key = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if key not in _GLASS_KEYS:
            raise ValueError(f"{source}:{lineno}: unknown key {key!r} (expected one of {sorted(_GLASS_KEYS)})")
        if key in fields:
            raise ValueError(f"{source}:{lineno}: duplicate key {key!r}")
        if key == "name":
            if not rest:
                raise ValueError(f"{source}:{lineno}: empty glass name")
            fields["name"] = rest
        else:
            try:
                values = tuple(float(tok) for tok in rest.split())
            except ValueError as exc:
                raise ValueError(f"{source}:{lineno}: malformed number in {key!r}: {exc}") from None
            fields[key] = values
    missing = _GLASS_KEYS - fields.keys()
    if missing:
        raise ValueError(f"{source}: missing required keys {sorted(missing)}")
    bs, cs = fields["B"], fields["C"]
    if len(bs) != len(cs):
        raise ValueError(f"{source}: B has {len(bs)} entries but C has {len(cs)}")
    validity = fields["validity_um"]
    if len(validity) != 2:
        raise ValueError(f"{source}: validity_um needs exactly 2 values, got {len(validity)}")
    try:
        return SellmeierGlass(name=fields["name"], terms=tuple(zip(bs, cs)), validity_um=validity)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def load_glass(path: Union[str, Path]) -> SellmeierGlass:
    """Load a glass definition file.  Format documented in docs/formats.md."""
    p = Path(path)
    return parse_glass(p.read_text(encoding="utf-8"), source=str(p))


# --------------------------------------------------------------------------
# waveguide geometry
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossSection:
    """One cross-section of the taper: a step-index cylinder.

    Attributes:
        diameter: Core diameter in meters.
        core: Core glass model.
        cladding: Either a constant index (air: 1.0) or a SellmeierGlass.
    """

    diameter: float
    core: SellmeierGlass = FUSED_SILICA
    cladding: Union[float, SellmeierGlass] = 1.0

    def __post_init__(self):
        if not (self.diameter > 0.0 and np.isfinite(self.diameter)):
            raise ValueError(f"diameter must be positive and finite, got {self.diameter}")
        if isinstance(self.cladding, (int, float)) and not self.cladding > 0.0:
            raise ValueError(f"cladding index must be positive, got {self.cladding}")

    def core_index(self, wavelength):
        return self.core.index(wavelength)

    def cladding_index(self, wavelength):
        if isinstance(self.cladding, SellmeierGlass):
            return self.cladding.index(wavelength)
        return float(self.cladding) if np.ndim(wavelength) == 0 else np.full(np.shape(wavelength), float(self.cladding))


# --------------------------------------------------------------------------
# characteristic equation
# --------------------------------------------------------------------------

# Scan-edge clips in the x = n_eff^2 variable, as fractions of (n1^2 - n2^2).
# Top clip: keeps u > 0, where the 1/u terms are finite; bottom clip: the HE
# branch loses precision to cancellation as w -> 0.  Roots inside the clipped
# slivers are physically unbound (evanescent decay lengths >> 1e4 radii) and
# reported as not guided.
_CLIP_TOP = 1e-8
_CLIP_BOT = 2e-9

_BISECT_ITERS = 46
_RESIDUAL_RTOL = 1e-8


def _bessel_ke(x, hi: int) -> list:
    """[K_0(x) e^x, ..., K_hi(x) e^x] from ``k0e``/``k1e`` by upward recurrence.

    K_{n+1} = K_{n-1} + (2n/x) K_n is stable for K, and the common e^x factor
    obeys the same recurrence.
    """
    out = [k0e(x)]
    if hi >= 1:
        out.append(k1e(x))
    for n in range(1, hi):
        out.append(out[n - 1] + (2.0 * n / x) * out[n])
    return out


def _char_fn(n1, n2, ak0) -> Callable[[np.ndarray], np.ndarray]:
    """Pole-free HE-branch characteristic function h(n_eff) for m = 1.

    h = J'_1(u) - x u J_1(u) with J'_1 = J_0 - J_1/u and x the HE root of the
    quadratic in J'_1/(u J_1) built from K'_1/(w K_1) = -(K_0 + K_2)/(2 w K_1);
    h = 0 at the HE1n modes.  ``n1``, ``n2``, ``ak0`` may be scalars or arrays
    broadcastable against the ``n_eff`` argument.  The scaled K_0, K_1, K_2
    come from ``_bessel_ke``; their e^w factors cancel in the ratio, so signs
    and zeros are unaffected.
    """
    n1sq = np.asarray(n1, dtype=float) ** 2
    n2sq = np.asarray(n2, dtype=float) ** 2
    ak0 = np.asarray(ak0, dtype=float)

    def h(neff):
        neff = np.asarray(neff, dtype=float)
        u = ak0 * np.sqrt(n1sq - neff**2)
        w = ak0 * np.sqrt(neff**2 - n2sq)
        ju0, ju1 = j0(u), j1(u)
        k0, k1, k2 = _bessel_ke(w, 2)
        kk = -(k0 + k2) / (2.0 * w * k1)  # K'_1/(w K_1)
        nu = n2sq / n1sq
        csq = (1.0 / u**2 + 1.0 / w**2) * (1.0 / u**2 + nu / w**2)
        mid = -kk * (1.0 + nu) / 2.0
        split = np.sqrt((kk * (1.0 - nu) / 2.0) ** 2 + csq)
        x = mid - split
        return (ju0 - (1 / u) * ju1) - x * u * ju1

    return h


def _scan_bounds(n1, n2):
    """Clipped [n_lo, n_hi] scan interval (see _CLIP_* above)."""
    n1sq, n2sq = n1 * n1, n2 * n2
    dx = n1sq - n2sq
    return np.sqrt(n2sq + _CLIP_BOT * dx), np.sqrt(n1sq - _CLIP_TOP * dx)


def _scan_points(v_max: float, diameter: float) -> int:
    # Adjacent roots are ~pi apart in u; near u -> 0 their n_eff spacing
    # shrinks like 1/V^2, so the uniform-n_eff scan density must grow with V^2.
    points = np.ceil(0.5 * v_max * v_max)
    if not np.isfinite(points):
        raise DispersionError(
            f"mode scan size overflows at diameter {diameter * 1e9:.6g} nm "
            f"(V = {v_max:.6g})"
        )
    return max(512, int(points))


def _guide_params(cross_section: CrossSection, omegas):
    """Core index n1, cladding index n2 and a*k0 at each angular frequency."""
    omegas = np.asarray(omegas, dtype=float)
    lam = 2.0 * np.pi * C_VAC / omegas
    n1 = np.asarray(cross_section.core_index(lam), dtype=float)
    n2 = np.asarray(cross_section.cladding_index(lam), dtype=float)
    return n1, n2, (cross_section.diameter / 2.0) * omegas / C_VAC


def _transverse_params(cross_section: CrossSection, omegas, n_effs):
    """Core parameter u = a k0 sqrt(n1^2 - n_eff^2) and cladding decay w = a k0 sqrt(n_eff^2 - n2^2)."""
    n1, n2, ak0 = _guide_params(cross_section, omegas)
    n_effs = np.asarray(n_effs, dtype=float)
    return ak0 * np.sqrt(n1**2 - n_effs**2), ak0 * np.sqrt(n_effs**2 - n2**2)


def _refine(cross_section, omegas, n1, n2, ak0, lo, hi, flo, scale) -> np.ndarray:
    """Bisect brackets [lo, hi] with h(lo) = flo to roots that pass the residual check.

    ``scale`` is the local magnitude of h at each bracket; a root whose
    residual exceeds ``_RESIDUAL_RTOL * scale`` raises SolverConvergenceError
    naming the wavelength of the worst one and the diameter.
    """
    h = _char_fn(n1, n2, ak0)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            fm = h(mid)
            same = np.signbit(fm) == np.signbit(flo)
            lo = np.where(same, mid, lo)
            flo = np.where(same, fm, flo)
            hi = np.where(same, hi, mid)
        roots = 0.5 * (lo + hi)
        resid = np.abs(h(roots))
    if np.any(resid > _RESIDUAL_RTOL * scale):
        i = int(np.argmax(resid / scale))
        raise SolverConvergenceError(
            f"root residual {resid[i]:.3e} exceeds {_RESIDUAL_RTOL:g} x local scale "
            f"{scale[i]:.3e} for HE11 at wavelength {2*np.pi*C_VAC/omegas[i]*1e9:.2f} nm, "
            f"diameter {cross_section.diameter*1e9:.1f} nm"
        )
    return roots


def _solve_many(cross_section: CrossSection, omegas: np.ndarray) -> np.ndarray:
    """HE11 effective indices at each angular frequency (vectorized).

    Raises NoGuidedModeError listing every frequency at which the scan finds
    no root, and SolverConvergenceError if a refined root fails its residual
    check.
    """
    omegas = np.asarray(omegas, dtype=float)
    n1, n2, ak0 = _guide_params(cross_section, omegas)
    if np.any(n1 <= n2):
        i = int(np.argmax(n1 <= n2))
        raise NoGuidedModeError(
            f"guidance condition violated: core index {n1.flat[i]:.6f} <= cladding "
            f"index {n2.flat[i]:.6f} at wavelength {2*np.pi*C_VAC/omegas.flat[i]*1e9:.1f} nm"
        )
    v = ak0 * np.sqrt(n1**2 - n2**2)

    n_eff = np.empty_like(omegas)
    chunk = max(1, int(4e6 // _scan_points(float(v.max()), cross_section.diameter)))
    missing: list[float] = []
    for start in range(0, omegas.size, chunk):
        sl = slice(start, min(start + chunk, omegas.size))
        n_eff[sl] = _solve_chunk(cross_section, omegas[sl], n1[sl], n2[sl], ak0[sl], v[sl], missing)
    if missing:
        lam_nm = ", ".join(f"{2*np.pi*C_VAC/w*1e9:.2f} nm" for w in missing[:8])
        more = "" if len(missing) <= 8 else f" (+{len(missing)-8} more)"
        raise NoGuidedModeError(
            f"no guided HE11 mode at diameter {cross_section.diameter*1e9:.1f} nm "
            f"for wavelengths: {lam_nm}{more} (mode below cutoff)"
        )
    return n_eff


def _solve_chunk(cross_section, omegas, n1, n2, ak0, v, missing):
    points = _scan_points(float(v.max()), cross_section.diameter)
    n_lo, n_hi = _scan_bounds(n1, n2)
    t = np.linspace(0.0, 1.0, points)[:, None]
    grid = n_lo[None, :] + t * (n_hi - n_lo)[None, :]
    h = _char_fn(n1[None, :], n2[None, :], ak0[None, :])
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        vals = h(grid)
    if not np.all(np.isfinite(vals)):
        raise SolverConvergenceError(
            f"characteristic function not finite on the scan grid for HE11 "
            f"at diameter {cross_section.diameter*1e9:.1f} nm"
        )
    sign = np.signbit(vals)
    flips = sign[:-1, :] != sign[1:, :]

    lo = np.empty_like(omegas)
    hi = np.empty_like(omegas)
    flo = np.empty_like(omegas)
    scale = np.empty_like(omegas)
    ok = np.ones(omegas.size, dtype=bool)
    for j in range(omegas.size):
        rows = np.nonzero(flips[:, j])[0]
        if rows.size == 0:
            missing.append(float(omegas[j]))
            ok[j] = False
            continue
        r = rows[-1]  # HE11 has the largest n_eff of the HE1n roots
        lo[j], hi[j] = grid[r, j], grid[r + 1, j]
        flo[j] = vals[r, j]
        scale[j] = max(abs(vals[r, j]), abs(vals[r + 1, j]))
    out = np.full(omegas.size, np.nan)
    if np.any(ok):
        out[ok] = _refine(cross_section, omegas[ok], n1[ok], n2[ok], ak0[ok], lo[ok], hi[ok],
                          flo[ok], scale[ok])
    return out


# --------------------------------------------------------------------------
# mode solutions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeSolution:
    """HE11 at one cross-section and frequency.

    The scalar profile ``u(rho)`` (quasi-linearly polarized LP01 transverse
    component) is normalized so that ``integral |u|^2 d^2 rho = 1``; units of
    ``u`` are 1/m.  ``field_at`` evaluates the closed-form profile at any
    radius.
    """

    omega: float
    n_eff: float
    beta: float
    cross_section: CrossSection
    u: float  # core transverse parameter a*k0*sqrt(n1^2 - n_eff^2)
    w: float  # cladding decay parameter a*k0*sqrt(n_eff^2 - n2^2)

    def field_at(self, r):
        """Normalized profile u(rho) at radius ``r`` (meters; scalar or array)."""
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise ValueError("radius must be >= 0")
        row = batch_field_matrix(self.cross_section, [self.omega], [self.n_eff], r.ravel())[0]
        return row[0].item() if r.ndim == 0 else row.reshape(r.shape)


def _norm_amplitude(a: float, j0u, j1u, k0w, k1w):
    """Amplitude A with A^2 * 2 pi * int |g|^2 r dr = 1 for the LP01 profile g.

    ``j0u``, ``j1u`` are J_0(u), J_1(u) and ``k0w``, ``k1w`` the scaled
    K_0(w), K_1(w).  Uses the closed forms
      int_0^a J_0(ur/a)^2 r dr    = a^2/2 [J_0(u)^2 + J_1(u)^2]
      int_a^inf K_0(wr/a)^2 r dr  = a^2/2 [K_1(w)^2 - K_0(w)^2]
    with the outside term rescaled by (J_0(u)/K_0(w))^2 for continuity at r=a.
    The arrays may hold one value per frequency.
    """
    i_core = 0.5 * a * a * (j0u**2 + j1u * j1u)
    k_ratio = (k1w * k1w - k0w**2) / k0w**2
    i_clad = 0.5 * a * a * j0u**2 * k_ratio
    total = 2.0 * np.pi * (i_core + i_clad)
    if not (np.all(total > 0.0) and np.all(np.isfinite(total))):
        raise SolverConvergenceError("non-positive field norm")
    return 1.0 / np.sqrt(total)


def batch_field_matrix(cross_section: CrossSection, omegas, n_effs, r) -> np.ndarray:
    """Normalized HE11 profiles for many frequencies of one cross-section.

    Returns a matrix of shape ``(len(omegas), len(r))`` where row f samples
    the normalized LP01 profile, J_0(u r/a) in the core and
    J_0(u) K_0(w r/a)/K_0(w) outside, of the mode with effective index
    ``n_effs[f]`` at ``omegas[f]``; ``ModeSolution.field_at`` is one such
    row.  Radii in meters.
    """
    r = np.asarray(r, dtype=float)
    a = cross_section.diameter / 2.0
    u, w = _transverse_params(cross_section, omegas, n_effs)
    j0u, k0w = j0(u), k0e(w)
    amp = _norm_amplitude(a, j0u, j1(u), k0w, k1e(w))

    out = np.empty((u.size, r.size))
    inside = r <= a
    out[:, inside] = j0(u[:, None] * r[None, inside] / a)
    rr = r[~inside]
    # K_0(w r/a)/K_0(w) via scaled K; explicit exponent avoids underflow
    out[:, ~inside] = (
        j0u[:, None]
        / k0w[:, None]
        * k0e(w[:, None] * rr[None, :] / a)
        * np.exp(-w[:, None] * (rr[None, :] / a - 1.0))
    )
    return amp[:, None] * out


def solve_mode(cross_section: CrossSection, omega: float) -> ModeSolution:
    """Solve the full-vector characteristic equation for HE11.

    Args:
        cross_section: Waveguide geometry and materials.
        omega: Angular frequency in rad/s (> 0).

    Returns:
        ModeSolution with ``n_eff`` refined to |delta n_eff| <= 1e-10 and a
        normalized LP01 field profile.

    Raises:
        NoGuidedModeError: HE11 below cutoff at this frequency/diameter.
        SolverConvergenceError: Root refinement failed its residual check.
        WavelengthRangeError: Frequency outside the glass validity interval.
    """
    if not (omega > 0.0 and np.isfinite(omega)):
        raise ValueError(f"omega must be positive and finite, got {omega}")
    n_eff = float(_solve_many(cross_section, np.array([omega]))[0])
    u, w = (float(x) for x in _transverse_params(cross_section, omega, n_eff))
    return ModeSolution(
        omega=float(omega),
        n_eff=n_eff,
        beta=float(omega) * n_eff / C_VAC,
        cross_section=cross_section,
        u=u,
        w=w,
    )


# --------------------------------------------------------------------------
# tabulated effective index
# --------------------------------------------------------------------------

# Largest |n_eff| gap allowed between a table and direct solves at held-out
# midpoints, and the solver-grid density relative to the table grid (doubled
# once if the gap check fails).
_TABLE_TOL = 5e-9
_TABLE_REFINE = 16


# Queries evaluated per step.  Temporaries of 4096 values (32 KB) stay in cache
# and below the allocator's mmap threshold; with whole-array temporaries a
# 768 x 768 query faulted in fresh pages for each one and took 2-3 times as long.
_PCHIP_BLOCK = 4096


class _Pchip:
    """Monotone cubic (PCHIP) interpolant of y(x); NaN outside ``[x[0], x[-1]]``.

    The same arithmetic as scipy's ``PchipInterpolator(x, y, extrapolate=False)``,
    so the values agree bit for bit: Fritsch-Carlson slopes (weighted harmonic
    mean inside, zero at a sign change or a flat neighbour, Moler's three-point
    rule with its two clamps at each end), ``CubicHermiteSpline``'s power-basis
    coefficients and ``PPoly``'s evaluation order on the interval
    ``x[i] <= q < x[i+1]`` (the last interval is closed).
    """

    def __init__(self, x, y):
        self.x = x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = np.diff(x)
        m = np.diff(y) / h
        if x.size == 2:
            d = np.array([m[0], m[0]])
        else:
            flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
            w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
            d = np.concatenate((
                [_pchip_end_slope(h[0], h[1], m[0], m[1])],
                np.where(flat, 0.0, inner),
                [_pchip_end_slope(h[-1], h[-2], m[-1], m[-2])],
            ))
        t = (d[:-1] + d[1:] - 2 * m) / h
        self._coef = (t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        flat = q.ravel()
        out = np.empty_like(flat)
        x = self.x
        for start in range(0, flat.size, _PCHIP_BLOCK):
            block = flat[start:start + _PCHIP_BLOCK]
            # counting interior knots <= q gives the interval, the last one closed
            i = np.searchsorted(x[1:-1], block, side="right")
            c0, c1, c2, value = (c.take(i) for c in self._coef)
            s = block - x.take(i)
            # c3 + c2 s + c1 s^2 + c0 s^3, summed in PPoly's order, in place
            c2 *= s
            value += c2
            s2 = s * s
            c1 *= s2
            value += c1
            s2 *= s
            c0 *= s2
            value += c0
            out[start:start + _PCHIP_BLOCK] = np.where((block >= x[0]) & (block <= x[-1]), value,
                                                       np.nan)
        return out.reshape(q.shape)


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end knot, clamped to keep the shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3 * abs(m0):
        return 3 * m0
    return d


@dataclass(frozen=True)
class NeffTable:
    """Monotone-cubic-interpolated HE11 ``n_eff(omega)`` for one cross-section.

    Call the table with angular frequencies inside ``[omega[0], omega[-1]]``;
    queries outside raise ExtrapolationError.  ``k(omega)`` returns the
    propagation constant ``omega * n_eff / c``.
    """

    cross_section: CrossSection
    omega: np.ndarray
    n_eff: np.ndarray
    _interp: _Pchip

    def __call__(self, omega):
        omega_arr = np.asarray(omega, dtype=float)
        lo, hi = self.omega[0], self.omega[-1]
        if np.any(omega_arr < lo) or np.any(omega_arr > hi):
            raise ExtrapolationError(
                f"query outside tabulated range [{lo:.6e}, {hi:.6e}] rad/s for HE11"
            )
        out = self._interp(omega_arr)
        return out.item() if np.ndim(omega) == 0 else out

    def k(self, omega):
        """Propagation constant omega * n_eff(omega) / c in rad/m."""
        return np.asarray(omega, dtype=float) * self(omega) / C_VAC


def neff_table(cross_section: CrossSection, omega_grid: Sequence[float]) -> NeffTable:
    """Tabulate HE11 ``n_eff(omega)`` on ``omega_grid`` with PCHIP interpolation.

    The solver runs on an internal grid 16 times denser than ``omega_grid``
    so that the interpolant reproduces direct solves at held-out midpoints to
    5e-9 (``_TABLE_TOL``); this is verified internally at five midpoints and
    the refinement is doubled once if the check fails.

    Args:
        cross_section: Waveguide geometry.
        omega_grid: Strictly increasing angular frequencies (rad/s), at least
            two, all guided.

    Raises:
        NoGuidedModeError: Any grid point below cutoff (message lists them).
        ExtrapolationError: On later queries outside the grid range.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    if omega_grid.ndim != 1 or omega_grid.size < 2:
        raise ValueError("omega_grid must be a 1-D array with at least two points")
    if np.any(np.diff(omega_grid) <= 0):
        raise ValueError("omega_grid must be strictly increasing")

    coarse = _solve_many(cross_section, omega_grid)
    for factor in (_TABLE_REFINE, 2 * _TABLE_REFINE):
        dense = _refined_grid(omega_grid, factor)
        n_dense = _solve_dense(cross_section, omega_grid, coarse, dense)
        interp = _Pchip(dense, n_dense)
        checks = dense[:-1] + 0.5 * np.diff(dense)
        checks = checks[np.linspace(0, checks.size - 1, 5).astype(int)]
        direct = _solve_many(cross_section, checks)
        if np.max(np.abs(interp(checks) - direct)) <= _TABLE_TOL:
            break
    else:
        raise SolverConvergenceError(
            f"neff_table failed its held-out midpoint check for HE11 "
            f"even at refine={2 * _TABLE_REFINE}"
        )
    return NeffTable(cross_section, omega_grid.copy(), interp(omega_grid), interp)


def _refined_grid(grid: np.ndarray, factor: int) -> np.ndarray:
    steps = np.linspace(0.0, 1.0, factor + 1)[:-1]
    dense = (grid[:-1, None] + steps[None, :] * np.diff(grid)[:, None]).ravel()
    return np.append(dense, grid[-1])


def _solve_dense(cross_section, coarse_grid, coarse_neff, dense):
    """Roots on a dense grid via brackets predicted from a coarse solution.

    The bracket half-width is a quarter of the local coarse step in n_eff, so
    it cannot reach a neighboring HE1n root; every point whose predicted
    bracket fails to enclose a sign change falls back to the full scan of
    _solve_many, and the bisected roots pass the same residual check.
    """
    pred = _Pchip(coarse_grid, coarse_neff)(dense)
    n1, n2, ak0 = _guide_params(cross_section, dense)
    idx = np.clip(np.searchsorted(coarse_grid, dense, side="right") - 1, 0, coarse_grid.size - 2)
    delta = 1e-7 + 0.25 * np.abs(np.diff(coarse_neff))[idx]
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        n_lo, n_hi = _scan_bounds(n1, n2)
        lo = np.maximum(pred - delta, n_lo)
        hi = np.minimum(pred + delta, n_hi)
        h = _char_fn(n1, n2, ak0)
        flo, fhi = h(lo), h(hi)
    good = (
        np.isfinite(flo) & np.isfinite(fhi) & (lo < hi) & (np.signbit(flo) != np.signbit(fhi))
    )
    out = np.empty_like(dense)
    if np.any(good):
        scale = np.maximum(np.abs(flo[good]), np.abs(fhi[good]))
        out[good] = _refine(cross_section, dense[good], n1[good], n2[good], ak0[good], lo[good],
                            hi[good], flo[good], scale)
    if not np.all(good):
        out[~good] = _solve_many(cross_section, dense[~good])
    return out
