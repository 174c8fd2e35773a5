"""Material dispersion and guided modes of a circular step-index waveguide.

The waist of a tapered fiber is modelled as a silica cylinder surrounded by
air (index 1).  This module provides the Sellmeier material model, a
full-vector solver for the fundamental HE11 mode (Bessel J in the core,
modified Bessel K in the air), its normalized transverse (LP01) field
profile, and tabulated ``n_eff(omega)`` with monotone cubic interpolation
for fast downstream evaluation.

The solver works in the decay w outside the core, with core parameter
u = sqrt((V - w)(V + w)) and n_eff^2 = 1 + (w / a k0)^2.  HE11 is the only
root of a pole-free form of the m = 1 hybrid-mode characteristic equation
with u below the first zero j_{0,1} of J_0, so one bracket in w, clipped at
both ends, holds it.  Inverse-quadratic steps with geometric-mean fallbacks
(Chandrupatla 1997) take it to adjacent doubles in w, which keeps full
relative precision in w even where n_eff - 1 is 1e-9.  From 600 nm to 20 um
waists that takes 8 to 13 evaluations of the characteristic function per
frequency, the bracket ends included, where bisection in log w took 63.

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
    """One cross-section of the taper: a glass cylinder in air (index 1).

    Attributes:
        diameter: Core diameter in meters.
        core: Core glass model.
    """

    diameter: float
    core: SellmeierGlass = FUSED_SILICA

    def __post_init__(self):
        if not (self.diameter > 0.0 and np.isfinite(self.diameter)):
            raise ValueError(f"diameter must be positive and finite, got {self.diameter}")


# --------------------------------------------------------------------------
# characteristic equation
# --------------------------------------------------------------------------

# Bracket clips in the outside decay w, as fractions of V^2 (the same numbers
# as fractions of n1^2 - 1 in n_eff^2).  Bottom: w^2 >= _CLIP_BOT V^2, since
# h loses precision to cancellation as w -> 0; a root below it is physically
# unbound (evanescent decay length >> 1e4 radii) and reported as not guided.
# Top: u^2 = V^2 - w^2 >= _CLIP_TOP V^2 keeps u > 0, where the 1/u terms are
# finite.  HE11 has u < j_{0,1}, so above V = j_{0,1}/sqrt(_CLIP_TOP), about
# 24 000 (a silica rod in air of about 6 mm at 800 nm, 1 cm at 1400 nm), its
# root lies inside the top clip and is also reported as not guided.
_CLIP_TOP = 1e-8
_CLIP_BOT = 2e-9

#: First zero of J_0; HE11 is the only root of h with u below it.
_J01 = 2.404825557695773

_RESIDUAL_RTOL = 1e-8


def _bessel_ke(x) -> tuple:
    """(K_0(x) e^x, K_1(x) e^x, K_2(x) e^x) from ``k0e``/``k1e``.

    K_2 = K_0 + (2/x) K_1 is the stable upward recurrence for K, and the
    common e^x factor obeys it too.
    """
    k0, k1 = k0e(x), k1e(x)
    return k0, k1, k0 + (2.0 / x) * k1


def _char_fn(nu, v) -> Callable[[np.ndarray], tuple]:
    """Pole-free HE-branch characteristic function h(w) for m = 1.

    h = J'_1(u) - x u J_1(u) with u = sqrt((V - w)(V + w)), J'_1 = J_0 - J_1/u
    and x = mid - split the HE root of the quadratic in J'_1/(u J_1) built from
    K'_1/(w K_1) = -(K_0 + K_2)/(2 w K_1); h = 0 at the HE1n modes.  ``nu`` is
    1/n1^2 and ``v`` the V number, scalars or arrays broadcastable against
    the ``w`` argument.  The scaled K_0, K_1, K_2 come from ``_bessel_ke``;
    their e^w factors cancel in the ratio, so signs and zeros are unaffected.

    The returned function gives h and the size of the terms h is built from,
    |J_0| + |J_1/u| + (|mid| + split) u |J_1|, against which its rounding
    error is measured.
    """
    nu = np.asarray(nu, dtype=float)
    v = np.asarray(v, dtype=float)

    def h(w):
        w = np.asarray(w, dtype=float)
        u = np.sqrt((v - w) * (v + w))
        ju0, ju1 = j0(u), j1(u)
        k0, k1, k2 = _bessel_ke(w)
        kk = -(k0 + k2) / (2.0 * w * k1)  # K'_1/(w K_1)
        csq = (1.0 / u**2 + 1.0 / w**2) * (1.0 / u**2 + nu / w**2)
        mid = -kk * (1.0 + nu) / 2.0
        split = np.sqrt((kk * (1.0 - nu) / 2.0) ** 2 + csq)
        ju1_u = (1 / u) * ju1
        value = (ju0 - ju1_u) - (mid - split) * u * ju1
        return value, np.abs(ju0) + np.abs(ju1_u) + (np.abs(mid) + split) * u * np.abs(ju1)

    return h


def _w_bracket(v):
    """Clipped [w_lo, w_hi] holding the u < j_{0,1} part of the w axis (see _CLIP_*).

    Empty (w_lo >= w_hi) where V is above the ceiling of the top clip.
    """
    floor = np.sqrt(np.maximum((v - _J01) * (v + _J01), 0.0))
    return np.maximum(v * np.sqrt(_CLIP_BOT), floor), v * np.sqrt(1.0 - _CLIP_TOP)


def _root(h, end1, end2):
    """Root x of h in each column's bracket, with h(x) and its term scale.

    ``h(cols, x)`` returns the value of the columns ``cols`` at ``x`` and the
    size of the terms that value is built from.  ``end1`` and ``end2`` are the
    bracket ends as (x, h(x), term scale) arrays, with h of opposite signs.
    The steps are Chandrupatla's (1997): the first is the geometric mean of
    the ends; then an inverse-quadratic step through the newest point, the
    other end and the point dropped last, where those three points allow one,
    else the geometric mean; every step is clipped strictly inside the
    bracket, so the ends must be positive.  A column stops once its ends are
    adjacent doubles or h = 0, at the end with the smaller |h|, or where h is
    not finite, which the last returned array marks False.
    """
    (x1, f1, s1), (x2, f2, s2) = end1, end2
    n = x1.size
    w, fw, sw, ok = np.empty(n), np.empty(n), np.empty(n), np.ones(n, dtype=bool)
    act = np.arange(n)
    x = np.sqrt(x1) * np.sqrt(x2)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        while act.size:
            f, s = h(act, x)
            # x replaces the end of its sign; x1 is the newest point, x2 the end
            # of the other sign and x3 the point dropped
            keep = np.signbit(f) == np.signbit(f1)
            x3, f3 = np.where(keep, x1, x2), np.where(keep, f1, f2)
            x2, f2, s2 = np.where(keep, x2, x1), np.where(keep, f2, f1), np.where(keep, s2, s1)
            x1, f1, s1 = x, f, s
            finite = np.isfinite(f1)
            done = ~finite | (f1 == 0.0) | (np.nextafter(x1, x2) == x2)
            if np.any(done):
                i = act[done]
                first = np.abs(f1) < np.abs(f2)
                w[i], fw[i], sw[i] = (np.where(first, p, q)[done] for p, q in ((x1, x2), (f1, f2), (s1, s2)))
                ok[i] = finite[done]
                go = ~done
                act, x1, f1, s1, x2, f2, s2, x3, f3 = (a[go] for a in (act, x1, f1, s1, x2, f2, s2, x3, f3))
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            quad = (phi**2 < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
            t = f1 / (f2 - f1) * f3 / (f2 - f3) + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2)
            x = np.where(quad, x1 + t * (x2 - x1), np.sqrt(x1) * np.sqrt(x2))
            a, b = np.minimum(x1, x2), np.maximum(x1, x2)
            x = np.clip(x, np.nextafter(a, b), np.nextafter(b, a))
    return w, fw, sw, ok


def _guide_params(cross_section: CrossSection, omegas):
    """Core index n1 and a*k0 at each angular frequency; the outside index is 1."""
    omegas = np.asarray(omegas, dtype=float)
    lam = 2.0 * np.pi * C_VAC / omegas
    n1 = np.asarray(cross_section.core.index(lam), dtype=float)
    return n1, (cross_section.diameter / 2.0) * omegas / C_VAC


def _transverse_params(cross_section: CrossSection, omegas, n_effs):
    """Core parameter u = a k0 sqrt(n1^2 - n_eff^2) and outside decay w = a k0 sqrt(n_eff^2 - 1)."""
    n1, ak0 = _guide_params(cross_section, omegas)
    n_effs = np.asarray(n_effs, dtype=float)
    return ak0 * np.sqrt(n1**2 - n_effs**2), ak0 * np.sqrt(n_effs**2 - 1.0)


def _solve_many(cross_section: CrossSection, omegas: np.ndarray) -> np.ndarray:
    """HE11 effective indices at each angular frequency (vectorized).

    Each frequency's root w of h is found by ``_root`` on ``_w_bracket``, and
    n_eff = sqrt(1 + (w/(a k0))^2).

    Raises NoGuidedModeError listing every frequency whose bracket is empty or
    has ends of one sign, DispersionError if V^2 overflows, and
    SolverConvergenceError if h is not finite at a point it is evaluated at or
    the root fails its residual check.
    """
    omegas = np.asarray(omegas, dtype=float)
    n1, ak0 = _guide_params(cross_section, omegas)
    d_nm = cross_section.diameter * 1e9
    if np.any(n1 <= 1.0):  # a user glass can fall below air
        i = int(np.argmax(n1 <= 1.0))
        raise NoGuidedModeError(
            f"guidance condition violated: core index {n1.flat[i]:.6f} <= air index 1 "
            f"at wavelength {2*np.pi*C_VAC/omegas.flat[i]*1e9:.1f} nm"
        )
    v = ak0 * np.sqrt(n1**2 - 1.0)
    nu = 1.0 / n1**2
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        if not np.all(np.isfinite(v * v)):
            raise DispersionError(f"mode solver overflows at diameter {d_nm:.6g} nm (V = {v.max():.6g})")
        lo, hi = _w_bracket(v)
        (flo, fhi), (slo, shi) = _char_fn(nu, v)(np.stack((lo, hi)))
        bracketed = lo < hi
        guided = bracketed & (np.signbit(flo) != np.signbit(fhi))
        finite = np.isfinite(flo) & np.isfinite(fhi)
        j = np.flatnonzero(guided & finite)  # every column, once the two checks below pass
        w, resid, scale, ok = _root(lambda cols, x: _char_fn(nu[j[cols]], v[j[cols]])(x),
                                    (lo[j], flo[j], slo[j]), (hi[j], fhi[j], shi[j]))
        finite[j] = ok
    if np.any(bracketed & ~finite):
        raise SolverConvergenceError(
            f"characteristic function not finite in the bracket for HE11 at diameter {d_nm:.1f} nm"
        )
    missing = omegas[~guided]
    if missing.size:
        lam_nm = ", ".join(f"{2*np.pi*C_VAC/om*1e9:.2f} nm" for om in missing[:8])
        more = "" if missing.size <= 8 else f" (+{missing.size-8} more)"
        raise NoGuidedModeError(
            f"no guided HE11 mode at diameter {d_nm:.1f} nm "
            f"for wavelengths: {lam_nm}{more} (mode below cutoff)"
        )
    resid = np.abs(resid)
    if np.any(resid > _RESIDUAL_RTOL * scale):
        i = int(np.argmax(resid / scale))
        raise SolverConvergenceError(
            f"root residual {resid[i]:.3e} exceeds {_RESIDUAL_RTOL:g} x term scale "
            f"{scale[i]:.3e} for HE11 at wavelength {2*np.pi*C_VAC/omegas[i]*1e9:.2f} nm, "
            f"diameter {d_nm:.1f} nm"
        )
    return np.sqrt(1.0 + (w / ak0) ** 2)


# --------------------------------------------------------------------------
# mode solutions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeSolution:
    """HE11 at one cross-section and frequency.

    The scalar profile (quasi-linearly polarized LP01 transverse component)
    is normalized so that its squared modulus integrates to 1 over the cross
    section, in units of 1/m.  ``field_at`` evaluates the closed-form profile
    at any radius; ``w`` is its decay parameter outside the core, which sets
    the radial reach of :func:`~taperfwm.biphoton.overlap_integral`.
    """

    omega: float
    n_eff: float
    cross_section: CrossSection
    w: float  # outside decay parameter a*k0*sqrt(n_eff^2 - 1)

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
        ModeSolution with ``n_eff`` from the root w of the characteristic
        function, solved to adjacent doubles in w (tested from 300 nm to
        20 um: within 1e-15 of the earlier bisection in log w, 2e-15 at
        120 nm, and within 2e-15 of the earlier n_eff bisection; within 1e-8
        of an independent dense scan), and a normalized LP01 field profile.

    Raises:
        NoGuidedModeError: HE11 below cutoff at this frequency/diameter.
        SolverConvergenceError: Root refinement failed its residual check.
        WavelengthRangeError: Frequency outside the glass validity interval.
    """
    if not (omega > 0.0 and np.isfinite(omega)):
        raise ValueError(f"omega must be positive and finite, got {omega}")
    n_eff = float(_solve_many(cross_section, np.array([omega]))[0])
    w = float(_transverse_params(cross_section, omega, n_eff)[1])
    return ModeSolution(omega=float(omega), n_eff=n_eff, cross_section=cross_section, w=w)


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

    ``omega`` is the table's grid.  Call the table with angular frequencies
    inside ``[omega[0], omega[-1]]``; queries outside raise
    ExtrapolationError.  ``k(omega)`` returns the propagation constant
    ``omega * n_eff / c``.
    """

    cross_section: CrossSection
    omega: np.ndarray
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

    for factor in (_TABLE_REFINE, 2 * _TABLE_REFINE):
        dense = _refined_grid(omega_grid, factor)
        checks = dense[:-1] + 0.5 * np.diff(dense)
        checks = checks[np.linspace(0, checks.size - 1, 5).astype(int)]
        try:  # one solve for both: each frequency's root is found on its own
            n_eff = _solve_many(cross_section, np.concatenate((dense, checks)))
        except NoGuidedModeError:
            _solve_many(cross_section, omega_grid)  # name the grid's own frequencies below cutoff
            raise
        interp = _Pchip(dense, n_eff[:dense.size])
        if np.max(np.abs(interp(checks) - n_eff[dense.size:])) <= _TABLE_TOL:
            break
    else:
        raise SolverConvergenceError(
            f"neff_table failed its held-out midpoint check for HE11 "
            f"even at refine={2 * _TABLE_REFINE}"
        )
    return NeffTable(cross_section, omega_grid.copy(), interp)


def _refined_grid(grid: np.ndarray, factor: int) -> np.ndarray:
    steps = np.linspace(0.0, 1.0, factor + 1)[:-1]
    dense = (grid[:-1, None] + steps[None, :] * np.diff(grid)[:, None]).ravel()
    return np.append(dense, grid[-1])

