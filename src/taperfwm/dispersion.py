"""Material dispersion and guided modes of a circular step-index waveguide.

The waist of a tapered fiber is modelled as a silica cylinder surrounded by
air (index 1).  This module provides the Sellmeier material model, a
full-vector solver for the fundamental HE11 mode (Bessel J in the core,
modified Bessel K in the air), its normalized transverse (LP01) field
profile, and tabulated ``n_eff(omega)`` for fast downstream evaluation: a
Chebyshev series through direct solves, cubic Hermite on fixed knots.

The solver works in the decay w outside the core, with core parameter
u = sqrt((V - w)(V + w)) and n_eff^2 = 1 + (w / a k0)^2.  HE11 is the only
root of a pole-free form of the m = 1 hybrid-mode characteristic equation
with u below the first zero j_{0,1} of J_0, so one bracket in w, clipped at
both ends, holds it.  Inverse-quadratic steps with geometric-mean fallbacks
(Chandrupatla 1997) take it to adjacent doubles in w, which keeps full
relative precision in w even where n_eff - 1 is 1e-9.  From 600 nm to 20 um
waists that takes 8 to 13 evaluations of the characteristic function per
frequency, the bracket ends included, where bisection in log w took 63.

Bessel values come from the module's own numpy kernels, short polynomials
with literal coefficients that ``scripts/bessel_kernels.py`` generates with
mpmath: J_0 and J_1 on HE11's core range (``_bessel_j``), with
J'_1 = J_0 - J_1/u (Abramowitz & Stegun 9.1.27), and the exponentially
scaled K_0 e^x and K_1 e^x for every x > 0 (``_bessel_k``), with the upward
recurrence K_{n+1} = K_{n-1} + (2n/x) K_n (A&S 9.6.26), which is stable for
K.  They stay within 8 ulps of mpmath, and keep scipy out of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence, Union

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebvander

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
    "neff_tables",
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
# Bessel kernels
# --------------------------------------------------------------------------

# generated by scripts/bessel_kernels.py: begin
_J01_HI, _J01_LO = 2.404825557695773, -1.176691651530894e-16  # j_{0,1} as the sum of two doubles
# J_0(x) / (j01^2 - x^2) and J_1(x) / x in z = x^2 on [0, 2.5^2], highest degree first
_J0_POLY = (
    -6.707811189303656e-20, 2.8496167734465165e-17, -9.22039569086449e-15,
    2.3494798792581987e-12, -4.5736278434551553e-10, 6.517182620425628e-08,
    -6.404783237234546e-06, 0.0003969877252644332, -0.013329146159788531,
    0.17291506903064494,
)
_J1_POLY = (
    -1.3490046040203854e-18, 5.201366797651186e-16, -1.50165922668235e-13,
    3.3639263400074783e-11, -5.6514032404139825e-09, 6.781684025837328e-07,
    -5.425347222203581e-05, 0.002604166666666576, -0.062499999999999986,
    0.5,
)
# R_0, I_0, R_1 and I_1(x) / x in y = x^2 - 2 on [-2, 2], highest degree first
_K0_SMALL_R = (
    1.7854414371292447e-19, 6.872327179299991e-17, 2.129729527251828e-14,
    5.174229119370675e-12, 9.520878022134378e-10, 1.267033318734341e-07,
    1.1425347392438285e-05, 0.0006316740803995115, 0.01794425258560128,
    0.1702486605066903, -0.30362077291575545,
)
_K0_SMALL_I = (
    7.578695914107722e-20, 3.045258252989652e-17, 9.920645243811398e-15,
    2.5572248777628708e-12, 5.056605264613777e-10, 7.367434337168192e-08,
    7.488792863517717e-06, 0.0004910706382046011, 0.01839746709026334,
    0.3179308640780343, 1.5660829297563506,
)
_K1_SMALL_R = (
    -3.511915570519414e-18, -1.2137249252330266e-15, -3.333099655542612e-13,
    -7.056349610734929e-11, -1.1064271515912994e-08, -1.2162090826161354e-06,
    -8.644805291345667e-05, -0.00348177940247148, -0.06095963221693591,
    -0.16612047762015655, 0.8850882877295894,
)
_K1_SMALL_I = (
    3.431882993186482e-21, 1.5157510610324881e-18, 5.481155986087218e-16,
    1.5873032380595671e-13, 3.580114838477279e-11, 6.0679263175367805e-09,
    7.367434337166991e-07, 5.9910342908141736e-05, 0.0029464238292276064,
    0.07358986836105336, 0.6358617281560686,
)
# P_n and Q_n of K_n(x) e^x sqrt(x) = P_n / Q_n in t = 2/x on [0, 1], highest degree first
_K0_NUM = (
    0.002543255454829432, 0.21661746442584934, 2.900833167186666,
    13.039068544153139, 24.97780421669272, 22.1136410064924,
    8.796969544532905, 1.2533141373155003,
)
_K0_DEN = (
    0.005260808118073647, 0.25198326821208217, 2.785073977047092,
    11.452835669204735, 20.94340236377405, 18.069146253558014,
    7.081466181435813, 1.0,
)
_K1_NUM = (
    0.011191411204503685, 0.39028787266969966, 3.6683130179220322,
    14.030266801816387, 25.103185598398262, 21.759985838339578,
    8.67720961820218, 1.2533141373155003,
)
_K1_DEN = (
    0.001060029266993292, 0.11360828542023159, 1.7070714310306816,
    8.366607144388466, 17.189917331072774, 16.128270196471274,
    6.735911585213655, 1.0,
)
# generated by scripts/bessel_kernels.py: end

# The J fit's interval.  HE11 has u < j_{0,1}; the room above it takes u
# rounded a few ulps past j_{0,1} at the bottom of the w bracket.  (Table
# n_eff keeps a 3 mm waist's u 1.4e-4 below j_{0,1} over 800-1600 nm; the
# PCHIP tables before them put it up to 4.4e-4 past.)
_J_MAX = 2.5

# Kernel arguments evaluated per step: 64 KB temporaries stay in cache and below the mmap threshold.
_KERNEL_BLOCK = 8192


def _poly(coefficients, z):
    """Horner's rule: the polynomial with ``coefficients``, highest degree first, at ``z``."""
    p = coefficients[0] * z
    for c in coefficients[1:-1]:
        p += c
        p *= z
    p += coefficients[-1]
    return p


def _blocked(kernel, x, rows: int) -> tuple:
    """``kernel`` over the flattened ``x`` in blocks: ``rows`` arrays of x's shape."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    if flat.size <= _KERNEL_BLOCK:
        return tuple(row.reshape(x.shape) for row in kernel(flat))
    out = np.empty((rows, flat.size))
    for start in range(0, flat.size, _KERNEL_BLOCK):
        block = slice(start, start + _KERNEL_BLOCK)
        for row, values in zip(out, kernel(flat[block])):
            row[block] = values
    return tuple(row.reshape(x.shape) for row in out)


def _bessel_j(x, orders: int = 2) -> tuple:
    """J_0(x) and, for ``orders=2``, J_1(x), for |x| <= _J_MAX.

    J_0 = (j01 - x)(j01 + x) P(x^2) with j01 as two doubles keeps full
    relative precision at the zero; J_1 = x Q(x^2).  Beyond _J_MAX, where
    the fit does not hold, both are NaN, which the solver's finiteness
    checks reject: the top end of an empty w bracket reaches there.
    """
    def kernel(b):
        z = b * b
        j0 = _poly(_J0_POLY, z)
        j0 *= ((_J01_HI - b) + _J01_LO) * (_J01_HI + b)
        return (j0,) if orders == 1 else (j0, b * _poly(_J1_POLY, z))

    x = np.asarray(x, dtype=float)
    values = _blocked(kernel, x, orders)
    beyond = np.abs(x) > _J_MAX
    if beyond.any():
        for v in values:
            v[beyond] = np.nan
    return values


def _bessel_k(x, orders: int = 2) -> tuple:
    """K_0(x) e^x and, for ``orders=2``, K_1(x) e^x, for x > 0.

    Below x = 2 from the power series K_0 = R_0 - log(x/2) I_0 and
    K_1 = log(x/2) I_1 + R_1 / x in x^2 - 2, from x = 2 up from the ratio
    K_n(x) e^x sqrt(x) = P_n(2/x) / Q_n(2/x).
    """
    def kernel(b):
        out = [np.empty_like(b) for _ in range(orders)]
        small = b < 2.0
        if small.any():
            xs = b[small]
            y, log, scale = xs * xs - 2.0, np.log(0.5 * xs), np.exp(xs)
            out[0][small] = (_poly(_K0_SMALL_R, y) - log * _poly(_K0_SMALL_I, y)) * scale
            if orders == 2:
                out[1][small] = (log * xs * _poly(_K1_SMALL_I, y) + _poly(_K1_SMALL_R, y) / xs) * scale
        large = ~small
        xl = b[large]
        t, root = 2.0 / xl, np.sqrt(xl)
        out[0][large] = _poly(_K0_NUM, t) / (_poly(_K0_DEN, t) * root)
        if orders == 2:
            out[1][large] = _poly(_K1_NUM, t) / (_poly(_K1_DEN, t) * root)
        return out

    return _blocked(kernel, x, orders)


def _bessel_ke(x) -> tuple:
    """(K_0(x) e^x, K_1(x) e^x, K_2(x) e^x) from ``_bessel_k``.

    K_2 = K_0 + (2/x) K_1 is the stable upward recurrence for K, and the
    common e^x factor obeys it too.
    """
    k0, k1 = _bessel_k(x)
    return k0, k1, k0 + (2.0 / x) * k1


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

_RESIDUAL_RTOL = 1e-8


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
        ju0, ju1 = _bessel_j(u)
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
    floor = np.sqrt(np.maximum((v - _J01_HI) * (v + _J01_HI), 0.0))
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


def _column_params(cross_section: CrossSection, omegas: np.ndarray):
    """a*k0, V and 1/n1^2 of one cross-section's columns, one per angular frequency.

    Raises NoGuidedModeError if the core index is at or below the air index
    and DispersionError if V^2 overflows.
    """
    n1, ak0 = _guide_params(cross_section, omegas)
    if np.any(n1 <= 1.0):  # a user glass can fall below air
        i = int(np.argmax(n1 <= 1.0))
        raise NoGuidedModeError(
            f"guidance condition violated: core index {n1.flat[i]:.6f} <= air index 1 "
            f"at wavelength {2*np.pi*C_VAC/omegas.flat[i]*1e9:.1f} nm"
        )
    v = ak0 * np.sqrt(n1**2 - 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.all(np.isfinite(v * v)):
            raise DispersionError(f"mode solver overflows at diameter {cross_section.diameter * 1e9:.6g} nm "
                                  f"(V = {v.max():.6g})")
    return ak0, v, 1.0 / n1**2


def _solve_columns(v, nu):
    """HE11 root w of h for every column (V, 1/n1^2) of the flat ``v`` and ``nu``.

    Returns ``w``, h(w) and its term scale (NaN where no root was sought),
    and the masks ``bracketed`` (the bracket is not empty), ``guided`` (also
    its ends have opposite signs) and ``finite`` (h is finite at the ends and
    at every point ``_root`` evaluated).  The root is sought where a column
    is guided and finite at its ends.  Every step is elementwise, so a column
    gets the same bits whichever columns it is solved beside.
    """
    w, resid, scale = np.full(v.size, np.nan), np.full(v.size, np.nan), np.full(v.size, np.nan)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        lo, hi = _w_bracket(v)
        (flo, fhi), (slo, shi) = _char_fn(nu, v)(np.stack((lo, hi)))
        bracketed = lo < hi
        guided = bracketed & (np.signbit(flo) != np.signbit(fhi))
        finite = np.isfinite(flo) & np.isfinite(fhi)
        j = np.flatnonzero(guided & finite)
        w[j], resid[j], scale[j], finite[j] = _root(lambda cols, x: _char_fn(nu[j[cols]], v[j[cols]])(x),
                                                    (lo[j], flo[j], slo[j]), (hi[j], fhi[j], shi[j]))
    return w, resid, scale, bracketed, guided, finite


def _solve_many(cross_section: CrossSection, omegas: np.ndarray) -> np.ndarray:
    """HE11 effective indices at each angular frequency (vectorized).

    Each frequency's root w of h is found by ``_root`` on ``_w_bracket``, and
    n_eff = sqrt(1 + (w/(a k0))^2).  Raises as :func:`_column_params` and
    :func:`_checked_roots` do.
    """
    omegas = np.asarray(omegas, dtype=float)
    ak0, v, nu = _column_params(cross_section, omegas)
    return _checked_roots(cross_section, omegas, ak0, *_solve_columns(v, nu))


def _checked_roots(cross_section: CrossSection, omegas, ak0, w, resid, scale, bracketed, guided, finite):
    """n_eff of one cross-section's columns from their :func:`_solve_columns` results.

    Raises NoGuidedModeError listing every frequency whose bracket is empty or
    has ends of one sign, and SolverConvergenceError if h is not finite at a
    point it is evaluated at or the root fails its residual check.
    """
    d_nm = cross_section.diameter * 1e9
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

    Raises DispersionError if a core parameter u reaches j_{0,1}: an HE11
    root stays below it, but an n_eff that is not a root can pass it.
    """
    r = np.asarray(r, dtype=float)
    a = cross_section.diameter / 2.0
    u, w = _transverse_params(cross_section, omegas, n_effs)
    if np.any(u >= _J01_HI):
        raise DispersionError(f"core parameter u = {float(np.max(u)):.9f} reaches j01 at diameter "
                              f"{cross_section.diameter * 1e9:.1f} nm: an n_eff is not an HE11 root")
    j0u, j1u = _bessel_j(u)
    k0w, k1w = _bessel_k(w)
    amp = _norm_amplitude(a, j0u, j1u, k0w, k1w)

    out = np.empty((u.size, r.size))
    inside = r <= a
    out[:, inside] = _bessel_j(u[:, None] * r[None, inside] / a, 1)[0]
    rr = r[~inside]
    # K_0(w r/a)/K_0(w) via scaled K; explicit exponent avoids underflow
    out[:, ~inside] = (
        j0u[:, None]
        / k0w[:, None]
        * _bessel_k(w[:, None] * rr[None, :] / a, 1)[0]
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
# midpoints; the Chebyshev nodes a table's series is first taken from
# (doubled once for a table that misses the gap); the table's knots per
# interval of its grid.
_TABLE_TOL = 1e-10
_TABLE_NODES = 32
_TABLE_REFINE = 16


@dataclass(frozen=True, eq=False)
class NeffTable:
    """HE11 ``n_eff(omega)`` of one cross-section: Chebyshev series, cubic Hermite on fixed knots.

    A Chebyshev series through direct solves at first-kind nodes gives the
    values and slopes at :attr:`knots`, and the table is the cubic Hermite
    interpolant through them, kept as power-basis coefficients of each
    interval ``knots[i] <= q < knots[i+1]`` (the last one closed).  Its range
    is that of the grid it was built on, the ends of :attr:`knots`.  Call the
    table with angular frequencies in that range; a query outside it, or NaN,
    raises ExtrapolationError.  A call is ``at(locate(omega))``.
    """

    cross_section: CrossSection
    knots: np.ndarray  # one array for every table of a neff_tables call
    _coef: tuple  # (c0, c1, c2, c3) of each interval: c3 + c2 s + c1 s^2 + c0 s^3

    def __call__(self, omega):
        out = self.at(self.locate(omega))
        return out.item() if np.ndim(omega) == 0 else out

    def locate(self, omega):
        """Each ``omega``'s interval and offset from its left knot, for :meth:`at`.

        Every table on the same :attr:`knots` array can use the result.
        """
        omega = np.asarray(omega, dtype=float)
        x = self.knots
        if not (np.all(omega >= x[0]) and np.all(omega <= x[-1])):
            raise ExtrapolationError(
                f"query outside tabulated range [{x[0]:.6e}, {x[-1]:.6e}] rad/s for HE11"
            )
        # counting interior knots <= omega gives the interval, the last one closed
        i = np.searchsorted(x[1:-1], omega, side="right")
        return i, omega - x.take(i)

    def at(self, located):
        """n_eff at the frequencies :meth:`locate` placed, in their shape."""
        i, s = located
        c0, c1, c2, value = (c.take(i) for c in self._coef)
        # c3 + c2 s + c1 s^2 + c0 s^3, summed in this order, in place
        c2 *= s
        value += c2
        s2 = s * s
        c1 *= s2
        value += c1
        s2 *= s
        c0 *= s2
        value += c0
        return value


def _hermite(x, y, d):
    """Power-basis coefficients of the cubic through values ``y`` and slopes ``d`` at knots ``x``."""
    h = np.diff(x)
    m = np.diff(y) / h
    t = (d[:-1] + d[1:] - 2 * m) / h
    return t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]


def _chebyshev_maps(lo: float, hi: float, nodes: int, knots: np.ndarray):
    """First-kind Chebyshev nodes on [lo, hi], and the matrices that take values
    there to the interpolating series' values and slopes at ``knots``."""
    x = -np.cos(np.pi * (np.arange(nodes) + 0.5) / nodes)
    # series coefficients c_k = (2/m) sum_j T_k(x_j) y_j, c_0 halved (discrete orthogonality)
    to_series = (2.0 / nodes) * chebvander(x, nodes - 1).T
    to_series[0] *= 0.5
    at_knots = (2.0 * knots - (lo + hi)) / (hi - lo)
    values = chebvander(at_knots, nodes - 1) @ to_series
    slopes = chebvander(at_knots, nodes - 2) @ chebder(to_series, scl=2.0 / (hi - lo))
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * x, values, slopes


def neff_table(cross_section: CrossSection, omega_grid: Sequence[float]) -> NeffTable:
    """Tabulate HE11 ``n_eff(omega)`` over ``omega_grid``: Chebyshev series, cubic Hermite on fixed knots.

    The series interpolates direct solves at 32 first-kind Chebyshev nodes
    over the grid's range; the table is the cubic Hermite interpolant through
    its values and slopes at knots 16 times denser than ``omega_grid``.  It
    must reproduce direct solves at five held-out midpoints to 1e-10
    (``_TABLE_TOL``), from 64 nodes if not from 32; a table whose series meets
    that check but whose knots do not gets no second pass.  The grid's own
    points are solved too, so that a point below cutoff is named.  This is
    the one-diameter case of :func:`neff_tables`.

    Args:
        cross_section: Waveguide geometry.
        omega_grid: Strictly increasing angular frequencies (rad/s), at least
            two, all guided.

    Raises:
        NoGuidedModeError: Any grid point below cutoff (message lists them).
        SolverConvergenceError: The held-out check fails even from 64 nodes,
            or the series meets it and the knots are too coarse (message
            names the diameter).
        ExtrapolationError: On later queries outside the grid range.
    """
    (table,) = neff_tables([cross_section], omega_grid)
    if isinstance(table, DispersionError):
        raise table
    return table


def neff_tables(cross_sections: Sequence[CrossSection], omega_grid: Sequence[float]) -> list:
    """The :func:`neff_table` of every cross-section, from one stacked solve.

    Every cross-section's Chebyshev-node, grid and held-out columns go
    through one ``_root`` pass (each frequency's root is found on its own, so
    each keeps its bits whatever it is stacked beside).  Then each
    cross-section's columns pass the checks of :func:`_checked_roots`, and
    its table, a Chebyshev series and cubic Hermite on fixed knots, the
    held-out check; those that miss it go through one more stacked pass at
    twice the nodes, unless the series itself meets the check at the
    held-out points, so that only the knots miss.  All tables of one call
    share one :attr:`~NeffTable.knots` array.

    Returns one entry per cross-section: its table, or the DispersionError
    that building it raises, which :func:`neff_table` raises.  A cross-section
    below cutoff gets the error naming the grid's own frequencies below cutoff.
    """
    omega_grid = _table_grid(omega_grid)
    knots = _refined_grid(omega_grid, _TABLE_REFINE)
    mids = knots[:-1] + 0.5 * np.diff(knots)
    checks = mids[np.linspace(0, mids.size - 1, 5).astype(int)]
    built = [None] * len(cross_sections)
    held_out, gaps = {}, {}
    pending = list(range(len(cross_sections)))
    for nodes in (_TABLE_NODES, 2 * _TABLE_NODES):
        if not pending:
            break
        at_nodes, values, slopes = _chebyshev_maps(omega_grid[0], omega_grid[-1], nodes, knots)
        series_at_checks = _chebyshev_maps(omega_grid[0], omega_grid[-1], nodes, checks)[1]
        # the first pass also solves the grid, to name its points below cutoff, and the checks
        omegas = np.concatenate((at_nodes, omega_grid, checks)) if nodes == _TABLE_NODES else at_nodes
        retry = []
        for k, n_eff in zip(pending, _solve_stacked([cross_sections[k] for k in pending], omegas)):
            if isinstance(n_eff, DispersionError):
                built[k] = _table_error(n_eff, cross_sections[k], omega_grid)
                continue
            held_out.setdefault(k, n_eff[-checks.size:])
            mean = n_eff[:nodes].mean()  # offsets from it round less: 2e-15, not 1.2e-14, at 20 um
            y = n_eff[:nodes] - mean
            table = NeffTable(cross_sections[k], knots, _hermite(knots, values @ y + mean, slopes @ y))
            gaps[k] = np.max(np.abs(table.at(table.locate(checks)) - held_out[k]))
            if gaps[k] <= _TABLE_TOL:
                built[k] = table
            elif np.max(np.abs(series_at_checks @ y + mean - held_out[k])) <= _TABLE_TOL:
                # more nodes cannot mend a miss that only the knots make
                built[k] = SolverConvergenceError(
                    f"neff_table missed its held-out check for HE11 at diameter "
                    f"{cross_sections[k].diameter * 1e9:.1f} nm by {gaps[k]:.3e} (> {_TABLE_TOL:g}), "
                    f"though its {nodes}-node Chebyshev series meets it: the knots, "
                    f"{_TABLE_REFINE} per grid interval, are too coarse for this grid"
                )
            else:
                retry.append(k)
        pending = retry
    for k in pending:
        built[k] = SolverConvergenceError(
            f"neff_table missed its held-out check for HE11 at diameter "
            f"{cross_sections[k].diameter * 1e9:.1f} nm by {gaps[k]:.3e} (> {_TABLE_TOL:g}) "
            f"even at degree {2 * _TABLE_NODES - 1} ({2 * _TABLE_NODES} Chebyshev nodes)"
        )
    return built


def _solve_stacked(cross_sections: Sequence[CrossSection], omegas: np.ndarray) -> list:
    """Each cross-section's n_eff at ``omegas`` from one ``_root`` pass, or the DispersionError it raises."""
    out = [None] * len(cross_sections)
    params = {}
    for k, cs in enumerate(cross_sections):
        try:
            params[k] = _column_params(cs, omegas)
        except DispersionError as err:
            out[k] = err
    if params:
        v, nu = (np.concatenate([p[i] for p in params.values()]) for i in (1, 2))
        rows = zip(*(a.reshape(len(params), omegas.size) for a in _solve_columns(v, nu)))
        for (k, (ak0, _, _)), columns in zip(params.items(), rows):
            try:
                out[k] = _checked_roots(cross_sections[k], omegas, ak0, *columns)
            except DispersionError as err:
                out[k] = err
    return out


def _table_error(err: DispersionError, cross_section: CrossSection, omega_grid: np.ndarray):
    """The error a table build raises for ``err``: below cutoff, the one naming the grid's own frequencies."""
    if isinstance(err, NoGuidedModeError):
        try:
            _solve_many(cross_section, omega_grid)
        except DispersionError as named:
            return named
    return err


def _table_grid(omega_grid) -> np.ndarray:
    omega_grid = np.asarray(omega_grid, dtype=float)
    if omega_grid.ndim != 1 or omega_grid.size < 2:
        raise ValueError("omega_grid must be a 1-D array with at least two points")
    bad = np.flatnonzero(~np.isfinite(omega_grid))
    if bad.size:
        value = float(omega_grid[bad[0]])
        raise ValueError(f"omega_grid[{bad[0]}] is {value!r}; every grid point must be finite")
    if np.any(np.diff(omega_grid) <= 0):
        raise ValueError("omega_grid must be strictly increasing")
    return omega_grid


def _refined_grid(grid: np.ndarray, factor: int) -> np.ndarray:
    steps = np.linspace(0.0, 1.0, factor + 1)[:-1]
    dense = (grid[:-1, None] + steps[None, :] * np.diff(grid)[:, None]).ravel()
    return np.append(dense, grid[-1])
