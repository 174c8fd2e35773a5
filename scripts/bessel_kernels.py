"""Regenerate the coefficient literals of the Bessel kernels in taperfwm.dispersion.

The mode solver needs J_0 and J_1 on HE11's core range 0 <= u < j_{0,1} and
the exponentially scaled K_0(x) e^x and K_1(x) e^x for every x > 0.  Each
kernel is a short polynomial or a ratio of two, fitted here in mpmath at 40
digits and rounded to doubles, highest degree first:

* J, in z = x^2 on [0, 2.5^2]: J_0(x) / (j01^2 - x^2) and J_1(x) / x, so
  that J_0 = (j01 - x)(j01 + x) P(z) keeps full relative precision at its
  zero j01, which is split into two doubles;
* K below x = 2, in y = x^2 - 2 on [-2, 2]: R_0 = K_0 + log(x/2) I_0, I_0,
  R_1 = x (K_1 - log(x/2) I_1) and I_1 / x, so that
  K_0 = R_0 - log(x/2) I_0 and K_1 = log(x/2) x (I_1/x) + R_1 / x.  Centred
  at z = 2, R_0 loses less to the cancellation among its terms (8 ulps of
  K_0 e^x at worst rather than 13);
* K from x = 2 up, in t = 2/x on [0, 1]: K_n(x) e^x sqrt(x) = P_n(t) / Q_n(t)
  with Q_n(0) = 1.  A polynomial in t needs 26 terms here, because the
  function is not analytic at t = 0; the ratio needs 8 and 8, all of them
  positive, so that it loses nothing to cancellation.

The polynomials interpolate at the Chebyshev points of the first kind.  The
ratios minimise the squared relative error at 120 such points, by linear
least squares reweighted with the last denominator (Loeb's iteration).

Run ``python scripts/bessel_kernels.py``: it prints the block that sits
between the ``generated`` markers in ``src/taperfwm/dispersion.py``, and on
stderr the largest error of each fit: for a polynomial, at the Chebyshev
extreme points and relative to the larger of its function's end values; for
a ratio, relative, at its fitting points.
"""

import sys

import mpmath as mp

mp.mp.dps = 40
J01 = mp.besseljzero(0, 1)


def _j0_over_zero(z):
    if z == J01**2:  # the limit, J_1(j01) / (2 j01)
        return mp.besselj(1, J01) / (2 * J01)
    return mp.besselj(0, mp.sqrt(z)) / (J01**2 - z)


def _j1_over_x(z):
    return mp.besselj(1, mp.sqrt(z)) / mp.sqrt(z) if z else mp.mpf(1) / 2


def _r0(y):
    x = mp.sqrt(y + 2)
    return mp.besselk(0, x) + mp.log(x / 2) * mp.besseli(0, x) if x else -mp.euler


def _i0(y):
    return mp.besseli(0, mp.sqrt(y + 2))


def _r1(y):
    x = mp.sqrt(y + 2)
    return x * (mp.besselk(1, x) - mp.log(x / 2) * mp.besseli(1, x)) if x else mp.mpf(1)


def _i1_over_x(y):
    x = mp.sqrt(y + 2)
    return mp.besseli(1, x) / x if x else mp.mpf(1) / 2


def _k0e_sqrt(t):
    return mp.besselk(0, 2 / t) * mp.exp(2 / t) * mp.sqrt(2 / t)


def _k1e_sqrt(t):
    return mp.besselk(1, 2 / t) * mp.exp(2 / t) * mp.sqrt(2 / t)


def chebyshev_fit(f, interval, count):
    """The degree ``count - 1`` polynomial through f at the Chebyshev points
    of ``interval`` (highest degree first), and its error."""
    a, b = (mp.mpf(end) for end in interval)
    angles = [mp.pi * (j + mp.mpf(1) / 2) / count for j in range(count)]
    values = [f((b - a) / 2 * mp.cos(t) + (b + a) / 2) for t in angles]
    weights = [2 * mp.fsum(v * mp.cos(k * t) for v, t in zip(values, angles)) / count
               for k in range(count)]
    weights[0] /= 2
    # T_k((2x - a - b) / (b - a)) in powers of x, lowest first
    shift = [-(a + b) / (b - a), 2 / (b - a)]
    previous, current = [mp.mpf(1)], shift
    power = [weights[0]] + [mp.mpf(0)] * (count - 1)
    for k in range(1, count):
        for i, c in enumerate(current):
            power[i] += weights[k] * c
        following = [mp.mpf(0)] * (len(current) + 1)
        for i, c in enumerate(current):
            following[i] += 2 * shift[0] * c
            following[i + 1] += 2 * shift[1] * c
        for i, c in enumerate(previous):
            following[i] -= c
        previous, current = current, following
    coefficients = power[::-1]
    ends = [(b - a) / 2 * mp.cos(mp.pi * k / count) + (b + a) / 2 for k in range(count + 1)]
    error = max(abs(f(x) - mp.polyval(coefficients, x)) for x in ends)
    return coefficients, error / max(abs(f(a)), abs(f(b)))


def rational_fit(f, interval, count, points=120, rounds=8):
    """Numerator and denominator (highest degree first, the denominator's
    constant term 1) of degree ``count - 1`` each, and the error."""
    a, b = (mp.mpf(end) for end in interval)
    xs = [(b - a) / 2 * mp.cos(mp.pi * (j + mp.mpf(1) / 2) / points) + (b + a) / 2
          for j in range(points)]
    fs = [f(x) for x in xs]
    p, q = [], [mp.mpf(0)] * (count - 1) + [mp.mpf(1)]
    for _ in range(rounds):
        rows, rhs = mp.matrix(points, 2 * count - 1), mp.matrix(points, 1)
        for i, (x, fx) in enumerate(zip(xs, fs)):
            weight = 1 / (mp.polyval(q, x) * fx)
            for k in range(count):
                rows[i, k] = x**k * weight
            for k in range(1, count):
                rows[i, count - 1 + k] = -fx * x**k * weight
            rhs[i] = fx * weight
        solution = mp.qr_solve(rows, rhs)[0]
        p = [solution[k] for k in reversed(range(count))]
        q = [solution[count - 1 + k] for k in reversed(range(1, count))] + [mp.mpf(1)]
    error = max(abs(mp.polyval(p, x) / mp.polyval(q, x) / fx - 1) for x, fx in zip(xs, fs))
    return p, q, error


# (comment, fit, interval, coefficient count, (function, literal names) pairs)
TABLES = (
    ("J_0(x) / (j01^2 - x^2) and J_1(x) / x in z = x^2 on [0, 2.5^2]",
     chebyshev_fit, (0, mp.mpf(2.5) ** 2), 10,
     ((_j0_over_zero, ["_J0_POLY"]), (_j1_over_x, ["_J1_POLY"]))),
    ("R_0, I_0, R_1 and I_1(x) / x in y = x^2 - 2 on [-2, 2]",
     chebyshev_fit, (-2, 2), 11,
     ((_r0, ["_K0_SMALL_R"]), (_i0, ["_K0_SMALL_I"]), (_r1, ["_K1_SMALL_R"]),
      (_i1_over_x, ["_K1_SMALL_I"]))),
    ("P_n and Q_n of K_n(x) e^x sqrt(x) = P_n / Q_n in t = 2/x on [0, 1]",
     rational_fit, (0, 1), 8,
     ((_k0e_sqrt, ["_K0_NUM", "_K0_DEN"]), (_k1e_sqrt, ["_K1_NUM", "_K1_DEN"]))),
)


def literal_block() -> str:
    """The generated block of dispersion.py, markers included."""
    hi = float(J01)
    lo = float(J01 - mp.mpf(hi))
    lines = ["# generated by scripts/bessel_kernels.py: begin",
             f"_J01_HI, _J01_LO = {hi!r}, {lo!r}  # j_{{0,1}} as the sum of two doubles"]
    for comment, fit, interval, count, functions in TABLES:
        lines.append(f"# {comment}, highest degree first")
        for f, names in functions:
            *fitted, error = fit(f, interval, count)
            print(f"{' and '.join(names)}: error {mp.nstr(error, 3)}", file=sys.stderr)
            for name, coefficients in zip(names, fitted):
                values = [repr(float(c)) for c in coefficients]
                lines.append(f"{name} = (")
                lines += ["    " + ", ".join(values[i:i + 3]) + "," for i in range(0, count, 3)]
                lines.append(")")
    lines.append("# generated by scripts/bessel_kernels.py: end")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.stdout.write(literal_block())
