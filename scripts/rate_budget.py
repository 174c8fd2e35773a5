#!/usr/bin/env python3
"""Walk the absolute-rate budget and fit a synthetic power scan.

Prints the conversion-efficiency budget (internal pair rate, both readings
of a single quoted two-channel loss figure), then generates a noisy
dark + Raman + SFWM power scan and shows the quadratic/linear/constant
decomposition recovering the inputs.
"""

import argparse

import numpy as np

from taperfwm.rates import (
    DEFAULT_CONVERSION_EFFICIENCY,
    fit_power_scan,
    rate_budget_report,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--photons-per-pulse", type=float, default=2.67e8,
                    help="pump photons per pulse used in the budget walk")
    ap.add_argument("--loss-db", type=float, default=-17.0,
                    help="quoted two-channel loss figure (dB, <= 0)")
    ap.add_argument("--noise", type=float, default=0.01,
                    help="relative noise on the synthetic scan")
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    # 1062 nm pump pulses at 18 MHz and 118 mW average power
    print(rate_budget_report(DEFAULT_CONVERSION_EFFICIENCY, 1062e-9, 18e6, 0.118,
                             args.photons_per_pulse, total_loss_db=args.loss_db))

    # Synthetic scan: rate(P) = D + b P + a P^2 with multiplicative noise.
    dark, linear, quadratic = 400.0, 5.7e4, 4.3e6
    powers = np.linspace(0.020, 0.120, 10)
    rng = np.random.default_rng(args.seed)
    clean = dark + linear * powers + quadratic * powers**2
    noisy = clean * (1.0 + args.noise * rng.standard_normal(powers.size))

    fit = fit_power_scan(np.column_stack([powers, noisy]))
    print("\npower-scan decomposition (true -> fitted):")
    print(f"  dark      {dark:10.1f} Hz      -> {fit.dark:10.1f} Hz")
    print(f"  linear    {linear:10.3e} Hz/W  -> {fit.linear:10.3e} Hz/W")
    print(f"  quadratic {quadratic:10.3e} Hz/W^2 -> {fit.quadratic:10.3e} Hz/W^2")
    share = fit.components(powers)
    top = powers[-1]
    print(f"\nat {top * 1e3:.0f} mW: Raman {share['raman_linear'][-1]:.0f} Hz, "
          f"SFWM {share['sfwm_quadratic'][-1]:.0f} Hz "
          f"(quadratic fraction {share['sfwm_quadratic'][-1] / share['total'][-1]:.1%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
