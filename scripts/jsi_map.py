#!/usr/bin/env python3
"""Map phase-matched signal/idler pairs across waist diameters.

For each uniform-waist diameter in a scan range, locate the zero-mismatch
pair on the energy-conservation line and tabulate the emission wavelengths;
then assemble the full joint spectral amplitude at one chosen diameter and
report the JSI peak and Schmidt number.  This is the standard dispersion-
engineering loop: pick a target wavelength pair, read off the waist that
produces it, inspect the factorability there.

Example:
    python3 scripts/jsi_map.py --d-min 820 --d-max 1000 --steps 19 \
        --detail 885 --out out/jsi_map
"""

import argparse
from pathlib import Path

import numpy as np

from taperfwm.biphoton import (
    PumpSpec,
    SpectralGrid,
    jsa,
    phase_matched_pair,
    schmidt_analysis,
    write_matrix_csv,
)
from taperfwm.dispersion import C_VAC, FUSED_SILICA, CrossSection
from taperfwm.profile import parse_profile, segment


def omega(wavelength_m: float) -> float:
    return 2.0 * np.pi * C_VAC / wavelength_m


def wavelength_nm(omega_rad_s: float) -> float:
    return 2.0 * np.pi * C_VAC / omega_rad_s * 1e9


def scan_diameters(pump: PumpSpec, diameters_m, signal_band=(700e-9, 1000e-9)):
    """Yield (diameter, lambda_s, lambda_i) for waists with a crossing."""
    ws_hi, ws_lo = omega(signal_band[0]), omega(signal_band[1])
    for d in diameters_m:
        cs = CrossSection(d, FUSED_SILICA)
        try:
            w_s, w_i = phase_matched_pair(cs, pump.omega0, (ws_lo, ws_hi))
        except ValueError:
            yield d, None, None
            continue
        yield d, wavelength_nm(w_s), wavelength_nm(w_i)


def detail_jsa(pump: PumpSpec, diameter_m: float, length_m: float, out_dir: Path,
               n_grid: int = 256, n_segments: int = 100):
    text = f"0 {diameter_m!r}\n{length_m!r} {diameter_m!r}"
    profile = parse_profile(text, label=f"uniform-{diameter_m * 1e9:.0f}nm")
    segmented = segment(profile, n_segments)
    grid = SpectralGrid.from_wavelength_windows((850e-9, 950e-9), (1250e-9, 1450e-9),
                                                n_points=n_grid)
    result = jsa(segmented, pump, grid)
    intensity = result.intensity
    i, j = np.unravel_index(np.argmax(intensity), intensity.shape)
    peak_s = wavelength_nm(grid.signal_omega[i])
    peak_i = wavelength_nm(grid.idler_omega[j])
    analysis = schmidt_analysis(result)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(out_dir / "jsi_detail.csv", grid, intensity / intensity.max(),
                     name="joint spectral intensity, peak-normalized",
                     comments=[f"waist {diameter_m * 1e9:.1f} nm, length {length_m * 1e3:.1f} mm"])
    return peak_s, peak_i, analysis["schmidt_number"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--d-min", type=float, default=820.0, help="smallest waist diameter (nm)")
    ap.add_argument("--d-max", type=float, default=1000.0, help="largest waist diameter (nm)")
    ap.add_argument("--steps", type=int, default=19, help="number of diameters to sample")
    ap.add_argument("--detail", type=float, default=885.0,
                    help="diameter (nm) for the full JSA/Schmidt detail pass")
    ap.add_argument("--length", type=float, default=14.0, help="waist length (mm)")
    ap.add_argument("--out", type=Path, default=Path("out/jsi_map"))
    args = ap.parse_args()

    pump = PumpSpec.from_spectral_fwhm(1062e-9, 2e-9)
    diameters = np.linspace(args.d_min * 1e-9, args.d_max * 1e-9, args.steps)

    print(f"phase-matched pairs, pump {pump.wavelength * 1e9:.0f} nm")
    print(f"{'d (nm)':>8}  {'signal (nm)':>12}  {'idler (nm)':>12}")
    rows = []
    for d, ls, li in scan_diameters(pump, diameters):
        if ls is None:
            print(f"{d * 1e9:8.1f}  {'no crossing':>12}  {'':>12}")
        else:
            print(f"{d * 1e9:8.1f}  {ls:12.1f}  {li:12.1f}")
            rows.append((d * 1e9, ls, li))

    args.out.mkdir(parents=True, exist_ok=True)
    table = args.out / "pairs_vs_diameter.csv"
    lines = ["diameter_nm,signal_nm,idler_nm"]
    lines += [f"{d!r},{ls!r},{li!r}" for d, ls, li in rows]
    table.write_text("\n".join(lines) + "\n")
    print(f"wrote {table}")

    peak_s, peak_i, k = detail_jsa(pump, args.detail * 1e-9, args.length * 1e-3, args.out)
    print(f"\ndetail at {args.detail:.0f} nm waist, {args.length:.0f} mm:")
    print(f"  JSI peak ({peak_s:.1f}, {peak_i:.1f}) nm, Schmidt number {k:.3f}")
    print(f"  wrote {args.out / 'jsi_detail.csv'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
