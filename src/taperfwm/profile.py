"""Tapered-fiber geometry: measured diameter profiles and uniform segmentation.

A profile is an ordered list of (z, diameter) samples, typically digitized
from an SEM scan of the waist region.  For the phase-matching sum the fiber
is divided into N segments of equal length; each segment is represented by
the cross-section at its midpoint, with diameters obtained by piecewise
linear interpolation of the samples (measured points carry ~10 nm
uncertainty, so higher-order fits would only add false structure).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .dispersion import FUSED_SILICA, CrossSection, SellmeierGlass

__all__ = ["TaperProfile", "SegmentedProfile", "parse_profile", "load_profile", "segment"]


@dataclass(frozen=True)
class TaperProfile:
    """Diameter versus longitudinal position, strictly increasing in z (meters)."""

    z: np.ndarray
    diameter: np.ndarray
    label: str = ""

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        d = np.asarray(self.diameter, dtype=float)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "diameter", d)
        if z.ndim != 1 or d.shape != z.shape:
            raise ValueError("z and diameter must be 1-D arrays of equal length")
        if z.size < 2:
            raise ValueError(f"profile needs at least 2 samples, got {z.size}")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(d))):
            raise ValueError("profile samples must be finite")
        if np.any(d <= 0):
            raise ValueError("all diameters must be positive")
        bad = np.nonzero(np.diff(z) <= 0)[0]
        if bad.size:
            i = int(bad[0]) + 1
            raise ValueError(f"z must be strictly increasing; sample {i} (z={z[i]!r}) does not increase")

    @property
    def span(self) -> float:
        return float(self.z[-1] - self.z[0])


def parse_profile(text: str, *, label: str = "", source: str = "<string>") -> TaperProfile:
    """Parse the two-column profile format: ``z_meters<whitespace>diameter_meters``.

    ``#`` starts a comment, blank lines are skipped.  Raises ValueError with
    the line number for malformed rows, and names the first offending row for
    non-monotone z or duplicate positions.
    """
    zs: list[float] = []
    ds: list[float] = []
    linenos: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ValueError(f"{source}:{lineno}: expected 'z diameter', got {len(tokens)} fields")
        try:
            z, d = float(tokens[0]), float(tokens[1])
        except ValueError:
            raise ValueError(f"{source}:{lineno}: malformed number in {line!r}") from None
        zs.append(z)
        ds.append(d)
        linenos.append(lineno)
    if not zs:
        raise ValueError(f"{source}: empty profile (no samples)")
    if len(zs) < 2:
        raise ValueError(f"{source}: profile needs at least 2 samples, got {len(zs)}")
    for i in range(1, len(zs)):
        if zs[i] <= zs[i - 1]:
            kind = "duplicates" if zs[i] == zs[i - 1] else "does not increase past"
            raise ValueError(f"{source}:{linenos[i]}: z={zs[i]!r} {kind} the previous sample z={zs[i-1]!r}")
    for i, d in enumerate(ds):
        if not d > 0:
            raise ValueError(f"{source}:{linenos[i]}: diameter must be positive, got {d!r}")
    return TaperProfile(np.array(zs), np.array(ds), label=label)


def load_profile(path: Union[str, Path]) -> TaperProfile:
    """Load a profile file (format documented in docs/formats.md)."""
    p = Path(path)
    return parse_profile(p.read_text(encoding="utf-8"), label=p.stem, source=str(p))


@dataclass(frozen=True)
class SegmentedProfile:
    """N uniform-length segments, each carried by its midpoint cross-section."""

    segment_length: float
    segments: tuple[CrossSection, ...]
    label: str = ""

    def __post_init__(self):
        if len(self.segments) < 1:
            raise ValueError("need at least one segment")
        if not self.segment_length > 0:
            raise ValueError("segment length must be positive")

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    @property
    def diameters(self) -> np.ndarray:
        return np.array([s.diameter for s in self.segments])

    def content_hash(self) -> str:
        """SHA-256 over segment length and diameter bytes; used in exported metadata."""
        h = hashlib.sha256()
        h.update(np.float64(self.segment_length).tobytes())
        h.update(self.diameters.astype(np.float64).tobytes())
        return h.hexdigest()


def segment(
    profile: TaperProfile,
    n_segments: int,
    *,
    core: SellmeierGlass = FUSED_SILICA,
) -> SegmentedProfile:
    """Divide ``profile`` into ``n_segments`` equal segments of length span/N.

    Each segment's diameter is the profile linearly interpolated at the
    segment midpoint, so all diameters lie within the hull of the source
    samples.
    """
    n_segments = int(n_segments)
    if n_segments < 1:
        raise ValueError(f"n_segments must be >= 1, got {n_segments}")
    length = profile.span / n_segments
    z_mid = profile.z[0] + (np.arange(n_segments) + 0.5) * length
    # np.interp can round one ulp past a sample; the clip keeps the hull exact
    diam = np.clip(np.interp(z_mid, profile.z, profile.diameter), profile.diameter.min(), profile.diameter.max())
    segments = tuple(CrossSection(diameter=float(d), core=core) for d in diam)
    return SegmentedProfile(segment_length=length, segments=segments, label=profile.label)
