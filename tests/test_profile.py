from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taperfwm.dispersion import FUSED_SILICA, SellmeierGlass
from taperfwm.profile import SegmentedProfile, TaperProfile, load_profile, parse_profile, segment

DATA = Path(__file__).resolve().parents[1] / "data"


class TestParse:
    def test_uniform_waist_fixture(self):
        profile = load_profile(DATA / "uniform_waist.txt")
        assert profile.span == pytest.approx(0.014)
        np.testing.assert_array_equal(profile.diameter, [890e-9, 890e-9])

    def test_two_line_text(self):
        profile = parse_profile("0 890e-9\n0.014 890e-9\n")
        assert profile.span == pytest.approx(0.014)

    def test_empty_is_error(self):
        with pytest.raises(ValueError, match="empty"):
            parse_profile("")
        with pytest.raises(ValueError, match="empty"):
            parse_profile("# only a comment\n\n")

    def test_single_sample_is_error(self):
        with pytest.raises(ValueError, match="at least 2"):
            parse_profile("0 890e-9\n")

    def test_descending_names_offending_row(self):
        with pytest.raises(ValueError, match=":3:"):
            parse_profile("0 890e-9\n0.010 880e-9\n0.005 885e-9\n")

    def test_duplicate_z_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            parse_profile("0 890e-9\n0.010 880e-9\n0.010 885e-9\n")

    def test_malformed_line_number(self):
        with pytest.raises(ValueError, match=":2:"):
            parse_profile("0 890e-9\n0.010 880e-9 extra\n")
        with pytest.raises(ValueError, match=":1:"):
            parse_profile("zero 890e-9\n0.014 890e-9\n")

    @pytest.mark.parametrize("row", ["nan 880e-9", "inf 880e-9", "0.010 nan", "0.010 -inf"])
    def test_non_finite_sample_names_its_line(self, row):
        with pytest.raises(ValueError, match=r"^scan\.txt:2: samples must be finite"):
            parse_profile(f"0 890e-9\n{row}\n0.014 890e-9\n", source="scan.txt")

    def test_comments_and_blanks_skipped(self):
        profile = parse_profile("# header\n\n0 890e-9  # inline\n0.014 890e-9\n")
        assert profile.z.size == 2

    def test_nonpositive_diameter_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            parse_profile("0 890e-9\n0.014 0\n")

    def test_measured_fixture_loads(self):
        profile = load_profile(DATA / "measured_profile.txt")
        assert profile.z.size == 201
        assert profile.label == "measured_profile"
        assert profile.diameter.min() > 800e-9
        assert profile.diameter.max() < 1.5e-6


class TestSegment:
    def test_constant_profile_constant_midpoints(self):
        profile = parse_profile("0 890e-9\n0.014 890e-9\n")
        seg = segment(profile, 10)
        assert seg.n_segments == 10
        np.testing.assert_array_equal(seg.diameters, np.full(10, 890e-9))

    def test_linear_ramp_midpoints_forced(self):
        profile = parse_profile("0 880e-9\n0.014 900e-9\n")
        seg = segment(profile, 2)
        np.testing.assert_allclose(seg.diameters, [885e-9, 895e-9], rtol=1e-12)

    def test_length_times_n_equals_span(self):
        profile = load_profile(DATA / "measured_profile.txt")
        for n in (1, 7, 100):
            seg = segment(profile, n)
            assert seg.segment_length * n == pytest.approx(profile.span, rel=1e-6)

    def test_measured_fixture_midpoints_match_interp_oracle(self):
        profile = load_profile(DATA / "measured_profile.txt")
        seg = segment(profile, 100)
        z_mid = profile.z[0] + (np.arange(100) + 0.5) * profile.span / 100
        np.testing.assert_allclose(seg.diameters, np.interp(z_mid, profile.z, profile.diameter), rtol=1e-12)
        assert seg.diameters.min() >= profile.diameter.min()
        assert seg.diameters.max() <= profile.diameter.max()

    def test_refinement_bounded_by_local_variation(self):
        profile = load_profile(DATA / "measured_profile.txt")
        n = 25
        coarse, fine = segment(profile, n), segment(profile, 2 * n)
        length = profile.span / n
        for q in range(n):
            z_lo, z_hi = profile.z[0] + q * length, profile.z[0] + (q + 1) * length
            dense = np.interp(np.linspace(z_lo, z_hi, 200), profile.z, profile.diameter)
            local_variation = dense.max() - dense.min()
            for child in (fine.diameters[2 * q], fine.diameters[2 * q + 1]):
                assert abs(coarse.diameters[q] - child) <= local_variation + 1e-15

    def test_invalid_n(self):
        profile = parse_profile("0 890e-9\n0.014 890e-9\n")
        with pytest.raises(ValueError):
            segment(profile, 0)

    def test_segments_carry_materials(self):
        profile = parse_profile("0 890e-9\n0.014 890e-9\n")
        glass = SellmeierGlass("flat", ((0.5, 0.01),), (0.3, 2.0))
        assert all(s.core is FUSED_SILICA for s in segment(profile, 3).segments)
        assert all(s.core is glass for s in segment(profile, 3, core=glass).segments)


class TestProfileObject:
    def test_content_hash_changes_with_data(self):
        # the segmentation's hash is the profile_hash that the jsi outputs write
        profile = load_profile(DATA / "measured_profile.txt")
        seg = segment(profile, 10)
        assert seg.content_hash() == segment(profile, 10).content_hash()
        segments = list(seg.segments)
        segments[3] = replace(segments[3], diameter=np.nextafter(segments[3].diameter, 1.0))
        moved = SegmentedProfile(seg.segment_length, tuple(segments))
        longer = SegmentedProfile(np.nextafter(seg.segment_length, 1.0), seg.segments)
        hashes = {seg.content_hash(), moved.content_hash(), longer.content_hash()}
        assert len(hashes) == 3


def test_segment_clips_interpolation_rounding_to_hull():
    # np.interp lands 5e-23 below the smallest sample here
    diams = [1.4470093122647607e-06, 4.373907507994854e-07, 1.4470093122647607e-06,
             1.7977336373336879e-06, 1.892759184892043e-06, 1e-06, 1e-06]
    seg = segment(TaperProfile(np.linspace(0.0, 0.02, len(diams)), np.array(diams)), 15)
    assert min(diams) <= seg.diameters.min() and seg.diameters.max() <= max(diams)


@settings(max_examples=50, deadline=None)
@given(
    diams=st.lists(st.floats(min_value=100e-9, max_value=2e-6), min_size=2, max_size=30),
    n=st.integers(min_value=1, max_value=64),
)
def test_segment_diameters_always_in_hull(diams, n):
    z = np.linspace(0.0, 0.02, len(diams))
    profile = TaperProfile(z, np.array(diams))
    seg = segment(profile, n)
    assert seg.n_segments == n
    assert seg.diameters.min() >= min(diams) - 1e-18
    assert seg.diameters.max() <= max(diams) + 1e-18
