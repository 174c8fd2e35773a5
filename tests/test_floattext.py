"""The vectorised float text against ``repr(float(x))``, and the CSV writers built on it."""

import math
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from taperfwm import _floattext
from taperfwm._floattext import format_rows
from taperfwm.biphoton import JsaGrid, SpectralGrid, marginals, write_marginals_csv, write_matrix_csv

CHUNK = 1 << 16  # values per format_rows call, which keeps the test's memory small


def mismatches(values):
    """(value, repr, formatted) for every value whose text differs from repr."""
    values = np.asarray(values, dtype=np.float64).ravel()
    bad = []
    for start in range(0, values.size, CHUNK):
        part = values[start:start + CHUNK]
        got = format_rows(part[:, None]).decode().split("\n")[:-1]
        want = [repr(v) for v in part.tolist()]
        bad += [(v, w, g) for v, w, g in zip(part.tolist(), want, got) if w != g]
    return bad[:10]


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])


class TestAgainstRepr:
    def test_random_bit_patterns(self):
        # every class of double: both signs, subnormals, nan payloads and inf
        bits = np.random.default_rng(20201027).integers(0, 2**64, size=10**6, dtype=np.uint64)
        values = bits.view(np.float64)
        assert np.isnan(values).any() and (np.abs(values) < sys.float_info.min).any()
        assert mismatches(np.concatenate([values, [np.inf, -np.inf]])) == []

    def test_powers_of_two_and_neighbours(self):
        powers = np.ldexp(1.0, np.arange(-1074, 1024))
        assert mismatches(with_neighbours(np.concatenate([powers, -powers]))) == []

    def test_powers_of_ten_and_neighbours(self):
        powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
        assert mismatches(with_neighbours(powers)) == []

    @pytest.mark.parametrize("value", [
        9.999999999999999e-05, 1e-4, 9999999999999998.0, 1e16, 5e-324,
        2.2250738585072014e-308, sys.float_info.max, 1e22, 1e23,
        2.0**53 - 1, 2.0**53, 2.0**53 + 2, 0.0, -0.0, 0.1, 123.456, 100.0, 1e-5, 1e100,
    ])
    def test_layout_boundaries(self, value):
        assert mismatches([value, -value]) == []

    def test_special_values(self):
        text = format_rows(np.array([[0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf]]))
        assert text == b"0.0,-0.0,nan,nan,inf,-inf\n"

    def test_ties_and_small_subnormals(self):
        # halfway digit strings (few fraction bits at 2^49..2^57) and the
        # subnormals whose digit count is one or two
        rng = np.random.default_rng(7)
        ties = rng.integers(2**49, 2**57, size=50_000) + rng.integers(0, 8, size=50_000) / 8
        assert mismatches(np.concatenate([ties, np.arange(1, 5000) * 5e-324])) == []

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_hypothesis_floats(self, values):
        assert mismatches(values) == []


class TestTables:
    def test_fixed_point_logarithms_are_exact(self):
        # over every binary exponent q of a double's significand
        q = np.arange(-1074, 972)
        exact = [floor_log10(Fraction(2) ** e) for e in q.tolist()]
        exact_34 = [floor_log10(Fraction(2) ** e * Fraction(3, 4)) for e in q.tolist()]
        assert _floattext._flog10pow2(q).tolist() == exact
        assert _floattext._flog10_three_quarters_pow2(q).tolist() == exact_34

    def test_pow10_table_brackets(self):
        limbs, r_exp = _floattext._pow10_table()
        for row, k in enumerate(range(_floattext._K_MIN, _floattext._K_MAX + 1)):
            g = sum(int(limbs[i, row]) << (32 * i) for i in range(4))
            beta = Fraction(10) ** -k * Fraction(2) ** (125 - int(r_exp[row]))
            assert 2**125 <= beta < 2**126
            assert g == math.floor(beta) + 1


def floor_log10(x: Fraction) -> int:
    k = math.floor(math.log10(x.numerator) - math.log10(x.denominator))
    while Fraction(10) ** k > x:
        k -= 1
    while Fraction(10) ** (k + 1) <= x:
        k += 1
    return k


class TestFormatRows:
    def test_rows_and_separators(self):
        assert format_rows(np.array([[1.0, 2.5], [-3.0, 1e-7]])) == b"1.0,2.5\n-3.0,1e-07\n"

    def test_input_types(self):
        assert format_rows(np.array([[1, -2**62]], dtype=np.int64)) == b"1.0,-4.611686018427388e+18\n"
        assert format_rows(np.array([[0.1]], dtype=np.float32)) == b"0.10000000149011612\n"


def grid_like(signal, idler):
    # SpectralGrid needs two samples per axis; the writer reads only the axes
    # and their sizes, so a stand-in covers the 1 x 1 case.
    signal, idler = np.asarray(signal, dtype=float), np.asarray(idler, dtype=float)
    return SimpleNamespace(signal_omega=signal, idler_omega=idler,
                           n_signal=signal.size, n_idler=idler.size)


MATRIX_3X5 = np.array([
    [0.0, -0.0, 1.0, -2.5e-300, 5e-324],
    [np.nan, np.inf, -np.inf, 1e16, 9999999999999998.0],
    [0.1, -1e-4, 123456789.125, 3.0e22, -7.0],
])


# cell values of the writer blocks drawn in TestZeroCells
CELLS = {
    "zeros": st.sampled_from([0.0, -0.0]),
    "nonzero": st.floats(allow_nan=False, allow_infinity=False).filter(bool),
    "mixed": st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]) | st.floats(),
}


class TestZeroCells:
    """Zeros, nan and inf are written from a template; only the other values get the digit search."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matrix_csv_blocks_against_oracle(self, data, tmp_path_factory):
        # three 32-row writer blocks in a drawn order: all zeros, free of
        # zeros, and mixed with a zero at both of its ends
        n_cols = data.draw(st.integers(2, 6))
        n_rows = data.draw(st.integers(65, 96))
        table = np.empty((n_rows, n_cols))
        kinds = data.draw(st.permutations(["zeros", "nonzero", "mixed"]))
        for start, kind in zip(range(0, n_rows, 32), kinds):
            block = table[start:start + 32].reshape(-1)
            block[:] = data.draw(st.lists(CELLS[kind], min_size=block.size, max_size=block.size))
            if kind == "mixed":
                block[0], block[-1] = data.draw(st.sampled_from([0.0, -0.0])), 0.0
        grid = grid_like(table[:, 0], np.linspace(1e15, 2e15, n_cols - 1))
        TestWritersAgainstOracle.assert_same(grid, table[:, 1:], tmp_path_factory.mktemp("blocks"))

    @pytest.mark.parametrize("matrix, searched", [
        (np.array([[0.0, 1.5, -0.0], [np.nan, -2e-300, np.inf], [-np.inf, 0.0, 5e-324]]),
         [1.5, -2e-300, 5e-324]),
        (np.array([[1.5, -2e-300], [7.0, 1e22]]), [1.5, -2e-300, 7.0, 1e22]),
        (np.array([[0.0, -0.0], [np.nan, -np.inf]]), []),
    ], ids=["mixed", "no_zeros", "none_regular"])
    def test_only_finite_nonzero_values_are_searched(self, matrix, searched, monkeypatch):
        seen, shortest_decimal = [], _floattext._shortest_decimal

        def spy(bits):
            seen.append(bits.view(np.float64).copy())
            return shortest_decimal(bits)

        monkeypatch.setattr(_floattext, "_shortest_decimal", spy)
        text = format_rows(matrix)
        assert text == b"".join(",".join(map(repr, row)).encode() + b"\n" for row in matrix.tolist())
        assert [v.tolist() for v in seen] == ([searched] if searched else [])


class TestWritersAgainstOracle:
    @pytest.mark.parametrize("matrix", [
        MATRIX_3X5,
        MATRIX_3X5.astype(np.float32),
        np.array([[0, -1, 2**53 + 1, -(2**62), 7]] * 3, dtype=np.int64),
    ], ids=["float64", "float32", "int64"])
    def test_matrix_csv_3x5(self, matrix, tmp_path):
        grid = SpectralGrid(np.array([1.0e15, 1.5e15, 2.25e15]), np.linspace(1e15, 3e15, 5))
        self.assert_same(grid, matrix, tmp_path)

    @pytest.mark.parametrize("value", [0.0, -1.5, np.nan, 2.2250738585072014e-308])
    def test_matrix_csv_1x1(self, value, tmp_path):
        self.assert_same(grid_like([2.0e15], [1.3e15]), np.array([[value]]), tmp_path)

    def test_matrix_csv_more_rows_than_one_block(self, tmp_path):
        rng = np.random.default_rng(3)
        grid = SpectralGrid(np.linspace(1e15, 2e15, 70), np.linspace(1e15, 2e15, 9))
        self.assert_same(grid, rng.standard_normal((70, 9)) * 1e-12, tmp_path)

    @staticmethod
    def assert_same(grid, matrix, tmp_path):
        comments = ("raw_peak_intensity 1.0", "pump_fwhm_nm 2.0")
        write_matrix_csv(tmp_path / "fast.csv", grid, matrix, name="jsi", comments=comments)
        oracles.write_matrix_csv_repr(tmp_path / "slow.csv", grid, matrix, name="jsi", comments=comments)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()

    def test_rejects_complex_matrix(self, tmp_path):
        grid = SpectralGrid(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(TypeError):
            write_matrix_csv(tmp_path / "c.csv", grid, np.ones((2, 2), dtype=complex), name="c")

    def test_marginals_csv(self, tmp_path):
        rng = np.random.default_rng(5)
        grid = SpectralGrid(np.linspace(2.0e15, 2.2e15, 7), np.linspace(1.2e15, 1.4e15, 4))
        jsa = JsaGrid(grid, rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4)))
        sig, idl = marginals(jsa)
        write_marginals_csv(jsa, tmp_path / "fast.csv")
        oracles.write_marginals_csv_repr(tmp_path / "slow.csv", grid.signal_omega, sig,
                                         grid.idler_omega, idl)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()
