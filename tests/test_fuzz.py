"""Fuzzed inputs: parsers raise only their documented errors, and the CLI only exits.

Every test is derandomized, so a run draws the same examples each time, and
each edge value is pinned with an ``@example``.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taperfwm.cli import EXIT_CONFIG, EXIT_DOMAIN, EXIT_IO, EXIT_OK, main
from taperfwm.dispersion import parse_glass
from taperfwm.profile import parse_profile
from taperfwm.tags import TagOrderWarning, TagParseError, parse_tags

FUZZ = settings(derandomize=True, deadline=None, max_examples=150)

TOKENS = st.sampled_from([
    "", "0", "1", "-1", "1e-6", "5e-324", "1e308", "1e400", "-0", "nan", "inf", "-inf",
    "1_0", "+5", "x", "#", "١٢", "9223372036854775807", "9223372036854775808",
    "tick_ps", "#tick_ps", "name", "B", "C", "validity_um",
])
SEPARATORS = st.sampled_from([" ", "\t", "\t\t", "  ", "#", ""])
LINES = st.lists(st.lists(TOKENS, max_size=4).flatmap(
    lambda tokens: SEPARATORS.map(lambda sep: sep.join(tokens))), max_size=6)
TEXTS = LINES.map("\n".join) | st.text(max_size=80)


def rejects_only(errors, parse, data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TagOrderWarning)
        try:
            parse(data)
        except errors:
            pass


@FUZZ
@given(TEXTS)
@example("")
@example("0 1e-6\n1 nan")
@example("0 1e-6\n1e400 1e-6")
@example("0 1e-6\n0 1e-6")
@example("0 1e-6\n1 -0")
@example("0 1_0\n+5 1e-6")
@example("0\t5e-324\n1e308 1e308")
def test_parse_profile_raises_only_value_error(text):
    rejects_only(ValueError, parse_profile, text)


GLASS_LINES = st.lists(st.tuples(
    st.sampled_from(["name", "B", "C", "validity_um", "x", "#", ""]),
    st.lists(TOKENS, max_size=4).map(" ".join)).map(" ".join), max_size=6)


@FUZZ
@given(GLASS_LINES.map("\n".join) | TEXTS)
@example("")
@example("name g\nB 1\nC 1\nvalidity_um 1 2")
@example("name g\nB nan\nC 1\nvalidity_um 1 2")
@example("name g\nB 1\nC 0\nvalidity_um 1 2")
@example("name g\nB 1 1\nC 1\nvalidity_um 1 2")
@example("name g\nB 1e400\nC 1\nvalidity_um 1 inf")
@example("name g\nB 1\nC 1\nvalidity_um 2 1")
@example("name\nB\nC\nvalidity_um")
def test_parse_glass_raises_only_value_error(text):
    rejects_only(ValueError, parse_glass, text)


TAG_LINES = st.lists(st.tuples(TOKENS, SEPARATORS, TOKENS).map("".join), max_size=6)
RECORDS = st.lists(st.tuples(st.integers(0, 255), st.integers(0, 2**64 - 1)), max_size=4)
BINARY = (
    st.binary(max_size=48).map(b"TTAG1".__add__)
    | st.tuples(st.integers(0, 2**32 - 1), RECORDS, st.binary(max_size=9)).map(
        lambda t: b"TTAG1" + t[0].to_bytes(4, "little")
        + b"".join(c.to_bytes(1, "little") + s.to_bytes(8, "little") for c, s in t[1]) + t[2])
)


@FUZZ
@given(TAG_LINES.map("\n".join).map(str.encode) | st.text(max_size=80).map(str.encode)
       | st.binary(max_size=48) | BINARY)
@example(b"")
@example(b"#tick_ps 0\n1\t5\n")
@example(b"#tick_ps " + b"9" * 400 + b"\n1\t5\n")
@example(b"1\t" + b"9" * 5000 + b"\n")
@example(b"1\t9223372036854775808\n")
@example(b"4\t5\n")
@example(b"2\t7\n1\t5\n")
@example(b"\xff\xfe")
@example(b"TTAG1")
@example(b"TTAG1\x00\x00\x00\x00")
@example(b"TTAG1\x01\x00\x00\x00\x01\xff\xff\xff\xff\xff\xff\xff\xff")
@example(b"TTAG1\x01\x00\x00\x00\x09\x00\x00\x00\x00\x00\x00\x00\x00")
@example(b"TTAG1\x01\x00\x00\x00\x01\x00")
def test_parse_tags_raises_only_tag_parse_error(data):
    rejects_only((ValueError, TagParseError), parse_tags, data)


# --- the CLI: one numeric flag at a time --------------------------------------

EDGES = (0.0, -1.0, 5e-324, 1e-300, 1e150, 1e300, 1e308)
NUMBERS = st.builds(lambda sign, exponent: sign * 10.0**exponent,
                    st.sampled_from([1.0, -1.0]), st.floats(-30.0, 30.0))
CLI_FUZZ = settings(derandomize=True, deadline=None, max_examples=len(EDGES) + 12)
JSI_RUN = ["jsi", "--diameter_nm=900", "--length_mm=14", "--n_segments=1", "--grid_points=4"]


def exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return main(argv)


def edge_examples(test):
    for value in EDGES:
        test = example(value)(test)
    return test


@pytest.mark.parametrize("key", ["pump_wavelength_nm", "pump_fwhm_nm", "diameter_nm", "length_mm"])
@CLI_FUZZ
@given(NUMBERS)
@edge_examples
def test_jsi_exits_with_a_documented_code(key, value):
    with tempfile.TemporaryDirectory() as out:
        code = exit_code([*JSI_RUN, f"--{key}={value!r}", f"--out_dir={out}"])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DOMAIN, EXIT_IO)


@pytest.mark.parametrize("key", [
    "jitter_ps", "dead_time_us", "rep_period_ns", "mean_pairs_per_pulse",
    "herald_transmittance", "signal_transmittance", "splitter_ratio",
])
@CLI_FUZZ
@given(NUMBERS)
@edge_examples
def test_tags_simulate_exits_with_a_documented_code(key, value):
    with tempfile.TemporaryDirectory() as out:
        code = exit_code(["tags", "simulate", "--duration_s=0.0005", f"--{key}={value!r}",
                          f"--tags_out={out}/tags.txt"])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DOMAIN, EXIT_IO)


# --- the CLI: config documents and several flags at once ----------------------

# Integers stay in a set whose every valid (bin_width, delay_range) pair asks for
# at most about 10**6 histogram bins: a larger count that numpy can allocate
# would exhaust memory rather than fail, which is out of this fuzz's scope.
INTEGERS = st.sampled_from([-1, 0, 1, 2, 3, 10, 2670, 5 * 10**5, 2**62, 2**63 - 1, 2**63, 2**64]) \
    | st.integers(-5, 5000)
FLOATS = st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e-300, 54.0, 1e300, 1e308,
                          math.nan, math.inf, -math.inf]) | NUMBERS
SCALARS = st.none() | st.booleans() | INTEGERS | FLOATS | st.sampled_from(
    ["", "none", "poisson", "thermal", "center", "x", "1", "NaN"])
JSON_VALUES = SCALARS | st.lists(SCALARS, max_size=4) | st.dictionaries(st.just("k"), SCALARS,
                                                                       max_size=1)
CHANNELS = st.integers(1, 3) | INTEGERS
TYPED = {  # the key's own type, drawn mostly from accepted values
    "window_ticks": INTEGERS, "ch_a": CHANNELS, "ch_b": CHANNELS, "herald_ch": CHANNELS,
    "bin_width_ticks": INTEGERS, "delay_range_ticks": INTEGERS, "m_max": INTEGERS,
    "rep_period_ns": FLOATS, "weighting": st.sampled_from(["none", "poisson", "x", ""]),
    "seed": INTEGERS, "duration_s": FLOATS, "grid_points": INTEGERS,
}
# Well-typed documents of several keys; one in four gets one more key of any
# JSON type (a key outside the schema among them).
TYPED_DOCUMENTS = st.fixed_dictionaries({}, optional=TYPED)
KEYS = st.sampled_from([*TYPED, "bogus", "n_idler"])
DOCUMENTS = st.tuples(TYPED_DOCUMENTS, st.sampled_from([False, False, False, True]), KEYS,
                      JSON_VALUES).map(lambda t: {**t[0], t[2]: t[3]} if t[1] else t[0])
TAG_COMMANDS = [["tags", "coincidences"], ["tags", "g2h"], ["tags", "fit-power"]]


@pytest.fixture(scope="module")
def analysis_inputs(tmp_path_factory):
    """A tiny tag file (two heralded pairs and stray clicks) and a tiny power scan."""
    root = tmp_path_factory.mktemp("inputs")
    (root / "tags.txt").write_text("#tick_ps 81\n1\t0\n2\t1\n3\t2\n2\t667\n1\t1333\n2\t1334\n"
                                   "3\t1335\n3\t2001\n")
    (root / "scan.csv").write_text("power_mW,rate_Hz\n20,1700\n40,3400\n60,5600\n80,8200\n"
                                   "100,11000\n")
    return ["--tags_in", str(root / "tags.txt"), "--power_scan", str(root / "scan.csv")]


def command_exit_code(argv) -> int:
    """``exit_code``, counting argparse's usage exit as the code it exits with."""
    try:
        return exit_code(argv)
    except SystemExit as stop:
        return stop.code


@pytest.mark.parametrize("command", TAG_COMMANDS, ids=lambda c: c[1])
@FUZZ
@given(document=DOCUMENTS)
@example(document=None)
@example(document=[1, 2])
@example(document={})
@example(document={"bin_width_ticks": 1, "delay_range_ticks": 5 * 10**5})
@example(document={"bin_width_ticks": 1, "delay_range_ticks": 2**62})
@example(document={"window_ticks": 2**63, "rep_period_ns": 1e300})
@example(document={"rep_period_ns": math.nan, "ch_a": 2**64})
@example(document={"herald_ch": 1, "ch_a": 1, "ch_b": 1, "m_max": 2**63})
@example(document={"weighting": "poisson", "bogus": None})
def test_tag_commands_exit_on_any_config_document(analysis_inputs, command, document):
    with tempfile.TemporaryDirectory() as out:
        config = f"{out}/run.json"
        with open(config, "w") as f:
            json.dump(document, f)
        code = command_exit_code([*command, "-c", config, *analysis_inputs, f"--out_dir={out}/r"])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DOMAIN, EXIT_IO)


# Flag values are JSON texts of the documents' values, or text that is not JSON.
FLAGS = DOCUMENTS.map(lambda d: {key: json.dumps(value) for key, value in d.items()}) | \
    st.dictionaries(KEYS, st.sampled_from(["abc", "1e", "[", "-", "0x10", "1_0"]), max_size=3)


@pytest.mark.parametrize("command", TAG_COMMANDS, ids=lambda c: c[1])
@FUZZ
@given(flags=FLAGS)
@example(flags={"bin_width_ticks": "3", "delay_range_ticks": "500000"})
@example(flags={"delay_range_ticks": "9223372036854775807", "bin_width_ticks": "1"})
@example(flags={"window_ticks": "9223372036854775808", "m_max": "-1"})
@example(flags={"rep_period_ns": "1e308", "window_ticks": "2670"})
@example(flags={"rep_period_ns": "NaN"})
@example(flags={"weighting": "[1, 2]", "bogus": "1"})
def test_tag_commands_exit_on_any_flags(analysis_inputs, command, flags):
    with tempfile.TemporaryDirectory() as out:
        argv = [*command, *analysis_inputs, f"--out_dir={out}/r"]
        code = command_exit_code(argv + [f"--{key}={text}" for key, text in flags.items()])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_DOMAIN, EXIT_IO)
