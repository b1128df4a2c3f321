"""Trace CSV I/O: write_trace_csv -> load_trace round trips, the bulk
reader against the row parser it falls back to, and the bytes the CLI
writes."""

import csv
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvphonon import cli
from nvphonon.cli import EXIT_OK, load_trace, write_trace_csv

INT64_MAX = 2**63 - 1

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(EDGE_FLOATS))
COUNTS = st.one_of(st.integers(0, INT64_MAX),
                   st.sampled_from([0, 1, INT64_MAX - 1, INT64_MAX]))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("trace_csv")


def _bits(array):
    """The array's dtype and raw bytes: -0.0 differs from 0.0 and every NaN
    payload counts."""
    array = np.asarray(array)
    return array.dtype, array.tobytes()


@st.composite
def traces(draw):
    """(times, {name: column}, counts): strictly increasing finite times and
    one to three float or int64 count columns."""
    times = sorted(draw(st.lists(FINITE, min_size=1, max_size=20, unique=True)))
    counts = draw(st.booleans())
    width = draw(st.integers(1, 3))
    stem = "counts" if counts else "intensity"
    names = [stem] if width == 1 else [f"{stem}_{j}" for j in range(width)]
    element = COUNTS if counts else FINITE
    columns = {name: np.array(draw(st.lists(element, min_size=len(times),
                                            max_size=len(times))),
                              dtype=np.int64 if counts else float)
               for name in names}
    return np.array(times), columns, counts


# TimeTrace's np.diff overflows to inf (still > 0) across times near +-1e308
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(trace=traces())
def test_write_then_load_is_bit_identical(scratch, trace):
    times, columns, counts = trace
    path = scratch / "round_trip.csv"
    write_trace_csv(path, times, columns, counts=counts)
    for name, values in columns.items():
        column = None if len(columns) == 1 else name
        # the writer's output never needs the row parser
        assert cli._parse_trace_bulk(str(path), column) is not None
        loaded = load_trace(str(path), column=column)
        assert _bits(loaded.times) == _bits(times)
        assert _bits(loaded.values) == _bits(values)


# Differential test: generated text, read by the bulk reader (through
# _read_trace_file) and by the row parser, must give the same arrays or
# the same error.

_PADDING = st.sampled_from(["", "", "", "", " ", "\t", "\xa0", "\u2003"])
_FLOAT_CELLS = st.one_of(
    st.floats().map(repr), st.integers(-2**70, 2**70).map(str),
    st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "+5",
                     "-0", ".5", "5.", "1e400", "1E-400"]))
_COUNT_CELLS = st.one_of(
    st.integers(-2**63, 2**63 - 1).map(str),
    st.sampled_from(["+5", "-0", "007", "9223372036854775807",
                     "-9223372036854775808"]))
# cells float() or int() read and np.loadtxt does not, or neither reads
_ODD_CELLS = ["1_0", "0_5", "٣", "５", '"5"', '"0.5"', "5 # x", "#5", "",
              " ", "5.0", "1e3", "0x10", "nan(1)", "99999999999999999999",
              "9223372036854775808", "-9223372036854775809"]
_ODD_LINES = ["", "   ", "\t", "# comment", "#", " # indented, comment",
              "0.5", "0.5,5,6,7", "0.5,5,"]
_HEADERS = ["time_ns,counts", "time_ns,intensity", "time_ns,counts_a,counts_b",
            "time_ns,intensity_a1,intensity_a2", "time_ns,counts_a,intensity",
            " time_ns , counts ", "time_ns, counts", '"time_ns",counts',
            'time_ns,"counts"', "time_ns", "t,counts", "time_ns,counts,"]


@st.composite
def trace_texts(draw):
    """(text, column) for a trace file: a well-formed file for one of the
    headers, then up to three edits (an odd cell, an odd line, or a comment
    or blank line above the header), with LF, CRLF or CR line ends."""
    header = draw(st.sampled_from(_HEADERS))
    names = [cell.strip() for cell in header.split(",")]
    kinds = [_FLOAT_CELLS] + [_COUNT_CELLS if name.startswith("counts") else
                              _FLOAT_CELLS for name in names[1:]]
    rows = draw(st.lists(st.tuples(*kinds), max_size=6))
    lines = [header] + [",".join(draw(_PADDING) + cell + draw(_PADDING)
                                 for cell in row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["cell", "line", "above"]))
        if edit == "cell" and rows:
            index = draw(st.integers(1, len(rows)))
            cells = lines[index].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = \
                draw(st.sampled_from(_ODD_CELLS))
            lines[index] = ",".join(cells)
        elif edit == "line":
            lines.insert(draw(st.integers(1, len(lines))),
                         draw(st.sampled_from(_ODD_LINES)))
        else:
            lines.insert(0, draw(st.sampled_from(["", "# note", "#x,y"])))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(lines) + draw(st.sampled_from(["", ending]))
    column = draw(st.sampled_from([None] + names[1:]))
    return text, column


def _arrays(times, values, counts):
    return _bits(times), _bits(values), counts


def _outcome(read, path, column):
    try:
        return _arrays(*read(path, column))
    except (cli.TraceFormatError, csv.Error) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=400, deadline=None)
@given(sample=trace_texts())
# numpy's default comments='#' would read '5 # x' as 5
@example(sample=("time_ns,counts\n0.5,4\n1.5,5 # x\n", None))
# a quoted header cell is a counts column to csv.reader only
@example(sample=('time_ns,"counts"\n0.5,4\n', None))
# csv.reader refuses a cell over its field size limit
@example(sample=(f"time_ns,counts\n0.5,{'0' * csv.field_size_limit()}5\n", None))
def test_bulk_reader_matches_row_parser(scratch, sample):
    text, column = sample
    path = scratch / "differential.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = _outcome(cli._parse_trace_rows, str(path), column)
    assert _outcome(cli._read_trace_file, str(path), column) == expected


@pytest.mark.parametrize("text, column", [
    ("time_ns,counts\r\n0.5,5\r\n1.5,6\r\n", None),
    ("time_ns,counts\r0.5,5\r\r1.5,6", None),
    ("time_ns,intensity_a1,intensity_a2\n0.5,-0.0,nan\n1.5,5e-324,-inf\n",
     "intensity_a2"),
])
def test_bulk_reader_takes_plain_files(scratch, text, column):
    path = scratch / "plain.csv"
    path.write_bytes(text.encode("utf-8"))
    bulk = cli._parse_trace_bulk(str(path), column)
    assert bulk is not None
    assert _arrays(*bulk) == _outcome(cli._parse_trace_rows, str(path), column)


# Golden bytes: SHA-256 of what seeded CLI runs write, recorded before the
# writer became columnar. A change to the numbers themselves (the synth
# model, the forward model, the quadrature) moves these on purpose and
# updates them; a change to the writer alone must not.

_GOLDEN = {
    "counts": ("""
model.name = a12
model.branch = A1
rates.gamma_rad_mhz = 13.2
rates.gamma_mix_mhz = 18.5
rates.gamma_isc_mhz = 16.0
synth.total_counts = 1e5
synth.background_per_bin = 1.5
synth.seed = 17
""", ["simulate"],
        "21cfb63ce2bc27fbce3c9ba554a0396f682e765809b7bff4151be01e613fa8a6"),
    "a12_both": ("""
model.name = a12
model.branch = both
rates.gamma_rad_mhz = 13.2
rates.gamma_mix_mhz = 18.5
rates.gamma_isc_mhz = 16.0
grid.span_ns = 60.0
grid.step_ns = 0.25
""", ["simulate"],
        "aa8ed6d5e7d9d4d4a5e8ef7523a54c21c5f4a6556a1c0894ca657f8264362795"),
    "sweep_t": ("""
rates.gamma_rad_mhz = 13.2
rates.gamma_a1_mhz = 16.0
t5.a_mhz_per_k5 = 2e-5
t5.t0_k = 4.4
t5.c_mhz = 0.08
""", ["sweep", "--sweep", "T:5:26:3"],
        "c91239beccffb4e9bb67967c311efd57d15bdbef3a3843fecafa263b9d0b1969"),
    "sweep_delta": ("""
phonon.eta_mhz_per_mev3 = 44.0
phonon.cutoff_mev = 93.0
""", ["sweep", "--sweep", "delta:380:480:5"],
        "062547ec364f004ef73ec6433934b9b89ba055a01bb3b70ea99f30372cec702c"),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_cli_output_bytes_are_pinned(tmp_path, capsys, name):
    config, argv, digest = _GOLDEN[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config, encoding="utf-8")
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
