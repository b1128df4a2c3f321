"""CSV I/O: write_trace_csv -> load_trace round trips, the bulk readers
of traces and overlap tables against the row parsers they fall back to,
the block writer against the per-row writer it replaced, and the bytes the
CLI writes."""

import csv
import hashlib
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nvphonon import cli, core, phonon
from nvphonon.cli import EXIT_INPUT, EXIT_OK, load_trace, write_trace_csv
from nvphonon.core import CsvFormatError, ValidationError

INT64_MIN, INT64_MAX = -2**63, 2**63 - 1

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
    except (CsvFormatError, csv.Error) as exc:
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


# Differential test: the block writer against the per-row writer it
# replaced, kept verbatim as the oracle.

def _per_row_write_columns(path, header, columns, formats):
    columns = [np.asarray(column) for column in columns]
    if any(len(column) != len(columns[0]) for column in columns):
        raise ValueError("columns differ in length")
    line = ",".join(formats) + "\r\n"
    with core._csv_output(path) as handle:
        csv.writer(handle).writerow(header)
        for start in range(0, len(columns[0]), core._ROWS_PER_WRITE):
            cells = [column[start:start + core._ROWS_PER_WRITE].tolist()
                     for column in columns]
            handle.write("".join([line % row for row in zip(*cells)]))


_WRITER_FLOATS = st.one_of(st.floats(), st.sampled_from(
    EDGE_FLOATS + [float("nan"), float("inf"), float("-inf")]))
_WRITER_INTS = st.one_of(st.integers(INT64_MIN, INT64_MAX),
                         st.sampled_from([INT64_MIN, INT64_MAX, -1, 0]))


@st.composite
def write_tables(draw):
    """(columns, formats): one to four equal-length columns of 0 to a few
    hundred rows, float64 under '%.17g' and int64 under '%d'."""
    rows = draw(st.integers(0, 300))
    formats = draw(st.lists(st.sampled_from(["%.17g", "%d"]), min_size=1,
                            max_size=4))
    columns = [draw(arrays(np.int64, rows, elements=_WRITER_INTS))
               if fmt == "%d" else
               draw(arrays(np.float64, rows, elements=_WRITER_FLOATS))
               for fmt in formats]
    return columns, formats


@settings(max_examples=150, deadline=None)
@given(table=write_tables(), block=st.sampled_from([1, 2, 3, 7, 64, 1 << 16]))
def test_block_writer_matches_per_row_writer(scratch, table, block):
    columns, formats = table
    header = [f"c{j}" for j in range(len(columns))]
    with mock.patch.object(core, "_ROWS_PER_WRITE", block):
        core.write_csv_columns(scratch / "block.csv", header, columns, formats)
        _per_row_write_columns(scratch / "per_row.csv", header, columns, formats)
    assert ((scratch / "block.csv").read_bytes()
            == (scratch / "per_row.csv").read_bytes())


# Differential test: generated overlap tables, read through from_csv and by
# the row parser from_csv had before its bulk path (kept verbatim as the
# oracle, returning its arrays), must give the same arrays, or both refuse
# the file. Read errors are compared as refusals only, since their wording
# is now that of every CSV (test_every_table_refuses_with_one_wording);
# the constructor's errors keep their text.

def _overlap_rows_oracle(path):
    energies, values = [], []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            rows = (row for row in reader
                    if row and not row[0].lstrip().startswith("#"))
            if [h.strip() for h in next(rows, [])] != ["energy_mev", "f_per_mev"]:
                raise ValidationError(f"{path}: expected header 'energy_mev,f_per_mev'")
            for row in rows:
                try:
                    energy, value = (float(cell) for cell in row)
                except ValueError as exc:
                    raise ValidationError(f"{path}, line {reader.line_num}: expected "
                                          f"2 numbers, got {row!r}") from exc
                energies.append(energy)
                values.append(value)
    except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
        raise ValidationError(f"{path}, line {reader.line_num}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValidationError(f"cannot read overlap table {path}: {reason}") from exc
    return np.array(energies), np.array(values)


_OVERLAP_HEADERS = ["energy_mev,f_per_mev"] * 4 + [" energy_mev , f_per_mev ",
                    '"energy_mev",f_per_mev', "energy_mev,f_per_mev,",
                    "energy_mev", "energy,f"]
# the trace test's odd cells and lines, and forms the overlap table refuses
_OVERLAP_ODD_CELLS = _ODD_CELLS + ["inf", "-inf", "nan", "-nan", "Infinity",
                                   "1e400", "1e308", "-1"]
_OVERLAP_ODD_LINES = _ODD_LINES + ['"0.5","1"', "1_0,2"]


@st.composite
def overlap_texts(draw):
    """An overlap table file: one of the headers over rows of increasing
    energies and nonnegative values, then up to three edits (an odd cell,
    an odd line, a comment or blank line above the header, a UTF-8 BOM),
    with LF, CRLF or CR line ends."""
    header = draw(st.sampled_from(_OVERLAP_HEADERS))
    energies = sorted(draw(st.lists(st.floats(0.0, 1e6), max_size=6, unique=True)))
    values = draw(st.lists(st.floats(0.0, 1e3), min_size=len(energies),
                           max_size=len(energies)))
    lines = [header] + [",".join(draw(_PADDING) + repr(cell) + draw(_PADDING)
                                 for cell in row) for row in zip(energies, values)]
    bom = ""
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["cell", "line", "above", "bom"]))
        if edit == "cell" and len(lines) > 1:
            index = draw(st.integers(1, len(lines) - 1))
            cells = lines[index].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.one_of(
                st.sampled_from(_OVERLAP_ODD_CELLS), st.floats().map(repr)))
            lines[index] = ",".join(cells)
        elif edit == "line":
            lines.insert(draw(st.integers(1, len(lines))),
                         draw(st.sampled_from(_OVERLAP_ODD_LINES)))
        elif edit == "above":
            lines.insert(0, draw(st.sampled_from(["", "# note", "#x,y"])))
        else:
            bom = "\ufeff"
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return bom + ending.join(lines) + draw(st.sampled_from(["", ending]))


_REFUSED = "refused"


def _overlap_outcome(read, path):
    try:
        return tuple(map(_bits, read(path)))
    except ValidationError:
        return _REFUSED


def _table_outcome(path, read):
    """What from_csv gives when the arrays come from read: the table's bits,
    a refused read, or a constructor error prefixed with the path."""
    try:
        energies, values = read(path)
    except ValidationError:
        return _REFUSED
    try:
        table = phonon.OverlapTable(energies, values)
    except ValidationError as exc:
        return f"{path}: {exc}"
    return _bits(table.energies), _bits(table.values)


@settings(max_examples=300, deadline=None)
@given(text=overlap_texts())
# csv.reader refuses a cell over its field size limit
@example(text=f"energy_mev,f_per_mev\n0,1\n1,{'0' * csv.field_size_limit()}5\n")
@example(text="energy_mev,f_per_mev\r\n0,1\r\n\r\n# note\r\n1,2\r\n")
@example(text="energy_mev,f_per_mev\r0,1\r1,2")
@example(text="# note\n\nenergy_mev,f_per_mev\n0,1\n1,2\n")
@example(text="\ufeffenergy_mev,f_per_mev\n0,1\n1,2\n")
@example(text='energy_mev,f_per_mev\n0,"1"\n1,2\n')
# numpy's default comments='#' would read '5 # x' as 5
@example(text="energy_mev,f_per_mev\n0,1\n1,5 # x\n")
@example(text="energy_mev,f_per_mev\n0,1_0\n1,2\n")
@example(text="energy_mev,f_per_mev\n0,inf\n1,nan\n")
@example(text="energy_mev,f_per_mev\n0,1,2\n1,2\n")
@example(text="energy_mev,f_per_mev\n0\n1,2\n")
def test_overlap_reader_matches_row_parser(scratch, text):
    path = str(scratch / "overlap.csv")
    (scratch / "overlap.csv").write_bytes(text.encode("utf-8"))
    assert (_overlap_outcome(phonon._read_overlap_file, path)
            == _overlap_outcome(_overlap_rows_oracle, path))
    try:
        table = phonon.OverlapTable.from_csv(path)
        outcome = _bits(table.energies), _bits(table.values)
    except CsvFormatError:
        outcome = _REFUSED
    except ValidationError as exc:
        outcome = str(exc)
    assert outcome == _table_outcome(path, _overlap_rows_oracle)


@pytest.mark.parametrize("text", [
    "energy_mev,f_per_mev\n0,0.5\n1.5,nan\n",
    "energy_mev,f_per_mev\r\n0,1\r\n1,2\r\n",
    "energy_mev,f_per_mev\r0,1\r\r1,2",
    " energy_mev , f_per_mev \n0, 1\n1 ,-0.0\n",
])
def test_overlap_bulk_reader_takes_plain_files(scratch, text):
    path = str(scratch / "plain.csv")
    (scratch / "plain.csv").write_bytes(text.encode("utf-8"))
    with mock.patch.object(phonon, "_read_overlap_rows",
                           side_effect=AssertionError("read row by row")):
        bulk = _overlap_outcome(phonon._read_overlap_file, path)
    assert bulk == _overlap_outcome(_overlap_rows_oracle, path)


# One wording for every table: a trace (load_trace), a t5 points file (the
# CLI's fit) and an overlap table (OverlapTable.from_csv), each broken at
# its second data row, line 3, in the same four ways; and each read the
# same with comment rows, blank rows and CR line ends as without.

_TABLES = {
    "trace": ("time_ns,intensity", ["0.5,3", "1.5,2", "2.5,1.5", "3.5,1"]),
    # the T^5 law a (T - t0)^5 + c at five temperatures
    "points": ("temperature_k,gamma_add_mhz,sigma_mhz",
               [f"{t},{2e-5 * (t - 4.4) ** 5 + 0.08!r},0.05"
                for t in (6, 9, 12, 15, 18)]),
    "overlap": ("energy_mev,f_per_mev", ["0,0.5", "10,1", "20,0.25", "30,0"]),
}
# case: (the broken second data row, made from the good one; the message)
_BROKEN = {
    "width": (lambda row: row.split(",")[0],
              "{path}:3: expected {width} fields, got 1"),
    "cell": (lambda row: "x" + row[row.index(","):],
             "{path}:3: bad {first} 'x': could not convert string to float: 'x'"),
    "field limit": (lambda row: "1" * (csv.field_size_limit() + 1),
                    "{path}:3: field larger than field limit ({limit})"),
}


def _read_table(kind, path, capsys):
    """The table read through its public path: its arrays (the fit's report
    for points), or the message of the input error that refused it."""
    if kind == "points":
        code = cli.main(["fit", "--procedure", "t5", path])
        out, err = capsys.readouterr()
        if code != EXIT_INPUT:
            return code, out
        assert err.startswith("error: ") and err.count("\n") == 1
        return err[len("error: "):-1]
    try:
        if kind == "trace":
            trace = load_trace(path)
            return _bits(trace.times), _bits(trace.values)
        table = phonon.OverlapTable.from_csv(path)
        return _bits(table.energies), _bits(table.values)
    except CsvFormatError as exc:
        return str(exc)


@pytest.mark.parametrize("case", ["non-UTF-8", "width", "cell", "field limit",
                                  "comments, blanks and CR"])
@pytest.mark.parametrize("kind", sorted(_TABLES))
def test_every_table_refuses_with_one_wording(tmp_path, capsys, kind, case):
    header, rows = _TABLES[kind]
    path = str(tmp_path / f"{kind}.csv")
    lines = [header] + rows
    if case == "comments, blanks and CR":
        (tmp_path / f"{kind}.csv").write_text("\n".join(lines) + "\n")
        plain = _read_table(kind, path, capsys)
        assert isinstance(plain, tuple)
        text = "\r".join(["# note", "", header, rows[0], "", " # a, b"] + rows[1:])
        (tmp_path / f"{kind}.csv").write_bytes(text.encode("utf-8"))
        assert _read_table(kind, path, capsys) == plain
        return
    if case == "non-UTF-8":
        lines[2] = rows[1] + "\udcff"
        (tmp_path / f"{kind}.csv").write_bytes(
            "\n".join(lines).encode("utf-8", "surrogateescape"))
        assert re.fullmatch(rf"cannot read {re.escape(path)}: 'utf-8' codec can't "
                            r"decode byte 0xff in position \d+: invalid start byte",
                            _read_table(kind, path, capsys))
        return
    broken, message = _BROKEN[case]
    lines[2] = broken(rows[1])
    (tmp_path / f"{kind}.csv").write_text("\n".join(lines) + "\n")
    assert _read_table(kind, path, capsys) == message.format(
        path=path, width=header.count(",") + 1, first=header.split(",")[0],
        limit=csv.field_size_limit())


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
        # the T^5 law's coefficients now convert through `core`, as the
        # library's do, so the table is one library forward-model call; the
        # forward model's closed-form moments moved its rates by at most
        # 1.1e-14 MHz
        "6ca7cb56d777c49b073c99669bdd035d0938ccfb4e61bed663b1ed0de72a5f28"),
    "sweep_delta": ("""
phonon.eta_mhz_per_mev3 = 44.0
phonon.cutoff_mev = 93.0
""", ["sweep", "--sweep", "delta:380:480:5"],
        # the crossing integral is now exact for the piecewise-linear table,
        # where composite Simpson was off by up to 3e-7: only the
        # gamma_e12_mhz and ratio columns moved
        "dce57f8eb97ab27256186bff63d80f5cbc6b0db47cf3c38409d8f385f2a218f9"),
    "sweep_delta_file": ("""
phonon.eta_mhz_per_mev3 = 44.0
phonon.cutoff_mev = 93.0
files.overlap_table = {overlap}
""", ["sweep", "--sweep", "delta:380:480:5"],
        # read from an overlap CSV (written by OverlapTable.to_csv) rather
        # than built in memory, recorded before that reader went columnar
        "31a99c7269ef1d66d4fed41bbd620048d60af335286d19c19e3982d70149a0d5"),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_cli_output_bytes_are_pinned(tmp_path, capsys, name):
    config, argv, digest = _GOLDEN[name]
    overlap = tmp_path / "overlap.csv"
    phonon.OverlapTable.synthetic_default(mode_energy=61.0, width=27.0).to_csv(overlap)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config.format(overlap=overlap), encoding="utf-8")
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
