"""Trace readers, format sniffing, and verdict writers."""

import csv
import io
import json
import logging
import math
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from stlobs import traceio
from stlobs.errors import MissingSignalError, TraceFormatError
from stlobs.monitor import VerdictRecord
from stlobs.trace import Trace
from stlobs.traceio import VerdictWriter, _parse_value, read_jsonl_stream, sniff_lines, stream_csv
from stlobs.trilean import FALSE, TRUE, UNKNOWN

from readback import read_trace, read_verdicts


def read_csv(source) -> Trace:
    return read_trace(source, "csv")


def read_jsonl(source, signals=None) -> Trace:
    return read_trace(source, "jsonl", signals)


def write_all(records, stream, fmt: str) -> None:
    """Write `records` to `stream` through one `VerdictWriter`."""
    writer = VerdictWriter(stream, fmt)
    for record in records:
        writer.write(record)


class TestReadCsv:
    def test_happy_path(self):
        trace = read_csv(io.StringIO("x,y\n1.0,2.0\n-0.5,3\n"))
        assert trace.signals == ("x", "y")
        assert trace.samples == ((1.0, 2.0), (-0.5, 3.0))

    def test_header_whitespace_stripped(self):
        trace = read_csv(io.StringIO(" x , y\n1,2\n"))
        assert trace.signals == ("x", "y")

    def test_from_path(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("p\n0\n1\n")
        trace = read_csv(path)
        assert len(trace) == 2

    @pytest.mark.parametrize(
        "read,error",
        [
            (lambda name: read_csv(io.StringIO(f"x,{name}\n1,2\n")), "line 1"),
            (lambda name: read_jsonl(io.StringIO(f'\n{{"x": 1, "{name}": 2}}\n')), "line 2"),
            (lambda name: read_jsonl(io.StringIO('{"x": 1}\n'), ["x", name]), "signal list"),
            (lambda name: read_jsonl(io.StringIO(f'{{"x": 1, "{name}": 2}}\n'), ["x"]), None),
        ],
        ids=["csv-header", "jsonl-first-object", "jsonl-signals", "jsonl-extra-key"],
    )
    @pytest.mark.parametrize("name", ["time", "Timestamp", "TICK"])
    def test_timestamp_header_rejected(self, name, read, error):
        """A time-axis name is rejected wherever it would name a signal; a
        JSONL key outside the declared signals is an extra key."""
        if error is None:
            assert read(name) == Trace(("x",), ((1.0,),))
        else:
            with pytest.raises(TraceFormatError, match=f"{error}: '{name}' looks like a time axis"):
                read(name)

    def test_duplicate_header_rejected(self):
        with pytest.raises(TraceFormatError, match="duplicate"):
            read_csv(io.StringIO("x,x\n1,2\n"))

    def test_empty_header_name_rejected(self):
        with pytest.raises(TraceFormatError, match="line 1: empty signal name"):
            read_csv(io.StringIO("x,\n1,2\n"))

    def test_missing_header(self):
        with pytest.raises(TraceFormatError, match="missing header"):
            read_csv(io.StringIO(""))

    def test_bad_number_names_line_and_column(self):
        with pytest.raises(TraceFormatError, match="line 3, column 2"):
            read_csv(io.StringIO("x,y\n1,2\n3,oops\n"))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(TraceFormatError, match="non-finite"):
            read_csv(io.StringIO(f"x\n{bad}\n"))

    def test_wrong_arity_names_line(self):
        with pytest.raises(TraceFormatError, match="line 2: expected 2 values, got 3"):
            read_csv(io.StringIO("x,y\n1,2,3\n"))

    def test_blank_line_skipped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="stlobs.traceio"):
            trace = read_csv(io.StringIO("x\n1\n\n2\n"))
        assert trace.samples == ((1.0,), (2.0,))
        assert "blank line 3" in caplog.text

    def test_blank_lines_before_the_header_skipped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="stlobs.traceio"):
            signals, rows = stream_csv(["\n", "  \r\n", "x,y\n", "1,2\n", "\n", "x\n"])
            assert signals == ("x", "y")
            assert next(rows) == {"x": 1.0, "y": 2.0}
            with pytest.raises(TraceFormatError, match="line 6: expected 2 values, got 1"):
                next(rows)
        assert [r.getMessage() for r in caplog.records] == [
            f"skipping blank line {n}" for n in (1, 2, 5)
        ]

    def test_header_errors_name_the_header_line(self):
        with pytest.raises(TraceFormatError, match="line 2: duplicate signal name"):
            read_csv(io.StringIO("\nx,x\n1,2\n"))

    @pytest.mark.parametrize(
        "lines,line",
        [
            (["x\ry\n"], 1),  # in the header
            (["\n", "x\n", "1\n", "2\r3\n"], 4),  # after a blank line
            (['"x\n', 'y"\n', "1\n", "2\r3\n"], 4),  # after a two-line header
            (["x\n", '"1\n', '"\n', "3\r4\n"], 4),  # after a two-line row
        ],
    )
    def test_reader_errors_name_their_line(self, lines, line):
        # A source split at "\n" only leaves a "\r" inside a line, which
        # the csv module refuses.
        with pytest.raises(TraceFormatError, match=f"^line {line}: new-line character"):
            list(stream_csv(lines)[1])

    @pytest.mark.parametrize(
        "head",
        [
            ["x,y\n", '"1\n', '",2\n'],  # a two-line row, line 3 its last
            ['"x\n', '",y\n', "1,2\n"],  # a two-line header, then a row
        ],
        ids=["after-a-two-line-row", "after-a-two-line-header"],
    )
    @pytest.mark.parametrize(
        "tail,message,warnings",
        [
            (["a,3\n"], "line 4, column 1: not a number: 'a'", []),
            (["1,2,3\n"], "line 4: expected 2 values, got 3", []),
            (["\n", "3,4\n", "b,3\n"], "line 6, column 1: not a number: 'b'", ["skipping blank line 4"]),
        ],
        ids=["value", "width", "blank-line"],
    )
    def test_row_messages_name_the_file_line(self, caplog, head, tail, message, warnings):
        with caplog.at_level(logging.WARNING, logger="stlobs.traceio"):
            with pytest.raises(TraceFormatError) as error:
                list(stream_csv(head + tail)[1])
        assert str(error.value) == message
        assert [r.getMessage() for r in caplog.records] == warnings

    def test_only_blank_lines_is_an_empty_trace(self):
        with pytest.raises(TraceFormatError, match="missing header"):
            read_csv(io.StringIO("\n \n"))

    def test_stream_csv_is_lazy(self):
        signals, rows = stream_csv(iter(["x\n", "1\n", "junk\n"]))
        assert signals == ("x",)
        assert next(rows) == {"x": 1.0}
        with pytest.raises(TraceFormatError, match="line 3"):
            next(rows)


# Cells for the reader's one-pass conversion and its value-by-value
# fallback. None holds a comma, a quote or a line break.
_PADDING = st.sampled_from(["", " ", "  ", "\t"])
_DECIMALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["0", "-0", "0.1", "1e-320", "+3", ".5", "5."]),
)
_CELLS = st.one_of(
    _DECIMALS,
    st.tuples(_PADDING, _DECIMALS, _PADDING).map("".join),
    st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "-Infinity", "1e309", "-1e309", "1_0"]),
    st.sampled_from(["", " ", "junk", "1.2.3", "0x10", "--1", "1e", "_1", "1__0"]),
    # Finite values whose float sum overflows.
    st.sampled_from(["1e308", "-1e308", "1.7976931348623157e308", " 9e307 "]),
)


def _value_by_value(lines: list[str], signals: tuple[str, ...]) -> tuple[list, str | None]:
    """The samples of CSV data rows read one value at a time with
    `_parse_value`, and the message of the first error (None if none)."""
    samples = []
    for lineno, line in enumerate(lines, start=2):
        if line == "":  # csv.reader gives [] for it: a skipped blank line
            continue
        width = line.count(",") + 1
        if width != len(signals):
            return samples, f"line {lineno}: expected {len(signals)} values, got {width}"
        try:
            samples.append(
                {name: _parse_value(text, lineno, column)
                 for column, (name, text) in enumerate(zip(signals, line.split(",")), start=1)}
            )
        except TraceFormatError as exc:
            return samples, str(exc)
    return samples, None


def _drain(rows) -> tuple[list, str | None]:
    samples = []
    try:
        for sample in rows:
            samples.append(sample)
    except TraceFormatError as exc:
        return samples, str(exc)
    return samples, None


class TestCsvFastPath:
    """`stream_csv` converts a row in one pass and falls back to converting
    it value by value; either way it must read what the value-by-value
    conversion reads, and raise its error with the same line, column and
    text."""

    @given(
        st.integers(1, 4).flatmap(
            lambda width: st.lists(st.lists(_CELLS, min_size=width, max_size=width), min_size=1, max_size=5)
        )
    )
    def test_same_samples_and_errors_as_value_by_value(self, rows):
        signals = tuple(f"s{k}" for k in range(len(rows[0])))
        lines = [",".join(row) for row in rows]
        text = ",".join(signals) + "\n" + "".join(line + "\n" for line in lines)
        expected = _value_by_value(lines, signals)

        assert _drain(stream_csv(text.splitlines(keepends=True))[1]) == expected
        stdin = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")
        assert _drain(stream_csv(stdin)[1]) == expected
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.csv"
            path.write_text(text, encoding="utf-8")
            with open(path, encoding="utf-8", newline="") as handle:
                assert _drain(stream_csv(handle)[1]) == expected

    @pytest.mark.parametrize(
        "row,expected",
        [
            ("1e308,1e308", {"a": 1e308, "b": 1e308}),
            ("-1.7976931348623157e308,-1e308", {"a": -1.7976931348623157e308, "b": -1e308}),
            ("1e308,inf", "line 2, column 2: non-finite value 'inf'"),
            ("inf,-inf", "line 2, column 1: non-finite value 'inf'"),
            (" 1_0 , 2 ", {"a": 10.0, "b": 2.0}),
            ("1,", "line 2, column 2: not a number: ''"),
            ("1e309,x", "line 2, column 1: non-finite value '1e309'"),
        ],
    )
    def test_rows_that_leave_the_fast_path(self, row, expected):
        samples, error = _drain(stream_csv(["a,b\n", row + "\n"])[1])
        assert (samples[0] if samples else error) == expected

    @given(
        st.sampled_from([
            ("x",),
            ("class",),
            ('say "hi"', "back\\slash", "été", "if", "None", "a'}#", "{v0}"),
            tuple(f"s{k}" for k in range(38)) + ("lambda", "λ\\'"),
        ]).flatmap(
            lambda signals: st.tuples(
                st.just(signals),
                st.lists(
                    st.integers(-1, 1).flatmap(
                        lambda extra: st.lists(
                            _CELLS, min_size=len(signals) + extra, max_size=len(signals) + extra
                        )
                    ),
                    min_size=1,
                    max_size=4,
                ),
            )
        )
    )
    def test_generated_converter_reads_as_value_by_value(self, case):
        signals, rows = case
        header = io.StringIO()
        csv.writer(header, lineterminator="\n").writerow(signals)
        lines = [",".join(row) for row in rows]
        text = header.getvalue() + "".join(line + "\n" for line in lines)
        names, samples = stream_csv(text.splitlines(keepends=True))
        assert names == signals
        samples, error = _drain(samples)
        assert (samples, error) == _value_by_value(lines, signals)
        assert all(list(sample) == list(signals) for sample in samples)


class TestReadJsonl:
    def test_signals_inferred_sorted_from_first_object(self):
        trace = read_jsonl(io.StringIO('{"y": 1, "x": 2}\n{"x": 3, "y": 4}\n'))
        assert trace.signals == ("x", "y")
        assert trace.samples == ((2.0, 1.0), (3.0, 4.0))

    def test_declared_signals_override_inference(self):
        trace = read_jsonl(io.StringIO('{"x": 1, "y": 2}\n'), signals=("y",))
        assert trace.signals == ("y",)
        assert trace.samples == ((2.0,),)

    def test_extra_keys_tolerated_after_first(self):
        samples = list(
            read_jsonl_stream(['{"x": 1}', '{"x": 2, "debug": 9}'])
        )
        assert samples == [{"x": 1.0}, {"x": 2.0}]

    def test_missing_signal_names_line(self):
        with pytest.raises(MissingSignalError, match="line 2"):
            list(read_jsonl_stream(['{"x": 1, "y": 2}', '{"x": 3}']))

    def test_bool_rejected(self):
        with pytest.raises(TraceFormatError, match="'x' is not a number"):
            list(read_jsonl_stream(['{"x": true}']))

    def test_string_value_rejected(self):
        with pytest.raises(TraceFormatError, match="not a number"):
            list(read_jsonl_stream(['{"x": "1.0"}']))

    def test_non_finite_rejected(self):
        with pytest.raises(TraceFormatError, match="non-finite"):
            list(read_jsonl_stream(['{"x": 1e999}']))

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_integer_too_large_rejected(self, digits):
        with pytest.raises(TraceFormatError, match="line 2"):
            list(read_jsonl_stream(['{"x": 1}', '{"x": 1' + "0" * digits + "}"]))

    def test_non_object_rejected(self):
        with pytest.raises(TraceFormatError, match="line 1: expected a JSON object"):
            list(read_jsonl_stream(["[1, 2]"]))

    def test_invalid_json_names_line(self):
        with pytest.raises(TraceFormatError, match="line 2: invalid JSON"):
            list(read_jsonl_stream(['{"x": 1}', "{oops"]))

    def test_empty_object_rejected(self):
        with pytest.raises(TraceFormatError, match="line 1: no signal names"):
            list(read_jsonl_stream(["{}"]))

    @pytest.mark.parametrize(
        "lines,signals,error",
        [
            (['{"": 1, "x": 2}'], None, "line 1: empty signal name"),
            (['{"x": 1}'], ["x", "x"], "signal list: duplicate signal name"),
            (['{"x": 1}'], [], "signal list: no signal names"),
        ],
    )
    def test_signal_names_obey_the_header_rules(self, lines, signals, error):
        with pytest.raises(TraceFormatError, match=error):
            list(read_jsonl_stream(lines, signals))

    def test_keys_are_not_stripped(self):
        assert next(read_jsonl_stream(['{" x": 1.5}'])) == {" x": 1.5}

    def test_blank_lines_skipped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="stlobs.traceio"):
            samples = list(read_jsonl_stream(['{"x": 1}', "", '{"x": 2}']))
        assert len(samples) == 2
        assert "blank line 2" in caplog.text

    def test_empty_stream_rejected(self):
        with pytest.raises(TraceFormatError, match="empty trace"):
            read_jsonl(io.StringIO(""))
        with pytest.raises(TraceFormatError, match="empty trace"):
            list(read_jsonl_stream(["\n", " \n"]))

    def test_declared_signals_and_no_lines_is_an_empty_trace(self):
        assert read_jsonl(io.StringIO("\n"), ["x", "y"]) == Trace(("x", "y"), ())


# Values and lines for the JSONL reader's one-decode path and its
# value-by-value fallback.
_JSON_FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_JSON_VALUES = st.one_of(
    _JSON_FLOATS,
    _JSON_FLOATS,
    _JSON_FLOATS,
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from([
        "0.1", "-0.0", "5e-324", "1e-320", "1E2", "1e308", "-1e308",
        "1.7976931348623157e308", "1" + "0" * 400, "1" + "0" * 5000,
        "NaN", "Infinity", "-Infinity", "1e309", "-1e309",
        "true", "false", "null", '"1.0"', "[1.0]", "{}",
    ]),
)
_JSON_PADDING = st.sampled_from(["", " ", "\t", "  "])
_JSON_DAMAGE = ["extra", "bom", "cut", "array", "blank"]


@st.composite
def _jsonl_line(draw) -> str:
    """Mostly objects over x and y, a few of them damaged."""
    keys = draw(st.one_of(
        st.permutations(["x", "y"]),
        st.permutations(["x", "y"]),
        st.lists(st.sampled_from("xyz"), max_size=4),
    ))
    pad = draw(_JSON_PADDING)
    members = [f'{pad}"{key}"{pad}:{pad}{draw(_JSON_VALUES)}' for key in keys]
    line = pad + "{" + ",".join(members) + "}" + pad
    damage = draw(st.sampled_from([None] * 6 + _JSON_DAMAGE))
    if damage == "extra":
        line += draw(st.sampled_from([" {}", "x", ' {"x": 1.0}', " 1"]))
    elif damage == "bom":
        line = "\ufeff" + line
    elif damage == "cut":
        line = line[: draw(st.integers(0, len(line) - 1))]
    elif damage == "array":
        line = "[" + line + "]"
    elif damage == "blank":
        line = pad
    return line + draw(st.sampled_from(["\n", "\r\n", ""]))


# Floats, among them NaN, the infinities and values whose sums overflow,
# and JSON values of every other kind: ints, bools, null and strings.
_SAMPLE_FLOATS = st.floats() | st.sampled_from([1e308, -1e308, 1.7976931348623157e308, -0.0, 5e-324])
_SAMPLE_VALUES = _SAMPLE_FLOATS | st.integers(-(2**70), 2**70) | st.booleans() | st.none() | st.text(max_size=3)


@st.composite
def _sample_object(draw):
    """A declared signal set and a decoded JSON value: mostly an object over
    the declared keys, in any order, with some missing or one extra, and
    all floats in half the draws; now and then a list of its values."""
    declared = draw(st.sampled_from([("x",), ("x", "y"), ("y", "x", "z"), ("a'b", "é", "if")]))
    keys = [key for key in declared if draw(st.integers(0, 5))]
    if not draw(st.integers(0, 4)):
        keys.append("w")
    keys = draw(st.permutations(keys))
    values = _SAMPLE_FLOATS if draw(st.booleans()) else _SAMPLE_VALUES
    obj = {key: draw(values) for key in keys}
    if not draw(st.integers(0, 9)):
        obj = list(obj.values())
    return declared, obj


def _jsonl_value_by_value(lines: list[str], signals) -> tuple[list, tuple[str, str] | None]:
    """The samples of JSONL lines decoded with `json.loads` and checked one
    value at a time, and the type and message of the first error (None if
    none)."""
    declared = tuple(signals) if signals is not None else None
    samples = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            return samples, ("TraceFormatError", f"line {lineno}: invalid JSON: {exc.msg}")
        except ValueError as exc:
            return samples, ("TraceFormatError", f"line {lineno}: {exc}")
        if not isinstance(obj, dict):
            return samples, ("TraceFormatError", f"line {lineno}: expected a JSON object")
        if declared is None:
            declared = tuple(sorted(obj))
            if not declared:
                return samples, ("TraceFormatError", f"line {lineno}: no signal names")
        missing = [name for name in declared if name not in obj]
        if missing:
            return samples, ("MissingSignalError", str(MissingSignalError(missing, f"at line {lineno}")))
        sample = {}
        for name in declared:
            value = obj[name]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return samples, ("TraceFormatError", f"line {lineno}: signal {name!r} is not a number")
            try:
                value = float(value)
            except OverflowError:
                return samples, ("TraceFormatError", f"line {lineno}: signal {name!r} is too large for a float")
            if not math.isfinite(value):
                return samples, ("TraceFormatError", f"line {lineno}: signal {name!r} is non-finite")
            sample[name] = value
        samples.append(sample)
    if declared is None:
        return samples, ("TraceFormatError", "empty trace: no samples")
    return samples, None


def _jsonl_drain(lines: list[str], signals) -> tuple[list, tuple[str, str] | None]:
    samples = []
    try:
        for sample in read_jsonl_stream(lines, signals):
            assert all(type(value) is float for value in sample.values())
            samples.append(sample)
    except (TraceFormatError, MissingSignalError) as exc:
        return samples, (type(exc).__name__, str(exc))
    return samples, None


def _no_bulk_decode(line, index):
    raise StopIteration(index)  # no value: every line takes the value-by-value path


class TestJsonlFastPath:
    """`read_jsonl_stream` takes a line's decoded object as its sample when
    it is exactly what the value-by-value checks would build, and reads any
    other line value by value; either way it must read what
    `json.loads` plus the per-value rules read, and raise the same error."""

    @given(
        st.lists(_jsonl_line(), min_size=1, max_size=8),
        st.sampled_from([None, None, ("x", "y"), ("y", "x"), ("x",), ("x", "y", "z")]),
    )
    @settings(max_examples=300)
    def test_same_samples_and_errors_as_value_by_value(self, lines, signals):
        expected = _jsonl_value_by_value(lines, signals)
        assert _jsonl_drain(lines, signals) == expected
        with mock.patch.object(traceio, "_scan_once", _no_bulk_decode):
            assert _jsonl_drain(lines, signals) == expected
        # A stream ends at its first bad line; each line alone, read against
        # a declared set, reaches every line.
        declared = signals or ("x", "y")
        for line in lines:
            assert _jsonl_drain([line], declared) == _jsonl_value_by_value([line], declared)

    @pytest.mark.parametrize(
        "line,expected",
        [
            ('{"y": 2.0, "x": 1e-320}', {"x": 1e-320, "y": 2.0}),
            ('{"x": 1e308, "y": 1e308}', {"x": 1e308, "y": 1e308}),
            ('{"x": 1, "y": 2.5}', {"x": 1.0, "y": 2.5}),
            ('{"x": 1.0, "y": 2.0, "debug": 9.0}', {"x": 1.0, "y": 2.0}),
            ('{"x": 1.0, "y": NaN}', "line 1: signal 'y' is non-finite"),
            ('{"x": 1.0, "y": 1e309}', "line 1: signal 'y' is non-finite"),
            ('{"x": 1.0, "y": true}', "line 1: signal 'y' is not a number"),
            ('{"x": 1.0, "y": 2.0} 3', "line 1: invalid JSON: Extra data"),
            ('\ufeff{"x": 1.0, "y": 2.0}', "line 1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        ],
    )
    def test_lines_on_and_off_the_fast_path(self, line, expected):
        samples, error = _jsonl_drain([line], ("x", "y"))
        assert (samples[0] if samples else error[1]) == expected

    @given(_sample_object())
    @settings(max_examples=500)
    def test_generated_test_agrees_with_the_three_checks(self, case):
        # The test before it was generated: exact keys, float values, and a
        # finite sum in the object's order. The generated one sums in the
        # declared order, so where a partial sum overflows in one order only
        # the two differ; the line is then read value by value, to the same
        # sample.
        declared, obj = case
        old = (
            type(obj) is dict
            and obj.keys() == frozenset(declared)
            and {*map(type, obj.values())} == {float}
            and math.isfinite(sum(obj.values()))
        )
        new = traceio._sample_test(declared)(obj)
        if new != old:
            assert obj.keys() == set(declared)
            assert all(type(v) is float and math.isfinite(v) for v in obj.values())
            assert math.isfinite(sum(obj[name] for name in declared)) is new
        line = json.dumps(obj)
        assert _jsonl_drain([line], declared) == _jsonl_value_by_value([line], declared)

    @pytest.mark.parametrize("order", ["xyz", "zxy", "yzx"])
    def test_sum_that_overflows_in_one_order(self, order):
        # 1e308 + 1e308 overflows, 1e308 - 1e308 + 1e308 does not: by the
        # declared order x, y, z the generated test refuses the line, and
        # the value-by-value reading accepts it with the same values.
        values = {"x": 1e308, "y": 1e308, "z": -1e308}
        line = json.dumps({key: values[key] for key in order})
        assert not traceio._sample_test(("x", "y", "z"))(json.loads(line))
        assert _jsonl_drain([line], ("x", "y", "z")) == ([values], None)

    def test_fast_path_sample_equals_the_value_by_value_one(self):
        line = '{"y": -0.0, "x": 0.1}'
        fast = next(read_jsonl_stream([line], ("x", "y")))
        with mock.patch.object(traceio, "_scan_once", _no_bulk_decode):
            slow = next(read_jsonl_stream([line], ("x", "y")))
        assert fast == slow
        assert math.copysign(1.0, fast["y"]) == -1.0
        assert list(fast) == ["y", "x"]  # the line's key order
        assert list(slow) == ["x", "y"]  # the declared order


class TestSniffAndRead:
    def test_sniff_by_content(self, tmp_path):
        """The first non-blank line picks the format, whatever the file is
        called, and the lines come back from the start."""
        fmt, lines = sniff_lines(iter(["\n", ' {"x": 1}\n', "x\n"]))
        assert fmt == "jsonl"
        assert list(lines) == ["\n", ' {"x": 1}\n', "x\n"]
        assert sniff_lines(["\n", "x\n", '{"x": 1}\n'])[0] == "csv"
        with pytest.raises(TraceFormatError, match="empty trace"):
            sniff_lines(["\n", " \r\n"])
        path = tmp_path / "t.csv"
        path.write_text('\n{"x": 1}\n{"x": 2}\n')
        assert read_trace(path) == Trace(("x",), ((1.0,), (2.0,)))
        with path.open(newline="") as stream:
            assert read_trace(stream) == Trace(("x",), ((1.0,), (2.0,)))
        with pytest.raises(TraceFormatError, match="line 3, column 1: not a number"):
            read_trace(path, "csv")

    def test_read_trace_auto(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"x": 1}\n{"x": 2}\n')
        trace = read_trace(path)
        assert len(trace) == 2


# Line ends that split lines differently under newline "" and "\n".
HOOKED_TEXT = "x,y\r\n1,2\r3,4\n5,é6\r\n\r\n7,8\r"


class TestHookedReads:
    """`opened` reads a path or the interpreter's stdin itself, calling
    `before_read`, if given, before each read, and gives the lines a file
    opened with newline "" would give."""

    def test_path_reads_as_open_does(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_bytes(HOOKED_TEXT.encode("utf-8") * 2000)
        calls = []
        with open(path, encoding="utf-8", newline="") as plain:
            expected = list(plain)
        with traceio.opened(path, lambda: calls.append(1)) as lines:
            assert next(lines) == "x,y\r\n"
            assert len(calls) == 1  # before the first read, not after
            assert [next(lines), *lines] == expected[1:]
        assert len(calls) > 2  # one per read, the last one meeting the end
        assert lines.closed

    @pytest.mark.parametrize(
        "encoding,errors", [("utf-8", "strict"), ("latin-1", "strict"), ("ascii", "replace")]
    )
    def test_interpreter_stdin_reads_as_itself(self, tmp_path, monkeypatch, encoding, errors):
        # stdin's own encoding and error handler ("strict" reads as
        # "surrogateescape"), and the newline rule of a path.
        path = tmp_path / "stdin"
        path.write_bytes(HOOKED_TEXT.encode("utf-8"))
        calls = []
        with open(path, encoding=encoding, errors=errors, newline="") as plain:
            expected = list(plain)
        with open(path, encoding=encoding, errors=errors) as stdin:
            monkeypatch.setattr(sys, "__stdin__", stdin)
            with traceio.opened(stdin, lambda: calls.append(1)) as lines:
                assert lines is not stdin
                assert list(lines) == expected
            assert lines.closed and not stdin.closed
            stdin.seek(0)
            with traceio.opened(stdin) as lines:  # unhooked: the same lines
                assert lines is not stdin
                assert list(lines) == expected
            assert not stdin.closed
        assert expected[1] == "1,2\r"  # "\r" ends a line, as in a file
        assert len(calls) >= 2  # the last read meets the end

    @pytest.mark.parametrize("encoding,dropped", [("utf-8", 1), ("UTF8", 1), ("latin-1", 0)])
    def test_one_leading_byte_order_mark_is_dropped(self, tmp_path, monkeypatch, encoding, dropped):
        # From a path and from a UTF-8 stdin; a stdin of another encoding
        # reads the mark's bytes as its own characters.
        data = "\ufeff\ufeffx\n1\n\ufeff2\n".encode("utf-8")
        path = tmp_path / "trace"
        path.write_bytes(data)
        with traceio.opened(path) as lines:
            assert list(lines) == ["\ufeffx\n", "1\n", "\ufeff2\n"]
        with open(path, encoding=encoding) as stdin:
            monkeypatch.setattr(sys, "__stdin__", stdin)
            with traceio.opened(stdin) as lines:
                assert list(lines) == list(io.StringIO(data.decode(encoding)[dropped:], newline=""))

    def test_other_sources_are_not_hooked(self, tmp_path):
        stream = io.StringIO("x\n1\n")
        with traceio.opened(stream, lambda: pytest.fail("hooked")) as lines:
            assert lines is stream
            assert list(lines) == ["x\n", "1\n"]
        assert not traceio.hooks_reads(stream)
        assert traceio.hooks_reads(tmp_path / "t.csv") and traceio.hooks_reads("t.csv")


RECORDS = [
    VerdictRecord(0, UNKNOWN),
    VerdictRecord(1, TRUE),
    VerdictRecord(2, TRUE),
]


class TestVerdictIO:
    @pytest.mark.parametrize("fmt", ["text", "csv", "jsonl"])
    def test_round_trip(self, fmt):
        out = io.StringIO()
        write_all(RECORDS, out, fmt)
        assert read_verdicts(out.getvalue().splitlines(), fmt) == RECORDS

    def test_text_format_is_stable(self):
        out = io.StringIO()
        VerdictWriter(out, "text").write(VerdictRecord(3, FALSE))
        assert out.getvalue() == "tick=3 verdict=F pos=0 neg=1\n"

    def test_csv_header_written_up_front(self):
        out = io.StringIO()
        VerdictWriter(out, "csv")
        assert out.getvalue() == "tick,verdict,pos,neg\n"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown verdict format"):
            VerdictWriter(io.StringIO(), "yaml")
        with pytest.raises(ValueError, match="unknown verdict format"):
            read_verdicts([], "yaml")

    def test_malformed_text_line(self):
        with pytest.raises(TraceFormatError, match="line 1"):
            read_verdicts(["tick=0 verdict=Q pos=0 neg=0"], "text")

    @pytest.mark.parametrize(
        "fmt,lines",
        [
            ("text", ["tick=0 verdict=T pos=0 neg=1"]),
            ("text", ["tick=0 verdict=U pos=1 neg=0"]),
            ("csv", ["tick,verdict,pos,neg", "0,F,0,0"]),
            ("csv", ["tick,verdict,pos,neg", "0,Q,0,0"]),
            ("jsonl", ['{"tick": 0, "verdict": "T", "pos": false, "neg": true}']),
            ("jsonl", ['{"tick": 0, "verdict": "F", "pos": true, "neg": true}']),
        ],
    )
    def test_verdict_letter_must_match_flags(self, fmt, lines):
        with pytest.raises(TraceFormatError, match=f"line {len(lines)}"):
            read_verdicts(lines, fmt)

    def test_malformed_csv_row(self):
        with pytest.raises(TraceFormatError, match="line 2"):
            read_verdicts(["tick,verdict,pos,neg", "0,T"], "csv")

    def test_csv_row_with_a_non_flag(self):
        with pytest.raises(TraceFormatError, match="line 2"):
            read_verdicts(["tick,verdict,pos,neg", "0,T,x,0"], "csv")

    def test_jsonl_line_without_a_verdict(self):
        with pytest.raises(TraceFormatError, match="line 1"):
            read_verdicts(['{"tick":0}'], "jsonl")

    def test_jsonl_line_that_is_not_json(self):
        with pytest.raises(TraceFormatError, match="line 1"):
            read_verdicts(["nope"], "jsonl")

    @pytest.mark.parametrize("verdict", [TRUE, FALSE, UNKNOWN])
    @pytest.mark.parametrize("tick", [0, 7, 2**70])
    def test_jsonl_line_equals_json_dumps(self, verdict, tick):
        out = io.StringIO()
        VerdictWriter(out, "jsonl").write(VerdictRecord(tick, verdict))
        expected = json.dumps(
            {"tick": tick, "verdict": str(verdict), "pos": verdict is TRUE, "neg": verdict is FALSE}
        )
        assert out.getvalue() == expected + "\n"

    def test_each_write_flushes(self):
        flushes = []

        class Spy(io.StringIO):
            def flush(self):
                flushes.append(self.getvalue())
                super().flush()

        write_all(RECORDS, Spy(), "text")
        assert len(flushes) == len(RECORDS)
        assert flushes[0].count("\n") == 1

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_every_format_flushes_each_line(self, fmt):
        flushes = []

        class Spy(io.StringIO):
            def flush(self):
                flushes.append(self.getvalue().count("\n"))
                super().flush()

        header = 1 if fmt == "csv" else 0
        write_all(RECORDS, Spy(), fmt)
        assert flushes == list(range(1, header + len(RECORDS) + 1))


SINK_RECORDS = [VerdictRecord(0, UNKNOWN), VerdictRecord(1, FALSE), VerdictRecord(2**70, TRUE)]


def expected_lines(fmt: str) -> list[bytes]:
    """The verdict lines of SINK_RECORDS, the csv header first, written out
    field by field."""
    lines = ["tick,verdict,pos,neg\n"] if fmt == "csv" else []
    for tick, verdict in SINK_RECORDS:
        pos, neg = verdict is TRUE, verdict is FALSE
        if fmt == "text":
            lines.append(f"tick={tick} verdict={verdict} pos={int(pos)} neg={int(neg)}\n")
        elif fmt == "csv":
            lines.append(f"{tick},{verdict},{int(pos)},{int(neg)}\n")
        else:
            lines.append(json.dumps({"tick": tick, "verdict": str(verdict), "pos": pos, "neg": neg}) + "\n")
    return [line.encode("ascii") for line in lines]


def written_line_by_line(stream, fmt: str, new_output) -> list[bytes]:
    """What `new_output()` returns after the writer is made (the csv
    header) and after each write: each must be exactly one whole line."""
    writer = VerdictWriter(stream, fmt)
    seen = [new_output()] if fmt == "csv" else []
    for record in SINK_RECORDS:
        writer.write(record)
        seen.append(new_output())
    return seen


@pytest.fixture(params=["own stream", "interpreter stdout"])
def as_sink(request, monkeypatch):
    """Returns its stream, made the interpreter's own stdout or left as it
    is: the writer calls a text stream's `write` and `flush` either way."""

    def make(stream):
        if request.param == "interpreter stdout":
            monkeypatch.setattr(sys, "__stdout__", stream)
        return stream

    return make


@pytest.mark.parametrize("fmt", ["text", "csv", "jsonl"])
class TestVerdictSinks:
    """Every sink gets the same bytes, and every line is out of the writer
    before the next `write` call: a pipe's reader can read it, as the live
    stdin loop needs."""

    def test_pipe(self, fmt, as_sink):
        read_end, write_end = os.pipe()
        os.set_blocking(read_end, False)

        def new_output() -> bytes:
            try:
                return os.read(read_end, 1 << 16)
            except BlockingIOError:
                return b""

        try:
            with as_sink(open(write_end, "w", encoding="utf-8")) as stream:
                assert written_line_by_line(stream, fmt, new_output) == expected_lines(fmt)
        finally:
            os.close(read_end)

    def test_regular_file(self, fmt, tmp_path, as_sink):
        path = tmp_path / "verdicts.out"
        done = 0

        def new_output() -> bytes:
            nonlocal done
            data = path.read_bytes()
            new, done = data[done:], len(data)
            return new

        with as_sink(open(path, "w", encoding="utf-8")) as stream:
            assert written_line_by_line(stream, fmt, new_output) == expected_lines(fmt)
        assert path.read_bytes() == b"".join(expected_lines(fmt))

    def test_string_io(self, fmt):
        stream = io.StringIO()
        done = 0

        def new_output() -> bytes:
            nonlocal done
            data = stream.getvalue()
            new, done = data[done:], len(data)
            return new.encode("ascii")

        assert written_line_by_line(stream, fmt, new_output) == expected_lines(fmt)

    def test_captured_stdout(self, fmt, capsys):
        def new_output() -> bytes:
            return capsys.readouterr().out.encode("ascii")

        assert written_line_by_line(sys.stdout, fmt, new_output) == expected_lines(fmt)

    def test_binary_stream_that_takes_5_bytes_a_call(self, fmt):
        # The raw sink takes at most 5 bytes a call; its buffered stream
        # writes the rest when it is flushed, as `check` flushes its own.
        class FiveBytes(io.RawIOBase):
            def __init__(self):
                self.data = b""

            def writable(self):
                return True

            def write(self, data):
                self.data += bytes(data[:5])
                return min(len(data), 5)

        raw = FiveBytes()
        stream = io.BufferedWriter(raw, 8)
        write_all(SINK_RECORDS, stream, fmt)
        stream.flush()
        assert raw.data == b"".join(expected_lines(fmt))

    def test_binary_stream_is_flushed_by_its_owner(self, fmt):
        flushes = []

        class Spy(io.BytesIO):
            def flush(self):
                flushes.append(self.getvalue())

        stream = Spy()
        write_all(SINK_RECORDS, stream, fmt)
        assert flushes == []
        assert stream.getvalue() == b"".join(expected_lines(fmt))

    def test_text_buffered_before_the_writer_comes_first(self, fmt, tmp_path, as_sink):
        path = tmp_path / "verdicts.out"
        with as_sink(open(path, "w", encoding="utf-8")) as stream:
            stream.write("# run 1\n")
            write_all(SINK_RECORDS, stream, fmt)
        assert path.read_bytes() == b"# run 1\n" + b"".join(expected_lines(fmt))

    @pytest.mark.parametrize("newline", ["\r\n", "\r", "", None])
    def test_stream_newline_translation_applies(self, fmt, newline, tmp_path):
        # A file opened with any newline gets the bytes its own `write`
        # gives for the same lines.
        ours, theirs = tmp_path / "writer.out", tmp_path / "stream.out"
        with open(ours, "w", encoding="utf-8", newline=newline) as stream:
            write_all(SINK_RECORDS, stream, fmt)
        with open(theirs, "w", encoding="utf-8", newline=newline) as stream:
            for line in expected_lines(fmt):
                stream.write(line.decode("ascii"))
        assert ours.read_bytes() == theirs.read_bytes()


class TestCsvRoundTrip:
    @given(
        st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                st.floats(allow_nan=False, allow_infinity=False, width=64),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_write_then_read_is_identity(self, rows):
        # Each value written as its repr reads back as itself.
        trace = Trace(("a", "b"), tuple(rows))
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(trace.signals)
        writer.writerows([repr(value) for value in row] for row in trace.samples)
        back = read_csv(io.StringIO(out.getvalue()))
        assert back.signals == trace.signals
        for row, original in zip(back.samples, trace.samples):
            for value, expected in zip(row, original):
                assert value == expected or (math.isnan(expected) and math.isnan(value))
