"""Tests of the benchmark's own checks. Run from the repository root:

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import pytest

from drive import live_loop
from inputs import SELFCHECK_CASES, csv_lines, generate
from verify import StreamChecker, check_selfcheck

ROOT = Path(__file__).resolve().parent.parent
N, DECIDED, FINAL = 10, 6, "F"


def expected(tick: int) -> str:
    return "U" if tick < DECIDED else FINAL


def undecided(tick: int) -> str:
    return "U"


def line(fmt: str, tick: int, verdict: str, pos: bool | None = None, neg: bool | None = None) -> bytes:
    pos = verdict == "T" if pos is None else pos
    neg = verdict == "F" if neg is None else neg
    if fmt == "csv":
        return f"{tick},{verdict},{int(pos)},{int(neg)}\n".encode()
    if fmt == "jsonl":
        return (json.dumps({"tick": tick, "verdict": verdict, "pos": pos, "neg": neg}) + "\n").encode()
    return f"tick={tick} verdict={verdict} pos={int(pos)} neg={int(neg)}\n".encode()


def stream(fmt: str) -> list[bytes]:
    header = [b"tick,verdict,pos,neg\n"] if fmt == "csv" else []
    return header + [line(fmt, k, expected(k)) for k in range(N)]


def failures(fmt: str, lines: list[bytes], exit_code: int = 1) -> int:
    checker = StreamChecker(fmt, N, expected, block=3)
    data = b"".join(lines)
    for start in range(0, len(data), 7):  # chunks that split lines
        checker.feed(data[start:start + 7], float(start))
    return checker.finish(exit_code)


FORMATS = ("text", "csv", "jsonl")


def _index(fmt: str, tick: int) -> int:
    return tick + (fmt == "csv")


@pytest.mark.parametrize("fmt", FORMATS)
def test_clean_stream_passes(fmt):
    assert failures(fmt, stream(fmt)) == 0


@pytest.mark.parametrize("fmt", FORMATS)
def test_corrupted_verdict_line_fails(fmt):
    lines = stream(fmt)
    lines[_index(fmt, 3)] = line(fmt, 3, "T")
    assert failures(fmt, lines) == 1


@pytest.mark.parametrize("fmt", FORMATS)
def test_flags_that_contradict_the_verdict_fail(fmt):
    lines = stream(fmt)
    lines[_index(fmt, 7)] = line(fmt, 7, FINAL, pos=True, neg=False)
    assert failures(fmt, lines) == 1


@pytest.mark.parametrize("fmt", FORMATS)
def test_malformed_line_fails(fmt):
    lines = stream(fmt)
    lines[_index(fmt, 2)] = b"garbage\n"
    assert failures(fmt, lines) == 1


@pytest.mark.parametrize("fmt", FORMATS)
def test_missing_line_fails(fmt):
    lines = stream(fmt)
    del lines[_index(fmt, 4)]
    assert failures(fmt, lines) == 1


@pytest.mark.parametrize("fmt", FORMATS)
def test_truncated_stream_fails_every_missing_tick(fmt):
    assert failures(fmt, stream(fmt)[:-3]) == 3


@pytest.mark.parametrize("fmt", FORMATS)
def test_duplicate_line_fails(fmt):
    lines = stream(fmt)
    lines.insert(_index(fmt, 5), line(fmt, 4, "U"))
    assert failures(fmt, lines) == 1


@pytest.mark.parametrize("fmt", FORMATS)
def test_wrong_exit_code_fails(fmt):
    assert failures(fmt, stream(fmt), exit_code=0) == 1
    assert failures(fmt, stream(fmt), exit_code=None) == 1


def test_block_times_give_per_line_time():
    checker = StreamChecker("text", 6, undecided, block=2)
    for k in range(6):
        checker.feed(line("text", k, "U"), k * 1e-3)
    assert checker.per_line_block_us() == pytest.approx([1000.0, 1000.0])


def test_selfcheck_report_counts_are_checked():
    report = {suite: {"cases": cases, "failures": []} for suite, cases in SELFCHECK_CASES.items()}
    assert check_selfcheck(json.dumps(report).encode(), 0, SELFCHECK_CASES) == (17196, 0)
    report["sweep"]["cases"] -= 5
    assert check_selfcheck(json.dumps(report).encode(), 0, SELFCHECK_CASES) == (17196, 5)
    assert check_selfcheck(b"not json", 1, SELFCHECK_CASES) == (17196, 17196)


STALLING_CLI = """
import sys, time
sys.stdin.readline()
for k in range(3):
    sys.stdin.readline()
    print(f"tick={k} verdict=U pos=0 neg=0", flush=True)
time.sleep(60)
"""


def test_timed_out_live_row_fails_without_hanging(tmp_path):
    inp = generate("live-stdin", 1, tmp_path)
    lines = csv_lines(inp, rows=8)
    checker = StreamChecker("text", 8, undecided)
    start = time.perf_counter()
    done = live_loop([sys.executable, "-c", STALLING_CLI], dict(os.environ), lines,
                     checker, row_timeout=0.3)
    assert time.perf_counter() - start < 5
    assert done.failed == 5  # the row that timed out and the four never sent
    assert len(done.op_us) == 2


def test_live_loop_against_the_cli(tmp_path):
    inp = generate("live-stdin", 1, tmp_path)
    rows = 50
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "stlobs.cli", "check", "--trace", "-", "-f", inp.formula]
    checker = StreamChecker("text", rows, undecided)
    done = live_loop(argv, env, csv_lines(inp, rows=rows), checker)
    assert done.failed == 0
    assert len(done.op_us) == rows - 1
