"""Seeded inputs for the benchmark workloads.

Every trace is built from `--seed` alone, so the same seed gives byte-equal
files. Values are integers in tenths (a 0.1 grid) and are written with
`repr(tenths / 10)`, which reads back as the same float. The expected verdict
stream of every check workload is fixed by construction: `U` up to the
decided tick, then one decided verdict to the end. The benchmark confirms the
expectation with the reference oracle and checks the program against it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# The workloads, each with the reason it is in the benchmark. The oracle and
# conformance layers have no workload of their own: every traced run times
# them in process and runs `selfcheck` once through the CLI (see layers.py).
WORKLOADS = {
    "csv-wide": (
        "200k-row CSV, three operators with windows to the last row, root open "
        "until the final tick: heaviest load on the CSV reader, Monitor.step "
        "and the CSV writer, and nothing for a latch shortcut to skip"
    ),
    "jsonl-latch": (
        "200k-line JSONL with multi-signal rational atoms on a 0.1 grid, root "
        "decided at tick 100000: JSON reader and writer, the Fraction atom "
        "path with exact boundary samples, and 100k already-decided ticks"
    ),
    "live-stdin": (
        "closed loop with one caller over a pipe: send one CSV row, wait for "
        "its verdict, send the next; the streaming contract, so batching "
        "verdict writes would stall it"
    ),
}

WIDE_ROWS = 200_000
LATCH_ROWS = 200_000
LATCH_DECIDED = 100_000
LIVE_ROWS = 100_000

WIDE_SIGNALS = ("speed", "brake", "gear")
LATCH_SIGNALS = ("x", "y", "z")

# The selfcheck run of the traced run, and the cases each suite must report.
SELFCHECK_ARGS = ("selfcheck", "--max-b", "3", "--cases", "2000", "--json")
SELFCHECK_CASES = {"sweep": 15136, "induction": 60, "properties": 2000}


def wide_formula(last: int) -> str:
    return (
        f"G[0,{last}] (speed < 20 | brake > 0) & F[0,{last}] (gear >= 6) "
        f"& ((speed >= 0) U[0,{last}] (gear >= 6))"
    )


LATCH_FORMULA = (
    f"(F[0,{LATCH_DECIDED}] (x - y > 100) | "
    f"((x + y >= -100) U[50,{LATCH_DECIDED}] (x - y > 100))) "
    f"-> G[10,{LATCH_ROWS - 1}] (2*x - 3/10*y + 1/3 <= z)"
)

# The multi-signal atoms of LATCH_FORMULA as (coefficients, constant,
# occurrences), each read as `sum(coef * signal) + constant <cmp> 0`. The
# monitor evaluates every occurrence once per tick.
LATCH_ATOMS = (
    ({"x": Fraction(1), "y": Fraction(-1)}, Fraction(-100), 2),
    ({"x": Fraction(1), "y": Fraction(1)}, Fraction(100), 1),
    ({"x": Fraction(2), "y": Fraction(-3, 10), "z": Fraction(-1)}, Fraction(1, 3), 1),
)


@dataclass
class CheckInput:
    """One generated trace with its formula and expected verdict stream."""

    workload: str
    path: Path
    signals: tuple[str, ...]
    tenths: list[tuple[int, ...]]
    formula: str
    verdict_format: str
    decided_tick: int
    final: str
    boundary_share: float
    boundary_evals: int

    @property
    def rows(self) -> int:
        return len(self.tenths)

    def values(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(v / 10 for v in row) for row in self.tenths)

    def expected(self, tick: int) -> str:
        return "U" if tick < self.decided_tick else self.final

    def stats(self) -> dict:
        return {
            "rows": self.rows,
            "bytes": self.path.stat().st_size,
            "decided_tick": self.decided_tick,
            "boundary_share": self.boundary_share,
            "boundary_evals": self.boundary_evals,
        }


def _fmt(tenths: int) -> str:
    return repr(tenths / 10)


def wide_tenths(seed: int, n: int) -> list[tuple[int, int, int]]:
    """speed (0..25) random walk, brake set whenever speed >= 20, gear 1..5
    except 6 on the last row, so every operator stays open until then."""
    rng = random.Random(f"csv-wide:{seed}")
    speed, gear = rng.randrange(0, 251), rng.randrange(1, 6)
    rows = []
    for tick in range(n):
        speed = min(250, max(0, speed + rng.randint(-4, 4)))
        brake = 1 if speed >= 200 or rng.random() < 0.1 else 0
        gear = min(5, max(1, gear + rng.choice((-1, 0, 0, 0, 0, 1))))
        rows.append((speed, brake * 10, 60 if tick == n - 1 else gear * 10))
    return rows


def latch_tenths(seed: int, n: int) -> list[tuple[int, int, int]]:
    """x, y on a 0.1 grid with `x - y > 100` never true up to LATCH_DECIDED,
    so the antecedent closes false there and the root latches true.

    About 2 % of ticks sit exactly on `x + y = -100`, and about 2 % on
    `x - y = 100` using half-integers, where float arithmetic is exact, so
    the decided tick does not depend on how atoms round. z keeps the G
    operand true with a margin.
    """
    rng = random.Random(f"jsonl-latch:{seed}")
    rows = []
    for tick in range(n):
        roll = rng.random()
        if roll < 0.02:
            y = 5 + 10 * rng.randrange(-150, 50)
            x = y + 1000
        elif roll < 0.04:
            x = rng.randrange(-1500, 0)
            y = -1000 - x
        else:
            x = rng.randrange(-1500, 1501)
            y = rng.randrange(-1500, 1501)
            if tick <= LATCH_DECIDED and x - y >= 1000:
                x = y + 999 - rng.randrange(0, 300)
        z = -((-(20 * x - 3 * y + 34)) // 10) + rng.randrange(0, 50)
        rows.append((x, y, z))
    return rows


def boundary_share(
    tenths: list[tuple[int, ...]], signals: tuple[str, ...], atoms
) -> tuple[float, int]:
    """Share of multi-signal atom evaluations whose exact sum is 0, reading
    each sample as the decimal written in the trace. Returns (share, evals)."""
    index = {name: i for i, name in enumerate(signals)}
    zero = evals = 0
    for coefs, constant, occurrences in atoms:
        # Multiply sum(coef * t / 10) + constant by 10 * scale: all integers.
        scale = math.lcm(*(c.denominator for c in coefs.values()), constant.denominator)
        ints = [(index[name], int(c * scale)) for name, c in coefs.items()]
        k = int(constant * 10 * scale)
        zero += occurrences * sum(
            1 for row in tenths if sum(c * row[i] for i, c in ints) + k == 0
        )
        evals += len(tenths) * occurrences
    return (zero / evals if evals else 0.0), evals


def _write_csv(path: Path, signals, tenths) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(signals) + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in tenths)


def _write_jsonl(path: Path, signals, tenths) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(
            json.dumps(dict(zip(signals, (v / 10 for v in row)))) + "\n"
            for row in tenths
        )


def csv_wide(seed: int, directory: Path) -> CheckInput:
    tenths = wide_tenths(seed, WIDE_ROWS)
    path = directory / "csv-wide.csv"
    _write_csv(path, WIDE_SIGNALS, tenths)
    return CheckInput(
        "csv-wide", path, WIDE_SIGNALS, tenths, wide_formula(WIDE_ROWS - 1),
        "csv", WIDE_ROWS - 1, "T", 0.0, 0,
    )


def jsonl_latch(seed: int, directory: Path) -> CheckInput:
    tenths = latch_tenths(seed, LATCH_ROWS)
    path = directory / "jsonl-latch.jsonl"
    _write_jsonl(path, LATCH_SIGNALS, tenths)
    share, evals = boundary_share(tenths, LATCH_SIGNALS, LATCH_ATOMS)
    return CheckInput(
        "jsonl-latch", path, LATCH_SIGNALS, tenths, LATCH_FORMULA,
        "jsonl", LATCH_DECIDED, "T", share, evals,
    )


def live_stdin(seed: int, directory: Path) -> CheckInput:
    """The first LIVE_ROWS rows of the csv-wide data, with windows closing
    on the last of them: G latches true there but F and U close false."""
    tenths = wide_tenths(seed, WIDE_ROWS)[:LIVE_ROWS]
    path = directory / "live-stdin.csv"
    _write_csv(path, WIDE_SIGNALS, tenths)
    return CheckInput(
        "live-stdin", path, WIDE_SIGNALS, tenths, wide_formula(LIVE_ROWS - 1),
        "text", LIVE_ROWS - 1, "F", 0.0, 0,
    )


GENERATORS = {"csv-wide": csv_wide, "jsonl-latch": jsonl_latch, "live-stdin": live_stdin}


def generate(workload: str, seed: int, directory: Path) -> CheckInput:
    return GENERATORS[workload](seed, directory)


def csv_lines(inp: CheckInput, rows: int | None = None) -> list[bytes]:
    """Header plus one encoded line per row (the first `rows` rows when
    given), as the live caller sends them."""
    return [(",".join(inp.signals) + "\n").encode()] + [
        (",".join(map(_fmt, row)) + "\n").encode() for row in inp.tenths[:rows]
    ]
