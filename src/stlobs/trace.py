"""In-memory trace: named real-valued signals sampled at contiguous ticks."""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from ._record import record
from .errors import TraceFormatError


@record
class Trace:
    """A finite prefix of synchronous samples.

    Tick k is row k of `samples`; every row carries one value per signal, in
    signal order. There is no timestamp column anywhere: time is the index.
    """

    signals: tuple[str, ...]
    samples: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(set(self.signals)) != len(self.signals):
            raise TraceFormatError("duplicate signal names in trace header")
        width = len(self.signals)
        for k, row in enumerate(self.samples):
            if len(row) != width:
                raise TraceFormatError(
                    f"tick {k}: expected {width} values, got {len(row)}"
                )

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.signals)}

    def __len__(self) -> int:
        return len(self.samples)

    def value(self, signal: str, tick: int) -> float:
        return self.samples[tick][self._index[signal]]

    def sample(self, tick: int) -> dict[str, float]:
        """The sample at `tick` as a mapping, for feeding a monitor."""
        return dict(zip(self.signals, self.samples[tick]))


def trace_from_rows(signals: Iterable[str], rows: Iterable[Iterable[float]]) -> Trace:
    return Trace(tuple(signals), tuple(tuple(float(v) for v in row) for row in rows))
