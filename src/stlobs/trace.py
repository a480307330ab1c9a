"""In-memory trace: named real-valued signals sampled at contiguous ticks."""

from __future__ import annotations

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

    def __len__(self) -> int:
        return len(self.samples)

    def sample(self, tick: int) -> dict[str, float]:
        """The sample at `tick` as a mapping, for feeding a monitor."""
        return dict(zip(self.signals, self.samples[tick]))
