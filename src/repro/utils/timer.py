"""A tiny wall-clock timer used by the benchmark harnesses and the engine
statistics.  ``time.perf_counter`` based, usable as a context manager."""

from __future__ import annotations

import time
from repro.exceptions import StateError


class Timer:
    """Accumulating wall-clock timer.

    Examples
    --------
    >>> t = Timer()
    >>> with t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._started_at: float | None = None

    def start(self) -> "Timer":
        """Start (or restart) the timer; accumulated time is preserved."""
        self._started_at = time.perf_counter()
        return self

    def stop(self) -> float:
        """Stop the timer and return the total accumulated seconds."""
        if self._started_at is None:
            raise StateError("Timer.stop() called before start()")
        self.elapsed += time.perf_counter() - self._started_at
        self._started_at = None
        return self.elapsed

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self._started_at is not None else "stopped"
        return f"Timer(elapsed={self.elapsed:.6f}s, {state})"
