"""Monte-Carlo sample-size helpers.

The sample-size rule ``N = (4 ln(2/ξ)) / τ²`` used by Algorithms 3 and 5
(Section 4.1.1 / Section 5, following Mitzenmacher & Upfal [26]) and the
validation of an explicit sample count and embedding cap.  Worlds themselves
are drawn by :mod:`repro.probability.batch_kernel`.
"""

from __future__ import annotations

import math
from numbers import Integral

from repro.exceptions import ConfigurationError

DEFAULT_XI = 0.05
DEFAULT_TAU = 0.1


def monte_carlo_sample_size(xi: float = DEFAULT_XI, tau: float = DEFAULT_TAU) -> int:
    """The paper's cycling number ``m = (4 ln(2/ξ)) / τ²``.

    ``ξ`` bounds the failure probability and must be in (0, 1); ``τ`` is the
    *relative error* of the estimator (Monte-Carlo theory, [26]) and must be
    in (0, 1] — a relative error above 1 is meaningless for a probability
    and silently degenerated into a 1-sample estimate before this check
    existed.
    """
    if not 0.0 < xi < 1.0:
        raise ConfigurationError(f"xi must be in (0, 1), got {xi!r}")
    if not 0.0 < tau <= 1.0:
        raise ConfigurationError(f"tau must be in (0, 1], got {tau!r}")
    return max(1, math.ceil((4.0 * math.log(2.0 / xi)) / (tau * tau)))


def check_sample_count(num_samples: int | None) -> None:
    """Reject an explicit sample count that is not an integer >= 1.

    ``None`` (use the cycling number for ``(ξ, τ)``) passes.  Without the
    check a count of 0 divides by zero inside the estimators and a negative
    one fails in numpy or yields a silent ``0.0``; bool is an int subclass
    and is rejected explicitly.
    """
    _check_count(num_samples, "num_samples")


def check_embedding_limit(embedding_limit: int | None) -> None:
    """Reject an embedding cap that is not an integer >= 1 (``None``: no cap):
    a cap below 1 enumerates nothing, so every probability would be 0.0."""
    _check_count(embedding_limit, "embedding_limit")


def _check_count(value: int | None, name: str) -> None:
    if value is not None and (
        isinstance(value, bool) or not isinstance(value, Integral) or value < 1
    ):
        raise ConfigurationError(f"{name} must be an integer >= 1 or None, got {value!r}")
