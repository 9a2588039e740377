"""Row-subset selection shared by the columnar indexes.

Both :class:`~repro.pmi.index.ProbabilisticMatrixIndex` and
:class:`~repro.structural.feature_index.StructuralFeatureIndex` store one
row per graph and slice themselves into row subsets the same way; this
helper keeps the validation and the zero-copy rule in one place.
"""

from __future__ import annotations
from repro.exceptions import ConfigurationError


def resolve_row_selector(graph_ids, num_rows: int):
    """``(ids, selector)`` for a row subset of a ``num_rows``-row matrix.

    ``selector`` is a ``slice`` when ``graph_ids`` is a contiguous ascending
    range — numpy basic indexing, so the subset shares memory with the
    source — and the validated id list otherwise (fancy-indexed copy).
    Raises :class:`ValueError` for ids outside ``[0, num_rows)``.
    """
    ids = list(graph_ids)
    for graph_id in ids:
        if not 0 <= graph_id < num_rows:
            raise ConfigurationError(f"graph id {graph_id!r} is not indexed")
    contiguous = ids == list(range(ids[0], ids[0] + len(ids))) if ids else True
    selector = slice(ids[0], ids[0] + len(ids)) if contiguous and ids else ids
    return ids, selector
