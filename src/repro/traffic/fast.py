"""Vectorised ground-truth computation for large traces.

Exact per-flow totals and partial-key aggregation are the benchmark
harness's hidden cost: pure-Python dict loops over hundreds of
thousands of packets x dozens of partial keys dominate some HHH
benches.  This module does the same computation with numpy:

* keys (up to 128 bits) are split into (hi, lo) uint64 column arrays;
* distinct flows come from one two-column sort
  (:func:`~repro.flowkeys.columns.group_words`), partial keys group
  with ``np.unique`` over their single mapped column;
* the partial-key mapping ``g(.)`` becomes shift/mask arithmetic on
  the columns.

Results are bit-identical to ``Trace.ground_truth`` (tests enforce
it); use :class:`FastGroundTruth` when the same trace is queried under
many partial keys.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.flowkeys.columns import columns_to_words, group_words, pack_key_columns
from repro.flowkeys.key import PartialKeySpec
from repro.traffic.trace import Trace

__all__ = ["FastGroundTruth", "pack_key_columns"]

_U64 = np.uint64
_MASK64 = (1 << 64) - 1


class FastGroundTruth:
    """Columnar exact aggregation over one trace.

    Supports key specs up to 128 bits (the IPv4 5-tuple and anything
    narrower); wider specs fall back to the Trace implementation.
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.supported = trace.spec.width <= 128
        if not self.supported:
            return
        hi, lo = pack_key_columns(trace.keys)
        if trace.sizes is None:
            weights = np.ones(len(trace.keys), dtype=np.int64)
        else:
            weights = np.asarray(trace.sizes, dtype=np.int64)
        # Deduplicate to distinct flows once; all partial keys reuse it.
        uniq, totals = group_words(columns_to_words(hi, lo, 128), weights)
        self._flow_lo = uniq[0]
        self._flow_hi = uniq[1]
        self._flow_totals = totals

    def full_counts(self) -> Dict[int, int]:
        """Exact totals on the full key (same values as the Trace)."""
        if not self.supported:
            return self.trace.full_counts()
        out: Dict[int, int] = {}
        for hi, lo, total in zip(
            self._flow_hi.tolist(),
            self._flow_lo.tolist(),
            self._flow_totals.tolist(),
        ):
            out[(hi << 64) | lo] = total
        return out

    def _mapped_columns(self, partial: PartialKeySpec):
        """Apply g(.) to the distinct-flow columns, vectorised."""
        spec = self.trace.spec
        mapped = np.zeros(len(self._flow_totals), dtype=_U64)
        for name, prefix_len in partial.parts:
            field = spec.field(name)
            src_shift = spec.shift_of(name) + (field.width - prefix_len)
            mask = _U64((1 << prefix_len) - 1) if prefix_len else _U64(0)
            if src_shift >= 64:
                column = self._flow_hi >> _U64(src_shift - 64)
            elif src_shift + field.width <= 64:
                column = self._flow_lo >> _U64(src_shift)
            else:
                column = (self._flow_lo >> _U64(src_shift)) | (
                    self._flow_hi << _U64(64 - src_shift)
                )
            mapped = (mapped << _U64(prefix_len)) | (column & mask)
        return mapped

    def ground_truth(self, partial: PartialKeySpec) -> Dict[int, int]:
        """Exact per-flow totals aggregated onto *partial*."""
        if partial.full != self.trace.spec:
            raise ValueError(
                f"partial key {partial} is not over this trace's full key"
            )
        if not self.supported or partial.width > 64:
            return self.trace.ground_truth(partial)
        uniq, totals = self.ground_truth_columns(partial)
        return dict(zip(uniq.tolist(), totals.tolist()))

    def ground_truth_columns(
        self, partial: PartialKeySpec
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """Exact aggregation as ``(unique partial keys, totals)`` arrays.

        Only for supported specs with ``partial.width <= 64`` (the
        vectorised accuracy scoring path); :meth:`ground_truth` routes
        through here and handles the fallbacks.
        """
        if not self.supported or partial.width > 64:
            raise ValueError(
                f"columnar ground truth needs a <=64-bit partial over a "
                f"<=128-bit spec, got {partial} over {self.trace.spec}"
            )
        mapped = self._mapped_columns(partial)
        uniq, inverse = np.unique(mapped, return_inverse=True)
        totals = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(totals, inverse, self._flow_totals)
        return uniq, totals
