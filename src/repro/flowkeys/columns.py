"""Columnar flow-key representation: packed keys as uint64 word columns.

This module is the single home of the key-packing arithmetic that the
vectorised layers share.  A batch of packed integer flow keys becomes a
``(W, n)`` uint64 array of *word columns* — word 0 holds each key's
least-significant 64 bits, word ``W-1`` the most significant — so that
hashing, projection and group-by all run as numpy array operations
regardless of key width (the IPv4 5-tuple needs 2 words, the IPv6
5-tuple 5).

Three packing entry points used to live in three places (the engines'
batch coercion, :mod:`repro.traffic.fast`, and per-sketch extraction);
they all route here now:

* :func:`pack_key_columns` — the historical 128-bit ``(hi, lo)`` pair
  (what :meth:`Trace.batches` and the execution engines exchange).
* :func:`pack_key_words` / :func:`unpack_key_words` — the general
  multi-word form used by the columnar query plane.
* :func:`columns_to_words` / :func:`words_to_columns` — zero-copy
  adapters between the two shapes.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

_U64 = np.uint64
_MASK64 = (1 << 64) - 1


def words_for_width(width: int) -> int:
    """Number of 64-bit words needed for a *width*-bit key (min 1)."""
    if width < 1:
        raise ValueError(f"key width must be >= 1, got {width}")
    return (width + 63) // 64


def pack_key_columns(keys: Sequence[int]) -> Tuple["np.ndarray", "np.ndarray"]:
    """Split packed integer keys (up to 128 bits) into uint64 columns.

    Returns ``(hi, lo)`` arrays with ``key = (hi << 64) | lo``.  This is
    the columnar key representation shared by the vectorised execution
    engines, :meth:`Trace.batches` and the exact-aggregation fast path.
    """
    n = len(keys)
    hi = np.fromiter(((k >> 64) & _MASK64 for k in keys), dtype=_U64, count=n)
    lo = np.fromiter((k & _MASK64 for k in keys), dtype=_U64, count=n)
    return hi, lo


def pack_key_words(keys: Sequence[int], width: int) -> "np.ndarray":
    """Pack integer keys of *width* bits into a ``(W, n)`` uint64 array.

    Word 0 is the least-significant 64 bits.  Works for any width the
    key specs allow (IPv6 5-tuple included).
    """
    w = words_for_width(width)
    n = len(keys)
    out = np.empty((w, n), dtype=_U64)
    for t in range(w):
        shift = 64 * t
        out[t] = np.fromiter(
            ((k >> shift) & _MASK64 for k in keys), dtype=_U64, count=n
        )
    return out


def unpack_key_words(words: "np.ndarray") -> List[int]:
    """Rebuild python integer keys from a ``(W, n)`` word array."""
    w = words.shape[0]
    keys = words[w - 1].tolist()
    for t in range(w - 2, -1, -1):
        low = words[t].tolist()
        keys = [(k << 64) | v for k, v in zip(keys, low)]
    return keys


def columns_to_words(hi: "np.ndarray", lo: "np.ndarray", width: int) -> "np.ndarray":
    """Adapt the engines' ``(hi, lo)`` pair to a ``(W, n)`` word array.

    Zero-copy for the word rows themselves (numpy views of the inputs)
    when ``width <= 128``; wider widths cannot come from a (hi, lo)
    pair and raise.
    """
    w = words_for_width(width)
    if w > 2:
        raise ValueError(
            f"(hi, lo) columns hold at most 128 bits; width {width} "
            f"needs {w} words"
        )
    lo = np.asarray(lo, dtype=_U64)
    if w == 1:
        return lo.reshape(1, -1)
    hi = np.asarray(hi, dtype=_U64)
    out = np.empty((2, len(lo)), dtype=_U64)
    out[0] = lo
    out[1] = hi
    return out


def words_to_columns(words: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray"]:
    """Adapt a ``(W <= 2, n)`` word array back to the ``(hi, lo)`` pair."""
    if words.shape[0] > 2:
        raise ValueError(
            f"(hi, lo) columns hold at most 128 bits, got {words.shape[0]} words"
        )
    lo = words[0]
    if words.shape[0] == 2:
        hi = words[1]
    else:
        hi = np.zeros(len(lo), dtype=_U64)
    return hi, lo


def sort_words(words: "np.ndarray") -> "np.ndarray":
    """Stable lexicographic sort order of multi-word keys (int64 indices).

    ``np.lexsort`` treats its *last* key as primary, so passing the word
    rows least-significant first sorts by the full key value.
    """
    if words.shape[0] == 1:
        return np.argsort(words[0], kind="stable")
    return np.lexsort(tuple(words))


def _sorted_runs(words: "np.ndarray") -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """One stable sort of *words* and the start of each run of equal keys.

    Returns ``(order, sorted_words, start_idx)``; the run starts come
    from an adjacent-difference mask.  *words* must be non-empty.
    """
    order = sort_words(words)
    sorted_words = words[:, order]
    n = words.shape[1]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    diff = sorted_words[:, 1:] != sorted_words[:, :-1]
    starts[1:] = diff.any(axis=0) if words.shape[0] > 1 else diff[0]
    return order, sorted_words, np.nonzero(starts)[0]


def unique_words(words: "np.ndarray") -> "np.ndarray":
    """Distinct multi-word keys in ascending key order (``(W, u)``)."""
    if words.shape[1] == 0:
        return words[:, :0]
    _, sorted_words, start_idx = _sorted_runs(words)
    return sorted_words[:, start_idx]


def group_words(
    words: "np.ndarray", values: "np.ndarray"
) -> Tuple["np.ndarray", "np.ndarray"]:
    """``GROUP BY key, SUM(value)`` over word columns.

    Returns ``(unique_words, totals)`` with unique keys in ascending
    key order — one stable sort plus ``np.add.reduceat``, no python
    loop over rows.
    """
    if words.shape[1] == 0:
        return words[:, :0], values[:0]
    order, sorted_words, start_idx = _sorted_runs(words)
    totals = np.add.reduceat(values[order], start_idx)
    return sorted_words[:, start_idx], totals
