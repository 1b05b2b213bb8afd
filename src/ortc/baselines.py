"""Classic run-length baselines used for benchmark comparison.

Two schemes:

* escape-byte RLE ("prlc1"): a reserved flag byte introduces (value, count-1)
  triples for runs of 3+; everything else is a literal.  The flag is picked as
  the least frequent byte value (ties toward the smaller value) and recorded
  in a one-byte stream header, so inputs using all 256 values still encode:
  literal occurrences of the flag are themselves escaped as triples.  One
  triple covers at most 256 bytes.

* MSB-flag RLE ("prlc2"): byte values are restricted to 0..127; a byte with
  the high bit set says "repeat the previous literal (count-1 & 0x7f) more
  times".  One value/count pair covers at most 128 bytes.  Inputs with any
  byte >= 128 are rejected.

Both encoders share one pass: the codec's own run marker finds the runs of
3+, and one np.repeat sizes and fills the body before the count and flag
bytes are written in.
"""

from __future__ import annotations

import numpy as np

from .codec import _mark_bits
from .errors import MalformedStream, UnsupportedAlphabet

__all__ = [
    "PRLC1_MAX_RUN",
    "PRLC2_MAX_RUN",
    "prlc1_encode",
    "prlc1_decode",
    "prlc2_encode",
    "prlc2_decode",
]

PRLC1_MAX_RUN = 256
PRLC2_MAX_RUN = 128
_RUN_THRESHOLD = 3  # shorter runs stay literal


def _encode_runs(arr: np.ndarray, max_run: int, base: int, flag: int | None) -> bytes:
    """Tokens [flag] value (base | chunk - 1), chunks of at most max_run, for
    each run of 3+ and each run of the flag; tails below 3 of other runs stay literal."""
    special = _mark_bits(arr, 1, _RUN_THRESHOLD)  # every byte of a run of 3+ but its head
    special[:-1] |= special[1:]
    if flag is not None:
        special |= arr == flag
    heads = special.copy()
    heads[1:] &= ~special[:-1] | (arr[1:] != arr[:-1])
    starts = np.flatnonzero(heads)
    lengths = np.add.reduceat(special, starts, dtype=np.intp)
    full, tail = np.divmod(lengths, max_run)
    coded = tail >= _RUN_THRESHOLD
    if flag is not None:  # flag bytes are never left bare
        coded |= (tail > 0) & (arr[starts] == flag)
    tokens = full + coded
    size = 2 if flag is None else 3
    emitted = tokens * size + np.where(coded, 0, tail)
    # a head byte fills its run's tokens and literal tail; counts and flags overwrite it below
    counts = (~special).astype(np.intp)
    counts[starts] = emitted
    out = np.repeat(arr, counts)
    firsts = starts + np.cumsum(emitted - lengths) - (emitted - lengths)  # each run's output offset
    offsets = np.repeat(firsts - size * (np.cumsum(tokens) - tokens), tokens) + size * np.arange(tokens.sum())
    out[offsets + size - 1] = base | (max_run - 1)
    out[firsts + size * tokens - 1] = base | (np.where(coded, tail, max_run) - 1)
    if flag is not None:
        out[offsets] = flag
    return out.tobytes()


def _byte_counts(arr: np.ndarray) -> np.ndarray:
    """np.bincount(arr, minlength=256) for uint8 arr, counting byte pairs
    through a uint16 view so the int64 index copy holds one entry per pair."""
    even = arr.size & ~1
    pairs = np.bincount(arr[:even].view(np.uint16), minlength=1 << 16).reshape(256, 256)
    counts = pairs.sum(axis=0) + pairs.sum(axis=1)  # either byte of a pair, whatever the byte order
    if even < arr.size:
        counts[arr[-1]] += 1
    return counts


def prlc1_encode(data: bytes) -> tuple[int, bytes]:
    """Encode with an escape byte; returns (flag, body)."""
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    flag = int(np.argmin(_byte_counts(arr)))  # first minimum = smallest value
    return flag, _encode_runs(arr, PRLC1_MAX_RUN, 0x00, flag)


def prlc1_decode(flag: int, body: bytes) -> bytes:
    """Invert prlc1_encode."""
    if not 0 <= flag <= 255:
        raise ValueError(f"flag must be a byte value, got {flag}")
    arr = np.frombuffer(bytes(body), dtype=np.uint8)
    escapes = np.flatnonzero(arr == flag)
    # an escape is real unless a real one sits 1 or 2 bytes before it, so
    # only escapes close behind the previous one need a look
    real = np.ones(escapes.size, dtype=bool)
    for i in (np.flatnonzero(np.diff(escapes) <= 2) + 1).tolist():
        real[i] = not (real[i - 1] or (i > 1 and real[i - 2] and escapes[i] - escapes[i - 2] == 2))
    escapes = escapes[real]
    if escapes.size and escapes[-1] + 3 > arr.size:
        raise MalformedStream("truncated escape triple")
    counts = np.ones(arr.size, dtype=np.intp)  # output copies of each body byte
    counts[escapes + 1] = arr[escapes + 2].astype(np.intp) + 1
    counts[escapes] = counts[escapes + 2] = 0
    return np.repeat(arr, counts).tobytes()


def prlc2_encode(data: bytes) -> bytes:
    """Encode 7-bit data with MSB-flagged count bytes."""
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    if arr.size and int(arr.max()) >= 128:
        offender = int(arr[np.argmax(arr >= 128)])
        raise UnsupportedAlphabet(f"byte {offender:#04x} needs the high bit reserved for counts")
    return _encode_runs(arr, PRLC2_MAX_RUN, 0x80, None)


def prlc2_decode(body: bytes) -> bytes:
    """Invert prlc2_encode."""
    arr = np.frombuffer(bytes(body), dtype=np.uint8)
    counts = np.flatnonzero(arr >= 128)
    if counts.size and counts[0] == 0:
        raise MalformedStream("count byte at stream start")
    if bool((arr[counts - 1] >= 128).any()):
        raise MalformedStream("count byte follows another count byte")
    copies = np.ones(arr.size, dtype=np.intp)  # output copies of each body byte
    copies[counts - 1] += arr[counts] & 0x7F
    copies[counts] = 0
    return np.repeat(arr, copies).tobytes()
