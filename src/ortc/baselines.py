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
"""

from __future__ import annotations

import numpy as np

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


def _runs(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and lengths of maximal equal runs."""
    starts = np.concatenate(([0], np.flatnonzero(arr[1:] != arr[:-1]) + 1))
    lengths = np.diff(np.concatenate((starts, [arr.size])))
    return starts, lengths


def prlc1_encode(data: bytes) -> tuple[int, bytes]:
    """Encode with an escape byte; returns (flag, body)."""
    data = bytes(data)
    if not data:
        return 0, b""
    arr = np.frombuffer(data, dtype=np.uint8)
    flag = int(np.argmin(np.bincount(arr, minlength=256)))  # first minimum = smallest value

    starts, lengths = _runs(arr)
    values = arr[starts]
    special = (lengths >= _RUN_THRESHOLD) | (values == flag)
    out = bytearray()
    copied = 0
    for i in np.flatnonzero(special):
        start, remaining, value = int(starts[i]), int(lengths[i]), int(values[i])
        out += data[copied:start]
        copied = start + remaining
        if value == flag:
            # flag bytes are never emitted bare, whatever the run length
            while remaining > 0:
                chunk = min(remaining, PRLC1_MAX_RUN)
                out += bytes((flag, value, chunk - 1))
                remaining -= chunk
        else:
            while remaining >= _RUN_THRESHOLD:
                chunk = min(remaining, PRLC1_MAX_RUN)
                out += bytes((flag, value, chunk - 1))
                remaining -= chunk
            out += bytes([value]) * remaining
    out += data[copied:]
    return flag, bytes(out)


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
    data = bytes(data)
    if not data:
        return b""
    arr = np.frombuffer(data, dtype=np.uint8)
    if int(arr.max()) >= 128:
        offender = int(arr[np.argmax(arr >= 128)])
        raise UnsupportedAlphabet(f"byte {offender:#04x} needs the high bit reserved for counts")

    starts, lengths = _runs(arr)
    out = bytearray()
    copied = 0
    for i in np.flatnonzero(lengths >= _RUN_THRESHOLD):
        start, remaining, value = int(starts[i]), int(lengths[i]), int(arr[starts[i]])
        out += data[copied:start]
        copied = start + remaining
        while remaining >= _RUN_THRESHOLD:
            chunk = min(remaining, PRLC2_MAX_RUN)
            out += bytes((value, 0x80 | (chunk - 1)))
            remaining -= chunk
        out += bytes([value]) * remaining
    out += data[copied:]
    return bytes(out)


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
