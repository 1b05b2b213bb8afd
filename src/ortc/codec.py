"""Repeat-elimination codec: per-pass dedup against a stride, multi-pass pipeline,
and the container wire format.

One pass scans the input at a fixed stride s: byte p is a *repeat* when it
equals byte p-s and sits in a chain of at least min_run equal bytes spaced s
apart, that is, when some window of min_run-1 consecutive links p', p'+s, ...
(link q: byte q equals byte q-s), all holding, contains link p.  Repeats are
dropped from the stream; their positions go into a pruned 8-ary bitmap tree
(see tree.py) appended after the kept bytes.  A pass that fails to shrink its
input is emitted verbatim in stored mode, so no pass ever grows its input by
more than the frame header.

The full pipeline runs `passes` passes, pass i at stride i, each wrapping the
previous frame.  Wire layout, all integers unsigned little-endian:

  container: magic "ORTC" | version u8 = 1 | flags u8 (bit0 = stored) |
             pass count u8 | min run u8 | original length u64 | payload
  frame:     mode u8 (0 stored / 1 repeat-coded) | stride u8 |
             input length u64 | kept length u64 | kept bytes | tree bytes

The tree carries no length field; it is self-delimiting given the frame's
input length.  A stored container has no passes, so its payload is the raw
input and compressed size never exceeds the input by more than the 16-byte
container header.
PassFrame owns the frame rules and the readers build one from every header,
so a bad field raises MalformedFrame (also a ValueError) from one place;
parse_frame, like the container, reads a frame from the start of its buffer.
"""

from __future__ import annotations

import enum
import numbers
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BadMagic,
    LengthMismatch,
    MalformedFrame,
    MalformedTree,
    TooManyPasses,
    UnsupportedVersion,
)
from .tree import RepeatBitmap, _levels, _preorder, _walk

__all__ = [
    "FrameMode",
    "CodecParams",
    "PassFrame",
    "FrameInfo",
    "ContainerInfo",
    "MAGIC",
    "VERSION",
    "CONTAINER_OVERHEAD",
    "FRAME_OVERHEAD",
    "mark_equalities",
    "encode_pass",
    "decode_pass",
    "parse_frame",
    "compress",
    "decompress",
    "inspect_container",
]

MAGIC = b"ORTC"
VERSION = 1

_CONTAINER_HDR = struct.Struct("<4sBBBBQ")  # magic, version, flags, pass count, min run, orig len
_FRAME_HDR = struct.Struct("<BBQQ")  # mode, stride, input len, kept len
_FLAG_STORED = 0x01

CONTAINER_OVERHEAD = _CONTAINER_HDR.size  # 16
FRAME_OVERHEAD = _FRAME_HDR.size  # 18


class FrameMode(enum.IntEnum):
    STORED = 0
    ORT = 1


_MODES = {int(mode): mode for mode in FrameMode}


@dataclass(frozen=True)
class CodecParams:
    """Pipeline settings: number of recursive passes and minimum chain length."""

    passes: int = 10
    min_run: int = 3

    def __post_init__(self) -> None:
        for name in ("passes", "min_run"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.passes < 0:
            raise ValueError(f"passes must be non-negative, got {self.passes}")
        if self.passes > 255:
            raise TooManyPasses(f"pass count {self.passes} exceeds the u8 header field")
        if not 1 <= self.min_run <= 255:
            raise ValueError(f"min_run must be in 1..255, got {self.min_run}")


@dataclass(frozen=True)
class PassFrame:
    """One pass's output: kept bytes plus the serialized position tree; building one checks every field."""

    mode: FrameMode
    stride: int
    input_len: int
    kept: bytes
    tree: bytes

    def __post_init__(self) -> None:
        mode = _MODES.get(self.mode)  # a lookup, as FrameMode(byte) costs more than all other checks
        if mode is None:
            raise MalformedFrame(f"unknown frame mode {self.mode:#04x}")
        if mode is not self.mode:
            object.__setattr__(self, "mode", mode)
        if not 1 <= self.stride <= 255:
            raise MalformedFrame(f"stride must be in 1..255, got {self.stride}")
        n, kept, tree = self.input_len, len(self.kept), len(self.tree)
        if mode is FrameMode.STORED and (kept != n or tree):
            raise MalformedFrame(f"stored frame of {n} input bytes holds {kept} kept and {tree} tree bytes")
        if kept > n:
            raise MalformedFrame(f"kept length {kept} exceeds input length {n}")

    @property
    def kept_len(self) -> int:
        return len(self.kept)

    def to_bytes(self) -> bytes:
        header = _FRAME_HDR.pack(int(self.mode), self.stride, self.input_len, len(self.kept))
        return b"".join((header, self.kept, self.tree))  # one copy of the kept bytes, where + makes two


def _mark_bits(arr: np.ndarray, stride: int, min_run: int) -> np.ndarray:
    if not 1 <= stride <= 255:
        raise ValueError(f"stride must be in 1..255, got {stride}")
    if not 1 <= min_run <= 255:
        raise ValueError(f"min_run must be in 1..255, got {min_run}")
    # link p (byte p equals byte p - stride) qualifies when a window of `need`
    # in-lane links, all holding, contains it; shifts by multiples of stride
    # stay in the lane, so whole-array slices serve every lane at once
    n = arr.size
    need = max(min_run - 1, 1)
    if need * stride >= n:  # no window fits: links run from stride to n - 1
        return np.zeros(n, dtype=bool)
    w = np.zeros(n, dtype=bool)
    w[stride:] = arr[stride:] == arr[:-stride]
    shifts, width = [], 1  # window widths 1, 2, 4, ... topped up to need
    while width < need:
        shifts.append(min(width, need - width) * stride)
        width += shifts[-1] // stride
    for d in shifts:  # w[p] becomes: the window starting at link p holds
        w[: n - d] &= w[d:]
        w[n - d :] = False
    for d in shifts:  # spread each window start over its links
        w[d:] |= w[: n - d]
    return w


def mark_equalities(data: bytes, stride: int, min_run: int) -> RepeatBitmap:
    """Flag every byte that repeats the byte `stride` positions earlier within
    a maximal equal chain of min_run or more; stride and min_run are in 1..255."""
    return RepeatBitmap(_mark_bits(np.frombuffer(bytes(data), dtype=np.uint8), stride, min_run))


def encode_pass(data: bytes, stride: int, min_run: int) -> PassFrame:
    """Encode one pass; falls back to stored mode unless dedup strictly shrinks."""
    data = bytes(data)
    arr = np.frombuffer(data, dtype=np.uint8)
    bits = _mark_bits(arr, stride, min_run)
    levels, tree_size = _levels(bits)
    # kept + tree < input exactly when the tree is smaller than the repeats it
    # drops; only then is the preorder built, before bits becomes the kept mask
    if tree_size >= np.count_nonzero(bits):
        return PassFrame(FrameMode.STORED, stride, len(data), data, b"")
    tree = _preorder(levels)
    del levels
    return PassFrame(FrameMode.ORT, stride, len(data), arr[np.logical_not(bits, out=bits)].tobytes(), tree)


def decode_pass(frame: PassFrame) -> bytes:
    """Rebuild a pass's input from its kept stream and position tree."""
    if frame.mode == FrameMode.STORED:
        return frame.kept

    n = frame.input_len
    bits, consumed = _read_tree(frame.tree, n, len(frame.kept))
    if consumed != len(frame.tree):
        trailing = len(frame.tree) - consumed
        raise MalformedFrame(f"bad position tree: {trailing} bytes after the tree's end at byte {consumed}")

    stride = frame.stride
    if bool(bits[:stride].any()):
        first = int(np.argmax(bits[:stride]))
        raise MalformedFrame(f"repeat flagged at byte {first}, before one full stride of {stride}")
    kept = np.frombuffer(frame.kept, dtype=np.uint8)
    expected = n - np.count_nonzero(bits)
    if kept.size != expected:
        if kept.size < expected:  # the first unflagged byte past the kept stream's end
            where = f"output byte {np.flatnonzero(~bits)[kept.size]} has no kept byte"
        else:
            where = f"kept byte {expected} is left over"
        raise MalformedFrame(f"kept stream holds {kept.size} bytes, bitmap expects {expected}: {where}")

    # Two fills, chosen by a constant gate.  At stride 1 each kept byte fills
    # itself and the repeats up to the next kept byte, which takes one int64
    # count per kept byte: at most n bytes while at most one byte in eight is
    # kept.  Above that the counts cost more time and memory than the lane
    # fill: about five times its time and memory when nearly every byte is kept.
    if stride == 1 and 8 * kept.size <= n:
        counts = np.flatnonzero(np.logical_not(bits, out=bits))
        del bits
        counts[:-1] = counts[1:] - counts[:-1]
        counts[-1:] = n - counts[-1:]
        return np.repeat(kept, counts).tobytes()

    rows = -(-n // stride)
    keep = np.zeros((rows, stride), dtype=bool)  # lanes as columns, the last row padded with repeats
    np.logical_not(bits, out=keep.reshape(-1)[:n])
    del bits
    # lane-major repeat bits and a kept sentinel: every lane starts with a
    # kept byte, so each maximal run of repeats copies the byte before it
    lanes = np.zeros(keep.size + 1, dtype=bool)
    np.logical_not(keep.T, out=lanes[:-1].reshape(stride, rows))
    out = np.empty((rows, stride), dtype=np.uint8)
    out[keep] = kept
    del keep
    edges = np.flatnonzero(lanes[1:] != lanes[:-1])  # pairs: the kept byte before a run, its last repeat
    out.T[lanes[:-1].reshape(stride, rows)] = np.repeat(out.T.flat[edges[::2]], edges[1::2] - edges[::2])
    return out.reshape(-1)[:n].tobytes()


def _read_tree(buf, n: int, kept_len: int) -> tuple[np.ndarray, int]:
    """Walk the position tree at the start of buf; returns the bitmap and the tree's length."""
    if n > kept_len + 8 * len(buf):  # each repeat needs a leaf bit: checked before the bitmap is allocated
        raise MalformedFrame(f"input length {n} unreachable from kept stream and tree")
    try:
        return _walk(buf, n)
    except MalformedTree as exc:
        raise MalformedFrame(f"bad position tree: {exc}") from exc


def _read_frame_header(view: memoryview) -> tuple[int, int, int, memoryview, int]:
    """Unpack the frame header at the start of view: mode byte, stride, input length, kept stream, end offset."""
    if len(view) < FRAME_OVERHEAD:
        raise MalformedFrame("truncated frame header at byte 0")
    mode, stride, input_len, kept_len = _FRAME_HDR.unpack_from(view)
    end = FRAME_OVERHEAD + kept_len
    if len(view) < end:
        raise MalformedFrame(f"truncated kept stream at byte {FRAME_OVERHEAD}: {kept_len} bytes declared")
    return mode, stride, input_len, view[FRAME_OVERHEAD:end], end


def parse_frame(data: bytes) -> tuple[PassFrame, int]:
    """Parse the frame at the start of data; returns the frame and its end offset."""
    view = memoryview(data)
    mode, stride, input_len, kept, end = _read_frame_header(view)
    frame = PassFrame(mode, stride, input_len, bytes(kept), b"")  # the fields are checked before the tree is walked
    tree_len = _read_tree(view[end:], input_len, len(kept))[1] if frame.mode == FrameMode.ORT else 0
    return replace(frame, tree=bytes(view[end : end + tree_len])), end + tree_len


def compress(data: bytes, params: CodecParams | None = None) -> bytes:
    """Run the multi-pass pipeline and wrap the result in a container.

    Pass i uses stride i.  If the pipeline fails to beat a stored container,
    the input is stored verbatim, bounding the output at len(data) + 16.
    """
    if params is None:
        params = CodecParams()
    data = bytes(data)
    current = data
    for i in range(1, params.passes + 1):
        current = encode_pass(current, i, params.min_run).to_bytes()
    stored = len(current) >= len(data)  # a stored container holds the input and counts no passes
    flags, passes, payload = (_FLAG_STORED, 0, data) if stored else (0, params.passes, current)
    return _CONTAINER_HDR.pack(MAGIC, VERSION, flags, passes, params.min_run, len(data)) + payload


def _parse_container_header(blob: bytes) -> ContainerInfo:
    """The checked container header, with no frames."""
    if bytes(blob[: len(MAGIC)]) != MAGIC:
        raise BadMagic("not a repeat-tree container")
    if len(blob) < CONTAINER_OVERHEAD:
        raise MalformedFrame("truncated container header")
    _, version, flags, pass_count, min_run, orig_len = _CONTAINER_HDR.unpack_from(blob, 0)
    if version != VERSION:
        raise UnsupportedVersion(f"container version {version}, expected {VERSION}")
    if flags & ~_FLAG_STORED:
        raise MalformedFrame(f"unknown flag bits {flags:#04x}")
    if flags & _FLAG_STORED and pass_count != 0:
        raise MalformedFrame("stored container with a nonzero pass count")
    return ContainerInfo(version, bool(flags & _FLAG_STORED), pass_count, min_run, orig_len, ())


@dataclass(frozen=True)
class FrameInfo:
    """Per-pass summary for inspection; pass 1 is the innermost (first) pass."""

    pass_index: int
    mode: FrameMode
    stride: int
    input_len: int
    kept_len: int
    tree_len: int


@dataclass(frozen=True)
class ContainerInfo:
    version: int
    stored: bool
    pass_count: int
    min_run: int
    orig_len: int
    frames: tuple[FrameInfo, ...]


def _decode_container(blob: bytes, frames: list[FrameInfo] | None = None) -> tuple[ContainerInfo, bytes]:
    """Check the container header and undo its passes, outermost first.

    Returns the header and the decoded data, and appends one FrameInfo per
    pass to frames when a list is given.  Every frame fills its buffer, so the
    tree is the rest of it.  Frames are views of the blob, so a stored pass
    costs no copy; the one copy is at the end.
    """
    info = _parse_container_header(blob)
    buf = memoryview(blob)[CONTAINER_OVERHEAD:]
    for k in range(info.pass_count, 0, -1):
        buf = memoryview(buf)
        try:
            mode, stride, input_len, kept, offset = _read_frame_header(buf)
            # each pass grows its input by at most one frame header
            limit = info.orig_len + FRAME_OVERHEAD * (k - 1)
            if input_len > limit:
                raise LengthMismatch(
                    f"pass {k} claims {input_len} input bytes, header's length {info.orig_len} allows {limit}"
                )
            # the tree is copied, as the walk indexes bytes faster than a view
            frame = PassFrame(mode, stride, input_len, kept, bytes(buf[offset:]))
            if frames is not None:
                frames.append(FrameInfo(k, frame.mode, stride, input_len, len(kept), len(frame.tree)))
            buf = decode_pass(frame)
        except MalformedFrame as exc:
            raise MalformedFrame(f"pass {k}: {exc}") from exc
    if len(buf) != info.orig_len:
        raise LengthMismatch(f"decoded {len(buf)} bytes, header says {info.orig_len}")
    return info, bytes(buf)


def decompress(blob: bytes) -> bytes:
    """Invert compress; raises rather than ever returning partial output."""
    return _decode_container(blob)[1]


def inspect_container(blob: bytes) -> ContainerInfo:
    """Decode the container frame by frame, reporting structure instead of data."""
    frames: list[FrameInfo] = []
    info, _ = _decode_container(blob, frames)
    return replace(info, frames=tuple(reversed(frames)))
