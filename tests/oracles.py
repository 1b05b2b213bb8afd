"""Independent pure-Python reference implementations used as test oracles.

Everything here is written for clarity, not speed, and shares no code or
numpy shortcuts with the package under test: positions are plain ints, trees
are built recursively, decoding expands the bitmap positionally.  The RLE
baseline encoders and decoders at the end are the exception: they are the
loops, one step per run or escape, that the package used before it encoded
from the codec's run marker and decoded with one np.repeat, kept as they were.
"""

import struct

import numpy as np

from ortc.errors import MalformedStream, UnsupportedAlphabet

CONTAINER_HDR = struct.Struct("<4sBBBBQ")
FRAME_HDR = struct.Struct("<BBQQ")


def ceil_div(a, b):
    return -(-a // b)


def naive_depth(num_blocks):
    d = 0
    while 8**d < num_blocks:
        d += 1
    return d


def naive_mark(data, stride, min_run):
    """Positions of non-anchor members of qualifying stride chains."""
    n = len(data)
    marked = set()
    for lane in range(min(stride, n)):
        chain = [lane]
        q = lane + stride
        while q < n:
            if data[q] == data[q - stride]:
                chain.append(q)
            else:
                if len(chain) >= min_run:
                    marked.update(chain[1:])
                chain = [q]
            q += stride
        if len(chain) >= min_run:
            marked.update(chain[1:])
    return marked


def naive_tree_bytes(positions, n_bits):
    """Preorder pruned tree over a bitmap given as a set of positions."""
    num_blocks = ceil_div(n_bits, 8)
    if num_blocks == 0:
        return b"\x00"
    depth = naive_depth(num_blocks)

    def leaf_byte(block):
        value = 0
        for i in range(8):
            if 8 * block + i in positions:
                value |= 0x80 >> i
        return value

    def build(level, slot):
        if level == depth:
            if slot >= num_blocks:
                return b""
            value = leaf_byte(slot)
            return bytes([value]) if value else b""
        mask = 0
        parts = []
        for k in range(8):
            sub = build(level + 1, 8 * slot + k)
            if sub:
                mask |= 0x80 >> k
                parts.append(sub)
        if not mask:
            return b""
        return bytes([mask]) + b"".join(parts)

    tree = build(0, 0)
    return tree if tree else b"\x00"


def naive_parse_tree(data, n_bits):
    """Returns (set of bit positions, bytes consumed); raises ValueError on malformed input
    ("truncated", "bit beyond length" or "child beyond blocks")."""
    num_blocks = ceil_div(n_bits, 8)
    depth = naive_depth(num_blocks) if num_blocks > 1 else 0
    positions = set()
    pos = 0

    def read():
        nonlocal pos
        if pos >= len(data):
            raise ValueError("truncated")
        value = data[pos]
        pos += 1
        return value

    def walk(level, slot):
        value = read()
        if level == depth:
            for i in range(8):
                if value & (0x80 >> i):
                    p = 8 * slot + i
                    if p >= n_bits:
                        raise ValueError("bit beyond length")
                    positions.add(p)
            return
        for k in range(8):
            if value & (0x80 >> k):
                child = 8 * slot + k
                if child * 8 ** (depth - level - 1) >= num_blocks:
                    raise ValueError("child beyond blocks")
                walk(level + 1, child)

    if num_blocks <= 1:
        value = read()
        for i in range(8):
            if value & (0x80 >> i):
                if i >= n_bits:
                    raise ValueError("bit beyond length")
                positions.add(i)
    else:
        walk(0, 0)
    return positions, pos


def classify_nodes(data, n_bits):
    """[(kind, byte)] in preorder, kind in {'leaf', 'internal'}; assumes well-formed."""
    num_blocks = ceil_div(n_bits, 8)
    depth = naive_depth(num_blocks) if num_blocks > 1 else 0
    out = []
    pos = 0

    def walk(level):
        nonlocal pos
        value = data[pos]
        pos += 1
        if level == depth:
            out.append(("leaf", value))
            return
        out.append(("internal", value))
        for k in range(8):
            if value & (0x80 >> k):
                walk(level + 1)

    walk(0)
    return out


def naive_encode_pass(data, stride, min_run):
    """Frame bytes for one pass, stored fallback included."""
    marked = naive_mark(data, stride, min_run)
    kept = bytes(b for p, b in enumerate(data) if p not in marked)
    tree = naive_tree_bytes(marked, len(data))
    coded = FRAME_HDR.pack(1, stride, len(data), len(kept)) + kept + tree
    stored = FRAME_HDR.pack(0, stride, len(data), len(data)) + data
    return coded if len(coded) < len(stored) else stored


def naive_decode_frame(frame):
    """Positional expansion decoder for one frame's byte string."""
    mode, stride, input_len, kept_len = FRAME_HDR.unpack_from(frame, 0)
    body = frame[FRAME_HDR.size:]
    kept = body[:kept_len]
    if mode == 0:
        assert kept_len == input_len and len(body) == kept_len
        return bytes(kept)
    positions, consumed = naive_parse_tree(body[kept_len:], input_len)
    assert kept_len + consumed == len(body), "frame has trailing bytes"
    out = []
    it = iter(kept)
    for p in range(input_len):
        if p in positions:
            assert p >= stride, "repeat before one stride"
            out.append(out[p - stride])
        else:
            out.append(next(it))
    assert next(it, None) is None, "kept bytes left over"
    return bytes(out)


def naive_compress(data, passes, min_run):
    current = data
    for i in range(1, passes + 1):
        current = naive_encode_pass(current, i, min_run)
    if len(current) < len(data):
        return CONTAINER_HDR.pack(b"ORTC", 1, 0, passes, min_run, len(data)) + current
    return CONTAINER_HDR.pack(b"ORTC", 1, 1, 0, min_run, len(data)) + data


def naive_decompress(blob):
    magic, version, flags, pass_count, _, orig_len = CONTAINER_HDR.unpack_from(blob, 0)
    assert magic == b"ORTC" and version == 1
    payload = blob[CONTAINER_HDR.size:]
    if flags & 1:
        assert len(payload) == orig_len
        return bytes(payload)
    buf = payload
    for _ in range(pass_count):
        buf = naive_decode_frame(buf)
    assert len(buf) == orig_len
    return bytes(buf)


def _runs(arr):
    """Starts and lengths of maximal equal runs."""
    starts = np.concatenate(([0], np.flatnonzero(arr[1:] != arr[:-1]) + 1))
    lengths = np.diff(np.concatenate((starts, [arr.size])))
    return starts, lengths


def naive_prlc1_encode(data: bytes) -> tuple[int, bytes]:
    """Encode with an escape byte; returns (flag, body)."""
    data = bytes(data)
    if not data:
        return 0, b""
    arr = np.frombuffer(data, dtype=np.uint8)
    flag = int(np.argmin(np.bincount(arr, minlength=256)))  # first minimum = smallest value

    starts, lengths = _runs(arr)
    values = arr[starts]
    special = (lengths >= 3) | (values == flag)
    out = bytearray()
    copied = 0
    for i in np.flatnonzero(special):
        start, remaining, value = int(starts[i]), int(lengths[i]), int(values[i])
        out += data[copied:start]
        copied = start + remaining
        if value == flag:
            # flag bytes are never emitted bare, whatever the run length
            while remaining > 0:
                chunk = min(remaining, 256)
                out += bytes((flag, value, chunk - 1))
                remaining -= chunk
        else:
            while remaining >= 3:
                chunk = min(remaining, 256)
                out += bytes((flag, value, chunk - 1))
                remaining -= chunk
            out += bytes([value]) * remaining
    out += data[copied:]
    return flag, bytes(out)


def naive_prlc2_encode(data: bytes) -> bytes:
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
    for i in np.flatnonzero(lengths >= 3):
        start, remaining, value = int(starts[i]), int(lengths[i]), int(arr[starts[i]])
        out += data[copied:start]
        copied = start + remaining
        while remaining >= 3:
            chunk = min(remaining, 128)
            out += bytes((value, 0x80 | (chunk - 1)))
            remaining -= chunk
        out += bytes([value]) * remaining
    out += data[copied:]
    return bytes(out)


def naive_prlc1_decode(flag: int, body: bytes) -> bytes:
    """Invert prlc1_encode."""
    body = bytes(body)
    if not 0 <= flag <= 255:
        raise ValueError(f"flag must be a byte value, got {flag}")
    escapes = np.flatnonzero(np.frombuffer(body, dtype=np.uint8) == flag)
    out = bytearray()
    pos = 0
    i = 0
    while i < escapes.size:
        q = int(escapes[i])
        i += 1
        if q < pos:  # flag byte inside an already-consumed triple
            continue
        out += body[pos:q]
        if q + 3 > len(body):
            raise MalformedStream("truncated escape triple")
        out += bytes([body[q + 1]]) * (body[q + 2] + 1)
        pos = q + 3
    out += body[pos:]
    return bytes(out)


def naive_prlc2_decode(body: bytes) -> bytes:
    """Invert prlc2_encode."""
    body = bytes(body)
    out = bytearray()
    pos = 0
    for q in np.flatnonzero(np.frombuffer(body, dtype=np.uint8) >= 128):
        q = int(q)
        if q == 0:
            raise MalformedStream("count byte at stream start")
        if body[q - 1] >= 128:
            raise MalformedStream("count byte follows another count byte")
        out += body[pos:q]  # literals, including the run's value byte
        out += bytes([body[q - 1]]) * (body[q] & 0x7F)
        pos = q + 1
    out += body[pos:]
    return bytes(out)
