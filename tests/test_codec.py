import random
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ortc.codec import (
    CONTAINER_OVERHEAD,
    FRAME_OVERHEAD,
    CodecParams,
    FrameMode,
    PassFrame,
    compress,
    decode_pass,
    decompress,
    encode_pass,
    inspect_container,
    mark_equalities,
    parse_frame,
)
from ortc.errors import (
    BadMagic,
    LengthMismatch,
    MalformedFrame,
    OrtcError,
    TooManyPasses,
    UnsupportedVersion,
)
from ortc.tree import RepeatBitmap, bitmap_to_tree

from oracles import naive_compress, naive_decode_frame, naive_decompress, naive_mark

ADVERSARIAL = [
    b"",
    b"\x00",
    b"\xaa" * 7,
    b"\x00" * 4096,
    bytes([0xAB, 0xCD] * 2048),
    bytes(range(256)) * 16,
    bytes(random.Random(7).randbytes(4096)),
    b"ab" * 3 + b"\x00" * 100 + bytes(range(200)),
]


def fig2_buffer():
    buf = bytearray(range(64))
    for group in [(3, 4, 5), (7, 8), (13, 14, 15), (51, 52, 53, 54)]:
        for p in group:
            buf[p] = buf[group[0]]
    return bytes(buf)


class TestMarkEqualities:
    def test_two_level_fixture(self):
        assert mark_equalities(fig2_buffer(), 1, 2).positions() == [4, 5, 8, 14, 15, 52, 53, 54]

    def test_all_distinct(self):
        for stride in (1, 2, 5):
            assert mark_equalities(bytes(range(100)), stride, 1).count == 0

    def test_stride_two_interleave(self):
        assert mark_equalities(b"ABABABAB", 2, 3).positions() == [2, 3, 4, 5, 6, 7]

    def test_min_run_boundary(self):
        assert mark_equalities(b"aa", 1, 3).count == 0
        assert mark_equalities(b"aaa", 1, 3).positions() == [1, 2]
        assert mark_equalities(b"aa", 1, 2).positions() == [1]

    def test_positions_below_stride_never_set(self):
        data = b"\x42" * 64
        for stride in (1, 3, 8):
            marks = mark_equalities(data, stride, 2)
            assert all(p >= stride for p in marks.positions())

    def test_min_run_monotone_in_kept(self):
        rng = random.Random(3)
        data = b"".join(bytes([rng.randrange(4)]) * rng.randrange(1, 9) for _ in range(300))
        for stride in (1, 2, 3):
            kept_sizes = [
                len(data) - mark_equalities(data, stride, m).count for m in (1, 2, 3, 4, 9)
            ]
            assert kept_sizes == sorted(kept_sizes)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_oracle(self, seed):
        rng = random.Random(seed)
        data = bytes(rng.randrange(rng.choice([3, 16, 256])) for _ in range(rng.randrange(0, 600)))
        stride = rng.randrange(1, 7)
        min_run = rng.randrange(1, 6)
        assert set(mark_equalities(data, stride, min_run).positions()) == naive_mark(
            data, stride, min_run
        )

    @settings(max_examples=250, deadline=None)
    @given(
        st.integers(1, 255),
        st.integers(1, 255),
        st.sampled_from([-1, 0, 1, None]),
        st.integers(1, 3),
        st.integers(0, 2**32),
    )
    def test_matches_oracle_all_strides_and_min_runs(self, stride, min_run, edge, alphabet, seed):
        # lengths just short of, at and just past the first that fits a
        # window of min_run - 1 links, or random; a small alphabet with a few
        # outliers breaks chains at varied places
        rng = random.Random(seed)
        need = max(min_run - 1, 1)
        n = rng.randrange(0, 3000) if edge is None else max(need * stride + edge, 0)
        data = bytearray(rng.choices(range(alphabet), k=n))
        for _ in range(rng.randrange(4) if n else 0):
            data[rng.randrange(n)] = 0xFF
        data = bytes(data)
        assert set(mark_equalities(data, stride, min_run).positions()) == naive_mark(
            data, stride, min_run
        )

    def test_rejects_bad_args(self):
        for stride in (0, 256):
            with pytest.raises(ValueError, match=f"^stride must be in 1..255, got {stride}$"):
                mark_equalities(b"xx", stride, 3)
        for min_run in (0, 256):
            with pytest.raises(ValueError, match=f"^min_run must be in 1..255, got {min_run}$"):
                mark_equalities(b"xx", 1, min_run)


class TestPassFrame:
    @pytest.mark.parametrize(
        "fields, message",
        [
            ((FrameMode.ORT, 0, 1, b"a", b""), "stride must be in 1..255, got 0"),
            ((FrameMode.ORT, 256, 1, b"a", b""), "stride must be in 1..255, got 256"),
            ((FrameMode.STORED, 1, 1, b"a", b"\x80"), "stored frame of 1 input bytes holds 1 kept and 1 tree"),
            ((FrameMode.STORED, 1, 2, b"a", b""), "stored frame of 2 input bytes holds 1 kept and 0 tree"),
            ((FrameMode.ORT, 1, 1, b"ab", b""), "kept length 2 exceeds input length 1"),
            ((5, 1, 1, b"a", b""), "unknown frame mode 0x05"),
        ],
        ids=["stride-0", "stride-256", "stored-with-tree", "stored-short", "kept-over-input", "mode-5"],
    )
    def test_every_field_is_checked(self, fields, message):
        with pytest.raises(MalformedFrame, match=f"^{message}") as excinfo:
            PassFrame(*fields)
        assert isinstance(excinfo.value, ValueError)

    def test_mode_becomes_a_frame_mode(self):
        frame = PassFrame(1, 1, 16, b"\xaa", bytes.fromhex("c07fff"))
        assert frame.mode is FrameMode.ORT and frame.kept_len == 1
        assert parse_frame(frame.to_bytes()) == (frame, FRAME_OVERHEAD + 4)
        assert PassFrame(0, 1, 1, b"a", b"").mode is FrameMode.STORED


class TestEncodePass:
    def test_rejects_bad_args(self):
        for stride in (0, 256):
            with pytest.raises(ValueError, match=f"stride must be in 1..255, got {stride}"):
                encode_pass(b"xx", stride, 3)
        for min_run in (0, 256):
            with pytest.raises(ValueError, match=f"min_run must be in 1..255, got {min_run}"):
                encode_pass(b"xx", 1, min_run)

    def test_constant_run(self):
        frame = encode_pass(b"\xaa" * 16, 1, 3)
        assert frame.mode == FrameMode.ORT
        assert frame.kept == b"\xaa"
        assert frame.tree == bytes.fromhex("c07fff")

    def test_constant_run_wire_bytes(self):
        frame = encode_pass(b"\xaa" * 16, 1, 3)
        expected = struct.pack("<BBQQ", 1, 1, 16, 1) + b"\xaa" + bytes.fromhex("c07fff")
        assert frame.to_bytes() == expected

    def test_incompressible_stores(self):
        data = bytes(range(8))
        frame = encode_pass(data, 1, 3)
        assert frame.mode == FrameMode.STORED
        assert frame.kept == data
        assert frame.tree == b""

    def test_stride_two_single_leaf_tree(self):
        frame = encode_pass(b"ABABABAB", 2, 3)
        assert frame.mode == FrameMode.ORT
        assert frame.kept == b"AB"
        assert frame.tree == bytes([0b00111111])

    def test_deterministic(self):
        data = bytes(random.Random(1).randbytes(2000))
        assert encode_pass(data, 2, 3).to_bytes() == encode_pass(data, 2, 3).to_bytes()

    def test_stored_pass_skips_preorder(self, monkeypatch):
        import ortc.codec

        def fail(levels):
            raise AssertionError("preorder built for a stored pass")

        monkeypatch.setattr(ortc.codec, "_preorder", fail)
        data = bytes(random.Random(3).randbytes(4096))
        # min_run 2 marks a few isolated repeats, so the tree is not empty
        assert mark_equalities(data, 2, 2).count > 0
        frame = encode_pass(data, 2, 2)
        assert frame.mode == FrameMode.STORED
        assert frame.kept == data

    @pytest.mark.parametrize("data", ADVERSARIAL)
    def test_pass_size_guarantee(self, data):
        for stride in (1, 2, 10):
            frame = encode_pass(data, stride, 3)
            assert len(frame.to_bytes()) <= len(data) + FRAME_OVERHEAD

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("run", [1 << 20, 16, 3], ids=["zeros", "runs16", "runs3"])
    def test_memory_stays_within_a_few_bytes_per_input_byte(self, stride, run):
        # 1 MiB of zeros, or of random bytes each repeated `run` times
        n = 1 << 20
        heads = np.random.default_rng(run).integers(0, 256, -(-n // run), dtype=np.uint8)
        data = bytes(n) if run == n else np.repeat(heads, run)[:n].tobytes()
        tracemalloc.start()
        try:
            frame = encode_pass(data, stride, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert frame.mode == FrameMode.ORT and decode_pass(frame) == data
        # about 2.6 bytes per input byte: the repeat bits, one int64 index per leaf slot, the tree
        assert peak <= 3.5 * n

    def test_short_runs_stay_verbatim(self):
        data = b"\xf7\xf7" + bytes(range(10)) + b"\xf9\xf9\xf9\xf9"
        frame = encode_pass(data, 1, 3)
        # the length-2 run is below min_run; both bytes must survive in kept
        assert frame.kept.count(b"\xf7") == 2
        assert frame.kept.count(b"\xf9") == 1

    def test_classic_rlc_shape(self):
        # stride 1, min_run 3: every run of length L >= 3 keeps exactly one byte
        runs = [(5, 4), (9, 1), (2, 7), (9, 3), (0, 250)]
        data = b"".join(bytes([v]) * n for v, n in runs)
        frame = encode_pass(data, 1, 3)
        marks = mark_equalities(data, 1, 3)
        assert marks.count == sum(n - 1 for _, n in runs if n >= 3)
        assert frame.kept == bytes([5, 9, 2, 9, 0])


class TestDecodePass:
    def test_inverse_of_encode(self):
        for data in ADVERSARIAL:
            for stride in (1, 2, 3):
                for min_run in (1, 3):
                    frame = encode_pass(data, stride, min_run)
                    assert decode_pass(frame) == data

    def test_constant_run_frame(self):
        frame = PassFrame(FrameMode.ORT, 1, 16, b"\xaa", bytes.fromhex("c07fff"))
        assert decode_pass(frame) == b"\xaa" * 16

    def test_oracle_equivalence(self):
        rng = random.Random(0xC0DEC)
        checked = 0
        while checked < 1200:
            kind = rng.randrange(3)
            if kind == 0:
                data = rng.randbytes(rng.randrange(0, 400))
            elif kind == 1:
                data = b"".join(
                    bytes([rng.randrange(6)]) * rng.randrange(1, 12) for _ in range(rng.randrange(1, 40))
                )
            else:
                data = bytes([rng.randrange(2)] * rng.randrange(1, 300))
            stride = rng.randrange(1, 5)
            frame = encode_pass(data, stride, rng.choice([1, 2, 3]))
            blob = frame.to_bytes()
            parsed, end = parse_frame(blob)
            assert end == len(blob) and parsed == frame
            assert decode_pass(parsed) == naive_decode_frame(blob) == data
            checked += 1

    def test_repeat_before_stride_rejected(self):
        # single leaf claiming position 0 as a repeat
        frame = PassFrame(FrameMode.ORT, 1, 8, bytes(7), bytes([0b10000000]))
        with pytest.raises(MalformedFrame):
            decode_pass(frame)

    @pytest.mark.parametrize("tree, first", [(0b01000000, 1), (0b11000000, 0)])
    def test_repeat_before_stride_names_the_byte(self, tree, first):
        # stride 2: a leaf flags byte 1, or bytes 0 and 1, inside the first stride
        frame = PassFrame(FrameMode.ORT, 2, 8, bytes(8 - bin(tree).count("1")), bytes([tree]))
        with pytest.raises(MalformedFrame, match=f"^repeat flagged at byte {first}, before one full stride of 2$"):
            decode_pass(frame)

    def test_kept_stream_length_mismatch(self):
        tree = bytes([0b01000000])  # one repeat at position 1
        short = "^kept stream holds 6 bytes, bitmap expects 7: output byte 7 has no kept byte$"
        with pytest.raises(MalformedFrame, match=short):
            decode_pass(PassFrame(FrameMode.ORT, 1, 8, bytes(6), tree))  # one byte short
        long = "^kept stream holds 8 bytes, bitmap expects 7: kept byte 7 is left over$"
        with pytest.raises(MalformedFrame, match=long):
            decode_pass(PassFrame(FrameMode.ORT, 1, 8, bytes(8), tree))  # one byte extra

    def test_bad_tree_rejected(self):
        with pytest.raises(MalformedFrame):
            decode_pass(PassFrame(FrameMode.ORT, 1, 64, bytes(60), bytes.fromhex("c20c")))
        with pytest.raises(MalformedFrame):  # trailing bytes after the tree
            decode_pass(PassFrame(FrameMode.ORT, 1, 64, bytes(64), b"\x00\x00"))

    def test_unreachable_input_length_rejected_cheaply(self):
        # a hostile frame must fail fast, not allocate terabytes first
        frame = PassFrame(FrameMode.ORT, 1, 2**40, b"\xaa", b"\x00")
        with pytest.raises(MalformedFrame):
            decode_pass(frame)

    def test_stored_frame_roundtrip(self):
        frame = PassFrame(FrameMode.STORED, 5, 4, b"abcd", b"")
        assert decode_pass(frame) == b"abcd"

    @staticmethod
    def repeat_positions(kind, stride, n, rng):
        """Repeat positions at or past one stride: every one, runs, or a few."""
        if kind == "all_repeat":
            return set(range(stride, n))
        if kind == "sparse":
            return {p for p in range(stride, n) if rng.random() < 0.05}
        positions, p = set(), stride + rng.randrange(3)
        while p < n:
            run = rng.randrange(1, 3 * stride + 2)
            positions.update(range(p, min(p + run, n)))
            p += run + rng.randrange(1, 4)
        return positions

    @staticmethod
    def check_frame(stride, n, positions, rng):
        """Decode a frame with repeats at positions against the oracle, and
        reject its kept stream one byte short and one byte long."""
        kept = rng.randbytes(n - len(positions))
        tree = bitmap_to_tree(RepeatBitmap.from_positions(positions, n)).nodes
        frame = PassFrame(FrameMode.ORT, stride, n, kept, tree)
        assert decode_pass(frame) == naive_decode_frame(frame.to_bytes())
        if not positions:
            return  # a longer kept stream would not fit the frame
        for bad in (kept[:-1], kept + b"\x00"):
            with pytest.raises(MalformedFrame):
                decode_pass(PassFrame(FrameMode.ORT, stride, n, bad, tree))

    # lengths one short of, at and one past whole rows of `stride` lanes
    @pytest.mark.parametrize("kind", ["all_repeat", "runs", "sparse"])
    def test_matches_oracle_at_every_stride_and_row_boundary(self, kind):
        rng = random.Random(kind)
        for stride in range(1, 256):
            k = rng.randrange(1, 4)
            for n in (k * stride - 1, k * stride, k * stride + 1):
                self.check_frame(stride, n, self.repeat_positions(kind, stride, n, rng), rng)

    # stride-1 frames keeping one byte fewer than, as many as and one more
    # than n // 8 bytes, on both sides of the gate between the two fills
    def test_matches_oracle_on_both_sides_of_the_stride_one_fill_gate(self):
        rng = random.Random("gate")
        self.check_frame(1, 0, set(), rng)
        for m in (1, 2, 3, 8, 125):
            for n in (8 * m - 1, 8 * m, 8 * m + 1):
                for kept in (n // 8 - 1, n // 8, n // 8 + 1):
                    if kept < 1:
                        continue  # position 0 is always kept
                    kept_at = {0, *rng.sample(range(1, n), kept - 1)}
                    self.check_frame(1, n, set(range(n)) - kept_at, rng)
        self.check_frame(1, 4099, set(range(1, 4099)), rng)  # one kept byte, the rest repeats

    @pytest.mark.parametrize(
        "stride, run", [(1, 1 << 20), (2, 1 << 20), (7, 1 << 20), (1, 16)], ids=["1", "2", "7", "1-runs16"]
    )
    def test_memory_stays_within_a_few_bytes_per_input_byte(self, stride, run):
        # 1 MiB of random bytes, each repeated `run` times: one byte throughout, or 16-byte runs
        data = bytes(b for b in random.Random(run).randbytes((1 << 20) // run) for _ in range(run))
        n = len(data)
        frame = encode_pass(data, stride, 3)
        assert frame.mode == FrameMode.ORT
        tracemalloc.start()
        try:
            out = decode_pass(frame)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == data
        # no array of an index per input byte: those take 4 or 8 bytes each
        assert peak <= 3.5 * n


class TestParseFrame:
    def test_rejects_bad_mode(self):
        blob = struct.pack("<BBQQ", 7, 1, 0, 0)
        with pytest.raises(MalformedFrame):
            parse_frame(blob)

    def test_rejects_zero_stride(self):
        blob = struct.pack("<BBQQ", 0, 0, 0, 0)
        with pytest.raises(MalformedFrame):
            parse_frame(blob)

    def test_rejects_truncations(self):
        good = encode_pass(b"\xaa" * 16, 1, 3).to_bytes()
        for cut in (0, 5, FRAME_OVERHEAD - 1, len(good) - 1):
            with pytest.raises(MalformedFrame):
                parse_frame(good[:cut])

    def test_unreachable_input_length_rejected_cheaply(self):
        # the tree walk allocates a bitmap of the claimed input length
        blob = struct.pack("<BBQQ", 1, 1, 2**60, 1) + b"\xaa\x00"
        with pytest.raises(MalformedFrame, match="unreachable"):
            parse_frame(blob)

    def test_offset_and_trailing(self):
        good = encode_pass(b"\xaa" * 16, 1, 3).to_bytes()
        frame, end = parse_frame(good + b"xyz")
        assert end == len(good)
        assert decode_pass(frame) == b"\xaa" * 16

    def test_frames_in_sequence_are_read_through_slices(self):
        # a frame's end offset counts from the start of the slice it was read from
        inputs = [b"\xaa" * 16, bytes(range(40)), b"ab" * 30]
        blob = b"".join(encode_pass(data, 2, 3).to_bytes() for data in inputs)
        view, decoded = memoryview(blob), []
        while view:
            frame, end = parse_frame(view)
            decoded.append(decode_pass(frame))
            view = view[end:]
        assert decoded == inputs

    @pytest.mark.parametrize(
        "frame, message",
        [
            (struct.pack("<BBQQ", 1, 1, 16, 1)[:-1], "truncated frame header at byte 0"),
            (struct.pack("<BBQQ", 1, 1, 16, 5) + b"ab", "truncated kept stream at byte 18: 5 bytes declared"),
            (struct.pack("<BBQQ", 5, 1, 1, 1) + b"a", "unknown frame mode 0x05"),
            (struct.pack("<BBQQ", 0, 0, 1, 1) + b"a", "stride must be in 1..255, got 0"),
        ],
        ids=["header", "kept-stream", "mode", "stride"],
    )
    def test_header_errors_name_the_byte_offset(self, frame, message):
        with pytest.raises(MalformedFrame, match=f"^{message}$"):
            parse_frame(frame)

    @pytest.mark.parametrize(
        "stride, input_len, kept, message",
        [
            (0, 16, b"\xaa", "stride must be in 1..255, got 0"),
            (1, 2, b"abc", "kept length 3 exceeds input length 2"),
        ],
        ids=["stride-0", "kept-over-input"],
    )
    def test_fields_are_checked_before_the_tree_is_walked(self, monkeypatch, stride, input_len, kept, message):
        import ortc.codec

        def fail(data, length):
            raise AssertionError("tree walked before the frame's fields were checked")

        monkeypatch.setattr(ortc.codec, "_walk", fail)
        frame = struct.pack("<BBQQ", 1, stride, input_len, len(kept)) + kept + bytes.fromhex("c07fff")
        with pytest.raises(MalformedFrame, match=f"^{message}$"):
            parse_frame(frame)


class TestCompressDecompress:
    @pytest.mark.parametrize("data", ADVERSARIAL)
    @pytest.mark.parametrize("passes,min_run", [(0, 3), (1, 3), (3, 1), (10, 3), (10, 4)])
    def test_roundtrip(self, data, passes, min_run):
        blob = compress(data, CodecParams(passes=passes, min_run=min_run))
        assert decompress(blob) == data
        assert len(blob) <= len(data) + CONTAINER_OVERHEAD

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=3000), st.sampled_from([0, 1, 2, 10]), st.sampled_from([1, 2, 3, 4]))
    def test_roundtrip_property(self, data, passes, min_run):
        blob = compress(data, CodecParams(passes=passes, min_run=min_run))
        assert decompress(blob) == data
        assert len(blob) <= len(data) + CONTAINER_OVERHEAD

    def test_empty_input_container_bytes(self):
        blob = compress(b"", CodecParams())
        assert blob == b"ORTC" + bytes([1, 1, 0, 3]) + (0).to_bytes(8, "little")
        assert len(blob) == CONTAINER_OVERHEAD

    def test_zero_passes_is_stored(self):
        data = b"\x00" * 500
        blob = compress(data, CodecParams(passes=0))
        assert len(blob) == len(data) + CONTAINER_OVERHEAD
        assert blob[CONTAINER_OVERHEAD:] == data
        assert decompress(blob) == data

    def test_huge_min_run_degenerates_to_stored(self):
        data = b"\x55" * 200
        blob = compress(data, CodecParams(passes=10, min_run=255))
        assert len(blob) == len(data) + CONTAINER_OVERHEAD
        assert inspect_container(blob).stored

    def test_too_many_passes(self):
        with pytest.raises(TooManyPasses):
            CodecParams(passes=256)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            CodecParams(passes=-1)
        with pytest.raises(ValueError):
            CodecParams(min_run=0)
        with pytest.raises(ValueError):
            CodecParams(min_run=256)

    @pytest.mark.parametrize("field", ["passes", "min_run"])
    @pytest.mark.parametrize("value", [2.5, 3.0, "3", None])
    def test_params_must_be_integers(self, field, value):
        with pytest.raises(TypeError):
            CodecParams(**{field: value})

    @pytest.mark.parametrize("field", ["passes", "min_run"])
    def test_type_error_names_the_field_and_value(self, field):
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got 2.5$"):
            CodecParams(**{field: 2.5})

    def test_integer_like_params_are_accepted(self):
        params = CodecParams(passes=np.uint8(2), min_run=np.int64(4))
        assert compress(b"\x00" * 64, params) == compress(b"\x00" * 64, CodecParams(2, 4))

    def test_multi_pass_improves_constant_buffer(self):
        data = b"\x00" * 65536
        one = compress(data, CodecParams(passes=1))
        ten = compress(data, CodecParams(passes=10))
        assert len(ten) < len(one) < len(data)
        assert decompress(ten) == data

    def test_pass_strides_follow_pass_index(self):
        blob = compress(b"\x07" * 4096, CodecParams(passes=10))
        info = inspect_container(blob)
        assert not info.stored
        assert info.pass_count == 10
        assert [f.stride for f in info.frames] == list(range(1, 11))
        assert [f.pass_index for f in info.frames] == list(range(1, 11))

    def test_random_data_stores(self):
        data = random.Random(11).randbytes(65536)
        blob = compress(data, CodecParams())
        assert len(blob) == len(data) + CONTAINER_OVERHEAD
        assert inspect_container(blob).stored


class TestDecompressErrors:
    def good(self):
        return compress(b"\x00" * 300, CodecParams(passes=2))

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            decompress(b"")
        with pytest.raises(BadMagic):
            decompress(b"ZIP!" + self.good()[4:])

    def test_unsupported_version(self):
        blob = bytearray(self.good())
        blob[4] = 2
        with pytest.raises(UnsupportedVersion):
            decompress(bytes(blob))

    def test_unknown_flags(self):
        blob = bytearray(self.good())
        blob[5] |= 0x80
        with pytest.raises(MalformedFrame):
            decompress(bytes(blob))

    def test_truncations_never_partial(self):
        good = self.good()
        for cut in range(4, len(good), 7):
            with pytest.raises((MalformedFrame, LengthMismatch)):
                decompress(good[:cut])

    def test_trailing_garbage(self):
        with pytest.raises((MalformedFrame, LengthMismatch)):
            decompress(self.good() + b"!")

    def test_stored_frame_with_trailing_bytes(self):
        data = b"\x00" * 300
        inner = encode_pass(data, 1, 3).to_bytes()
        outer = PassFrame(FrameMode.STORED, 2, len(inner), inner, b"").to_bytes()
        blob = struct.pack("<4sBBBBQ", b"ORTC", 1, 0, 2, 3, len(data)) + outer
        assert decompress(blob) == data
        with pytest.raises(MalformedFrame):
            decompress(blob + b"!")

    def test_orig_len_tamper(self):
        blob = bytearray(self.good())
        blob[8] ^= 0x01  # first byte of the length field
        with pytest.raises((LengthMismatch, MalformedFrame)):
            decompress(bytes(blob))

    @pytest.mark.parametrize("reader", [decompress, inspect_container])
    def test_length_claim_rejected_before_decoding(self, reader, monkeypatch):
        blob = bytearray(compress(b"\x00" * (4 << 20)))
        blob[8:16] = (1).to_bytes(8, "little")  # original length 4 MiB -> 1

        def no_decode(frame):
            raise AssertionError("decode_pass ran on a container whose header rules it out")

        monkeypatch.setattr("ortc.codec.decode_pass", no_decode)
        with pytest.raises(LengthMismatch, match="pass 10"):
            reader(bytes(blob))

    def test_bad_tree_error_names_the_pass(self):
        blob = bytearray(compress(b"\x00" * 4096))
        frames = inspect_container(bytes(blob)).frames
        outer = max((f for f in frames if f.mode == FrameMode.ORT), key=lambda f: f.pass_index)
        assert outer.tree_len > 1
        assert outer.pass_index > 1
        # the passes above it are stored, so its tree is the end of the blob
        blob[-outer.tree_len] = 0x00  # a zero root leaves the rest of the tree trailing
        with pytest.raises(MalformedFrame, match=f"pass {outer.pass_index}: bad position tree"):
            decompress(bytes(blob))

    @pytest.mark.parametrize("reader", [decompress, inspect_container])
    def test_bad_tree_errors_name_the_tree_offset(self, reader):
        data = b"\x00" * 300  # 38 blocks: a root over 5 twigs
        frame = encode_pass(data, 1, 3)
        tree = frame.tree
        assert len(tree) == 44 and tree[37] == 0xFC  # the last twig holds blocks 32..37

        def container(tree):
            header = struct.pack("<4sBBBBQ", b"ORTC", 1, 0, 1, 3, len(data))
            return header + PassFrame(FrameMode.ORT, 1, len(data), frame.kept, tree).to_bytes()

        assert decompress(container(tree)) == data
        for bad, message in [
            (tree[:-1], "node stream truncated at byte 43"),
            # the last twig also claims block 38, whose leaf byte follows
            (tree[:37] + b"\xfe" + tree[38:] + b"\x80", "node at byte 37: presence bit for child slot 38 past 38"),
            (tree + b"\x00", "1 bytes after the tree's end at byte 44"),
            # the last leaf, of block 37, also flags position 300
            (tree[:43] + bytes([tree[43] | 0x08]), "leaf at byte 43: set bit past position 300"),
        ]:
            with pytest.raises(MalformedFrame, match=f"^pass 1: bad position tree: {message}"):
                reader(container(bad))

    # faults in the outer frame of a two-pass container; the inner frame is good
    @pytest.mark.parametrize(
        "mode, stride, input_delta, tail, message",
        [
            (FrameMode.ORT, 0, 0, b"", "stride must be in 1..255, got 0"),
            (FrameMode.STORED, 2, 1, b"", "stored frame of 64 input bytes holds 63 kept and 0 tree bytes"),
            (FrameMode.STORED, 2, 0, b"!", "stored frame of 63 input bytes holds 63 kept and 1 tree bytes"),
            (FrameMode.ORT, 2, -1, b"", "kept length 63 exceeds input length 62"),
            (5, 2, 0, b"", "unknown frame mode 0x05"),
        ],
        ids=["stride-0", "stored-short", "stored-trailing", "kept-over-input", "mode-5"],
    )
    @pytest.mark.parametrize("reader", [decompress, inspect_container])
    def test_frame_field_errors_name_the_pass(self, reader, mode, stride, input_delta, tail, message):
        data = b"\x00" * 300
        inner = encode_pass(data, 1, 3).to_bytes()
        assert len(inner) == 63
        outer = struct.pack("<BBQQ", mode, stride, len(inner) + input_delta, len(inner)) + inner + tail
        blob = struct.pack("<4sBBBBQ", b"ORTC", 1, 0, 2, 3, len(data)) + outer
        with pytest.raises(MalformedFrame, match=f"^pass 2: {message}$") as excinfo:
            reader(blob)
        assert isinstance(excinfo.value, ValueError)

    @pytest.mark.parametrize("reader", [decompress, inspect_container])
    def test_repeat_before_stride_names_the_pass_and_byte(self, reader):
        # the outer frame of a two-pass container, at stride 2, flags byte 1
        outer = PassFrame(FrameMode.ORT, 2, 8, bytes(7), bytes([0b01000000])).to_bytes()
        blob = struct.pack("<4sBBBBQ", b"ORTC", 1, 0, 2, 3, 8) + outer
        with pytest.raises(MalformedFrame, match="^pass 2: repeat flagged at byte 1, before one full stride of 2$"):
            reader(blob)

    @pytest.mark.parametrize("reader", [decompress, inspect_container])
    @pytest.mark.parametrize(
        "kept, where",
        [
            (bytes(5), "output byte 6 has no kept byte"),  # byte 2 is a repeat, so bytes 6 and 7 lack one
            (bytes(8), "kept byte 7 is left over"),
        ],
        ids=["short", "long"],
    )
    def test_kept_stream_length_error_names_the_pass(self, reader, kept, where):
        # the outer frame of a two-pass container, at stride 2, flags byte 2 of 8
        outer = struct.pack("<BBQQ", FrameMode.ORT, 2, 8, len(kept)) + kept + bytes([0b00100000])
        blob = struct.pack("<4sBBBBQ", b"ORTC", 1, 0, 2, 3, 8) + outer
        message = f"^pass 2: kept stream holds {len(kept)} bytes, bitmap expects 7: {where}$"
        with pytest.raises(MalformedFrame, match=message):
            reader(blob)

    def test_stored_payload_length_mismatch(self):
        blob = compress(b"abc", CodecParams(passes=0))
        for reader in (decompress, inspect_container):
            for bad, size in [(blob[:-1], 2), (blob + b"x", 4)]:  # one payload byte short, one long
                with pytest.raises(LengthMismatch, match=f"^decoded {size} bytes, header says 3$"):
                    reader(bad)

    def test_corruption_never_escapes_error_hierarchy(self):
        from ortc.errors import OrtcError

        rng = random.Random(0xBAD)
        base = compress(b"".join(bytes([v]) * 40 for v in range(50)), CodecParams(passes=3))
        for _ in range(400):
            blob = bytearray(base)
            for _ in range(rng.randrange(1, 4)):
                blob[rng.randrange(len(blob))] = rng.randrange(256)
            try:
                decompress(bytes(blob))
            except OrtcError:
                pass  # any package error is acceptable; crashes are not

    # seed inputs whose first coded pass has a tree rooted at a leaf (8 bytes),
    # a twig (40 bytes, pass 2), a stem (300 and 512 bytes) and above a stem;
    # the later passes of all but the largest have trees rooted at a twig
    FUZZ_SEEDS = [
        bytes(8),
        b"ab" * 20,
        bytes(300),
        bytes(random.Random(1).choice(b"abcd") for _ in range(64)) * 8,
        b"".join(bytes([v]) * (v % 7 + 1) for v in range(256)) * 4,
    ]

    @staticmethod
    def fuzz_container(rng, data):
        """A container over 1-4 coded or stored passes of data with one field
        patched: a header field, or a field or tree byte of one frame, which
        the passes above then wrap as compress would."""

        def near(value):  # a u64 at or around an edge, or anywhere
            edges = [0, 1, value - 1, value + 1, 2 * value, 2**32, 2**64 - 1, rng.randrange(2**64)]
            return rng.choice(edges) % 2**64

        passes, orig_len = rng.randint(1, 4), len(data)
        frames = [data]
        for stride in range(1, passes + 1):
            frames.append(encode_pass(frames[-1], stride, 3).to_bytes())
        pass_count, k = passes, rng.randint(1, passes)
        frame = bytearray(frames[k])
        field = rng.choice(["orig_len", "pass_count", "mode", "stride", "input_len", "kept_len", "tree", "tree"])
        if field == "orig_len":
            orig_len = near(orig_len)
        elif field == "pass_count":
            pass_count = rng.choice([0, passes - 1, passes + 1, 255])
        elif field == "mode":
            frame[0] = rng.choice([0, 1, 2, 255])
        elif field == "stride":
            frame[1] = rng.choice([0, 1, 2, 255, rng.randrange(256)])
        elif field in ("input_len", "kept_len"):
            at = 2 if field == "input_len" else 10
            struct.pack_into("<Q", frame, at, near(struct.unpack_from("<Q", frame, at)[0]))
        else:  # flip a tree bit, replace a tree byte, cut the tree, or extend it
            start = FRAME_OVERHEAD + struct.unpack_from("<Q", frame, 10)[0]
            i = rng.randrange(start, len(frame) + 1)
            edit = rng.choice(["flip", "replace", "cut", "extend"])
            if edit == "cut":
                del frame[i:]
            elif edit == "extend":
                frame += rng.randbytes(rng.randint(1, 3))
            elif i < len(frame):
                frame[i] = frame[i] ^ 0x80 >> rng.randrange(8) if edit == "flip" else rng.randrange(256)
        payload = bytes(frame)
        for stride in range(k + 1, passes + 1):
            payload = encode_pass(payload, stride, 3).to_bytes()
        return struct.pack("<4sBBBBQ", b"ORTC", 1, 0, pass_count, 3, orig_len) + payload

    def test_structured_fuzz_raises_only_package_errors_in_bounded_memory(self):
        # 1,200 seeded cases, within a 3 s budget (1.4-2.3 s on 2 vCPU); a fixed
        # allowance covers the interpreter's own objects, about 8 KB on the
        # smallest seeds, where a bound by multiple alone would need about 150
        rng = random.Random(0x0F22)
        tracemalloc.start()
        try:
            for case in range(1200):
                data = rng.choice(self.FUZZ_SEEDS)
                blob = self.fuzz_container(rng, data)
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                try:
                    (decompress if case % 2 else inspect_container)(blob)
                except OrtcError:
                    pass
                peak = tracemalloc.get_traced_memory()[1] - before
                assert peak <= 8 * (len(blob) + len(data)) + 16384, (case, blob.hex())
        finally:
            tracemalloc.stop()


class TestInspect:
    def test_stored_container(self):
        info = inspect_container(compress(b"xyz", CodecParams(passes=0, min_run=4)))
        assert (info.version, info.stored, info.pass_count, info.min_run, info.orig_len) == (
            1,
            True,
            0,
            4,
            3,
        )
        assert info.frames == ()

    def test_frame_accounting(self):
        data = b"\x00" * 4096
        blob = compress(data, CodecParams(passes=1))
        info = inspect_container(blob)
        (frame,) = info.frames
        assert frame.input_len == 4096
        assert CONTAINER_OVERHEAD + FRAME_OVERHEAD + frame.kept_len + frame.tree_len == len(blob)


def test_one_tree_walk_per_coded_frame(monkeypatch):
    import ortc.codec
    import ortc.tree

    data = b"\x00" * 4096 + bytes(range(256)) * 8 + b"ab" * 500
    blob = compress(data)
    coded = sum(f.mode == FrameMode.ORT for f in inspect_container(blob).frames)
    assert coded >= 2
    walk = ortc.tree._walk
    calls = []

    def counting_walk(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(ortc.tree, "_walk", counting_walk)
    monkeypatch.setattr(ortc.codec, "_walk", counting_walk)
    assert decompress(blob) == data
    assert len(calls) == coded


# Inputs mixing runs of a few symbols with random bytes, so that passes
# come out coded as well as stored.
repetitive = st.lists(
    st.tuples(st.integers(0, 255), st.integers(1, 40)), max_size=40
).map(lambda runs: b"".join(bytes([v % 4 if n > 1 else v]) * n for v, n in runs)[:512])
inputs = st.one_of(st.binary(max_size=512), repetitive)


class TestOracleDifferential:
    # min_run beyond 3 needs doubling steps in the marking, and a top-up step
    # when min_run - 1 is no power of two
    @settings(max_examples=200, deadline=None)
    @given(inputs, st.integers(0, 6), st.one_of(st.integers(1, 12), st.sampled_from([17, 24, 33, 255])))
    def test_compress_matches_naive_compress(self, data, passes, min_run):
        assert compress(data, CodecParams(passes=passes, min_run=min_run)) == naive_compress(
            data, passes, min_run
        )

    @settings(max_examples=1000, deadline=None)
    @given(inputs, st.integers(0, 6), st.integers(1, 4), st.sampled_from(["flip", "cut", "append"]), st.data())
    def test_mutated_container_agrees_with_oracle(self, data, passes, min_run, mutation, draw):
        blob = bytearray(compress(data, CodecParams(passes=passes, min_run=min_run)))
        if mutation == "flip":
            bit = draw.draw(st.integers(0, 8 * len(blob) - 1))
            blob[bit // 8] ^= 0x80 >> (bit % 8)
        elif mutation == "cut":
            del blob[draw.draw(st.integers(0, len(blob) - 1)) :]
        else:
            blob.append(draw.draw(st.integers(0, 255)))
        blob = bytes(blob)
        try:
            expected = naive_decompress(blob)
        except (AssertionError, IndexError, StopIteration, ValueError, struct.error):
            # the oracle rejects it, so must the codec
            with pytest.raises(OrtcError):
                decompress(blob)
            return
        # the oracle reads any nonzero mode byte as coded, so the codec may
        # reject what the oracle accepts, but never decode it differently
        try:
            assert decompress(blob) == expected
        except OrtcError:
            pass
