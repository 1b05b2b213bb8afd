import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ortc.baselines import (
    PRLC1_MAX_RUN,
    PRLC2_MAX_RUN,
    prlc1_decode,
    prlc1_encode,
    prlc2_decode,
    prlc2_encode,
)
from ortc.errors import MalformedStream, UnsupportedAlphabet

from oracles import naive_prlc1_decode, naive_prlc1_encode, naive_prlc2_decode, naive_prlc2_encode


def outcome(decode, *args):
    """The decoded bytes, or the class of the exception decode raised."""
    try:
        return decode(*args)
    except Exception as exc:  # noqa: BLE001 - the class is what gets compared
        return type(exc)


def mutate(body, how, draw):
    """body with one byte replaced, cut short at a drawn offset, or unchanged."""
    body = bytearray(body)
    if how == "replace" and body:
        body[draw.draw(st.integers(0, len(body) - 1))] = draw.draw(st.integers(0, 255))
    elif how == "truncate":
        del body[draw.draw(st.integers(0, len(body))) :]
    return bytes(body)


# runs of a few values, long enough to code, among single literals
runny = st.lists(st.tuples(st.integers(0, 255), st.integers(1, 300)), max_size=30).map(
    lambda runs: b"".join(bytes([v if n == 1 else v % 3]) * n for v, n in runs)
)


# around the threshold of 3 and around whole chunks of 128 and 256 bytes
RUN_LENGTHS = [*range(1, 5), *range(127, 132), *range(255, 260), *range(511, 516)]


def assert_encoders_match_oracles(data):
    """Both encoders give the loop oracles' bodies, or fail as they do."""
    assert prlc1_encode(data) == naive_prlc1_encode(data)
    assert outcome(prlc2_encode, data) == outcome(naive_prlc2_encode, data)
    low = data.translate(bytes(range(128)) * 2)  # each byte with its high bit cleared
    assert prlc2_encode(low) == naive_prlc2_encode(low)


def with_flag(data, flag):
    """data, then a run of every other value longer than data, so that flag
    is the least frequent value and prlc1's flag."""
    return data + b"".join(bytes([v]) * (len(data) + 1) for v in range(256) if v != flag)


def walk_prlc1_units(flag, body):
    """Yield ('run', value, length) or ('lit', value, 1) units."""
    pos = 0
    while pos < len(body):
        if body[pos] == flag:
            assert pos + 3 <= len(body)
            yield "run", body[pos + 1], body[pos + 2] + 1
            pos += 3
        else:
            yield "lit", body[pos], 1
            pos += 1


class TestPrlc1:
    def test_threshold_three_fixture(self):
        # two below-threshold bytes stay literal, the run of seven is coded
        flag, body = prlc1_encode(bytes([3, 3] + [8] * 7))
        assert flag == 0x00  # least frequent value, smallest on ties
        assert body == bytes([3, 3, flag, 8, 6])

    def test_distinct_bytes_stay_literal(self):
        data = bytes([5, 9, 6, 1, 2])
        flag, body = prlc1_encode(data)
        assert body == data

    def test_run_chunking_at_256(self):
        flag, body = prlc1_encode(b"\x41" * 300)
        assert flag == 0x00
        assert body == bytes([flag, 0x41, 255, flag, 0x41, 43])

    def test_empty(self):
        assert prlc1_encode(b"") == (0, b"")
        assert prlc1_decode(0, b"") == b""

    def test_flag_avoids_present_values_when_possible(self):
        data = bytes(range(1, 256)) * 2  # 0x00 never appears
        flag, _ = prlc1_encode(data)
        assert flag == 0x00

    def test_full_alphabet_escapes_flag_literals(self):
        # all 256 values present; the flag value itself occurs and must be escaped
        data = bytes(range(256)) + b"\x00"
        flag, body = prlc1_encode(data)
        assert flag == 0x01  # 0x00 appears twice, 0x01 once -> least frequent, smallest
        assert prlc1_decode(flag, body) == data
        units = list(walk_prlc1_units(flag, body))
        assert ("lit", flag, 1) not in units

    def test_roundtrip_examples(self):
        for data in (bytes([3, 3] + [8] * 7), bytes([5, 9, 6, 1, 2]), b"\x41" * 300):
            flag, body = prlc1_encode(data)
            assert prlc1_decode(flag, body) == data

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=2000))
    def test_roundtrip_any_bytes(self, data):
        flag, body = prlc1_encode(data)
        assert prlc1_decode(flag, body) == data

    def test_roundtrip_all_256_values_heavy(self):
        rng = random.Random(5)
        data = bytes(rng.randrange(256) for _ in range(5000)) + bytes(range(256))
        flag, body = prlc1_encode(data)
        assert prlc1_decode(flag, body) == data

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=1500))
    def test_expansion_bound(self, data):
        flag, body = prlc1_encode(data)
        assert 1 + len(body) <= 3 * max(1, len(data))

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=2000))
    def test_no_unit_longer_than_256(self, data):
        flag, body = prlc1_encode(data)
        for kind, _, length in walk_prlc1_units(flag, body):
            assert length <= PRLC1_MAX_RUN

    def test_truncated_triple(self):
        with pytest.raises(MalformedStream):
            prlc1_decode(0xFF, bytes([0xFF, 0x08]))

    def test_bad_flag_value(self):
        with pytest.raises(ValueError):
            prlc1_decode(300, b"")

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(st.binary(max_size=600), runny),
        st.sampled_from(["none", "replace", "truncate", "flag"]),
        st.data(),
    )
    def test_decode_matches_loop_oracle(self, data, how, draw):
        flag, body = prlc1_encode(data)
        if how == "flag":
            # a wrong flag, in range or not, re-reads the body's escapes
            flag = draw.draw(st.one_of(st.integers(0, 255), st.sampled_from([-1, 256])))
        body = mutate(body, how, draw)
        assert outcome(prlc1_decode, flag, body) == outcome(naive_prlc1_decode, flag, body)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=80), st.integers(0, 3))
    def test_decode_dense_escapes_matches_loop_oracle(self, values, flag):
        # flag bytes one and two apart, where only the order decides which
        # of them open a triple
        body = bytes(values)
        assert outcome(prlc1_decode, flag, body) == outcome(naive_prlc1_decode, flag, body)


class TestEncodeMatchesLoopOracles:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.binary(max_size=2000), runny))
    def test_any_bytes(self, data):
        assert_encoders_match_oracles(data)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k - 1), max_size=300))))
    def test_dense_few_symbols(self, drawn):
        k, values = drawn
        dense = bytes(values)
        assert_encoders_match_oracles(dense)
        # every other value more often than the dense part can hold any
        # symbol, so the flag is the dense part's least frequent symbol
        data = dense + bytes(range(k, 256)) * (len(dense) + 1)
        assert prlc1_encode(data)[0] < k
        assert_encoders_match_oracles(data)

    @pytest.mark.parametrize("length", RUN_LENGTHS)
    def test_runs_of_other_values(self, length):
        run = b"\x05" * length
        for data in (run, b"ab" + run, run + b"cd", b"ab" + run + b"cd", b"\x05\x06" + run + b"\x06\x05"):
            assert prlc1_encode(data)[0] != 0x05
            assert_encoders_match_oracles(data)

    @pytest.mark.parametrize("length", RUN_LENGTHS)
    def test_runs_of_the_flag(self, length):
        for flag in (0x00, 0x05):
            run = bytes([flag]) * length
            for data in (with_flag(run, flag), with_flag(b"\x06\x07" + run + b"\x07\x06", flag)):
                assert prlc1_encode(data)[0] == flag
                assert_encoders_match_oracles(data)

    @pytest.mark.parametrize("first", [3, 4, 5, 128, 129, 256, 257, 259])
    @pytest.mark.parametrize("second", [1, 2, 3, 4, 131, 258])
    def test_adjacent_distinct_runs(self, first, second):
        data = b"a" * first + b"b" * second
        assert_encoders_match_oracles(data)
        for flag in b"ab":  # a flag run meets another run on either side
            assert prlc1_encode(with_flag(data, flag))[0] == flag
            assert_encoders_match_oracles(with_flag(data, flag))

    def test_aaabbb(self):
        assert prlc1_encode(b"aaabbb") == (0x00, bytes([0x00, 0x61, 2, 0x00, 0x62, 2]))
        assert prlc2_encode(b"aaabbb") == bytes([0x61, 0x82, 0x62, 0x82])

    def test_flag_runs_of_one_and_two(self):
        others = bytes(range(1, 256)) * 3
        data = others + b"\x00" + others + b"\x00\x00"
        assert prlc1_encode(data) == (0x00, others + bytes([0x00, 0x00, 0]) + others + bytes([0x00, 0x00, 1]))
        assert_encoders_match_oracles(data)

    def test_one_and_two_byte_inputs(self):
        for a in range(256):
            assert_encoders_match_oracles(bytes([a]))
        for a in (0x00, 0x01, 0x7F, 0x80, 0xFF):
            for b in (0x00, 0x01, 0x7F, 0x80, 0xFF):
                assert_encoders_match_oracles(bytes([a, b]))


class TestPrlc2:
    def test_short_run_fixture(self):
        assert prlc2_encode(b"\x05" * 5) == bytes([0x05, 0x84])

    def test_run_chunking_at_128(self):
        assert prlc2_encode(b"\x01" * 200) == bytes([0x01, 0xFF, 0x01, 0xC7])

    def test_rejects_high_bytes(self):
        with pytest.raises(UnsupportedAlphabet):
            prlc2_encode(b"ab\x90cd")
        with pytest.raises(UnsupportedAlphabet):
            prlc2_encode(bytes([0x05, 0xC8]))

    def test_rejection_names_first_high_byte(self):
        with pytest.raises(UnsupportedAlphabet, match="byte 0x90 "):
            prlc2_encode(b"ab\x90c\xffd")

    def test_empty(self):
        assert prlc2_encode(b"") == b""
        assert prlc2_decode(b"") == b""

    def test_below_threshold_stays_literal(self):
        assert prlc2_encode(b"\x05\x05") == b"\x05\x05"
        assert prlc2_encode(b"\x05\x05\x05") == bytes([0x05, 0x82])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 127), max_size=2000))
    def test_roundtrip_low_alphabet(self, values):
        data = bytes(values)
        assert prlc2_decode(prlc2_encode(data)) == data

    def test_roundtrip_runs(self):
        rng = random.Random(9)
        data = b"".join(bytes([rng.randrange(128)]) * rng.randrange(1, 400) for _ in range(60))
        assert prlc2_decode(prlc2_encode(data)) == data

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 127), max_size=1500))
    def test_never_expands(self, values):
        data = bytes(values)
        assert len(prlc2_encode(data)) <= len(data)

    def test_no_unit_longer_than_128(self):
        body = prlc2_encode(b"\x03" * 1000)
        for i in range(1, len(body)):
            if body[i] >= 0x80:
                assert (body[i] & 0x7F) + 1 <= PRLC2_MAX_RUN

    def test_count_at_start_is_malformed(self):
        with pytest.raises(MalformedStream):
            prlc2_decode(bytes([0x84]))

    def test_count_after_count_is_malformed(self):
        with pytest.raises(MalformedStream):
            prlc2_decode(bytes([0x05, 0x84, 0x83]))

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(
            st.lists(st.integers(0, 127), max_size=600).map(bytes),
            runny.map(lambda d: bytes(b & 0x7F for b in d)),
        ),
        st.sampled_from(["none", "replace", "truncate"]),
        st.data(),
    )
    def test_decode_matches_loop_oracle(self, data, how, draw):
        body = mutate(prlc2_encode(data), how, draw)
        assert outcome(prlc2_decode, body) == outcome(naive_prlc2_decode, body)
