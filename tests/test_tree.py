import dataclasses
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ortc.errors import BadChildOrdinal, BitBeyondLength, ChildOutOfRange, MalformedTree, RootHasNoParent
from ortc.tree import (
    OrtTree,
    RepeatBitmap,
    _complete,
    _levels,
    _preorder,
    _walk,
    bitmap_to_tree,
    kth_child,
    parent,
    parse_tree,
    serialize_tree,
    tree_depth,
    tree_to_bitmap,
)

from oracles import ceil_div, classify_nodes, naive_depth, naive_parse_tree, naive_tree_bytes

FIG2_POSITIONS = [4, 5, 8, 14, 15, 52, 53, 54]
FIG2_TREE = bytes.fromhex("c20c830e")


def bitmap(positions, n):
    """n bits, set at the given positions."""
    bits = np.zeros(n, dtype=bool)
    bits[np.fromiter(positions, dtype=np.intp)] = True
    return bits


def tree_bytes(bits):
    """The node bytes the codec writes for bits."""
    return _preorder(_levels(bits)[0])


def assert_walks_back(bits):
    """_walk reads the codec's tree for bits back to bits, consuming all of it."""
    nodes = tree_bytes(bits)
    walked, consumed = _walk(nodes, bits.size)
    assert np.array_equal(walked, bits) and consumed == len(nodes)


class TestNodeAlgebra:
    def test_parent_examples(self):
        assert parent(9) == 1
        assert parent(1) == 0
        with pytest.raises(ValueError, match="^node index must be non-negative, got -1$"):
            parent(-1)

    def test_root_has_no_parent(self):
        with pytest.raises(RootHasNoParent):
            parent(0)

    def test_kth_child_examples(self):
        assert kth_child(1, 8, n=97) == 16
        assert kth_child(11, 3, n=97) == 91
        assert kth_child(0, 1, n=97) == 1
        with pytest.raises(ValueError, match="^node index must be non-negative, got -1$"):
            kth_child(-1, 1, n=97)

    @pytest.mark.parametrize("k", [0, 9, -1])
    def test_bad_child_ordinal(self, k):
        with pytest.raises(BadChildOrdinal):
            kth_child(0, k, n=97)

    def test_child_out_of_range(self):
        with pytest.raises(ChildOutOfRange):
            kth_child(12, 2, n=97)  # 8*12+2 = 98 > 97
        assert kth_child(12, 1, n=97) == 97  # boundary: 8r+k == n allowed

    def test_parent_inverts_child_exhaustively(self):
        n = 10_000
        for r in range((n - 8) // 8 + 1):
            for k in range(1, 9):
                c = 8 * r + k
                if c > n:
                    break
                assert parent(kth_child(r, k, n)) == r


class TestTreeDepth:
    @pytest.mark.parametrize(
        "num_blocks,expected",
        [
            (1, 0),
            (2, 1),
            (8, 1),
            (9, 2),
            (64, 2),
            (65, 3),  # brute force: 8**2 = 64 < 65, so two internal levels cannot cover it
            (512, 3),
            (513, 4),
            (8**8, 8),
            (8**8 + 1, 9),  # past the precomputed table
        ],
    )
    def test_values(self, num_blocks, expected):
        assert tree_depth(num_blocks) == expected

    def test_matches_brute_force_search(self):
        for nb in list(range(0, 700)) + [4095, 4096, 4097, 8192, 2**16]:
            assert tree_depth(nb) == naive_depth(nb)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="num_blocks must be >= 0, got -1"):
            tree_depth(-1)


class TestRepeatBitmap:
    def test_positions(self):
        bits = bitmap([1, 3], 4)
        bm = RepeatBitmap(bits)
        assert bm.positions() == [1, 3]
        assert bm.bits is bits

    def test_rejects_two_dimensions(self):
        with pytest.raises(ValueError, match="^bitmap must be one-dimensional$"):
            RepeatBitmap(np.zeros((2, 4), dtype=bool))


class TestOrtTree:
    def test_node_bytes_count_and_serialize(self):
        tree = bitmap_to_tree(RepeatBitmap(bitmap(FIG2_POSITIONS, 64)))
        assert tree.nodes == FIG2_TREE
        assert tree.node_count == 4
        assert serialize_tree(tree) is tree.nodes

    def test_frozen(self):
        tree = OrtTree(FIG2_TREE)
        with pytest.raises(dataclasses.FrozenInstanceError):
            tree.nodes = b"\x00"

    def test_no_nodes_read_as_truncated(self):
        # the constructor takes any bytes; reading finds an empty tree has no root
        with pytest.raises(MalformedTree, match="^node stream truncated at byte 0$"):
            tree_to_bitmap(OrtTree(b""), 64)

    def test_parse_copies_only_the_tree(self):
        tree, consumed = parse_tree(memoryview(FIG2_TREE + b"\xde\xad"), 64)
        assert type(tree.nodes) is bytes
        assert (tree.nodes, consumed, tree.node_count) == (FIG2_TREE, 4, 4)


class TestBitmapToTree:
    def test_two_level_fixture(self):
        levels, _ = _levels(bitmap(FIG2_POSITIONS, 64))
        assert levels[-1].size == 8  # leaf blocks
        assert len(levels) - 1 == 1  # internal levels
        assert _preorder(levels) == FIG2_TREE

    def test_all_zero_keeps_root(self):
        levels, size = _levels(bitmap([], 64))
        assert _preorder(levels) == b"\x00"
        assert size == 1

    def test_constant_run_fixture(self):
        assert tree_bytes(bitmap(range(1, 16), 16)) == bytes.fromhex("c07fff")

    def test_single_block_has_no_internal_node(self):
        levels, _ = _levels(bitmap([2, 3], 8))
        assert len(levels) - 1 == 0
        assert _preorder(levels) == bytes([0b00110000])

    def test_empty_bitmap(self):
        levels, _ = _levels(bitmap([], 0))
        assert len(levels) - 1 == 0
        assert _preorder(levels) == b"\x00"

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_recursive_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(0, 3000)
        positions = {p for p in range(n) if rng.random() < rng.choice([0.02, 0.3, 0.9])}
        assert tree_bytes(bitmap(positions, n)) == naive_tree_bytes(positions, n)

    # one block short of, at and past each depth boundary 8**k
    @pytest.mark.parametrize("num_blocks", [8**k + d for k in range(1, 6) for d in (-1, 0, 1)])
    @pytest.mark.parametrize("density", [0.01, 0.5, 1.0])
    def test_matches_recursive_oracle_at_depth_boundaries(self, num_blocks, density):
        rng = random.Random(num_blocks)
        n = 8 * num_blocks - 5  # a partial last block
        positions = {p for p in range(n) if rng.random() < density}
        bits = bitmap(positions, n)
        levels, size = _levels(bits)
        assert len(levels) - 1 == naive_depth(num_blocks)
        nodes = _preorder(levels)
        assert nodes == naive_tree_bytes(positions, n)
        assert size == len(nodes)  # the size known before the preorder
        assert_walks_back(bits)

    def test_matches_recursive_oracle_for_every_block_count_to_600(self):
        # every right-edge shape up to depth 3, and the first ones at depth 4
        rng = random.Random(600)
        for num_blocks in range(1, 601):
            n = 8 * num_blocks - num_blocks % 8  # the last block full or partial
            for positions in (set(range(n)), {p for p in range(n) if rng.random() < 0.3}, {n - 1}):
                assert tree_bytes(bitmap(positions, n)) == naive_tree_bytes(positions, n), (num_blocks, len(positions))


class TestRoundTrips:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2048), st.integers(0, 2**32 - 1))
    def test_bitmap_tree_bitmap(self, n, seed):
        rnd = random.Random(seed)  # a seed, as drawing each bit through hypothesis is slow
        density = rnd.choice([0.0, 0.01, 0.2, 0.5, 0.95])
        assert_walks_back(np.array([rnd.random() < density for _ in range(n)], dtype=bool))

    def test_bitmap_tree_bitmap_large(self):
        rng = np.random.default_rng(42)
        for n in (2**16, 2**16 - 5, 40000):
            assert_walks_back(rng.random(n) < 0.3)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2048), st.integers(0, 2**32 - 1))
    def test_serialize_parse(self, n, seed):
        rnd = random.Random(seed)
        positions = [p for p in range(n) if rnd.random() < 0.2]
        data = tree_bytes(bitmap(positions, n))
        bits, consumed = _walk(data + b"\xde\xad", n)
        assert np.flatnonzero(bits).tolist() == positions
        assert consumed == len(data)

    def test_parse_examples(self):
        tree, consumed = parse_tree(FIG2_TREE, 64)
        assert (tree.nodes, consumed) == (FIG2_TREE, 4)
        tree, consumed = parse_tree(b"\x00", 64)
        assert (tree.nodes, consumed) == (b"\x00", 1)

    def test_tree_to_bitmap_examples(self):
        tree, _ = parse_tree(FIG2_TREE, 64)
        assert tree_to_bitmap(tree, 64).positions() == FIG2_POSITIONS
        tree, _ = parse_tree(b"\x00", 64)
        assert tree_to_bitmap(tree, 64).positions() == []


class TestMalformedTrees:
    def test_parse_truncated(self):
        with pytest.raises(MalformedTree):
            _walk(bytes.fromhex("c20c"), 64)

    def test_parse_empty(self):
        with pytest.raises(MalformedTree):
            _walk(b"", 64)

    @pytest.mark.parametrize(
        "data, n, end",
        [
            ("", 64, 0),  # no root
            ("", 8, 0),  # no root, which would be a leaf
            ("", 0, 0),  # no root, for a bitmap of no bits
            ("c20c", 64, 2),  # the root is the twig; its second leaf is missing
            ("c20c83", 64, 3),  # its third leaf is missing
            ("c080", 80, 2),  # the root is a stem; its first twig's leaf is missing
            ("c0808040", 80, 4),  # the second twig's leaf is missing
        ],
    )
    def test_truncation_names_where_the_stream_ends(self, data, n, end):
        with pytest.raises(MalformedTree, match=f"^node stream truncated at byte {end}$"):
            _walk(bytes.fromhex(data), n)

    def test_presence_bit_names_the_node_that_holds_it(self):
        # 10 blocks, bits 0 and 72: the second twig (byte 3) also claims block 10
        assert tree_bytes(bitmap([0, 72], 80)) == bytes.fromhex("c080804080")
        with pytest.raises(MalformedTree, match="^node at byte 3: presence bit for child slot 10 past 10 slots$"):
            _walk(bytes.fromhex("c08080608080"), 80)
        with pytest.raises(MalformedTree, match="^node at byte 0: presence bit for child slot 2 past 2 slots$"):
            _walk(bytes([0b00100000, 0x01]), 16)
        # two bits past the root's 2 slots: the first is named
        with pytest.raises(MalformedTree, match="^node at byte 0: presence bit for child slot 2 past 2 slots$"):
            _walk(bytes([0b00110000, 1, 1]), 16)

    def test_trailing_nodes_name_the_tree_end(self):
        with pytest.raises(MalformedTree, match="^1 trailing node bytes after byte 1$"):
            tree_to_bitmap(OrtTree(b"\x00\xff"), 64)

    def test_to_bitmap_truncated_tree(self):
        bad = OrtTree(bytes([0b00100000]))  # claims child 3, stream ends
        with pytest.raises(MalformedTree):
            tree_to_bitmap(bad, 64)

    def test_to_bitmap_block_count_mismatch(self):
        # the tree of an 8-bit bitmap read at length 64: its root's child 2 is missing
        with pytest.raises(MalformedTree):
            _walk(tree_bytes(bitmap([1], 8)), 64)

    def test_bit_beyond_length(self):
        leaf = bytes([0b00000100])  # bit for position 5
        with pytest.raises(BitBeyondLength, match="^leaf at byte 0: set bit past position 4$"):
            _walk(leaf, 4)
        assert np.flatnonzero(_walk(leaf, 6)[0]).tolist() == [5]
        with pytest.raises(BitBeyondLength, match="^leaf at byte 0: set bit past position 0$"):
            _walk(b"\x80", 0)
        # bits for positions 6 and 7, both past 5
        with pytest.raises(BitBeyondLength, match="^leaf at byte 0: set bit past position 5$"):
            _walk(b"\x03", 5)
        # 2 blocks under a twig: the leaf of block 1, at byte 2, holds position 13
        with pytest.raises(BitBeyondLength, match="^leaf at byte 2: set bit past position 12$"):
            _walk(bytes([0xC0, 0x80, 0b00000100]), 12)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="^length must be non-negative, got -1$"):
            _walk(b"\x00", -1)
        with pytest.raises(ValueError):
            parse_tree(b"\x00", -5)
        for length in (-1, -5, -8, -9):
            with pytest.raises(ValueError):
                tree_to_bitmap(OrtTree(b"\x00"), length)


def node_levels(data, n_bits):
    """Level of each node byte of a well-formed tree, in preorder."""
    depth = naive_depth(ceil_div(n_bits, 8))
    levels = []

    def walk(level):
        value = data[len(levels)]
        levels.append(level)
        if level < depth:
            for k in range(8):
                if value & (0x80 >> k):
                    walk(level + 1)

    walk(0)
    return levels


def assert_rejected_like_oracle(data, n):
    """_walk raises what naive_parse_tree's failure names."""
    with pytest.raises(ValueError) as oracle:
        naive_parse_tree(data, n)
    expected = BitBeyondLength if "bit beyond" in str(oracle.value) else MalformedTree
    with pytest.raises(MalformedTree) as info:
        _walk(data, n)
    assert type(info.value) is expected


def walk_outcome(data, n):
    """(set positions, bytes consumed) from _walk, or the type and message it raises."""
    try:
        bits, consumed = _walk(data, n)
    except MalformedTree as exc:
        return type(exc), str(exc)
    return np.flatnonzero(bits).tolist(), consumed


def assert_walk_like_oracle(data, n, one_fault=True):
    """_walk reads data as bytes and as a view alike, and as naive_parse_tree
    does: the same positions and count, or a rejection.  With one fault in the
    data the error is also the kind the oracle's names; with several (a
    flipped presence bit shifts every node after it) the oracle names the
    first in preorder and the walk the highest."""
    outcome = walk_outcome(data, n)
    assert walk_outcome(memoryview(data), n) == outcome
    try:
        expected, consumed = naive_parse_tree(data, n)
    except ValueError as oracle:
        assert outcome[0] is (BitBeyondLength if "bit beyond" in str(oracle) else MalformedTree) or (
            not one_fault and issubclass(outcome[0], MalformedTree)
        )
        return
    assert outcome == (sorted(expected), consumed)


class TestWalkDepthBoundaries:
    # the root is a leaf (1 block), a twig (2..8), a stem (9..64), or above a stem
    @pytest.mark.parametrize("num_blocks", [1, 8, 9, 64, 65, 512, 513])
    @pytest.mark.parametrize("density", [0.0, 0.05, 0.5, 1.0])
    def test_round_trip_matches_oracle(self, num_blocks, density):
        rng = random.Random(num_blocks)
        for n in (8 * num_blocks, 8 * num_blocks - 3):
            positions = {p for p in range(n) if rng.random() < density}
            data = tree_bytes(bitmap(positions, n))
            bits, consumed = _walk(data + b"\xff", n)
            assert naive_parse_tree(data, n) == (positions, consumed)
            assert np.flatnonzero(bits).tolist() == sorted(positions)

    def fault_tree(self, num_blocks):
        """A tree under at least one stem whose stream ends with the leaf run
        of the last twig, and the preorder level of each of its bytes."""
        rng = random.Random(num_blocks)
        n = 8 * num_blocks
        positions = {p for p in range(n) if rng.random() < 0.3} | {n - 8}
        data = tree_bytes(bitmap(positions, n))
        assert tree_depth(num_blocks) >= 2
        return data, n, node_levels(data, n)

    @pytest.mark.parametrize("num_blocks", [9, 64, 65, 512, 513])
    def test_leaf_run_cut_at_end_of_stream(self, num_blocks):
        data, n, levels = self.fault_tree(num_blocks)
        depth = tree_depth(num_blocks)
        last_twig = max(i for i, lvl in enumerate(levels) if lvl == depth - 1)
        for end in range(last_twig + 1, len(data)):
            assert_rejected_like_oracle(data[:end], n)

    @pytest.mark.parametrize("num_blocks", [9, 65, 513])
    def test_presence_bit_past_last_block_on_last_twig(self, num_blocks):
        data, n, levels = self.fault_tree(num_blocks)
        depth = tree_depth(num_blocks)
        last_twig = max(i for i, lvl in enumerate(levels) if lvl == depth - 1)
        bad = bytearray(data)
        bad[last_twig] |= 0x80 >> (num_blocks % 8)  # child slot num_blocks
        assert_rejected_like_oracle(bytes(bad) + b"\x80", n)  # with a leaf byte for it

    # the last twig, the last stem, the last node one level above it, and the root of 513 blocks
    @pytest.mark.parametrize("height, num_blocks", [(1, 65), (2, 65), (3, 65), (1, 513), (2, 513), (3, 513), (4, 513)])
    def test_presence_bit_past_covered_slots_above_the_twigs(self, num_blocks, height):
        data, n, levels = self.fault_tree(num_blocks)
        level = tree_depth(num_blocks) - height
        node = max(i for i, lvl in enumerate(levels) if lvl == level)
        slots = ceil_div(num_blocks, 8 ** (height - 1))  # on the level below the node
        assert slots % 8 and node_levels(data, n)[-1] == level + height  # the node is the last of its level
        bad = bytearray(data)
        bad[node] |= 0x80 >> (slots % 8)  # child slot `slots`
        message = f"^node at byte {node}: presence bit for child slot {slots} past {slots} slots$"
        # with a chain of nodes down to one leaf for that child, and with the stream ending inside its subtree
        for tail in (b"\x80" * height, b""):
            assert_rejected_like_oracle(bytes(bad) + tail, n)
            with pytest.raises(MalformedTree, match=message):
                _walk(bytes(bad) + tail, n)

    @pytest.mark.parametrize("num_blocks", [9, 64, 65, 512, 513])
    def test_stream_ends_right_after_a_stem(self, num_blocks):
        data, n, levels = self.fault_tree(num_blocks)
        stems = [i for i, lvl in enumerate(levels) if lvl == tree_depth(num_blocks) - 2]
        for stem in (stems[0], stems[len(stems) // 2], stems[-1]):
            assert_rejected_like_oracle(data[: stem + 1], n)


class TestCompleteSubtrees:
    """Trees with complete subtrees of height 3 to 5, each of which the walk
    steps over after one compare, against the oracle."""

    # (height, bits): one complete subtree as the root, three under the root, and
    # a partial tail of 43 bits (6 blocks) under the root's last child
    WHOLE = [(3, 8**4), (3, 3 * 8**4), (4, 8**5), (4, 3 * 8**5), (5, 8**6)]
    PARTIAL = [(3, 8**4 + 43), (3, 3 * 8**4 + 43), (4, 3 * 8**5 + 43), (5, 8**6 + 43)]

    def complete_tree(self, height, n):
        """Every bit of n set, where the tree's first complete subtree of the
        height starts and its size, checked against node_levels."""
        data = tree_bytes(np.ones(n, dtype=bool))
        depth = tree_depth(ceil_div(n, 8))
        start, size = depth - height, (8 ** (height + 1) - 1) // 7
        levels = node_levels(data, n)
        assert levels[start] == depth - height
        assert min(levels[start + 1 : start + size]) > levels[start]
        assert start + size == len(data) or levels[start + size] <= levels[start]  # the subtree ends there
        # the probed bytes: its first twig and its last, which its last 8 leaves follow
        assert levels[start + height - 1] == levels[start + size - 9] == depth - 1
        return data, start, size, levels

    @pytest.mark.parametrize("height, n", WHOLE + PARTIAL)
    def test_decodes_as_the_oracle(self, height, n):
        data = self.complete_tree(height, n)[0]
        assert_walk_like_oracle(data, n)
        assert walk_outcome(data, n) == (list(range(n)), len(data))

    @pytest.mark.parametrize("height, n", WHOLE + PARTIAL)
    def test_flipped_internal_bit(self, height, n):
        data, start, size, levels = self.complete_tree(height, n)
        depth = levels[start] + height
        rng = random.Random(n)
        internal = [i for i in range(start, start + size) if levels[i] < depth]
        # the subtree's root, its first twig and its last twig (the probed bytes), and two more
        flips = [(start, 0x80), (start, 0x01), (start + height - 1, 0x80), (start + size - 9, 0x01)]
        flips += [(i, 0x80 >> rng.randrange(8)) for i in rng.sample(internal, 2)]
        for byte, bit in flips:
            bad = bytearray(data)
            bad[byte] ^= bit
            assert_walk_like_oracle(bytes(bad), n, one_fault=False)

    @pytest.mark.parametrize("height, n", WHOLE + PARTIAL)
    def test_leaf_bytes_of_zero_and_ff_still_decode(self, height, n):
        data, start, size, levels = self.complete_tree(height, n)
        depth = levels[start] + height
        leaves = [i for i in range(start, start + size) if levels[i] == depth]
        for value in (0x00, 0xFF):
            for every in (1, 7):
                changed = bytearray(data)
                for i in leaves[::every]:
                    changed[i] = value
                assert_walk_like_oracle(bytes(changed), n)
                positions = [8 * j + k for j, byte in enumerate(leaves) for k in range(8) if changed[byte] & 0x80 >> k]
                got = walk_outcome(bytes(changed), n)[0]
                assert [p for p in got if p < 8 * len(leaves)] == positions

    @pytest.mark.parametrize("height, n", WHOLE + PARTIAL)
    def test_stream_cut_inside_and_at_the_end_of_a_complete_subtree(self, height, n):
        data, start, size, _ = self.complete_tree(height, n)
        for end in (start + 1, start + height - 1, start + size // 2, start + size - 9, start + size - 1):
            assert walk_outcome(data[:end], n) == (MalformedTree, f"node stream truncated at byte {end}")
            assert_walk_like_oracle(data[:end], n)
        assert_walk_like_oracle(data[: start + size], n)  # whole when the subtree is the root, else cut

    @pytest.mark.parametrize("height, n", WHOLE + PARTIAL)
    def test_appended_bytes_are_left(self, height, n):
        data = self.complete_tree(height, n)[0]
        for tail in (b"\x00", b"\xff" * 9, bytes(range(256)) * 200):
            assert_walk_like_oracle(data + tail, n)
            assert walk_outcome(data + tail, n) == (list(range(n)), len(data))

    @pytest.mark.parametrize("height, n", PARTIAL)
    def test_complete_last_node_holds_a_bit_past_the_slots_below(self, height, n):
        # the root's last child, over 6 blocks, made a complete subtree
        data, start, size, _ = self.complete_tree(height, n)
        whole = n // 8 ** (height + 1)  # complete children before it
        node = start + whole * size
        slot = 8 * whole + 1  # the slots one level below the child cover its 6 blocks with one
        bad = data[:node] + b"\xff" * size
        assert_walk_like_oracle(bad, n, one_fault=False)  # its leaves also hold bits past the length
        message = f"node at byte {node}: presence bit for child slot {slot} past {slot} slots"
        assert walk_outcome(bad, n) == (MalformedTree, message)
        assert walk_outcome(bad + b"\xff" * 9, n) == (MalformedTree, message)


class CountingBytes(bytes):
    """bytes that count how many of them are read one at a time."""

    def __getitem__(self, index):
        if isinstance(index, int):
            self.reads += 1
        return super().__getitem__(index)


# (bits, reads): a complete subtree of height 3, 4 or 5 as the root, and four of height 5
# under the root of 2**20 bits; the loop alone reads each stem and twig, 73 to 18,725 bytes
@pytest.mark.parametrize("n, most", [(8**4, 10), (8**5, 10), (8**6, 10), (2**20, 100)])
@pytest.mark.parametrize("leaf", [0xFF, 0x7F])
def test_walk_steps_over_complete_subtrees_without_reading_each_node(n, most, leaf):
    expected = np.unpackbits(np.full(n // 8, leaf, dtype=np.uint8)).view(bool)
    data = CountingBytes(tree_bytes(expected))
    data.reads = 0
    bits, consumed = _walk(data, n)
    assert np.array_equal(bits, expected) and consumed == len(data)
    assert data.reads < most


def test_walk_caches_complete_subtrees_of_heights_three_to_five_only():
    # a root of height 6 and byte 0xFF over every block but the last: each node
    # on the path to that block is incomplete, so heights 6 down to 3 are tried
    n = 8**7
    data = tree_bytes(bitmap(range(n - 8), n))
    assert data[0] == 0xFF and tree_depth(n // 8) == 6
    _complete.cache_clear()
    bits, consumed = _walk(data, n)
    assert consumed == len(data) and np.count_nonzero(bits) == n - 8
    assert _complete.cache_info().currsize <= 3  # the runs and masks of heights 3 to 5, about 85 KB


@pytest.mark.parametrize("stride", [1, 2, 7])
def test_walk_memory_stays_within_two_bytes_per_input_byte(stride):
    # 1 MiB of zeros: every byte past the first stride repeats
    n = 1 << 20
    nodes = tree_bytes(bitmap(range(stride, n), n))
    for data in (nodes, nodes + bytes(2 * n)):  # bytes after the tree cost no memory
        _complete.cache_clear()  # the peak includes building the complete subtrees' tags and masks
        tracemalloc.start()
        try:
            bits, consumed = _walk(data, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert consumed == len(nodes)
        assert np.count_nonzero(bits) == n - stride and not bits[:stride].any()
        assert peak <= 1.35 * n


class TestParseDifferential:
    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(0, 3000),
        st.sampled_from([0.0, 0.01, 0.2, 0.9]),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["flip", "cut", "append"]),
        st.data(),
    )
    def test_mutated_tree_agrees_with_oracle(self, n, density, seed, mutation, draw):
        rng = random.Random(seed)
        positions = [p for p in range(n) if rng.random() < density]
        data = bytearray(tree_bytes(bitmap(positions, n)))
        if mutation == "flip":
            bit = draw.draw(st.integers(0, 8 * len(data) - 1))
            data[bit // 8] ^= 0x80 >> (bit % 8)
        elif mutation == "cut":
            del data[draw.draw(st.integers(0, len(data) - 1)) :]
        else:
            data += draw.draw(st.binary(min_size=1, max_size=3))
        data = bytes(data)
        try:
            expected, expected_consumed = naive_parse_tree(data, n)
        except ValueError:
            with pytest.raises((MalformedTree, BitBeyondLength)):
                _walk(data, n)
            return
        bits, consumed = _walk(data, n)
        assert consumed == expected_consumed
        assert np.flatnonzero(bits).tolist() == sorted(expected)

    @pytest.mark.parametrize("n", range(65))
    def test_every_cut_append_and_flip_of_a_leaf_or_twig_root_agrees_with_oracle(self, n):
        # up to 64 positions the root is a leaf or a twig, so the walk pops
        # leaves; the draws above reach such a tree in about 2% of examples
        for density in (0.0, 0.3, 1.0):
            rng = random.Random(n)
            positions = [p for p in range(n) if rng.random() < density]
            data = tree_bytes(bitmap(positions, n))
            cases = [data[:end] for end in range(len(data))]
            cases += [data + tail for tail in (b"\x00", b"\x80", b"\xff", b"\x80\x01", b"\xff\xff")]
            for bit in range(8 * len(data)):
                flipped = bytearray(data)
                flipped[bit // 8] ^= 0x80 >> bit % 8
                cases.append(bytes(flipped))
            for case in cases:
                assert_walk_like_oracle(case, n)


class TestStructuralInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_pruning_soundness(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randrange(1, 4000)
        positions = {p for p in range(n) if rng.random() < 0.1}
        nodes = tree_bytes(bitmap(positions, n))
        kinds = classify_nodes(nodes, n)
        assert len(kinds) == len(nodes)
        for i, (kind, value) in enumerate(kinds):
            if value == 0:
                assert i == 0 and len(kinds) == 1, "only a lone root byte may be zero"

    @pytest.mark.parametrize("seed", range(6))
    def test_serialized_size_bound(self, seed):
        rng = random.Random(200 + seed)
        n = rng.randrange(1, 60000)
        positions = {p for p in range(n) if rng.random() < 0.5}
        levels, _ = _levels(bitmap(positions, n))
        blocks = ceil_div(n, 8)
        bound = blocks + sum(8**d for d in range(len(levels) - 1))
        assert len(_preorder(levels)) <= bound
