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
    _levels,
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
        for nb in list(range(1, 700)) + [4095, 4096, 4097, 8192, 2**16]:
            assert tree_depth(nb) == naive_depth(nb)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            tree_depth(0)


class TestRepeatBitmap:
    def test_from_positions(self):
        bm = RepeatBitmap.from_positions([1, 3], 4)
        assert len(bm) == 4
        assert bm.positions() == [1, 3]
        assert bm.count == 2

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            RepeatBitmap.from_positions([4], 4)

    def test_equality(self):
        assert RepeatBitmap.from_positions([2], 8) == RepeatBitmap.from_positions([2], 8)
        assert RepeatBitmap.from_positions([2], 8) != RepeatBitmap.from_positions([2], 9)
        bm = RepeatBitmap.from_positions([2], 8)
        assert bm.__eq__(bm.positions()) is NotImplemented and bm != bm.positions()
        assert repr(bm) == "RepeatBitmap(length=8, set=[2])"

    def test_immutable(self):
        bm = RepeatBitmap.from_positions([0], 3)
        with pytest.raises(ValueError):
            bm.bits[1] = True

    def test_rejects_two_dimensions(self):
        with pytest.raises(ValueError, match="^bitmap must be one-dimensional$"):
            RepeatBitmap(np.zeros((2, 4), dtype=bool))


class TestOrtTree:
    @pytest.mark.parametrize(
        "fields, message",
        [
            ((-1, 0, b"\x00"), "^num_blocks must be non-negative$"),
            ((8, 2, b"\x00"), "^depth 2 wrong for 8 blocks$"),
            ((8, 1, b""), "^a tree serializes to at least its root byte$"),
        ],
        ids=["negative-blocks", "wrong-depth", "no-nodes"],
    )
    def test_rejects_bad_fields(self, fields, message):
        with pytest.raises(ValueError, match=message):
            OrtTree(*fields)


class TestBitmapToTree:
    def test_two_level_fixture(self):
        tree = bitmap_to_tree(RepeatBitmap.from_positions(FIG2_POSITIONS, 64))
        assert tree.num_blocks == 8
        assert tree.depth == 1
        assert tree.nodes == FIG2_TREE

    def test_all_zero_keeps_root(self):
        bm = RepeatBitmap.from_positions([], 64)
        tree = bitmap_to_tree(bm)
        assert tree.nodes == b"\x00"
        assert tree.node_count == 1
        assert _levels(bm.bits)[1] == 1

    def test_constant_run_fixture(self):
        tree = bitmap_to_tree(RepeatBitmap.from_positions(range(1, 16), 16))
        assert tree.nodes == bytes.fromhex("c07fff")

    def test_single_block_has_no_internal_node(self):
        tree = bitmap_to_tree(RepeatBitmap.from_positions([2, 3], 8))
        assert tree.depth == 0
        assert tree.nodes == bytes([0b00110000])

    def test_empty_bitmap(self):
        tree = bitmap_to_tree(RepeatBitmap.from_positions([], 0))
        assert tree.num_blocks == 0
        assert tree.nodes == b"\x00"

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_recursive_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(0, 3000)
        positions = {p for p in range(n) if rng.random() < rng.choice([0.02, 0.3, 0.9])}
        tree = bitmap_to_tree(RepeatBitmap.from_positions(positions, n))
        assert tree.nodes == naive_tree_bytes(positions, n)

    # one block short of, at and past each depth boundary 8**k
    @pytest.mark.parametrize("num_blocks", [8**k + d for k in range(1, 5) for d in (-1, 0, 1)])
    @pytest.mark.parametrize("density", [0.01, 0.5, 1.0])
    def test_matches_recursive_oracle_at_depth_boundaries(self, num_blocks, density):
        rng = random.Random(num_blocks)
        n = 8 * num_blocks - 5  # a partial last block
        positions = {p for p in range(n) if rng.random() < density}
        bm = RepeatBitmap.from_positions(positions, n)
        tree = bitmap_to_tree(bm)
        assert tree.depth == naive_depth(num_blocks)
        assert tree.nodes == naive_tree_bytes(positions, n)
        assert _levels(bm.bits)[1] == tree.node_count  # the size known before the preorder
        assert tree_to_bitmap(tree, n) == bm

    def test_matches_recursive_oracle_for_every_block_count_to_600(self):
        # every right-edge shape up to depth 3, and the first ones at depth 4
        rng = random.Random(600)
        for num_blocks in range(1, 601):
            n = 8 * num_blocks - num_blocks % 8  # the last block full or partial
            for positions in (set(range(n)), {p for p in range(n) if rng.random() < 0.3}, {n - 1}):
                tree = bitmap_to_tree(RepeatBitmap.from_positions(positions, n))
                assert tree.nodes == naive_tree_bytes(positions, n), (num_blocks, len(positions))


class TestRoundTrips:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2048), st.integers(0, 2**32 - 1))
    def test_bitmap_tree_bitmap(self, n, seed):
        rnd = random.Random(seed)  # a seed, as drawing each bit through hypothesis is slow
        density = rnd.choice([0.0, 0.01, 0.2, 0.5, 0.95])
        bits = np.array([rnd.random() < density for _ in range(n)], dtype=bool)
        bm = RepeatBitmap(bits)
        assert tree_to_bitmap(bitmap_to_tree(bm), n) == bm

    def test_bitmap_tree_bitmap_large(self):
        rng = np.random.default_rng(42)
        for n in (2**16, 2**16 - 5, 40000):
            bits = rng.random(n) < 0.3
            bm = RepeatBitmap(bits)
            assert tree_to_bitmap(bitmap_to_tree(bm), n) == bm

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2048), st.integers(0, 2**32 - 1))
    def test_serialize_parse(self, n, seed):
        rnd = random.Random(seed)
        positions = [p for p in range(n) if rnd.random() < 0.2]
        tree = bitmap_to_tree(RepeatBitmap.from_positions(positions, n))
        data = serialize_tree(tree)
        parsed, consumed = parse_tree(data + b"\xde\xad", n)
        assert parsed == tree
        assert consumed == tree.node_count == len(data)

    def test_parse_examples(self):
        tree, consumed = parse_tree(FIG2_TREE, 64)
        assert (tree.nodes, consumed) == (FIG2_TREE, 4)
        tree, consumed = parse_tree(b"\x00", 64)
        assert (tree.nodes, consumed) == (b"\x00", 1)

    def test_tree_to_bitmap_examples(self):
        tree, _ = parse_tree(FIG2_TREE, 64)
        assert tree_to_bitmap(tree, 64).positions() == FIG2_POSITIONS
        tree, _ = parse_tree(b"\x00", 64)
        assert tree_to_bitmap(tree, 64).count == 0


class TestMalformedTrees:
    def test_parse_truncated(self):
        with pytest.raises(MalformedTree):
            parse_tree(bytes.fromhex("c20c"), 64)

    def test_parse_empty(self):
        with pytest.raises(MalformedTree):
            parse_tree(b"", 64)

    @pytest.mark.parametrize(
        "data, n, end",
        [
            ("", 64, 0),  # no root
            ("c20c", 64, 2),  # the root is the twig; its second leaf is missing
            ("c20c83", 64, 3),  # its third leaf is missing
            ("c080", 80, 2),  # the root is a stem; its first twig's leaf is missing
            ("c0808040", 80, 4),  # the second twig's leaf is missing
        ],
    )
    def test_truncation_names_where_the_stream_ends(self, data, n, end):
        with pytest.raises(MalformedTree, match=f"^node stream truncated at byte {end}$"):
            parse_tree(bytes.fromhex(data), n)

    def test_presence_bit_names_the_node_that_holds_it(self):
        # 10 blocks, bits 0 and 72: the second twig (byte 3) also claims block 10
        assert bitmap_to_tree(RepeatBitmap.from_positions([0, 72], 80)).nodes == bytes.fromhex("c080804080")
        with pytest.raises(MalformedTree, match="^node at byte 3: presence bit for child slot 10 past 10 slots$"):
            parse_tree(bytes.fromhex("c08080608080"), 80)
        with pytest.raises(MalformedTree, match="^node at byte 0: presence bit for child slot 2 past 2 slots$"):
            parse_tree(bytes([0b00100000, 0x01]), 16)
        # two bits past the root's 2 slots: the first is named
        with pytest.raises(MalformedTree, match="^node at byte 0: presence bit for child slot 2 past 2 slots$"):
            parse_tree(bytes([0b00110000, 1, 1]), 16)

    def test_trailing_nodes_name_the_tree_end(self):
        with pytest.raises(MalformedTree, match="^1 trailing node bytes after byte 1$"):
            tree_to_bitmap(OrtTree(8, 1, b"\x00\xff"), 64)

    def test_parse_child_past_blocks(self):
        # 16 bits -> 2 blocks; a root claiming child 3 points past them
        with pytest.raises(MalformedTree):
            parse_tree(bytes([0b00100000, 0x01]), 16)

    def test_to_bitmap_truncated_tree(self):
        bad = OrtTree(8, 1, bytes([0b00100000]))  # claims child 3, stream ends
        with pytest.raises(MalformedTree):
            tree_to_bitmap(bad, 64)

    def test_to_bitmap_trailing_nodes(self):
        bad = OrtTree(8, 1, b"\x00\xff")
        with pytest.raises(MalformedTree):
            tree_to_bitmap(bad, 64)

    def test_to_bitmap_block_count_mismatch(self):
        tree = bitmap_to_tree(RepeatBitmap.from_positions([1], 8))
        with pytest.raises(MalformedTree):
            tree_to_bitmap(tree, 64)
        # an empty depth-1 tree walks cleanly at length 64, so only its block count is wrong
        with pytest.raises(MalformedTree, match="^tree spans 2 blocks, length 64 needs 8$"):
            tree_to_bitmap(OrtTree(2, 1, b"\x00"), 64)

    def test_bit_beyond_length(self):
        tree = OrtTree(1, 0, bytes([0b00000100]))  # bit for position 5
        with pytest.raises(BitBeyondLength, match="^leaf at byte 0: set bit past position 4$"):
            tree_to_bitmap(tree, 4)
        assert tree_to_bitmap(tree, 6).positions() == [5]
        with pytest.raises(BitBeyondLength, match="^leaf at byte 0: set bit past position 0$"):
            tree_to_bitmap(OrtTree(0, 0, b"\x80"), 0)
        # bits for positions 6 and 7, both past 5
        with pytest.raises(BitBeyondLength, match="^leaf at byte 0: set bit past position 5$"):
            tree_to_bitmap(OrtTree(1, 0, b"\x03"), 5)
        # 2 blocks under a twig: the leaf of block 1, at byte 2, holds position 13
        with pytest.raises(BitBeyondLength, match="^leaf at byte 2: set bit past position 12$"):
            parse_tree(bytes([0xC0, 0x80, 0b00000100]), 12)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            parse_tree(b"\x00", -5)
        for tree in (OrtTree(0, 0, b"\x00"), OrtTree(1, 0, b"\x00"), OrtTree(2, 1, b"\x00")):
            for length in (-1, -5, -8, -9):
                with pytest.raises(ValueError):
                    tree_to_bitmap(tree, length)


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
    """parse_tree raises what naive_parse_tree's failure names."""
    with pytest.raises(ValueError) as oracle:
        naive_parse_tree(data, n)
    expected = BitBeyondLength if "bit beyond" in str(oracle.value) else MalformedTree
    with pytest.raises(MalformedTree) as info:
        parse_tree(data, n)
    assert type(info.value) is expected


class TestWalkDepthBoundaries:
    # the root is a leaf (1 block), a twig (2..8), a stem (9..64), or above a stem
    @pytest.mark.parametrize("num_blocks", [1, 8, 9, 64, 65, 512, 513])
    @pytest.mark.parametrize("density", [0.0, 0.05, 0.5, 1.0])
    def test_round_trip_matches_oracle(self, num_blocks, density):
        rng = random.Random(num_blocks)
        for n in (8 * num_blocks, 8 * num_blocks - 3):
            positions = {p for p in range(n) if rng.random() < density}
            data = bitmap_to_tree(RepeatBitmap.from_positions(positions, n)).nodes
            tree, consumed = parse_tree(data + b"\xff", n)
            assert naive_parse_tree(data, n) == (positions, consumed)
            assert tree_to_bitmap(tree, n).positions() == sorted(positions)

    def fault_tree(self, num_blocks):
        """A tree under at least one stem whose stream ends with the leaf run
        of the last twig, and the preorder level of each of its bytes."""
        rng = random.Random(num_blocks)
        n = 8 * num_blocks
        positions = {p for p in range(n) if rng.random() < 0.3} | {n - 8}
        data = bitmap_to_tree(RepeatBitmap.from_positions(positions, n)).nodes
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
                parse_tree(bytes(bad) + tail, n)

    @pytest.mark.parametrize("num_blocks", [9, 64, 65, 512, 513])
    def test_stream_ends_right_after_a_stem(self, num_blocks):
        data, n, levels = self.fault_tree(num_blocks)
        stems = [i for i, lvl in enumerate(levels) if lvl == tree_depth(num_blocks) - 2]
        for stem in (stems[0], stems[len(stems) // 2], stems[-1]):
            assert_rejected_like_oracle(data[: stem + 1], n)


@pytest.mark.parametrize("stride", [1, 2, 7])
def test_walk_memory_stays_within_two_bytes_per_input_byte(stride):
    # 1 MiB of zeros: every byte past the first stride repeats
    n = 1 << 20
    nodes = bitmap_to_tree(RepeatBitmap.from_positions(range(stride, n), n)).nodes
    for data in (nodes, nodes + bytes(2 * n)):  # bytes after the tree cost no memory
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
        data = bytearray(bitmap_to_tree(RepeatBitmap.from_positions(positions, n)).nodes)
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
                parse_tree(data, n)
            return
        tree, consumed = parse_tree(data, n)
        assert consumed == expected_consumed
        assert tree_to_bitmap(tree, n).positions() == sorted(expected)

    @pytest.mark.parametrize("n", range(65))
    def test_every_cut_append_and_flip_of_a_leaf_or_twig_root_agrees_with_oracle(self, n):
        # up to 64 positions the root is a leaf or a twig, so the walk pops
        # leaves; the draws above reach such a tree in about 2% of examples
        for density in (0.0, 0.3, 1.0):
            rng = random.Random(n)
            positions = [p for p in range(n) if rng.random() < density]
            data = bitmap_to_tree(RepeatBitmap.from_positions(positions, n)).nodes
            cases = [data[:end] for end in range(len(data))]
            cases += [data + tail for tail in (b"\x00", b"\x80", b"\xff", b"\x80\x01", b"\xff\xff")]
            for bit in range(8 * len(data)):
                flipped = bytearray(data)
                flipped[bit // 8] ^= 0x80 >> bit % 8
                cases.append(bytes(flipped))
            for case in cases:
                try:
                    expected, consumed = naive_parse_tree(case, n)
                except ValueError:
                    assert_rejected_like_oracle(case, n)
                    continue
                bits, got = _walk(case, n)
                assert (sorted(expected), consumed) == (np.flatnonzero(bits).tolist(), got)


class TestStructuralInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_pruning_soundness(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randrange(1, 4000)
        positions = {p for p in range(n) if rng.random() < 0.1}
        nodes = bitmap_to_tree(RepeatBitmap.from_positions(positions, n)).nodes
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
        tree = bitmap_to_tree(RepeatBitmap.from_positions(positions, n))
        blocks = ceil_div(n, 8)
        bound = blocks + sum(8**d for d in range(tree.depth))
        assert tree.node_count <= bound
