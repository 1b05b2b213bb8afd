"""Pruned 8-ary repetition tree over a per-position repeat bitmap.

The conceptual complete tree is array-indexed like an 8-ary heap: node 0 is
the root, the k-th child of node r lives at 8r + k, and the parent of r at
floor((r-1)/8).  The serialized form stores only *present* nodes, depth-first
in preorder:

* leaf bytes cover 8 consecutive bitmap positions; bit i (MSB-first) of leaf
  j is bitmap position 8j + i,
* internal bytes are child-presence masks; bit k-1 (MSB-first) says the k-th
  child subtree holds at least one set bit,
* subtrees with no set bits are pruned entirely.  The root byte is always
  written, even when zero, so an empty tree is the single byte 0x00.

Depth is counted in internal levels over 8-bit blocks: numBlocks =
ceil(N / 8) leaves need the smallest d with 8**d >= numBlocks.

Building goes level by level.  The leaf bytes are packbits of the bitmap and
each level above is packbits of (level below != 0), so the pruned size is
known before any node is ordered.  In the full tree the levels describe,
only a level's last node can head an incomplete subtree, and it has no
younger sibling, so child k of the node at full-tree preorder index a on
level l sits at a + 1 + k * (8**(depth - l) - 1) / 7.  One scatter per level
writes every slot there, and after the root, always written, one boolean
gather of the nonzero bytes yields the present nodes in preorder, unsorted.

Walking counts heights, the levels below a node: leaves 0, twigs 1, stems 2,
the root the depth.  The loop pops heights from the root's down to the stems,
tags each internal node's byte with its height in a bytearray (leaf bytes keep
0), and steps over a stem's twigs, each directly followed by its
popcount(mask) leaf bytes, tagging only the twig; a root that is a leaf or a
twig pushes its leaves, which are stepped over.  After the loop one rule
rebuilds every level, root first, with the bitmap one more level below the
leaves: the level at height h covers ceil(N / 8**(h+1)) slots and is one
boolean scatter of the bytes tagged h (preorder lists a level in slot order)
where the unpacked level above has presence bits.  Only a level's last node
can reach past the slots below it, so one test of it bounds each level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import BadChildOrdinal, BitBeyondLength, ChildOutOfRange, MalformedTree, RootHasNoParent

__all__ = [
    "RepeatBitmap",
    "OrtTree",
    "parent",
    "kth_child",
    "tree_depth",
    "bitmap_to_tree",
    "tree_to_bitmap",
    "serialize_tree",
    "parse_tree",
]

FANOUT = 8

# 1 + popcount(byte): the bytes from a twig to the node after it, the twig and
# its leaves, or one more than an internal node's child count.
_SKIP = bytes(1 + bin(byte).count("1") for byte in range(256))


def parent(r: int) -> int:
    """Array index of the parent of node r; node 0 has none."""
    if r == 0:
        raise RootHasNoParent("node 0 is the root")
    if r < 0:
        raise ValueError(f"node index must be non-negative, got {r}")
    return (r - 1) // FANOUT


def kth_child(r: int, k: int, n: int) -> int:
    """Array index of the k-th child (k in 1..8) of node r, bounded by node count n."""
    if not 1 <= k <= FANOUT:
        raise BadChildOrdinal(f"child ordinal must be in 1..8, got {k}")
    if r < 0:
        raise ValueError(f"node index must be non-negative, got {r}")
    c = FANOUT * r + k
    if c > n:
        raise ChildOutOfRange(f"child {k} of node {r} is {c}, past node count {n}")
    return c


def tree_depth(num_blocks: int) -> int:
    """Number of internal levels needed above num_blocks leaf blocks.

    Smallest d >= 0 with 8**d >= num_blocks; 0 means the lone leaf is the root.
    """
    if num_blocks < 1:
        raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
    # 8**d >= n exactly when 3*d >= (n - 1).bit_length()
    return -(-(num_blocks - 1).bit_length() // 3)


class RepeatBitmap:
    """One bit per input position; a set bit marks a byte dropped as a repeat.

    Wraps an immutable boolean array.  Position p set means the input byte at
    p equals the byte one stride earlier and was elided from the kept stream.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: Iterable[bool] | np.ndarray):
        arr = np.array(bits, dtype=bool, copy=True)
        if arr.ndim != 1:
            raise ValueError("bitmap must be one-dimensional")
        arr.setflags(write=False)
        self._bits = arr

    @classmethod
    def from_positions(cls, positions: Iterable[int], length: int) -> "RepeatBitmap":
        arr = np.zeros(length, dtype=bool)
        pos = np.fromiter(positions, dtype=np.int64)
        if pos.size:
            if pos.min() < 0 or pos.max() >= length:
                raise ValueError("position outside bitmap length")
            arr[pos] = True
        return cls(arr)

    @property
    def bits(self) -> np.ndarray:
        return self._bits

    def __len__(self) -> int:
        return self._bits.size

    @property
    def count(self) -> int:
        """Number of set bits."""
        return int(self._bits.sum())

    def positions(self) -> list[int]:
        return [int(p) for p in np.flatnonzero(self._bits)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RepeatBitmap):
            return NotImplemented
        return self._bits.size == other._bits.size and bool(np.array_equal(self._bits, other._bits))

    def __repr__(self) -> str:
        return f"RepeatBitmap(length={len(self)}, set={self.positions()!r})"


@dataclass(frozen=True)
class OrtTree:
    """Pruned repetition tree in its serialized (preorder) node layout.

    num_blocks: ceil(N/8) leaf blocks the tree spans (0 for an empty bitmap).
    depth: internal levels above the leaves.
    nodes: one byte per present node, depth-first preorder.
    """

    num_blocks: int
    depth: int
    nodes: bytes

    def __post_init__(self) -> None:
        if self.num_blocks < 0:
            raise ValueError("num_blocks must be non-negative")
        if self.depth != tree_depth(max(self.num_blocks, 1)):
            raise ValueError(f"depth {self.depth} wrong for {self.num_blocks} blocks")
        if not self.nodes:
            raise ValueError("a tree serializes to at least its root byte")

    @property
    def node_count(self) -> int:
        return len(self.nodes)


def _levels(bits: np.ndarray) -> tuple[list[np.ndarray], int]:
    """Every node byte of the complete tree, root level first, and the size
    in bytes of its pruned preorder form: the present nodes, plus the root
    when it is zero."""
    levels = [np.packbits(bits) if bits.size else np.zeros(1, dtype=np.uint8)]  # leaf bytes, MSB-first
    while levels[0].size > 1:
        levels.insert(0, np.packbits(levels[0] != 0))
    size = sum(np.count_nonzero(level) for level in levels) + int(levels[0][0] == 0)
    return levels, size


def _preorder(levels: list[np.ndarray]) -> bytes:
    """The present nodes of _levels' tree in depth-first preorder."""
    depth = len(levels) - 1
    full = np.empty(sum(level.size for level in levels), dtype=np.uint8)  # every slot in preorder, the root's unset
    at = np.zeros(1, dtype=np.intp)  # the full-tree preorder index of each slot of the level
    for level, nodes in enumerate(levels[1:]):
        span = (8 ** (depth - level) - 1) // 7  # nodes in a child's complete subtree
        at = (at[:, None] + np.arange(1, 1 + 8 * span, span)).reshape(-1)[: nodes.size]
        full[at] = nodes
    return levels[0].tobytes() + full[1:][full[1:] != 0].tobytes()  # the root, written even when zero


def bitmap_to_tree(bitmap: RepeatBitmap) -> OrtTree:
    """Build the pruned presence tree for a repeat bitmap."""
    bits = bitmap.bits
    levels, _ = _levels(bits)
    return OrtTree(-(-bits.size // 8), len(levels) - 1, _preorder(levels))


def _walk(data: bytes | memoryview, length: int) -> tuple[np.ndarray, int]:
    """Read the tree for a `length`-bit bitmap from the front of data.

    Returns (the bitmap as a bool array, bytes consumed); trailing bytes are
    left for the caller.  Raises MalformedTree on truncation or a presence bit
    pointing past the slots its level covers, and BitBeyondLength on a leaf bit
    at or past `length`.
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    depth = tree_depth(max(-(-length // 8), 1))
    # the height of each internal node byte, 0 per leaf; the loop reads no more bytes than the full tree has
    tags = bytearray(min(len(data), (8 ** (depth + 1) - 1) // 7))
    pos, stack = 0, [depth]
    try:
        while stack:
            height = stack.pop()
            if not height:  # a leaf, on the stack only when the root is a leaf or a twig
                pos += 1
                continue
            tags[pos] = height
            count = _SKIP[data[pos]] - 1
            pos += 1
            if height == 2:  # a stem: each twig, then its popcount(mask) leaf bytes
                for _ in range(count):
                    tags[pos] = 1
                    pos += _SKIP[data[pos]]
            else:
                stack += [height - 1] * count
    except IndexError:
        pos += 1  # the node byte at pos is missing
    cut = pos > len(data)  # the stream ended early: a level short of nodes raises, unless a bad bit above it does
    arr = np.frombuffer(data, dtype=np.uint8, count=min(pos, len(data)))
    kinds = np.frombuffer(tags, dtype=np.uint8, count=arr.size)
    bits, size = np.ones(1, dtype=bool), 1  # presence bits over the root's one slot; the root is always written
    for height in range(depth, -1, -1):
        below = -(-length // FANOUT**height)  # slots the level below covers, the bitmap's below the leaves
        at = kinds == height
        if cut and np.count_nonzero(at) < np.count_nonzero(bits[:size]):
            raise MalformedTree(f"node stream truncated at byte {len(data)}")
        nodes = np.zeros(size, dtype=np.uint8)
        nodes[bits[:size]] = arr[at]
        # only the level's last node can hold bits for slots at or past `below`
        past = int(nodes[-1]) & 0xFF >> below - 8 * (size - 1)
        if past:
            byte = int(np.flatnonzero(at)[-1])
            if height:
                slot = 8 * size - past.bit_length()
                raise MalformedTree(f"node at byte {byte}: presence bit for child slot {slot} past {below} slots")
            raise BitBeyondLength(f"leaf at byte {byte}: set bit past position {length}")
        if not height:
            del at, tags, kinds, bits  # the leaf mask, tags and presence bits, freed before the bitmap is unpacked
        bits, size = np.unpackbits(nodes).view(bool), below  # after the leaves, the bitmap
    return bits[:length], pos


def tree_to_bitmap(tree: OrtTree, length: int) -> RepeatBitmap:
    """Invert bitmap_to_tree for a bitmap of the given length."""
    bits, consumed = _walk(tree.nodes, length)  # first, so a negative length raises ValueError
    num_blocks = -(-length // 8)
    if tree.num_blocks != num_blocks:
        raise MalformedTree(f"tree spans {tree.num_blocks} blocks, length {length} needs {num_blocks}")
    if consumed != len(tree.nodes):
        raise MalformedTree(f"{len(tree.nodes) - consumed} trailing node bytes after byte {consumed}")
    return RepeatBitmap(bits)


def serialize_tree(tree: OrtTree) -> bytes:
    """Preorder node bytes; already the storage layout, so this is the identity."""
    return tree.nodes


def parse_tree(data: bytes, length: int) -> tuple[OrtTree, int]:
    """Read one tree for an input of `length` bytes from the front of data.

    The tree is self-delimiting given the length; trailing bytes are left for
    the caller.  Returns the tree and the number of bytes consumed.
    """
    num_blocks = -(-length // 8)
    _, consumed = _walk(data, length)
    return OrtTree(num_blocks, tree_depth(max(num_blocks, 1)), bytes(data[:consumed])), consumed
