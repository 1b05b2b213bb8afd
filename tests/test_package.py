"""The top-level `ortc` namespace is the union of its submodules' `__all__`."""

import random

import numpy as np
import pytest

import ortc
from ortc import baselines, bench, codec, errors, tree

SUBMODULES = (tree, codec, baselines, bench, errors)

# Top-level names the benchmark harness in perfbench/ reads.
PERFBENCH_NAMES = {
    "CONTAINER_OVERHEAD",
    "CodecParams",
    "FrameMode",
    "MAGIC",
    "OrtcError",
    "PassFrame",
    "VERSION",
    "bitmap_to_tree",
    "compress",
    "decode_pass",
    "decompress",
    "mark_equalities",
    "parse_frame",
    "parse_tree",
    "serialize_tree",
    "tree_to_bitmap",
}


def test_no_duplicates():
    assert len(ortc.__all__) == len(set(ortc.__all__))


def test_is_version_plus_submodule_lists():
    assert ortc.__all__ == ["__version__", *(name for module in SUBMODULES for name in module.__all__)]


def test_names_are_the_submodules_objects():
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(ortc, name) is getattr(module, name), name


def test_holds_the_names_perfbench_reads():
    assert PERFBENCH_NAMES <= set(ortc.__all__)


@pytest.mark.parametrize("seed", range(4))
def test_tree_names_perfbench_reads_give_what_the_codec_writes_and_reads(seed):
    # perfbench's layer replay builds and walks each pass's tree through these
    # names, so they must match encode_pass and the walk decode_pass runs
    rng = random.Random(seed)
    data = b"".join(bytes([rng.randrange(256)]) * rng.randrange(1, 40) for _ in range(rng.randrange(1, 400)))
    for stride, min_run in ((1, 2), (1, 3), (2, 3), (5, 1)):
        frame = ortc.encode_pass(data, stride, min_run)
        assert frame.mode == ortc.FrameMode.ORT
        built = ortc.bitmap_to_tree(ortc.mark_equalities(data, stride, min_run))
        assert ortc.serialize_tree(built) == frame.tree
        assert built.node_count == len(frame.tree)
        parsed, consumed = ortc.parse_tree(frame.tree, len(data))
        assert consumed == len(frame.tree)
        assert np.array_equal(ortc.tree_to_bitmap(parsed, len(data)).bits, tree._walk(frame.tree, len(data))[0])
