"""The top-level `ortc` namespace is the union of its submodules' `__all__`."""

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
