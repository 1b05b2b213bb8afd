"""Exception hierarchy shared across the codec, tree, baseline and bench layers."""

__all__ = [
    "OrtcError",
    "RootHasNoParent",
    "BadChildOrdinal",
    "ChildOutOfRange",
    "MalformedTree",
    "BitBeyondLength",
    "MalformedFrame",
    "BadMagic",
    "UnsupportedVersion",
    "LengthMismatch",
    "TooManyPasses",
    "MalformedStream",
    "UnsupportedAlphabet",
    "ZeroCompressedSize",
]


class OrtcError(Exception):
    """Base class for every error this package raises deliberately."""


class RootHasNoParent(OrtcError, ValueError):
    """parent() was asked for the parent of node 0."""


class BadChildOrdinal(OrtcError, ValueError):
    """kth_child() received a child ordinal outside 1..8."""


class ChildOutOfRange(OrtcError, ValueError):
    """kth_child() would index past the node-count bound."""


class MalformedTree(OrtcError):
    """Serialized tree bytes are truncated or inconsistent with the bitmap length."""


class BitBeyondLength(MalformedTree):
    """A leaf bit maps to a position at or past the declared input length."""


class MalformedFrame(OrtcError, ValueError):
    """Pass frame bytes are truncated, inconsistent, or undecodable."""


class BadMagic(OrtcError):
    """Container does not start with the expected magic bytes."""


class UnsupportedVersion(OrtcError):
    """Container version byte is not one this build can decode."""


class LengthMismatch(OrtcError):
    """Decoded output length disagrees with the container's original length."""


class TooManyPasses(OrtcError, ValueError):
    """Pass count exceeds the 255 limit imposed by the one-byte header field."""


class MalformedStream(OrtcError):
    """Baseline RLE stream is truncated or violates its own framing rules."""


class UnsupportedAlphabet(OrtcError, ValueError):
    """Input contains byte values the MSB-flag baseline cannot represent."""


class ZeroCompressedSize(OrtcError, ValueError):
    """Compression ratio is undefined for a zero-byte compressed size."""
