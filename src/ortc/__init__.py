"""Lossless run-length compression with a pruned 8-ary repeat-position tree.

Instead of pairing values with counts or reserving flag bytes, the codec
drops repeated bytes from the stream and appends a pruned bitmap tree that
records exactly which positions were dropped.  Multi-pass operation re-runs
the codec on its own output with a growing comparison stride, which also
squeezes the highly repetitive tree bytes of earlier passes.

The package re-exports the ``__all__`` of each submodule, so a new public
name is declared once, in its own module's ``__all__``.
"""

from . import baselines, bench, codec, errors, tree
from .baselines import *
from .bench import *
from .codec import *
from .errors import *
from .tree import *

__version__ = "0.1.0"

__all__ = ["__version__", *tree.__all__, *codec.__all__, *baselines.__all__, *bench.__all__, *errors.__all__]
