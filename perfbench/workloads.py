"""Seeded input generation for the three benchmark workloads.

Every input is made in code from the run's seed, so the same seed gives the
same bytes.  Item sizes are fixed per workload and only the contents depend
on the seed, which keeps the work per round the same from seed to seed.
"""

from __future__ import annotations

import numpy as np

MIB = 1 << 20
KIB = 1 << 10

# smallfiles: one file per (size, kind), sizes spread over 1..32 KiB.
SMALL_SIZES_KIB = (1, 2, 3, 4, 6, 8, 12, 16, 20, 24, 28, 32)
SMALL_KINDS = ("text", "runs", "gradient", "sparse")

_WORD_LETTERS = np.frombuffer(b"etaoinshrdlucmfwypvbgkjqxz", dtype=np.uint8)
_PUNCT = np.frombuffer(b" \n,.", dtype=np.uint8)


def _geometric_runs(rng: np.random.Generator, n: int, mean: float, values: int) -> np.ndarray:
    """Byte runs of geometric length (the given mean), each a random value below `values`."""
    count = int(n / mean * 1.5) + 16
    lengths = rng.geometric(1.0 / mean, size=count)
    while lengths.sum() < n:
        lengths = np.concatenate([lengths, rng.geometric(1.0 / mean, size=count)])
    vals = rng.integers(0, values, size=lengths.size, dtype=np.uint8)
    return np.repeat(vals, lengths)[:n]


def _sparse(rng: np.random.Generator, n: int, density: float, values: int) -> np.ndarray:
    """Zeros with about `density` of the positions set to a random nonzero value."""
    out = np.zeros(n, dtype=np.uint8)
    hits = rng.random(n) < density
    out[hits] = rng.integers(1, values, size=int(hits.sum()), dtype=np.uint8)
    return out


def _gradient(rng: np.random.Generator, n: int, step: int, values: int) -> np.ndarray:
    """A value that rises by one every `step` bytes, from a random start, wrapping."""
    start = int(rng.integers(0, values))
    return ((np.arange(n) // step + start) % values).astype(np.uint8)


def _text(rng: np.random.Generator, n: int) -> np.ndarray:
    """Word-like 7-bit text: words of 1..9 letters drawn with a skewed letter
    frequency, separated by spaces, commas, full stops and newlines."""
    weights = 1.0 / np.arange(1, _WORD_LETTERS.size + 1)
    weights /= weights.sum()
    letters = rng.choice(_WORD_LETTERS, size=n, p=weights)
    # a separator after every word; word lengths 1..9
    gaps = rng.integers(2, 11, size=n // 2 + 1)
    seps = np.cumsum(gaps)
    seps = seps[seps < n]
    letters[seps] = rng.choice(_PUNCT, size=seps.size, p=(0.8, 0.05, 0.1, 0.05))
    return letters


def _literals(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random bytes with about 2% of positions in runs of 3..8 equal bytes."""
    out = rng.integers(0, 256, size=n, dtype=np.uint8)
    lengths = rng.integers(3, 9, size=int(0.02 * n / 5.5))
    starts = rng.integers(0, n - 8, size=lengths.size)
    # position k of run j is starts[j] + k
    offsets = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    out[np.repeat(starts, lengths) + offsets] = np.repeat(out[starts], lengths)
    return out


def make_items(workload: str, seed: int, scale: float = 1.0) -> list[tuple[str, bytes]]:
    """(name, data) pairs for one workload.  `scale` shrinks every item, for
    smoke tests; the benchmark itself always runs at scale 1."""
    rng = np.random.default_rng([seed, sum(workload.encode())])
    if workload == "repeats":
        n = max(64, int(MIB * scale))
        arrays = {
            "zeros": np.zeros(n, dtype=np.uint8),
            "runs": _geometric_runs(rng, n, 16.0, 256),
            "sparse": _sparse(rng, n, 0.02, 256),
            "gradient": _gradient(rng, n, 64, 256),
        }
        return [(name, arr.tobytes()) for name, arr in arrays.items()]
    if workload == "literals":
        n = max(64, int(MIB * scale))
        return [(f"literals{i}", _literals(rng, n).tobytes()) for i in range(4)]
    if workload == "smallfiles":
        items = []
        for size_kib in SMALL_SIZES_KIB:
            n = max(16, int(size_kib * KIB * scale))
            for kind in SMALL_KINDS:
                if kind == "text":
                    arr = _text(rng, n)
                elif kind == "runs":
                    arr = _geometric_runs(rng, n, 16.0, 128)
                elif kind == "gradient":
                    arr = _gradient(rng, n, 16, 128)
                else:
                    arr = _sparse(rng, n, 0.02, 128)
                items.append((f"{size_kib:02d}k_{kind}", arr.tobytes()))
        return items
    raise ValueError(f"unknown workload {workload!r}")
