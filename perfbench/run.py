#!/usr/bin/env python3
"""End-to-end benchmark for ortc.

    python3 perfbench/run.py --workload {repeats,literals,smallfiles} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/` and the independent oracle from `tests/oracles.py`.  Inputs are made
from the seed (see workloads.py).  One process and one thread run a closed
loop of rounds until S seconds have passed (at least MIN_ROUNDS rounds); a
round compresses and decompresses every item once, timing each call, then
runs `ortc bench DIR --format csv` over the items, in process.

Every output is checked outside the timed region: round trips, the container
size bound, byte identity with the oracle on a fixed sample, and the bench
CSV.  The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones from a traced
replay (layers.py), and the spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
from workloads import make_items  # noqa: E402

WORKLOADS = ("repeats", "literals", "smallfiles")
MIN_ROUNDS = 3
SETUP_STARTS = 7  # fresh interpreters per run; setup_s is their median
ORACLE_BYTES = 8192  # prefix of each sampled item checked against the oracle
# every k-th item in name order; 5 steps through all four smallfiles kinds
ORACLE_EVERY = {"repeats": 1, "literals": 1, "smallfiles": 5}
MB = 1e6

SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); import ortc; "
    "d = bytes(24) + bytes(range(40)); "
    "sys.exit(ortc.decompress(ortc.compress(d)) != d)"
)


class CheckFailed(Exception):
    """An output broke one of the benchmark's correctness properties."""


def load_program():
    """Import ortc from this checkout's src/ and the oracle from its tests/."""
    if not (SRC / "ortc" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        sys.exit(f"error: {ROOT} holds no src/ortc package or tests/oracles.py; run from a source checkout")
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    import ortc
    import ortc.bench
    import ortc.cli
    import oracles

    if Path(ortc.__file__).resolve().parent != SRC / "ortc":
        sys.exit(f"error: imported ortc from {ortc.__file__}, not from {SRC}")
    return ortc, oracles


def measure_setup(starts: int) -> float:
    """Median wall time for a fresh interpreter to import ortc and finish a
    first 64-byte round trip."""
    code = SETUP_CODE.format(src=str(SRC))
    times = []
    for _ in range(starts):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            check=True,
            timeout=60,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def check_oracle(ortc, oracles, workload: str, items) -> None:
    """A fixed sample of inputs compresses to the oracle's bytes, and the
    oracle decodes them."""
    params = ortc.CodecParams()
    for _, data in items[:: ORACLE_EVERY[workload]]:
        sample = data[:ORACLE_BYTES]
        blob = ortc.compress(sample, params)
        if blob != oracles.naive_compress(sample, params.passes, params.min_run):
            raise CheckFailed(f"compress differs from naive_compress on a {len(sample)}-byte sample")
        if oracles.naive_decompress(blob) != sample:
            raise CheckFailed("naive_decompress does not restore the sample")


def check_bench_csv(ortc, text: str, items, blobs, eight_bit) -> None:
    """Every row verified, with a ratio; ort sizes match the library's."""
    rows = list(csv.DictReader(io.StringIO(text)))
    codecs = ortc.bench.CODEC_ORDER
    if len(rows) != len(items) * len(codecs):
        raise CheckFailed(f"bench printed {len(rows)} rows for {len(items)} items")
    for k, row in enumerate(rows):
        name, data = items[k // len(codecs)]
        codec = codecs[k % len(codecs)]
        if (row["index"], row["item"], row["codec"]) != (str(k // len(codecs) + 1), name, codec):
            raise CheckFailed(f"bench row {k} out of order: {row}")
        if int(row["uncompressed"]) != len(data):
            raise CheckFailed(f"bench row {k} has the wrong input size: {row}")
        if codec == "prlc2" and eight_bit[k // len(codecs)]:
            # prlc2 reserves the high bit; the row must say so, not fail
            if row["cr"] != "UnsupportedAlphabet" or row["compressed"]:
                raise CheckFailed(f"prlc2 accepted 8-bit input: {row}")
            continue
        size = int(row["compressed"])
        if row["cr"] != f"{len(data) / size:.3f}":
            raise CheckFailed(f"bench row {k} has no ratio: {row}")
        expected = {"ort": len(blobs[k // len(codecs)]), "stored": len(data) + ortc.CONTAINER_OVERHEAD}
        if codec in expected and size != expected[codec]:
            raise CheckFailed(f"bench {codec} size {size}, library gives {expected[codec]}")


def run_cli_bench(ortc, corpus_dir: Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ortc.cli.main(["bench", str(corpus_dir), "--format", "csv"])
    if code != 0:
        raise CheckFailed(f"ortc bench exited with {code}")
    return out.getvalue()


def peak_mb(ortc, items, blobs) -> tuple[float, float]:
    """Largest tracemalloc peak during one compress, and one decompress, of
    any item.  A pass of its own: tracing slows every allocation."""
    peak_c = peak_d = 0
    tracemalloc.start()
    try:
        for (_, data), blob in zip(items, blobs):
            tracemalloc.reset_peak()
            ortc.compress(data)
            peak_c = max(peak_c, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            ortc.decompress(blob)
            peak_d = max(peak_d, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return peak_c / MB, peak_d / MB


class Loop:
    """Closed-loop rounds over one workload's items, with outputs checked
    outside the timed calls."""

    def __init__(self, ortc, items, corpus_dir: Path, tracer=None) -> None:
        self.ortc = ortc
        self.items = items
        self.corpus_dir = corpus_dir
        self.tracer = tracer
        self.params = ortc.CodecParams()
        self.compress_s = [[] for _ in items]
        self.decompress_s = [[] for _ in items]
        self.bench_s: list[float] = []
        self.blobs: list[bytes | None] = [None] * len(items)
        self.eight_bit = [max(data, default=0) >= 128 for _, data in items]
        self.attempted = 0
        self.failed = 0

    def _op(self, fn, *args):
        """(result, seconds) of one operation, or (None, None) if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except self.ortc.OrtcError:
            self.failed += 1
            return None, None
        return result, time.perf_counter() - t0

    def round(self) -> None:
        ortc, tracer = self.ortc, self.tracer
        if tracer is not None:
            tracer.new_round()
        for i, (_, data) in enumerate(self.items):
            blob, dt = self._op(ortc.compress, data, self.params)
            if blob is not None:
                self.compress_s[i].append(dt)
                if len(blob) > len(data) + ortc.CONTAINER_OVERHEAD:
                    raise CheckFailed(f"item {i}: container of {len(blob)} bytes for {len(data)} input bytes")
                if self.blobs[i] is None:
                    self.blobs[i] = blob
                elif blob != self.blobs[i]:
                    raise CheckFailed(f"item {i}: compress is not deterministic")
            if self.blobs[i] is None:
                continue
            out, dt = self._op(ortc.decompress, self.blobs[i])
            if out is not None:
                self.decompress_s[i].append(dt)
                if out != data:
                    raise CheckFailed(f"item {i}: round trip differs from the input")
                if tracer is not None:
                    self._trace_item(data, i)
        self._bench()

    def _bench(self) -> None:
        self.attempted += 1
        t0 = time.perf_counter()
        text = run_cli_bench(self.ortc, self.corpus_dir)
        self.bench_s.append(time.perf_counter() - t0)
        check_bench_csv(self.ortc, text, self.items, self.blobs, self.eight_bit)
        if self.tracer is not None:
            self.tracer.count("plain.bench_s", self.bench_s[-1])
            with layers.traced_bench(self.tracer, self.ortc):
                text = self.tracer.call("cli.main", run_cli_bench, self.ortc, self.corpus_dir)
            check_bench_csv(self.ortc, text, self.items, self.blobs, self.eight_bit)

    def _trace_item(self, data: bytes, i: int) -> None:
        ortc, tracer = self.ortc, self.tracer
        tracer.count("plain.compress_s", self.compress_s[i][-1])
        tracer.count("plain.decompress_s", self.decompress_s[i][-1])
        replayed = tracer.call("replay.compress", layers.replay_compress, tracer, ortc, data, self.params)
        if replayed != self.blobs[i]:
            raise CheckFailed(f"item {i}: traced replay differs from compress")
        out, frames = tracer.call("replay.decompress", layers.replay_decompress, tracer, ortc, replayed)
        if out != data:
            raise CheckFailed(f"item {i}: traced decode replay differs from the input")
        layers.probe_tree_walks(tracer, ortc, frames)

    def run(self, seconds: float) -> int:
        gc.collect()
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            self.round()
            rounds += 1
        return rounds


def end_to_end(ortc, loop: Loop, setup_s: float) -> dict:
    items = loop.items
    total = sum(len(data) for _, data in items)
    if any(not times for times in loop.compress_s + loop.decompress_s):
        raise CheckFailed("an item never completed a timed round trip")
    compress_s = sum(statistics.median(t) for t in loop.compress_s)
    decompress_s = sum(statistics.median(t) for t in loop.decompress_s)
    peak_c, peak_d = peak_mb(ortc, items, loop.blobs)
    return {
        "setup_s": (setup_s, "s"),
        "compress_MBps": (total / MB / compress_s, "MB/s"),
        "decompress_MBps": (total / MB / decompress_s, "MB/s"),
        "ratio": (total / sum(len(b) for b in loop.blobs), "x"),
        "compress_peak_mb": (peak_c, "MB"),
        "decompress_peak_mb": (peak_d, "MB"),
        "bench_MBps": (total / MB / statistics.median(loop.bench_s), "MB/s"),
    }


def per_layer(tracer) -> dict:
    rounds = [layers.derive(totals) for totals in tracer.rounds]
    return {
        name: (statistics.median(r[name] for r in rounds), unit)
        for name, (unit, _) in layers.LAYER_METRICS.items()
    }


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """One benchmark run; returns the result object that run.py prints."""
    ortc, oracles = load_program()
    # `ortc bench` reads the corpus directory in name order
    items = sorted(make_items(workload, seed, scale))
    OUT.mkdir(exist_ok=True)
    corpus_dir = Path(tempfile.mkdtemp(prefix=f"corpus-{workload}-", dir=OUT))
    try:
        for name, data in items:
            (corpus_dir / name).write_bytes(data)
        correct = True
        tracer = layers.Tracer() if trace else None
        loop = Loop(ortc, items, corpus_dir, tracer)
        try:
            check_oracle(ortc, oracles, workload, items)
            setup_s = None if trace else measure_setup(SETUP_STARTS)
            rounds = loop.run(seconds)
            if trace:
                metrics = per_layer(tracer)
                tracer.write(OUT / f"trace-{workload}-{seed}.jsonl", {"rounds": rounds, **metrics})
            else:
                metrics = end_to_end(ortc, loop, setup_s)
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct, metrics = False, {}
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)
    return {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
