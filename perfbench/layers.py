"""Traced replay of the ortc pipeline, for the per-layer metrics.

The replay repeats the work of `ortc.compress` and `ortc.decompress` pass by
pass through the package's public functions, and records a span around each
call: name, start, end, parent.  The `ortc bench` path is traced by swapping the
names that `ortc.cli` and `ortc.bench` call for timing wrappers while a
traced call runs.  Spans and counts stay in memory until the run writes them
out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import struct
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

# container: magic, version, flags, pass count, min run, original length
_CONTAINER_HDR = struct.Struct("<4sBBBBQ")
_FLAG_STORED = 0x01


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int
    name: str
    start_ns: int
    end_ns: int
    round: int


class Tracer:
    """Spans and per-round counts, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.rounds: list[Counter] = []
        self._open: list[int] = []
        self.last_s = 0.0  # duration of the most recent span

    def new_round(self) -> None:
        self.rounds.append(Counter())

    def count(self, name: str, value: float = 1) -> None:
        self.rounds[-1][name] += value

    def call(self, name: str, fn, *args):
        """fn(*args) inside a span; the span's seconds also go to the round's
        `<name>_s` total and its call to `<name>_calls`."""
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)  # placeholder keeps preorder ids
        self._open.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans[sid] = Span(sid, parent, name, start, end, len(self.rounds) - 1)
            self.last_s = (end - start) / 1e9
            self.count(name + "_s", self.last_s)
            self.count(name + "_calls")

    def write(self, path, summary: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"summary": summary}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


def _frame(ortc, data: bytes, stride: int, bitmap, tree):
    """Kept-byte gather, mode choice, and the frame's bytes."""
    kept = np.frombuffer(data, dtype=np.uint8)[~bitmap.bits].tobytes()
    tree_bytes = ortc.serialize_tree(tree)
    if len(kept) + len(tree_bytes) < len(data):
        frame = ortc.PassFrame(ortc.FrameMode.ORT, stride, len(data), kept, tree_bytes)
    else:
        frame = ortc.PassFrame(ortc.FrameMode.STORED, stride, len(data), data, b"")
    return frame, frame.to_bytes()


def _container(ortc, data: bytes, payload: bytes, params) -> bytes:
    if len(payload) < len(data):
        header = _CONTAINER_HDR.pack(ortc.MAGIC, ortc.VERSION, 0, params.passes, params.min_run, len(data))
        return header + payload
    header = _CONTAINER_HDR.pack(ortc.MAGIC, ortc.VERSION, _FLAG_STORED, 0, params.min_run, len(data))
    return header + data


def replay_compress(tracer: Tracer, ortc, data: bytes, params) -> bytes:
    """Pass-by-pass `compress`, one span per layer call."""
    current = data
    for stride in range(1, params.passes + 1):
        bitmap = tracer.call("codec.mark", ortc.mark_equalities, current, stride, params.min_run)
        tree = tracer.call("tree.build", ortc.bitmap_to_tree, bitmap)
        build_s = tracer.last_s
        tracer.count("tree.nodes_built", tree.node_count)
        frame, current = tracer.call("codec.frame", _frame, ortc, current, stride, bitmap, tree)
        if frame.mode == ortc.FrameMode.ORT:
            tracer.count("codec.passes_coded")
            tracer.count("codec.kept_bytes", frame.kept_len)
            tracer.count("codec.tree_bytes", len(frame.tree))
        else:
            tracer.count("codec.passes_stored")
            tracer.count("tree.build_wasted_s", build_s)
    return tracer.call("codec.frame", _container, ortc, data, current, params)


def replay_decompress(tracer: Tracer, ortc, blob: bytes) -> tuple[bytes, list]:
    """Pass-by-pass `decompress`; returns the output and the coded frames.

    Only well-formed containers reach this replay, so it keeps none of the
    checks `decompress` makes on the header.
    """
    _, _, flags, pass_count, _, _ = _CONTAINER_HDR.unpack_from(blob, 0)
    buf = blob[ortc.CONTAINER_OVERHEAD :]
    if flags & _FLAG_STORED:
        return buf, []
    coded = []
    for _ in range(pass_count):
        frame, _ = tracer.call("codec.parse", ortc.parse_frame, buf)
        buf = tracer.call("codec.decode", ortc.decode_pass, frame)
        if frame.mode == ortc.FrameMode.ORT:
            coded.append(frame)
    return buf, coded


def probe_tree_walks(tracer: Tracer, ortc, frames: list) -> None:
    """Time the two tree walks `decode_pass` makes, on the same frames, so that
    lane fill can be told apart from them."""
    for frame in frames:
        tree, _ = tracer.call("tree.walk", ortc.parse_tree, frame.tree, frame.input_len)
        tracer.call("tree.unpack", ortc.tree_to_bitmap, tree, frame.input_len)


@contextlib.contextmanager
def traced_bench(tracer: Tracer, ortc):
    """While active, the calls `ortc bench` makes into `run_bench`, the codec
    and the baselines each record a span."""
    targets = [
        (ortc.cli, "run_bench", "bench.run"),
        (ortc.bench, "compress", "codec.compress"),
        (ortc.bench, "decompress", "codec.decompress"),
        (ortc.bench, "prlc1_encode", "baselines.prlc1"),
        (ortc.bench, "prlc1_decode", "baselines.prlc1"),
        (ortc.bench, "prlc2_encode", "baselines.prlc2"),
        (ortc.bench, "prlc2_decode", "baselines.prlc2"),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for module, attr, name in targets:
            setattr(module, attr, functools.partial(tracer.call, name, getattr(module, attr)))
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


# Per-layer metrics: name -> (unit, better).  Each is a per-round total (one
# round runs every item of the workload once), reported as the median over
# rounds.
LAYER_METRICS = {
    "codec.mark_s": ("s", "lower"),
    "codec.mark_calls": ("count", "lower"),
    "codec.frame_s": ("s", "lower"),
    "codec.frame_calls": ("count", "lower"),
    "codec.parse_s": ("s", "lower"),
    "codec.parse_calls": ("count", "lower"),
    "codec.lane_s": ("s", "lower"),
    "codec.lane_calls": ("count", "lower"),
    "codec.passes_coded": ("count", "higher"),
    "codec.passes_stored": ("count", "lower"),
    "codec.kept_bytes": ("bytes", "lower"),
    "codec.tree_bytes": ("bytes", "lower"),
    "tree.build_s": ("s", "lower"),
    "tree.build_calls": ("count", "lower"),
    "tree.nodes_built": ("count", "lower"),
    "tree.build_wasted_s": ("s", "lower"),
    "tree.walk_s": ("s", "lower"),
    "tree.walk_calls": ("count", "lower"),
    "tree.unpack_s": ("s", "lower"),
    "tree.unpack_calls": ("count", "lower"),
    "baselines.prlc1_s": ("s", "lower"),
    "baselines.prlc1_calls": ("count", "lower"),
    "baselines.prlc2_s": ("s", "lower"),
    "baselines.prlc2_calls": ("count", "lower"),
    "bench.overhead_s": ("s", "lower"),
    "bench.run_calls": ("count", "lower"),
    "cli.overhead_s": ("s", "lower"),
    "cli.main_calls": ("count", "lower"),
    "trace.compress_overhead_pct": ("%", "lower"),
    "trace.decompress_overhead_pct": ("%", "lower"),
    "trace.bench_overhead_pct": ("%", "lower"),
}


def derive(totals: Counter) -> dict:
    """One round's layer metrics from its raw span totals."""
    t = totals
    return {
        **{name: t[name] for name in LAYER_METRICS},
        "codec.lane_s": t["codec.decode_s"] - t["tree.walk_s"] - t["tree.unpack_s"],
        "codec.lane_calls": t["codec.decode_calls"],
        "bench.overhead_s": t["bench.run_s"]
        - t["codec.compress_s"]
        - t["codec.decompress_s"]
        - t["baselines.prlc1_s"]
        - t["baselines.prlc2_s"],
        "cli.overhead_s": t["cli.main_s"] - t["bench.run_s"],
        "trace.compress_overhead_pct": 100.0 * (t["replay.compress_s"] / t["plain.compress_s"] - 1.0),
        "trace.decompress_overhead_pct": 100.0 * (t["replay.decompress_s"] / t["plain.decompress_s"] - 1.0),
        "trace.bench_overhead_pct": 100.0 * (t["cli.main_s"] / t["plain.bench_s"] - 1.0),
    }
