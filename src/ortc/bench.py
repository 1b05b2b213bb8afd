"""Compression-ratio benchmarking across codecs, with CSV and markdown reports.

Every reported ratio comes from an encode that was decoded and compared back
to the original; a failed round trip or a codec error turns into an error
marker on the row instead of a number.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from .baselines import prlc1_decode, prlc1_encode, prlc2_decode, prlc2_encode
from .codec import CodecParams, compress, decompress
from .errors import OrtcError, ZeroCompressedSize

__all__ = [
    "CorpusItem",
    "BenchRow",
    "CODEC_ORDER",
    "compression_ratio",
    "load_corpus",
    "run_bench",
    "render_report",
]

# Canonical codec ordering: our codec first, then the report column order of
# the flag-based baselines, then the plain stored container.
CODEC_ORDER = ("ort", "prlc2", "prlc1", "stored")

_CSV_HEADER = "index,item,codec,uncompressed,compressed,cr"


@dataclass(frozen=True)
class CorpusItem:
    name: str
    data: bytes


@dataclass(frozen=True)
class BenchRow:
    index: int
    item: str
    codec: str
    uncompressed: int
    compressed: int | None
    ratio: float | None
    error: str | None = None


def compression_ratio(uncompressed: int, compressed: int) -> float:
    """Uncompressed size over compressed size."""
    if compressed <= 0:
        raise ZeroCompressedSize(f"compressed size must be positive, got {compressed}")
    return uncompressed / compressed


def load_corpus(directory: str | Path) -> list[CorpusItem]:
    """All regular files in a directory, as opaque byte streams, sorted by name."""
    root = Path(directory)
    return [
        CorpusItem(p.name, p.read_bytes())
        for p in sorted(root.iterdir(), key=lambda p: p.name)
        if p.is_file()
    ]


def _roundtrip(codec: str, data: bytes, params: CodecParams) -> tuple[int, bytes]:
    """Encode + decode with one codec; returns (encoded size, decoded bytes)."""
    if codec in ("ort", "stored"):  # stored is the container with no passes
        blob = compress(data, params if codec == "ort" else replace(params, passes=0))
        return len(blob), decompress(blob)
    if codec == "prlc1":
        flag, body = prlc1_encode(data)
        return 1 + len(body), prlc1_decode(flag, body)  # 1-byte flag header counts
    body = prlc2_encode(data)  # prlc2, the one codec left once check_codecs has passed
    return len(body), prlc2_decode(body)


def check_codecs(codecs: Sequence[str]) -> None:
    """Raise ValueError for an empty list, or, naming the codec, for an unknown codec or one given twice."""
    if not codecs:
        raise ValueError("no codecs selected")
    for i, codec in enumerate(codecs):
        if codec not in CODEC_ORDER:
            raise ValueError(f"unknown codec {codec!r} (choose from {', '.join(CODEC_ORDER)})")
        if codec in codecs[:i]:
            raise ValueError(f"codec {codec!r} given twice")


def run_bench(
    corpus: Sequence[CorpusItem],
    codecs: Sequence[str] = CODEC_ORDER,
    params: CodecParams | None = None,
) -> list[BenchRow]:
    """One verified row per (item, codec), in corpus x codec order."""
    if not corpus:
        raise ValueError("corpus is empty")
    check_codecs(codecs)
    if params is None:
        params = CodecParams()

    rows: list[BenchRow] = []
    for index, item in enumerate(corpus, start=1):
        for codec in codecs:
            size = error = None
            try:
                size, decoded = _roundtrip(codec, item.data, params)
                if decoded != item.data:
                    error = "RoundTripMismatch"  # the size stays, with no ratio
            except OrtcError as exc:
                error = type(exc).__name__
            ratio = None if error else compression_ratio(len(item.data), size) if item.data else 1.0
            rows.append(BenchRow(index, item.name, codec, len(item.data), size, ratio, error))
    return rows


def _csv_field(text: str) -> str:
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _render_csv(rows: Iterable[BenchRow]) -> str:
    lines = [_CSV_HEADER]
    for row in rows:
        compressed = "" if row.compressed is None else str(row.compressed)
        ratio = row.error if row.error else f"{row.ratio:.3f}"
        lines.append(
            ",".join((str(row.index), _csv_field(row.item), row.codec, str(row.uncompressed), compressed, ratio))
        )
    return "\n".join(lines) + "\n"


def _render_markdown(rows: Sequence[BenchRow]) -> str:
    # Pivot to one row per item, one ratio column per codec.
    columns = ["#", "Item"] + [c for c in CODEC_ORDER if any(r.codec == c for r in rows)]

    # keyed by corpus index: item names need not be unique
    items: dict[int, str] = {}
    cells: dict[tuple[int, str], str] = {}
    for row in rows:
        items.setdefault(row.index, row.item)
        cells[(row.index, row.codec)] = row.error if row.error else f"{row.ratio:.3f}"

    lines = ["| " + " | ".join(columns) + " |"]
    lines.append("|" + "|".join("---:" if c != "Item" else ":---" for c in columns) + "|")
    for index, name in items.items():
        cols = [str(index), " ".join(name.splitlines()).replace("|", "\\|")]  # one cell, one row
        cols.extend(cells.get((index, codec), "") for codec in columns[2:])
        lines.append("| " + " | ".join(cols) + " |")
    return "\n".join(lines) + "\n"


def render_report(rows: Sequence[BenchRow], format: str = "markdown") -> str:
    """Render rows as long-form CSV or a pivoted markdown comparison table."""
    if format == "csv":
        return _render_csv(rows)
    if format == "markdown":
        return _render_markdown(rows)
    raise ValueError(f"unknown report format {format!r}")
