"""Command-line interface: compress, decompress, inspect, bench.

Exit codes: 0 success, 1 I/O failure, 2 bad parameters, 3 malformed input
container.  Output files are written to a temp file and renamed into place so
a failing command never leaves partial output behind.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile
from pathlib import Path

from .bench import CODEC_ORDER, load_corpus, render_report, run_bench
from .codec import CodecParams, FrameMode, compress, decompress, inspect_container
from .errors import OrtcError, TooManyPasses

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_BAD_CONTAINER = 3


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_atomic(path: Path, data: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _params(args: argparse.Namespace) -> CodecParams:
    return CodecParams(passes=args.passes, min_run=args.min_run)


def cmd_compress(args: argparse.Namespace) -> int:
    try:
        params = _params(args)
    except (TooManyPasses, ValueError) as exc:
        return _fail(EXIT_USAGE, str(exc))
    try:
        data = Path(args.input).read_bytes()
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read {args.input}: {exc}")
    blob = compress(data, params)
    try:
        _write_atomic(Path(args.output), blob)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write {args.output}: {exc}")
    ratio = 1.0 if not data else len(data) / len(blob)
    print(f"{args.input}: {len(data)} -> {len(blob)} bytes, ratio {ratio:.3f}")
    return EXIT_OK


def cmd_decompress(args: argparse.Namespace) -> int:
    try:
        blob = Path(args.input).read_bytes()
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read {args.input}: {exc}")
    try:
        data = decompress(blob)
    except OrtcError as exc:
        return _fail(EXIT_BAD_CONTAINER, f"{args.input}: {type(exc).__name__}: {exc}")
    try:
        _write_atomic(Path(args.output), data)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write {args.output}: {exc}")
    print(f"{args.output}: {len(data)} bytes")
    return EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    try:
        blob = Path(args.input).read_bytes()
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read {args.input}: {exc}")
    try:
        info = inspect_container(blob)
    except OrtcError as exc:
        return _fail(EXIT_BAD_CONTAINER, f"{args.input}: {type(exc).__name__}: {exc}")
    print(f"version: {info.version}")
    print(f"mode: {'stored' if info.stored else 'ort'}")
    print(f"passes: {info.pass_count}")
    print(f"min-run: {info.min_run}")
    print(f"original-length: {info.orig_len}")
    for frame in info.frames:
        mode = "stored" if frame.mode == FrameMode.STORED else "ort"
        print(
            f"frame {frame.pass_index}: mode={mode} stride={frame.stride} "
            f"input={frame.input_len} kept={frame.kept_len} tree={frame.tree_len}"
        )
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        params = _params(args)
    except (TooManyPasses, ValueError) as exc:
        return _fail(EXIT_USAGE, str(exc))
    codecs = tuple(name.strip() for name in args.codecs.split(",") if name.strip())
    for i, name in enumerate(codecs):
        if name not in CODEC_ORDER:
            return _fail(EXIT_USAGE, f"unknown codec {name!r} (choose from {', '.join(CODEC_ORDER)})")
        if name in codecs[:i]:
            return _fail(EXIT_USAGE, f"codec {name!r} given twice")
    if not codecs:
        return _fail(EXIT_USAGE, "no codecs selected")

    root = Path(args.directory)
    if not root.is_dir():
        return _fail(EXIT_IO, f"{args.directory} is not a directory")
    try:
        corpus = load_corpus(root)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read corpus: {exc}")
    if not corpus:
        return _fail(EXIT_IO, f"no files in {args.directory}")

    rows = run_bench(corpus, codecs, params)
    sys.stdout.write(render_report(rows, args.format))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ortc",
        description="Repeat-tree run-length codec and compression-ratio bench harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p: argparse.ArgumentParser) -> None:
        p.add_argument("--passes", type=int, default=10, help="recursive passes (default 10)")
        p.add_argument("--min-run", type=int, default=3, help="minimum chain length to dedup (default 3)")

    p = sub.add_parser("compress", help="compress a file")
    p.add_argument("input")
    p.add_argument("output")
    add_params(p)
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="restore a compressed file")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("inspect", help="show container structure")
    p.add_argument("input")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("bench", help="compression-ratio report over a directory of files")
    p.add_argument("directory")
    p.add_argument("--codecs", default=",".join(CODEC_ORDER), help="comma-separated codec list")
    p.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    add_params(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
