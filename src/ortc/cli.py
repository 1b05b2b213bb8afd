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

from .bench import CODEC_ORDER, check_codecs, load_corpus, render_report, run_bench
from .codec import CodecParams, compress, decompress, inspect_container
from .errors import OrtcError

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_BAD_CONTAINER = 3


class _Failure(Exception):
    """A failed command: its exit code and the message for stderr."""


def _read_input(args: argparse.Namespace, decode=bytes):
    """decode(the input file's bytes); an unreadable file exits 1 and an OrtcError exits 3."""
    try:
        blob = Path(args.input).read_bytes()
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot read {args.input}: {exc}") from exc
    try:
        return decode(blob)
    except OrtcError as exc:
        raise _Failure(EXIT_BAD_CONTAINER, f"{args.input}: {type(exc).__name__}: {exc}") from exc


def _write_atomic(name: str, data: bytes) -> None:
    path = Path(name)
    try:
        fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", prefix=path.name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot write {name}: {exc}") from exc


def _params(args: argparse.Namespace) -> CodecParams:
    try:
        return CodecParams(passes=args.passes, min_run=args.min_run)
    except ValueError as exc:
        raise _Failure(EXIT_USAGE, str(exc)) from exc


def cmd_compress(args: argparse.Namespace) -> int:
    params = _params(args)
    data = _read_input(args)
    blob = compress(data, params)
    _write_atomic(args.output, blob)
    ratio = 1.0 if not data else len(data) / len(blob)
    print(f"{args.input}: {len(data)} -> {len(blob)} bytes, ratio {ratio:.3f}")
    return EXIT_OK


def cmd_decompress(args: argparse.Namespace) -> int:
    data = _read_input(args, decompress)
    _write_atomic(args.output, data)
    print(f"{args.output}: {len(data)} bytes")
    return EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    info = _read_input(args, inspect_container)
    print(f"version: {info.version}")
    print(f"mode: {'stored' if info.stored else 'ort'}")
    print(f"passes: {info.pass_count}")
    print(f"min-run: {info.min_run}")
    print(f"original-length: {info.orig_len}")
    for frame in info.frames:
        print(
            f"frame {frame.pass_index}: mode={frame.mode.name.lower()} stride={frame.stride} "
            f"input={frame.input_len} kept={frame.kept_len} tree={frame.tree_len}"
        )
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    codecs = tuple(name.strip() for name in args.codecs.split(",") if name.strip())
    params = _params(args)
    try:
        check_codecs(codecs)
    except ValueError as exc:
        raise _Failure(EXIT_USAGE, str(exc)) from exc

    root = Path(args.directory)
    if not root.is_dir():
        raise _Failure(EXIT_IO, f"{args.directory} is not a directory")
    try:
        corpus = load_corpus(root)
    except OSError as exc:
        raise _Failure(EXIT_IO, f"cannot read corpus: {exc}") from exc
    if not corpus:
        raise _Failure(EXIT_IO, f"no files in {args.directory}")

    rows = run_bench(corpus, codecs, params)
    sys.stdout.write(render_report(rows, args.format))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ortc",
        description="Repeat-tree run-length codec and compression-ratio bench harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = CodecParams()

    def add_params(p: argparse.ArgumentParser) -> None:
        p.add_argument("--passes", type=int, default=defaults.passes, help="recursive passes (default %(default)s)")
        p.add_argument(
            "--min-run", type=int, default=defaults.min_run, help="minimum chain length to dedup (default %(default)s)"
        )

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
    try:
        return args.func(args)
    except _Failure as exc:
        code, message = exc.args
        print(f"error: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
