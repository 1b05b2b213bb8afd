import random

import pytest

from ortc.cli import build_parser, main
from ortc.codec import CodecParams


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompressDecompress:
    def test_file_roundtrip(self, tmp_path, capsys):
        src = tmp_path / "input.bin"
        packed = tmp_path / "packed.ortc"
        restored = tmp_path / "restored.bin"
        payload = b"\x00" * 10000 + random.Random(1).randbytes(500)
        src.write_bytes(payload)

        code, out, _ = run(capsys, "compress", str(src), str(packed))
        assert code == 0
        assert f"{len(payload)} -> {packed.stat().st_size} bytes" in out
        assert "ratio" in out

        code, _, _ = run(capsys, "decompress", str(packed), str(restored))
        assert code == 0
        assert restored.read_bytes() == payload

    def test_empty_file_ratio_convention(self, tmp_path, capsys):
        src = tmp_path / "empty"
        src.write_bytes(b"")
        code, out, _ = run(capsys, "compress", str(src), str(tmp_path / "e.ortc"))
        assert code == 0
        assert "ratio 1.000" in out

    def test_zero_passes_gives_stored_container(self, tmp_path, capsys):
        src = tmp_path / "x"
        src.write_bytes(b"\x07" * 4096)
        packed = tmp_path / "x.ortc"
        code, _, _ = run(capsys, "compress", str(src), str(packed), "--passes", "0")
        assert code == 0
        code, out, _ = run(capsys, "inspect", str(packed))
        assert code == 0
        assert "mode: stored" in out and "passes: 0" in out

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "compress", str(tmp_path / "nope"), str(tmp_path / "out"))
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("command", ["decompress", "inspect"])
    def test_missing_container_is_io_error(self, tmp_path, capsys, command):
        args = [str(tmp_path / "nope"), str(tmp_path / "out")] if command == "decompress" else [str(tmp_path / "nope")]
        code, out, err = run(capsys, command, *args)
        assert code == 1
        assert out == ""
        assert f"error: cannot read {tmp_path / 'nope'}: " in err
        assert not (tmp_path / "out").exists()

    def test_bad_passes_value(self, tmp_path, capsys):
        src = tmp_path / "x"
        src.write_bytes(b"abc")
        code, _, err = run(capsys, "compress", str(src), str(tmp_path / "o"), "--passes", "300")
        assert code == 2
        code, _, err = run(capsys, "compress", str(src), str(tmp_path / "o"), "--min-run", "0")
        assert code == 2

    def test_corrupted_magic(self, tmp_path, capsys):
        bad = tmp_path / "bad.ortc"
        bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        out_path = tmp_path / "out"
        code, _, err = run(capsys, "decompress", str(bad), str(out_path))
        assert code == 3
        assert "BadMagic" in err
        assert not out_path.exists(), "no partial output on failure"

    def test_truncated_container(self, tmp_path, capsys):
        src = tmp_path / "x"
        src.write_bytes(b"\x00" * 2000)
        packed = tmp_path / "x.ortc"
        run(capsys, "compress", str(src), str(packed))
        packed.write_bytes(packed.read_bytes()[:-3])
        out_path = tmp_path / "out"
        code, _, err = run(capsys, "decompress", str(packed), str(out_path))
        assert code == 3
        assert not out_path.exists()

    def test_failed_decompress_preserves_existing_output(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.write_bytes(b"not a container")
        target = tmp_path / "target"
        target.write_bytes(b"precious")
        code, _, _ = run(capsys, "decompress", str(bad), str(target))
        assert code == 3
        assert target.read_bytes() == b"precious"

    def test_failed_write_is_io_error_and_leaves_no_temp_file(self, tmp_path, capsys):
        src = tmp_path / "x"
        src.write_bytes(b"abc")
        target = tmp_path / "target"
        target.mkdir()  # the rename onto a directory fails after the temp file is written
        code, out, err = run(capsys, "compress", str(src), str(target))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["target", "x"]
        assert list(target.iterdir()) == []


class TestInspect:
    def test_ten_pass_listing(self, tmp_path, capsys):
        src = tmp_path / "x"
        src.write_bytes(b"\x00" * 8192)
        packed = tmp_path / "x.ortc"
        run(capsys, "compress", str(src), str(packed))
        code, out, _ = run(capsys, "inspect", str(packed))
        assert code == 0
        strides = [line.split("stride=")[1].split()[0] for line in out.splitlines() if "frame" in line]
        assert strides == [str(i) for i in range(1, 11)]
        assert "original-length: 8192" in out

    def test_malformed_is_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.write_bytes(b"ORTC\x01\x00\x05\x03" + b"\x00" * 8)  # claims 5 passes, no payload
        code, _, err = run(capsys, "inspect", str(bad))
        assert code == 3


    @pytest.mark.parametrize("command", ["decompress", "inspect"])
    def test_bad_tree_error_names_pass_and_tree_offset(self, tmp_path, capsys, command):
        src = tmp_path / "x"
        src.write_bytes(b"\x00" * 300)
        packed = tmp_path / "x.ortc"
        run(capsys, "compress", str(src), str(packed), "--passes", "1")
        packed.write_bytes(packed.read_bytes()[:-1])  # the tree is the end of the container
        args = [str(packed), str(tmp_path / "out")] if command == "decompress" else [str(packed)]
        code, _, err = run(capsys, command, *args)
        assert code == 3
        assert "MalformedFrame: pass 1: bad position tree: node stream truncated at byte 43" in err


class TestBench:
    @pytest.fixture
    def corpus_dir(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        rng = random.Random(42)
        (root / "constant.bin").write_bytes(b"\x00" * 4096)
        (root / "noise.bin").write_bytes(bytes(rng.randrange(128) for _ in range(4096)))
        (root / "runs.bin").write_bytes(
            b"".join(bytes([rng.randrange(90)]) * rng.randrange(1, 40) for _ in range(300))
        )
        return root

    def test_three_file_report(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "bench", str(corpus_dir))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2 + 3  # header, separator, one row per file
        assert lines[0].startswith("| # | Item | ort | prlc2 |")

    def test_csv_parses_and_is_deterministic(self, corpus_dir, capsys):
        code, first, _ = run(capsys, "bench", str(corpus_dir), "--format", "csv")
        assert code == 0
        code, second, _ = run(capsys, "bench", str(corpus_dir), "--format", "csv")
        assert first == second
        import csv
        import io

        rows = list(csv.reader(io.StringIO(first)))
        assert rows[0] == ["index", "item", "codec", "uncompressed", "compressed", "cr"]
        assert len(rows) == 1 + 3 * 4  # header + 3 files x 4 codecs
        assert all(len(r) == 6 for r in rows)

    def test_alphabet_errors_inline(self, tmp_path, capsys):
        root = tmp_path / "c"
        root.mkdir()
        (root / "wide.bin").write_bytes(bytes([0xC8] * 100))
        (root / "low.bin").write_bytes(bytes([0x05] * 100))
        code, out, _ = run(capsys, "bench", str(root), "--codecs", "prlc2", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert any("UnsupportedAlphabet" in line for line in lines)
        assert any("low.bin,prlc2,100" in line for line in lines)

    def test_empty_directory(self, tmp_path, capsys):
        root = tmp_path / "empty"
        root.mkdir()
        code, _, err = run(capsys, "bench", str(root))
        assert code == 1

    def test_missing_directory(self, tmp_path, capsys):
        code, _, _ = run(capsys, "bench", str(tmp_path / "nope"))
        assert code == 1

    def test_unreadable_corpus(self, corpus_dir, capsys, monkeypatch):
        # patched, since permission bits do not stop a read by root
        def fail(root):
            raise PermissionError(13, "Permission denied", str(root / "noise.bin"))

        monkeypatch.setattr("ortc.cli.load_corpus", fail)
        code, out, err = run(capsys, "bench", str(corpus_dir))
        assert code == 1
        assert out == ""
        assert err == f"error: cannot read corpus: [Errno 13] Permission denied: '{corpus_dir / 'noise.bin'}'\n"

    def test_unknown_codec(self, corpus_dir, capsys):
        code, _, err = run(capsys, "bench", str(corpus_dir), "--codecs", "zstd")
        assert code == 2

    def test_codec_list_checked_before_the_corpus(self, tmp_path, capsys):
        for codecs in ("zstd", "ort,ort"):
            code, _, err = run(capsys, "bench", str(tmp_path / "nope"), "--codecs", codecs)
            assert code == 2
            assert "codec '" in err

    def test_empty_codec_list(self, corpus_dir, tmp_path, capsys):
        for directory in (corpus_dir, tmp_path / "nope"):  # checked before the corpus is read
            code, out, err = run(capsys, "bench", str(directory), "--codecs", ",")
            assert code == 2
            assert out == ""
            assert err == "error: no codecs selected\n"

    def test_repeated_codec(self, corpus_dir, capsys):
        code, out, err = run(capsys, "bench", str(corpus_dir), "--codecs", "ort,prlc2,ort", "--format", "csv")
        assert code == 2
        assert out == ""
        assert "'ort'" in err

    def test_identical_invocations_identical_outputs(self, corpus_dir, tmp_path, capsys):
        packed1 = tmp_path / "a.ortc"
        packed2 = tmp_path / "b.ortc"
        src = corpus_dir / "runs.bin"
        run(capsys, "compress", str(src), str(packed1))
        run(capsys, "compress", str(src), str(packed2))
        assert packed1.read_bytes() == packed2.read_bytes()


class TestParser:
    @pytest.mark.parametrize("argv", [["compress", "in", "out"], ["bench", "corpus"]], ids=["compress", "bench"])
    def test_codec_defaults_come_from_codec_params(self, argv):
        args = build_parser().parse_args(argv)
        assert (args.passes, args.min_run) == (CodecParams().passes, CodecParams().min_run)


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = tmp_path / "f"
        src.write_bytes(b"\x01" * 100)
        # the checkout's package, whether or not ortc is installed
        checkout_src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(filter(None, [checkout_src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "ortc", "compress", str(src), str(tmp_path / "f.ortc")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert result.returncode == 0
        assert "ratio" in result.stdout

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
