import random

import pytest

from ortc.bench import (
    CODEC_ORDER,
    BenchRow,
    CorpusItem,
    compression_ratio,
    load_corpus,
    render_report,
    run_bench,
)
from ortc.codec import CONTAINER_OVERHEAD, CodecParams, compress
from ortc.errors import ZeroCompressedSize


class TestCompressionRatio:
    def test_identity(self):
        assert compression_ratio(100, 100) == 1.0

    def test_exact_quotient(self):
        assert f"{compression_ratio(65536, 9380):.3f}" == "6.987"

    def test_three_decimal_formatting(self):
        # table formatting keeps three decimals even for very large ratios
        assert f"{625.9614:.3f}" == "625.961"

    def test_zero_compressed(self):
        with pytest.raises(ZeroCompressedSize):
            compression_ratio(10, 0)


class TestRunBench:
    def test_constant_vs_stored(self):
        corpus = [CorpusItem("zeros", b"\x00" * 65536)]
        rows = run_bench(corpus, ["ort", "stored"], CodecParams())
        ort_row, stored_row = rows
        assert ort_row.codec == "ort" and stored_row.codec == "stored"
        assert ort_row.ratio > stored_row.ratio
        assert stored_row.compressed == 65536 + CONTAINER_OVERHEAD
        assert stored_row.ratio == 65536 / (65536 + CONTAINER_OVERHEAD)
        assert f"{stored_row.ratio:.4f}" == "0.9998"

    def test_random_engages_stored_fallback(self):
        corpus = [CorpusItem("noise", random.Random(2).randbytes(65536))]
        (row,) = run_bench(corpus, ["ort"], CodecParams())
        assert 0.999 <= row.ratio <= 1.001

    def test_alphabet_error_is_per_row(self):
        corpus = [CorpusItem("wide", bytes([0x10, 0xC8, 0x10])), CorpusItem("ok", b"\x05" * 50)]
        rows = run_bench(corpus, ["prlc2"], CodecParams())
        assert rows[0].error == "UnsupportedAlphabet"
        assert rows[0].ratio is None
        assert rows[1].error is None and rows[1].ratio > 1.0

    def test_empty_input_convention(self):
        (row,) = run_bench([CorpusItem("empty", b"")], ["stored"], CodecParams())
        assert row.ratio == 1.0
        assert row.compressed == CONTAINER_OVERHEAD

    def test_row_ordering(self):
        corpus = [CorpusItem("a", b"x" * 100), CorpusItem("b", b"y" * 100)]
        rows = run_bench(corpus, ["ort", "prlc1"], CodecParams())
        assert [(r.index, r.item, r.codec) for r in rows] == [
            (1, "a", "ort"),
            (1, "a", "prlc1"),
            (2, "b", "ort"),
            (2, "b", "prlc1"),
        ]

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError):
            run_bench([], ["ort"])

    def test_rejects_unknown_codec(self):
        with pytest.raises(ValueError):
            run_bench([CorpusItem("a", b"x")], ["gzip"])

    def test_unknown_codec_message_names_it(self):
        with pytest.raises(ValueError, match="^unknown codec 'gzip' "):
            run_bench([CorpusItem("a", b"x")], ["ort", "gzip"])

    def test_rejects_repeated_codec(self):
        with pytest.raises(ValueError, match="'ort'"):
            run_bench([CorpusItem("a", b"x")], ("ort", "prlc1", "ort"))

    def test_rejects_empty_codec_list(self):
        with pytest.raises(ValueError, match="^no codecs selected$"):
            run_bench([CorpusItem("a", b"x")], ())

    def test_every_ratio_is_roundtrip_verified(self):
        rng = random.Random(4)
        corpus = [
            CorpusItem("runs", b"".join(bytes([rng.randrange(100)]) * rng.randrange(1, 50) for _ in range(100))),
            CorpusItem("noise", bytes(rng.randrange(128) for _ in range(3000))),
        ]
        rows = run_bench(corpus, CODEC_ORDER, CodecParams())
        assert all(r.error is None for r in rows)

    def test_defaults_are_every_codec_and_the_default_params(self):
        rng = random.Random(5)
        corpus = [
            CorpusItem("runs", b"".join(bytes([rng.randrange(100)]) * rng.randrange(1, 50) for _ in range(60))),
            CorpusItem("text", b"abcabcabc the the the " * 40),
        ]
        rows = run_bench(corpus)
        assert [r.codec for r in rows] == list(CODEC_ORDER) * 2
        assert rows == run_bench(corpus, CODEC_ORDER, CodecParams())

    def test_round_trip_mismatch_keeps_the_size(self, monkeypatch):
        monkeypatch.setattr("ortc.bench.decompress", lambda blob: b"wrong")
        rows = run_bench([CorpusItem("a", b"x" * 100)], ["ort", "prlc1"], CodecParams())
        size = len(compress(b"x" * 100))
        assert rows[0] == BenchRow(1, "a", "ort", 100, size, None, "RoundTripMismatch")
        assert rows[1].error is None and rows[1].ratio > 1.0  # the other codec's row is untouched


class TestRenderReport:
    ROWS = [
        BenchRow(1, "alpha", "ort", 1000, 100, 10.0),
        BenchRow(1, "alpha", "prlc1", 1000, 500, 2.0),
    ]

    def test_csv_layout(self):
        text = render_report(self.ROWS, "csv")
        lines = text.splitlines()
        assert lines[0] == "index,item,codec,uncompressed,compressed,cr"
        assert lines[1] == "1,alpha,ort,1000,100,10.000"
        assert lines[2] == "1,alpha,prlc1,1000,500,2.000"

    def test_csv_error_row(self):
        rows = [BenchRow(1, "x", "prlc2", 10, None, None, "UnsupportedAlphabet")]
        text = render_report(rows, "csv")
        assert text.splitlines()[1] == "1,x,prlc2,10,,UnsupportedAlphabet"

    def test_csv_quotes_awkward_names(self):
        rows = [BenchRow(1, 'we,ird"name', "ort", 10, 10, 1.0)]
        line = render_report(rows, "csv").splitlines()[1]
        assert line == '1,"we,ird""name",ort,10,10,1.000'

    def test_markdown_single_item_two_codecs(self):
        text = render_report(self.ROWS, "markdown")
        lines = text.splitlines()
        assert lines[0] == "| # | Item | ort | prlc1 |"
        assert lines[2] == "| 1 | alpha | 10.000 | 2.000 |"
        assert len(lines) == 3  # one data row

    def test_markdown_column_order_mirrors_comparison_table(self):
        rows = [
            BenchRow(1, "a", c, 100, 50, 2.0)
            for c in ("stored", "prlc1", "prlc2", "ort")
        ]
        header = render_report(rows, "markdown").splitlines()[0]
        assert header == "| # | Item | ort | prlc2 | prlc1 | stored |"

    def test_markdown_same_named_items_keep_their_own_ratios(self):
        corpus = [CorpusItem("a", bytes(1000)), CorpusItem("a", bytes(range(256)))]
        rows = run_bench(corpus, ["ort", "stored"], CodecParams())
        assert rows[0].ratio != rows[2].ratio
        lines = render_report(rows, "markdown").splitlines()[2:]
        assert lines == [
            f"| {i} | a | {rows[2 * i - 2].ratio:.3f} | {rows[2 * i - 1].ratio:.3f} |" for i in (1, 2)
        ]

    def test_markdown_awkward_names_stay_one_cell_one_row(self):
        names = ["a|b", "x\ny\r\nz", "a\\*b", "a\\|b"]
        rows = [BenchRow(i, name, "ort", 10, 10, 1.0) for i, name in enumerate(names, start=1)]
        lines = render_report(rows, "markdown").splitlines()
        # a backslash is written doubled, so CommonMark shows it rather than reading an escape
        assert lines[2:] == [
            "| 1 | a\\|b | 1.000 |",
            "| 2 | x y z | 1.000 |",
            "| 3 | a\\\\*b | 1.000 |",
            "| 4 | a\\\\\\|b | 1.000 |",
        ]

    def test_empty_rows_render_headers_only(self):
        assert render_report([], "csv") == "index,item,codec,uncompressed,compressed,cr\n"
        md = render_report([], "markdown").splitlines()
        assert len(md) == 2  # header + separator

    def test_deterministic(self):
        assert render_report(self.ROWS, "csv") == render_report(self.ROWS, "csv")
        assert render_report(self.ROWS, "markdown") == render_report(self.ROWS, "markdown")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report(self.ROWS, "xml")


class TestLoadCorpus(object):
    def test_sorted_opaque_bytes(self, tmp_path):
        (tmp_path / "b.bin").write_bytes(b"\x01\x02")
        (tmp_path / "a.bin").write_bytes(b"")
        (tmp_path / "sub").mkdir()
        items = load_corpus(tmp_path)
        assert [(i.name, i.data) for i in items] == [("a.bin", b""), ("b.bin", b"\x01\x02")]
