"""Smoke test of the benchmark at a tiny size: every workload, both modes,
with all of its output checks.

    python3 -m pytest perfbench/test_smoke.py
"""

import json

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = 1 / 256  # 4 KiB items instead of 1 MiB


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_and_checks(workload, trace):
    result = run.run(workload, seed=7, seconds=0, trace=trace, scale=TINY)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] >= run.MIN_ROUNDS
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        if not trace:
            assert reported["value"] > 0


def test_same_seed_same_inputs():
    for workload in run.WORKLOADS:
        assert run.make_items(workload, 3, TINY) == run.make_items(workload, 3, TINY)
        assert run.make_items(workload, 3, TINY) != run.make_items(workload, 4, TINY)


def test_wrong_output_is_caught(monkeypatch):
    ortc, _ = run.load_program()
    decompress = ortc.decompress
    monkeypatch.setattr(ortc, "decompress", lambda blob: decompress(blob)[:-1])
    result = run.run("literals", seed=7, seconds=0, trace=False, scale=TINY)
    assert not result["correct"]
