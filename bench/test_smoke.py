"""Smoke test of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import workloads  # noqa: E402
from workloads import Query  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.02


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, _ = run.measure(workload, seed=7, seconds=0, trace=bool(trace), scale=TINY)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    json.dumps(result)  # the result line must be plain JSON


def test_wrong_expected_answer_is_counted_in_error_rate():
    make_round = workloads.ROUNDS["tbn-word-problem"][0]

    def corrupted(rng):
        queries = make_round(rng, TINY)
        assert queries[1].kind == "eq-equal"
        queries[1].expected = False
        return queries

    tally = run.Tally()
    run.closed_loop(corrupted, "smoke", 0, tally)
    assert tally.failed == 1
    assert tally.attempted == len(make_round(random.Random(0), TINY))
    assert tally.error_rate == 1 / tally.attempted
    assert tally.first_failure.startswith("eq-equal")


def test_raised_exception_is_a_failed_query():
    def raising():
        raise ValueError("boom")

    tally = run.Tally()
    run.closed_loop(lambda rng: [Query("raises", raising, None), Query("ok", lambda: 1, 1)],
                    "smoke", 0, tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_artin_cost_counts_the_letters_of_the_program_artin_images():
    from tbraid import braid

    w = workloads.random_word(random.Random(3), 5, 9)
    written = sum(len(image.letters)
                  for k in range(1, len(w) + 1)
                  for image in braid.artin_images(braid.BraidWord(5, w.letters[:k])))
    assert workloads.artin_cost(w) == written


def test_sliced_child_is_timed_in_slices_and_reaped():
    busy = "import time\nwhile time.process_time() < 0.6: pass\nprint('done')"
    ref = run.Reference()
    try:
        out, wall, scaled, usage, code = run._run_sliced([sys.executable, "-c", busy], 10, ref)
    finally:
        ref.close()
    assert (out, code) == ("done\n", 0)
    assert wall >= 0.6 and scaled > 0 and usage.ru_maxrss > 0
    assert len(ref.samples) >= 0.6 / run.SLICE_S   # one sample between slices
    assert ref.proc.returncode == 0


def test_tail_is_the_value_with_ten_samples_beyond():
    samples = [float(x) for x in range(100)]
    value, percentile = run.tail(samples)
    assert value == 89.0 and sum(x > value for x in samples) == 10
    assert percentile == 90.0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tbn-word-problem", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
