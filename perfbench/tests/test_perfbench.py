"""Tests of the benchmark itself, on shrunken workloads.

Run from the root of the checkout:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

COUNT_UNITS = ("count", "bits")


@pytest.fixture
def small(monkeypatch):
    """Every workload cut down to a few cheap operations."""
    monkeypatch.setattr(workloads, "COVER_FAMILIES", [(2, (0, 4)), (3, (1, 1))])
    monkeypatch.setattr(workloads, "EQUATION_ATLASES", [(2, 4, "reg")])
    monkeypatch.setattr(workloads, "EQUATION_CHARTS", [(3, "x3, x2^3", 3, 12)])
    monkeypatch.setattr(workloads, "LOCATE_FAMILIES",
                        [(2, (2, 2), 1), (3, (1, 1), 1)])
    monkeypatch.setattr(workloads, "GROEBNER_CHART", ("x2, x1^2", 2))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_pass_is_correct(small, name):
    ops = workloads.build(name, seed=7)
    results = run.run_pass(ops, calibrate=True)
    assert [error for _, _, error, _ in results] == [None] * len(ops)
    assert all(speed > 0 for _, _, _, speed in results)
    assert run.check_pass(ops, results) == [[]] * len(ops)


def test_a_wrong_answer_is_a_failed_operation(small):
    ops = workloads.build("cover", seed=1)
    results = run.run_pass(ops)
    atlas = results[0][1]
    broken = type(atlas)(constants=atlas.constants, charts=(),
                         empty_charts=atlas.empty_charts, gluing=())
    broken_pass = [(0.0, broken, None, 1.0)] + results[1:]
    tally = run.Tally(ops, broken_pass)
    for _ in range(3):  # repeats share the first pass's verdict
        tally.add_pass(run.digests_of(ops, broken_pass))
    assert (tally.attempted, tally.failed, tally.correct) == (6, 3, False)


def test_locate_inputs_follow_the_seed(small):
    def digests(seed):
        ops = workloads.build("locate", seed)
        return run.digests_of(ops, run.run_pass(ops))
    assert digests(3) == digests(3) != digests(4)


def _traced_metrics(name):
    ops = workloads.build(name, seed=5)
    plain = run.run_pass(ops)
    t = tracer.Tracer()
    with t:
        traced = run.run_pass(ops, t)
    assert run.digests_of(ops, traced) == run.digests_of(ops, plain)
    return t.metrics()


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat_exactly(small, name):
    first = _traced_metrics(name)
    second = _traced_metrics(name)
    assert set(first) == set(tracer.METRICS)
    counts = [k for k, unit in tracer.METRICS.items() if unit in COUNT_UNITS]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_traced_run_sees_every_layer(small):
    seen = {}
    for name in run.WORKLOADS:
        for key, value in _traced_metrics(name).items():
            seen[key] = seen.get(key, 0) or value
    layers = {key.split(".")[0] for key, value in seen.items() if value}
    assert layers == set(tracer.LAYERS)


def test_wrappers_are_removed_after_a_traced_run(small):
    import borelcover
    from borelcover import borel, cover, hilbert, linalg
    originals = (borel.MonomialIdeal.contains, cover.hilbert_polynomial,
                 hilbert.hilbert_polynomial, linalg.rank, borelcover.atlas)
    t = tracer.Tracer()
    with t:
        assert tracer.installed_wrappers()
        assert cover.hilbert_polynomial is not originals[1]
        run.run_pass(workloads.build("cover", seed=1), t)
    assert tracer.installed_wrappers() == []
    assert (borel.MonomialIdeal.contains, cover.hilbert_polynomial,
            hilbert.hilbert_polynomial, linalg.rank, borelcover.atlas) == originals


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == {**tracer.METRICS, **run.TRACE_METRICS}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cover", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
