"""One round of the benchmark's check workloads at seed 0, judged by the
benchmark itself: `perfbench/workloads.py` builds the inputs and compares each
report with closed forms recomputed from the weight matrices."""

from pathlib import Path

import pytest

import hypersigma

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["checks-real", "checks-super"])
def test_benchmark_round_has_no_judge_problems(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import Workload

    wl = Workload(hypersigma, name, 0)
    outputs, _times = wl.run_round()
    problems, _stats = wl.judge(outputs)
    assert problems == {cid: [] for cid in wl.specs}
