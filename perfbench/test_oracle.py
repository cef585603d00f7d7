"""Hand values for the benchmark's closed forms and judgement.

    python3 -m pytest perfbench -q
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import oracle
import workloads


def test_laplace_single_edge():
    # e^{-(1.2 - 1)} / 1.2; b only enters through b_i b_j, and b_delta = 0
    assert oracle.laplace([[0, 1], [1, 0]], [1.2, 1.0], [0.3, 0.0]) == pytest.approx(0.68228, abs=5e-6)
    assert oracle.laplace([[0, 1], [1, 0]], [1.2, 1.0], [0.3, 0.0]) == pytest.approx(math.exp(-0.2) / 1.2, rel=1e-15)


def test_laplace_box_corner():
    # the corner of the wired 4x4 box has total weight 4: e^{-4 (1.3 - 1)} / 1.3
    w = workloads.box_weights(4)
    assert w[0].sum() == 4.0 and w[-1].sum() == 16.0
    a = np.ones(17)
    a[0] = 1.3
    assert oracle.laplace(w, a, np.zeros(17)) == pytest.approx(0.2317, abs=5e-5)


def test_laplace_two_tilted_neighbours():
    # triangle, a = (1.2, 0.9), b = (0.3, -0.2): edges 12, 1d, 2d
    expo = -(1.2 * 0.9 + 0.3 * -0.2 - 1) - (1.2 - 1) - (0.9 - 1)
    ref = math.exp(expo) / (1.2 * 0.9)
    assert oracle.laplace(workloads.TRIANGLE[1], [1.2, 0.9, 1.0], [0.3, -0.2, 0.0]) == pytest.approx(ref, rel=1e-15)


def test_generating_and_derivative():
    w = [[0, 1], [1, 0]]
    lap = math.exp(-0.2) / 1.2
    got = oracle.generating(w, [1.2, 1.0], [0.3, 0.0], [-0.5, -0.25])
    assert got == pytest.approx(lap * np.exp(-0.5 * (1.2 - 0.3j) - 0.25), rel=1e-15)
    assert oracle.derivative(w, [1.2, 1.0], [0.3, 0.0], [0, 0]) == pytest.approx(lap * (1.2 - 0.3j) ** 2, rel=1e-15)


def test_odd_pair_coefficient():
    # sources on one vertex never meet on an edge; on two neighbours they do
    assert oracle.odd_pair_coefficient([[0, 1], [1, 0]], [0.8, 0.0], [0.6, 0.0]) == 0.0
    tri = workloads.TRIANGLE[1]
    assert oracle.odd_pair_coefficient(tri, [0.8, 0.0, 0.0], [0.0, 0.6, 0.0]) == pytest.approx(-0.48)


def test_wired_level_and_extension():
    universe, w, levels = workloads.line_universe(5)
    assert oracle.wired_level(w, universe, levels[1]).tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    assert oracle.wired_level(w, universe, levels[0]).tolist() == [[0, 1], [1, 0]]
    alpha = oracle.extend_to_level({"1": -0.7, "3": -0.4}, levels[1], 0.0, boundary_sum=True)
    assert alpha.tolist() == [-0.7, 0.0, -0.4]


def test_batch_means_and_acceptance():
    vals = np.tile(np.repeat([0.0, 1.0], 5), (2, 5))  # 2 chains, batches of 10 have mean 0.5
    mean, se, _ = oracle.batch_means(vals)
    assert mean == 0.5 and se == 0.0
    draws = np.array([[[0.0], [0.0], [1.0], [2.0], [2.0]]])
    assert oracle.acceptance(draws) == 0.5


def _spec(cid, **kw):
    return SimpleNamespace(id=cid, params=kw.pop("params", {}), chain=SimpleNamespace(seed=0),
                           tolerance=kw.pop("tolerance", 1e-12), z_threshold=3.0)


def _report(cid, rows):
    return SimpleNamespace(check=cid, seed=0, verdict="pass", coefficients=rows)


def test_judge_report():
    spec = _spec("laplace-real", params=workloads.LAPLACE, tolerance=1e-6)
    ref = math.exp(-0.2) / 1.2
    good = [
        {"subset": ["mc"], "estimate": ref + 0.01, "stderr": 0.005, "reference": ref, "z": 2.0},
        {"subset": ["quadrature_residual"], "estimate": 1e-8, "stderr": 1e-12, "reference": 0.0, "z": 0.0},
    ]
    assert workloads.judge_report(spec, _report("laplace-real", good)) == ([], pytest.approx(2.0))
    wrong_ref = [dict(good[0], reference=ref + 1e-9), good[1]]
    assert workloads.judge_report(spec, _report("laplace-real", wrong_ref))[0]
    far = [dict(good[0], estimate=ref + 0.06), good[1]]
    assert workloads.judge_report(spec, _report("laplace-real", far))[0]
    assert workloads.judge_report(spec, _report("laplace-real", [good[1]]))[0]  # closed-form row missing
    loose = [good[0], dict(good[1], estimate=2e-6)]
    assert workloads.judge_report(spec, _report("laplace-real", loose))[0]


def test_judge_ward_zero_rows():
    spec = _spec("ward", params=workloads.WARD)
    rows = [
        {"subset": [], "estimate": [math.exp(-1) + 0.01, 0.002], "stderr": 0.01, "reference": math.exp(-1), "z": 1.0},
        {"subset": ["tau_1"], "estimate": 0.0, "stderr": 1e-12, "reference": 0.0, "z": 0.0},
    ]
    assert workloads.judge_report(spec, _report("ward", rows))[0] == []
    rows[1] = dict(rows[1], estimate=1e-3)
    assert workloads.judge_report(spec, _report("ward", rows))[0]
