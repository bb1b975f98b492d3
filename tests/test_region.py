import math

import pytest

from macfb.channel import MessageSpace, preset
from macfb.dp import solve_stationary
from macfb.region import HalfPlane, export_region, lambda_samples, sweep
from macfb.reward import LambdaWeights


def _satisfies(vertex, hp: HalfPlane, tol: float = 1e-9) -> bool:
    r1, r2 = vertex
    w = hp.weights
    return w.l1 * r1 + w.l2 * r2 + w.l3 * (r1 + r2) <= hp.bound + tol


def test_lambda_samples_shape():
    pts = lambda_samples(3)
    assert len(pts) == 3
    assert set(pts) == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)}
    for count in (4, 6, 7, 20):
        pts = lambda_samples(count)
        assert len(pts) >= count
        for lam in pts:
            assert min(lam) >= 0.0
            assert sum(lam) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        lambda_samples(2)


def test_lambda_samples_nest():
    small = set(lambda_samples(3))
    mid = set(lambda_samples(6))
    big = set(lambda_samples(12))
    assert small <= mid <= big


def test_sweep_useless_degenerates_to_origin():
    est = sweep(preset("useless"), MessageSpace(2, 2), 1, 3)
    assert est.degenerate
    assert est.vertices == [(0.0, 0.0)]


def test_sweep_bsc0_segment():
    est = sweep(preset("bsc_p2p", (0.0,)), MessageSpace(2, 1), 1, 6)
    assert not est.degenerate
    assert len(est.halfplanes) == 6
    assert est.vertices == [(0.0, 0.0), (1.0, 0.0)]
    by_lam = {hp.weights.as_tuple(): hp.bound for hp in est.halfplanes}
    assert by_lam[(1.0, 0.0, 0.0)] == pytest.approx(1.0, abs=1e-12)
    assert by_lam[(0.0, 1.0, 0.0)] == pytest.approx(0.0, abs=1e-12)
    assert by_lam[(0.5, 0.5, 0.0)] == pytest.approx(0.5, abs=1e-12)
    assert by_lam[(0.0, 0.0, 1.0)] == pytest.approx(1.0, abs=1e-12)


def test_sweep_vertices_respect_all_halfplanes():
    for chname, space in (("adder", MessageSpace(2, 2)), ("multiplier", MessageSpace(2, 2))):
        est = sweep(preset(chname), space, 1, 6)
        assert len(est.vertices) >= 1
        for v in est.vertices:
            assert v[0] >= 0.0 and v[1] >= 0.0
            for hp in est.halfplanes:
                assert _satisfies(v, hp)


def test_sweep_refinement_shrinks():
    ch = preset("adder")
    space = MessageSpace(2, 2)
    coarse = sweep(ch, space, 1, 3)
    fine = sweep(ch, space, 1, 6)
    for v in fine.vertices:
        for hp in coarse.halfplanes:
            assert _satisfies(v, hp)


def test_sweep_stationary_solver():
    est = sweep(preset("bsc_p2p", (0.0,)), MessageSpace(2, 1), 1, 3, solver="stationary")
    assert est.solver == "stationary"
    assert est.vertices == [(0.0, 0.0), (1.0, 0.0)]
    # each bound is the exact per-use gain at its weight vector
    ch = preset("noisy_adder", (0.1,))
    space = MessageSpace(2, 2)
    est = sweep(ch, space, 1, 6, solver="stationary")
    assert len(est.halfplanes) == 6
    for hp in est.halfplanes:
        assert hp.bound == solve_stationary(ch, space, hp.weights, 16).gain


def test_sweep_rejects_unknown_solver():
    with pytest.raises(ValueError):
        sweep(preset("adder"), MessageSpace(2, 2), 1, 3, solver="magic")


def test_export_round_trip(tmp_path):
    est = sweep(preset("adder"), MessageSpace(2, 2), 1, 6)
    hp_path, vx_path = export_region(est, tmp_path / "adder")
    hp_lines = hp_path.read_text().splitlines()
    assert hp_lines[0] == "lambda1,lambda2,lambda3,bound"
    assert len(hp_lines) == 1 + len(est.halfplanes)
    for line, hp in zip(hp_lines[1:], est.halfplanes):
        l1, l2, l3, bound = (float(tok) for tok in line.split(","))
        assert (l1, l2, l3) == hp.weights.as_tuple()
        assert bound == hp.bound
    vx_lines = vx_path.read_text().splitlines()
    assert vx_lines[0] == "R1,R2"
    parsed = [tuple(float(tok) for tok in line.split(",")) for line in vx_lines[1:]]
    assert parsed == est.vertices
