import math

import numpy as np
import pytest

from conftest import make_rng, random_channel, random_prior, random_tree
from macfb.belief import uniform_initial
from macfb.channel import MessageSpace, preset
from macfb.encoding import EncoderAction, EncoderFunction, PolicyTree
from macfb.errors import SearchTooLarge, TableTooLarge
from macfb.oracle import (
    blahut_arimoto,
    build_trajectories,
    evaluate_policy_In,
    evaluate_scheme_error,
    exhaustive_Cn,
    exhaustive_min_error,
    p2p_matrix,
)
from macfb.reward import LambdaWeights, reward_weighted

L3 = LambdaWeights(0.0, 0.0, 1.0)
IDENTITY = EncoderAction(EncoderFunction((0, 1), 2), EncoderFunction((0, 1), 2))


def identity_tree(depth: int, n_outputs: int) -> PolicyTree:
    nodes = {}
    stack = [()]
    while stack:
        hist = stack.pop()
        if len(hist) >= depth:
            continue
        nodes[hist] = IDENTITY
        stack.extend(hist + (y,) for y in range(n_outputs))
    return PolicyTree(depth, n_outputs, nodes)


def test_trajectories_form_a_distribution():
    ch = preset("adder")
    space = MessageSpace(2, 2)
    records = build_trajectories(ch, space, identity_tree(2, 3))
    assert math.fsum(r[-1] for r in records) == pytest.approx(1.0, abs=1e-12)
    for m1, m2, ys, x1s, x2s, p in records:
        assert len(ys) == len(x1s) == len(x2s) == 2
        assert p > 0.0
        # inputs must follow the tree's encoders along the recorded history
        assert x1s[0] == m1 and x2s[0] == m2


def test_trajectory_cap():
    ch = preset("adder")
    with pytest.raises(TableTooLarge):
        build_trajectories(ch, MessageSpace(2, 2), identity_tree(2, 3), cap=3)


def test_depth_one_In_equals_root_reward():
    rng = make_rng(31)
    for _ in range(20):
        ch = random_channel(rng, 2, 2, 3)
        space = MessageSpace(2, 2)
        tree = random_tree(rng, space, ch.alphabets, 1)
        got = evaluate_policy_In(ch, space, tree, L3)
        want = reward_weighted(uniform_initial(space), tree.action_at(()), ch, L3).weighted
        assert got == pytest.approx(want, abs=1e-12)


def test_exhaustive_cn_adder():
    value, tree = exhaustive_Cn(preset("adder"), MessageSpace(2, 2), L3, 1)
    assert value == pytest.approx(1.5, abs=1e-12)
    assert tree.depth == 1


def test_exhaustive_cn_multiplier_two_steps():
    value, _ = exhaustive_Cn(preset("multiplier"), MessageSpace(2, 2), L3, 2)
    assert value == pytest.approx(1.0, abs=1e-9)


def test_exhaustive_search_cap():
    with pytest.raises(SearchTooLarge):
        exhaustive_Cn(preset("adder"), MessageSpace(2, 2), L3, 1, tree_cap=15)


def test_scheme_error_adder_one_step():
    ch = preset("adder")
    space = MessageSpace(2, 2)
    err = evaluate_scheme_error(ch, space, identity_tree(1, 3))
    # y=1 leaves two equally likely pairs, everything else is resolved
    assert err == pytest.approx(0.25, abs=1e-12)


def test_exhaustive_min_error_adder():
    err0, tree0 = exhaustive_min_error(preset("adder"), MessageSpace(2, 2), 0)
    assert err0 == pytest.approx(0.75)
    assert tree0.depth == 0
    err1, _ = exhaustive_min_error(preset("adder"), MessageSpace(2, 2), 1)
    assert err1 == pytest.approx(0.25, abs=1e-12)
    err2, _ = exhaustive_min_error(preset("adder"), MessageSpace(2, 2), 2)
    assert err2 == pytest.approx(0.0, abs=1e-12)


def test_min_error_skewed_prior_T0():
    prior = np.array([[0.7, 0.1], [0.1, 0.1]])
    err, _ = exhaustive_min_error(preset("adder"), MessageSpace(2, 2), 0, prior=prior)
    assert err == pytest.approx(0.3)


def test_min_error_monotone_in_horizon():
    rng = make_rng(32)
    ch = random_channel(rng, 2, 2, 2)
    space = MessageSpace(2, 2)
    prior = random_prior(rng, 2, 2)
    errors = [exhaustive_min_error(ch, space, t, prior=prior)[0] for t in range(3)]
    assert errors[0] >= errors[1] - 1e-12
    assert errors[1] >= errors[2] - 1e-12


def test_p2p_matrix_requires_mute_second_sender():
    ch = preset("bsc_p2p", (0.1,))
    m = p2p_matrix(ch)
    assert m.shape == (2, 2)
    assert np.allclose(m[0], [0.9, 0.1])
    with pytest.raises(ValueError):
        p2p_matrix(preset("adder"))


@pytest.mark.parametrize("p", [0.0, 0.05, 0.1, 0.25, 0.5])
def test_blahut_arimoto_matches_closed_form(p):
    cap = blahut_arimoto(p2p_matrix(preset("bsc_p2p", (p,))))
    if p in (0.0, 1.0):
        expected = 1.0
    else:
        expected = 1.0 + p * math.log2(p) + (1 - p) * math.log2(1 - p)
    assert cap == pytest.approx(expected, abs=1e-6)


def test_blahut_arimoto_useless_row():
    cap = blahut_arimoto(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert cap == pytest.approx(0.0, abs=1e-9)


def test_oracle_prior_check_rejects_nan():
    # the oracle keeps its own prior check, apart from the solvers'
    tree = identity_tree(1, 3)
    prior = np.array([[np.nan, 0.5], [0.25, 0.25]])
    with pytest.raises(ValueError, match="prior must be a probability table"):
        build_trajectories(preset("adder"), MessageSpace(2, 2), tree, prior)
