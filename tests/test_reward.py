import math

import numpy as np
import pytest

from conftest import make_rng, random_action, random_channel, random_state
from macfb.belief import JointBelief, PrivateBeliefTable, AugmentedState, uniform_initial
from macfb.channel import MessageSpace, preset
from macfb.encoding import EncoderAction, EncoderFunction, enumerate_actions
from macfb.errors import NotNormalized
from macfb.reward import (
    LambdaWeights,
    entropy,
    reward_i1,
    reward_i2,
    reward_i3,
    reward_reduced,
    reward_weighted,
)

IDENTITY = EncoderAction(EncoderFunction((0, 1), 2), EncoderFunction((0, 1), 2))
L_ALL = LambdaWeights(1.0, 1.0, 1.0)


def test_entropy_basics():
    assert entropy([0.5, 0.5]) == pytest.approx(1.0)
    assert entropy([1.0, 0.0]) == 0.0
    assert entropy([0.25] * 4) == pytest.approx(2.0)
    with pytest.raises(NotNormalized):
        entropy([0.5, 0.6])


def test_lambda_weights_guards_and_ops():
    with pytest.raises(ValueError):
        LambdaWeights(-1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        LambdaWeights(0.0, 0.0, 0.0).normalized()
    w = LambdaWeights(1.0, 3.0, 0.0).normalized()
    assert w.as_tuple() == pytest.approx((0.25, 0.75, 0.0))
    assert LambdaWeights(1.0, 2.0, 3.0).scaled(2.0).as_tuple() == (2.0, 4.0, 6.0)


def test_adder_uniform_identity_values():
    ch = preset("adder")
    state = uniform_initial(MessageSpace(2, 2))
    assert reward_i3(state, IDENTITY, ch) == pytest.approx(1.5, abs=1e-12)
    # fully refined tables condition on the partner message exactly, and a
    # known x2 turns the adder into a clean bit pipe for x1
    br = reward_reduced(state.pi, IDENTITY, ch, L_ALL)
    assert br.i1 == pytest.approx(1.0, abs=1e-12)
    assert br.i2 == pytest.approx(1.0, abs=1e-12)
    assert br.i3 == pytest.approx(1.5, abs=1e-12)
    assert br.weighted == pytest.approx(3.5, abs=1e-12)


def test_useless_channel_all_zero():
    ch = preset("useless")
    space = MessageSpace(2, 2)
    state = uniform_initial(space)
    for action in enumerate_actions(space, ch.alphabets):
        br = reward_weighted(state, action, ch, L_ALL)
        assert br.weighted == pytest.approx(0.0, abs=1e-12)


def test_constant_encoders_give_zero():
    ch = preset("adder")
    state = uniform_initial(MessageSpace(2, 2))
    constant = EncoderAction(EncoderFunction((0, 0), 2), EncoderFunction((1, 1), 2))
    br = reward_weighted(state, constant, ch, L_ALL)
    assert br.i1 == br.i2 == br.i3 == 0.0


def test_point_mass_belief_gives_zero_i3():
    ch = preset("adder")
    pi = JointBelief(np.array([[1.0, 0.0], [0.0, 0.0]]))
    state = AugmentedState(pi, PrivateBeliefTable(np.eye(2)), PrivateBeliefTable(np.eye(2)))
    assert reward_i3(state, IDENTITY, ch) == pytest.approx(0.0, abs=1e-12)


def test_rewards_nonnegative_and_bounded():
    rng = make_rng(21)
    for _ in range(100):
        m1, m2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        x1, x2, y = int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(2, 4))
        ch = random_channel(rng, x1, x2, y)
        space = MessageSpace(m1, m2)
        state = random_state(rng, space)
        action = random_action(rng, space, ch.alphabets)
        br = reward_weighted(state, action, ch, L_ALL)
        for v in (br.i1, br.i2, br.i3):
            assert v >= -1e-12
            assert v <= math.log2(y) + 1e-12


def test_weighted_combination_is_linear():
    rng = make_rng(22)
    ch = random_channel(rng, 2, 2, 3)
    space = MessageSpace(2, 2)
    state = random_state(rng, space)
    action = random_action(rng, space, ch.alphabets)
    w = LambdaWeights(0.3, 1.7, 2.2)
    br = reward_weighted(state, action, ch, w)
    assert br.weighted == pytest.approx(0.3 * br.i1 + 1.7 * br.i2 + 2.2 * br.i3, abs=1e-12)
    scaled = reward_weighted(state, action, ch, w.scaled(10.0))
    assert scaled.weighted == pytest.approx(10.0 * br.weighted, abs=1e-9)


def test_reduced_equals_identity_tables():
    rng = make_rng(23)
    ch = random_channel(rng, 2, 2, 3)
    space = MessageSpace(2, 2)
    pi = JointBelief(np.array([[0.4, 0.1], [0.2, 0.3]]))
    state = AugmentedState(pi, PrivateBeliefTable(np.eye(2)), PrivateBeliefTable(np.eye(2)))
    for action in enumerate_actions(space, ch.alphabets):
        a = reward_reduced(pi, action, ch, L_ALL)
        b = reward_weighted(state, action, ch, L_ALL)
        assert a == b


def test_one_sided_depends_only_on_row_partition():
    # two different private tables with the same row-equality pattern must
    # produce identical i1/i2
    ch = preset("adder")
    pi = JointBelief(np.array([[0.4, 0.1], [0.2, 0.3]]))
    merged_a = PrivateBeliefTable(np.array([[0.5, 0.5], [0.5, 0.5]]))
    merged_b = PrivateBeliefTable(np.array([[0.3, 0.7], [0.3, 0.7]]))
    eye = PrivateBeliefTable(np.eye(2))
    for action in enumerate_actions(MessageSpace(2, 2), ch.alphabets):
        sa = AugmentedState(pi, eye, merged_a)
        sb = AugmentedState(pi, eye, merged_b)
        assert reward_i1(sa, action, ch) == pytest.approx(reward_i1(sb, action, ch), abs=1e-12)
        ta = AugmentedState(pi, merged_a, eye)
        tb = AugmentedState(pi, merged_b, eye)
        assert reward_i2(ta, action, ch) == pytest.approx(reward_i2(tb, action, ch), abs=1e-12)


def test_entropy_rejects_nan():
    with pytest.raises(NotNormalized):
        entropy([float("nan"), 0.5])
