import numpy as np
import pytest

from conftest import MISFITS, make_rng, random_action, random_channel, random_state
from macfb.belief import (
    MASS_EPS,
    AugmentedState,
    JointBelief,
    PrivateBeliefTable,
    initial_state,
    observation_distribution,
    predictive_distribution,
    uniform_initial,
    update_augmented,
    update_joint,
    update_private,
)
from macfb.channel import MessageSpace, preset
from macfb.encoding import EncoderAction, EncoderFunction
from macfb.errors import ImpossibleObservation

IDENTITY = EncoderAction(EncoderFunction((0, 1), 2), EncoderFunction((0, 1), 2))


def test_joint_belief_validation():
    with pytest.raises(ValueError):
        JointBelief(np.array([0.5, 0.5]))  # 1d
    with pytest.raises(ValueError):
        JointBelief(np.array([[0.7, 0.4]]))
    with pytest.raises(ValueError):
        JointBelief(np.array([[1.2, -0.2]]))
    b = JointBelief(np.array([[0.25, 0.75]]))
    with pytest.raises(ValueError):
        b.table[0, 0] = 1.0  # read-only storage


def test_joint_belief_marginals_and_argmax():
    b = JointBelief(np.array([[0.1, 0.4], [0.4, 0.1]]))
    assert np.allclose(b.marginal1(), [0.5, 0.5])
    assert np.allclose(b.marginal2(), [0.5, 0.5])
    # ties resolve to the smallest pair in row-major order
    assert b.argmax_pair() == (0, 1)


def test_private_table_validation():
    with pytest.raises(ValueError):
        PrivateBeliefTable(np.array([[0.5, 0.5]]))  # not square
    with pytest.raises(ValueError):
        PrivateBeliefTable(np.array([[0.0, 1.0], [0.5, 0.5]]))  # zero diagonal
    with pytest.raises(ValueError):
        PrivateBeliefTable(np.array([[0.9, 0.0], [0.0, 1.0]]))


def test_uniform_initial_tables():
    s = uniform_initial(MessageSpace(2, 3))
    assert np.all(s.pi.table == 1.0 / 6.0)
    assert np.all(s.beta1.rows == 0.5)
    assert np.all(s.beta2.rows == 1.0 / 3.0)


def test_initial_state_prior_marginals():
    prior = np.array([[0.5, 0.25], [0.125, 0.125]])
    s = initial_state(MessageSpace(2, 2), prior)
    assert np.allclose(s.beta1.rows, np.tile(prior.sum(axis=1), (2, 1)))
    assert np.allclose(s.beta2.rows, np.tile(prior.sum(axis=0), (2, 1)))


def test_initial_state_zero_marginal_gets_point_mass():
    prior = np.array([[0.5, 0.5], [0.0, 0.0]])
    s = initial_state(MessageSpace(2, 2), prior)
    assert np.array_equal(s.beta1.rows[1], [0.0, 1.0])
    assert np.array_equal(s.beta1.rows[0], [1.0, 0.0])


def test_initial_state_shape_mismatch():
    with pytest.raises(ValueError):
        initial_state(MessageSpace(2, 2), np.full((3, 2), 1.0 / 6.0))


def test_predictive_distribution_adder_uniform():
    ch = preset("adder")
    s = uniform_initial(MessageSpace(2, 2))
    pred = predictive_distribution(s.pi, IDENTITY, ch)
    assert np.allclose(pred, [0.25, 0.5, 0.25])
    assert np.array_equal(observation_distribution(s, IDENTITY, ch), pred)


def test_update_joint_adder_middle_output():
    ch = preset("adder")
    s = uniform_initial(MessageSpace(2, 2))
    post = update_joint(s.pi, IDENTITY, 1, ch)
    assert np.allclose(post.table, [[0.0, 0.5], [0.5, 0.0]])


def test_impossible_observation_carries_mass():
    ch = preset("adder")
    s = uniform_initial(MessageSpace(2, 2))
    constant = EncoderAction(EncoderFunction((0, 0), 2), EncoderFunction((0, 0), 2))
    with pytest.raises(ImpossibleObservation) as err:
        update_joint(s.pi, constant, 2, ch)
    assert err.value.y == 2
    assert err.value.mass <= MASS_EPS


def test_update_private_partition_refinement():
    rows = PrivateBeliefTable(np.full((3, 3), 1.0 / 3.0))
    enc = EncoderFunction((0, 0, 1), 2)
    out = update_private(rows, enc)
    assert np.allclose(out.rows[0], [0.5, 0.5, 0.0])
    assert np.allclose(out.rows[1], [0.5, 0.5, 0.0])
    assert np.allclose(out.rows[2], [0.0, 0.0, 1.0])


def test_update_private_point_mass_fixed():
    rows = PrivateBeliefTable(np.eye(3))
    out = update_private(rows, EncoderFunction((0, 0, 1), 2))
    assert np.array_equal(out.rows, np.eye(3))


def test_update_augmented_composes_exactly():
    rng = make_rng(11)
    space = MessageSpace(2, 2)
    for _ in range(50):
        ch = random_channel(rng, 2, 2, 3)
        state = random_state(rng, space)
        action = random_action(rng, space, ch.alphabets)
        pred = observation_distribution(state, action, ch)
        for y in range(ch.n_outputs):
            if pred[y] <= MASS_EPS:
                continue
            nxt = update_augmented(state, action, y, ch)
            joint = update_joint(state.pi, action, y, ch)
            assert np.array_equal(nxt.pi.table, joint.table)
            assert np.array_equal(nxt.beta1.rows, update_private(state.beta1, action.e1).rows)
            assert np.array_equal(nxt.beta2.rows, update_private(state.beta2, action.e2).rows)


def test_update_joint_martingale_random():
    rng = make_rng(12)
    for _ in range(200):
        m1, m2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        x1, x2, y = int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(2, 4))
        ch = random_channel(rng, x1, x2, y, sparse=bool(rng.integers(2)))
        space = MessageSpace(m1, m2)
        state = random_state(rng, space)
        action = random_action(rng, space, ch.alphabets)
        pred = observation_distribution(state, action, ch)
        assert pred.sum() == pytest.approx(1.0, abs=1e-10)
        mean = np.zeros_like(state.pi.table)
        for yy in range(y):
            if pred[yy] <= MASS_EPS:
                with pytest.raises(ImpossibleObservation):
                    update_joint(state.pi, action, yy, ch)
                continue
            post = update_joint(state.pi, action, yy, ch)
            assert post.table.sum() == pytest.approx(1.0, abs=1e-10)
            mean += pred[yy] * post.table
        assert np.max(np.abs(mean - state.pi.table)) < 1e-10


def test_augmented_state_shape_guard():
    s = uniform_initial(MessageSpace(2, 2))
    with pytest.raises(ValueError):
        AugmentedState(s.pi, s.beta1, PrivateBeliefTable(np.eye(3)))


def test_nan_entries_are_rejected():
    with pytest.raises(ValueError, match="sums to nan"):
        JointBelief(np.array([[np.nan, 0.5], [0.25, 0.25]]))
    with pytest.raises(ValueError, match="sum to 1"):
        PrivateBeliefTable(np.array([[np.nan, 0.5], [0.5, 0.5]]))


def test_joint_belief_message_prints_a_plain_float():
    with pytest.raises(ValueError, match=r"^joint belief sums to 1\.0000000005, expected 1$"):
        JointBelief(np.array([[0.25, 0.25], [0.25, 0.2500000005]]))


@pytest.mark.parametrize("call", [
    lambda state, action, ch: predictive_distribution(state.pi, action, ch),
    lambda state, action, ch: observation_distribution(state, action, ch),
    lambda state, action, ch: update_joint(state.pi, action, 0, ch),
    lambda state, action, ch: update_augmented(state, action, 0, ch),
], ids=["predictive", "observation", "update_joint", "update_augmented"])
def test_belief_updates_refuse_actions_that_do_not_fit(call):
    ch, state = preset("adder"), uniform_initial(MessageSpace(2, 2))
    for action, message in MISFITS:
        with pytest.raises(ValueError) as info:
            call(state, action, ch)
        assert str(info.value).startswith(message)
