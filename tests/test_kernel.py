"""The batched action kernel against the per-cell reward formulas it replaced
and against the public Bayes updates."""

import numpy as np

from conftest import (
    make_rng,
    random_action,
    random_channel,
    random_encoder,
    random_prior,
    random_state,
)
from macfb.belief import (
    AugmentedState,
    JointBelief,
    initial_state,
    observation_distribution,
    predictive_distribution,
    update_joint,
    update_private,
)
from macfb.channel import MessageSpace
from macfb.kernel import ActionKernel

# ---------------------------------------------------------------------------
# reference: the per-cell formulas as they stood before the kernel, verbatim

_LN2 = float(np.log(2.0))
WEIGHT_EPS = 1e-15
ROW_MATCH_TOL = 1e-12


def entropy(p) -> float:
    arr = np.asarray(p, dtype=float)
    pos = arr[arr > 0.0]
    return float(-np.sum(pos * np.log(pos)) / _LN2)


def _column_entropies(cols: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(cols > 0.0, cols * np.log(cols), 0.0)
    return -plogp.sum(axis=0) / _LN2


def reward_i3(state, action, channel) -> float:
    pred = observation_distribution(state, action, channel)
    lik = channel.kernel[
        np.ix_(
            np.arange(channel.n_outputs),
            np.asarray(action.e1.table),
            np.asarray(action.e2.table),
        )
    ]
    cond = _column_entropies(lik.reshape(channel.n_outputs, -1)).reshape(state.pi.table.shape)
    return entropy(pred) - float((state.pi.table * cond).sum())


def _partition_cells(rows: np.ndarray, symbols) -> list:
    cells = []
    for m in range(rows.shape[0]):
        for cell in cells:
            rep = cell[0]
            if symbols[m] == symbols[rep] and np.max(np.abs(rows[m] - rows[rep])) <= ROW_MATCH_TOL:
                cell.append(m)
                break
        else:
            cells.append([m])
    return cells


def _one_sided(pi_own_first, other_rows, other_symbols, kernel_cols) -> float:
    total = 0.0
    for cell in _partition_cells(other_rows, other_symbols):
        block = pi_own_first[:, cell]
        w = float(block.sum())
        if w <= WEIGHT_EPS:
            continue
        own_weights = block.sum(axis=1) / w
        cols = kernel_cols(other_symbols[cell[0]])
        mix = cols @ own_weights
        cond = float(own_weights @ _column_entropies(cols))
        total += w * (entropy(mix) - cond)
    return total


def reward_i1(state, action, channel) -> float:
    e1 = np.asarray(action.e1.table)
    return _one_sided(
        state.pi.table,
        state.beta2.rows,
        action.e2.table,
        lambda x2: channel.kernel[:, e1, x2],
    )


def reward_i2(state, action, channel) -> float:
    e2 = np.asarray(action.e2.table)
    return _one_sided(
        state.pi.table.T,
        state.beta1.rows,
        action.e1.table,
        lambda x1: channel.kernel[:, x1, e2],
    )


# ---------------------------------------------------------------------------


def _varied_states(rng, space, alphabets):
    """Generic tables on a random prior; initial tables on a prior with
    zero-mass rows and columns; and tables refined by random encoders."""
    yield random_state(rng, space)
    prior = random_prior(rng, space.m1, space.m2)
    prior[int(rng.integers(space.m1)), :] = 0.0
    if space.m2 > 1:
        prior[:, int(rng.integers(space.m2))] = 0.0
    if prior.sum() <= 0.0:
        prior[0, 0] = 1.0
    prior /= prior.sum()
    state = initial_state(space, prior)
    yield state
    for _ in range(2):
        state = AugmentedState(
            state.pi,
            update_private(state.beta1, random_encoder(rng, space.m1, alphabets.x1)),
            update_private(state.beta2, random_encoder(rng, space.m2, alphabets.x2)),
        )
        yield state
    # the same refined tables on a fresh non-uniform prior
    yield AugmentedState(JointBelief(random_prior(rng, space.m1, space.m2)), state.beta1, state.beta2)


def _cases(seed, count):
    rng = make_rng(seed)
    for k in range(count):
        space = MessageSpace(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        ch = random_channel(
            rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(2, 5)),
            sparse=bool(k % 2),
        )
        actions = [random_action(rng, space, ch.alphabets) for _ in range(8)]
        for state in _varied_states(rng, space, ch.alphabets):
            yield ch, actions, state


def test_kernel_rewards_match_per_cell_reference():
    worst = 0.0
    checked = 0
    for ch, actions, state in _cases(71, 40):
        kernel = ActionKernel(ch, actions)
        pi = state.pi.table
        joint, p = kernel.joint(pi)
        i1, i2, i3 = kernel.rewards(pi, state.beta1.rows, state.beta2.rows, joint, p)
        for a, action in enumerate(actions):
            ref = (reward_i1(state, action, ch), reward_i2(state, action, ch),
                   reward_i3(state, action, ch))
            worst = max(worst, abs(i1[a] - ref[0]), abs(i2[a] - ref[1]), abs(i3[a] - ref[2]))
            checked += 1
    assert checked == 40 * 5 * 8
    assert worst <= 1e-12, worst


def test_kernel_bayes_updates_match_public_functions():
    for ch, actions, state in _cases(72, 30):
        kernel = ActionKernel(ch, actions)
        joint, p = kernel.joint(state.pi.table)
        post = kernel.posteriors(joint, p)
        ref1, ref2 = kernel.refined(state.beta1.rows, state.beta2.rows)
        for a, action in enumerate(actions):
            pred = predictive_distribution(state.pi, action, ch)
            np.testing.assert_allclose(p[a], pred, rtol=0.0, atol=1e-15)
            for y in range(ch.n_outputs):
                if pred[y] > 1e-15:
                    np.testing.assert_allclose(
                        post[a, y], update_joint(state.pi, action, y, ch).table, rtol=0.0, atol=1e-15
                    )
            np.testing.assert_array_equal(
                ref1[kernel.enc1_of[a]], update_private(state.beta1, action.e1).rows
            )
            np.testing.assert_array_equal(
                ref2[kernel.enc2_of[a]], update_private(state.beta2, action.e2).rows
            )


def test_kernel_zero_mass_cells_contribute_nothing():
    # all mass on one message pair: no output tells anything
    rng = make_rng(74)
    space = MessageSpace(3, 3)
    ch = random_channel(rng, 2, 2, 3, sparse=True)
    table = np.zeros((3, 3))
    table[1, 2] = 1.0
    actions = [random_action(rng, space, ch.alphabets) for _ in range(10)]
    kernel = ActionKernel(ch, actions)
    joint, p = kernel.joint(table)
    for values in kernel.rewards(table, np.eye(3), np.eye(3), joint, p):
        np.testing.assert_allclose(values, 0.0, atol=1e-12)
