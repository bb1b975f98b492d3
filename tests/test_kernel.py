"""The batched action kernel against the per-cell reward formulas it replaced,
against its own earlier reductions bit for bit, and against the public Bayes
updates."""

import numpy as np
import pytest

from conftest import (
    make_rng,
    random_action,
    random_channel,
    random_encoder,
    random_prior,
    random_state,
    random_tree,
)
from macfb import dp, encoding
from macfb import kernel as kernel_module
from macfb.belief import (
    MASS_EPS,
    AugmentedState,
    JointBelief,
    PrivateBeliefTable,
    initial_state,
    observation_distribution,
    predictive_distribution,
    update_joint,
    update_private,
)
from macfb.channel import MessageSpace, preset
from macfb.encoding import PRUNE_TOL, enumerate_actions
from macfb.kernel import ROW_MATCH_TOL as KERNEL_ROW_MATCH_TOL
from macfb.kernel import ActionKernel, root_labels, row_classes
from macfb.reward import LambdaWeights, reward_weighted

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
# reference: the kernel's rewards as they stood before the in-order sums,
# verbatim (``rewards`` as a function of the kernel)


def _xlogx(x: np.ndarray) -> np.ndarray:
    """Elementwise x ln x with the 0 ln 0 = 0 convention."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0.0, x * np.log(x), 0.0)


def _row_classes(rows: np.ndarray) -> np.ndarray:
    """Label each message by the class of private rows it belongs to.

    A message joins the first class whose representative row matches its
    own entrywise within ROW_MATCH_TOL; labels count up from 0 in order of
    first appearance. ``rows`` is (..., M, M) and the labels (..., M).
    """
    close = np.max(np.abs(rows[..., :, None, :] - rows[..., None, :, :]), axis=-1) <= ROW_MATCH_TOL
    n = rows.shape[-1]
    # rep[..., m]: the representative message of m's class
    rep = np.empty(rows.shape[:-1], dtype=np.intp)
    own = np.ones(rows.shape[:-2] + (1,), dtype=bool)
    for m in range(n):
        match = close[..., m, :m] & (rep[..., :m] == np.arange(m))
        rep[..., m] = np.concatenate([match, own], axis=-1).argmax(axis=-1)
    is_rep = rep == np.arange(n)
    return np.take_along_axis(np.cumsum(is_rep, axis=-1) - 1, rep, axis=-1)


def _cell_entropy(marginal: np.ndarray, classes: np.ndarray, symbols: np.ndarray,
                  n_symbols: int) -> np.ndarray:
    """H(Y | C) in bits for every action.

    marginal[..., a, y, m] is the joint of the output and the conditioning
    sender's message m; C groups m by (private-row class, current symbol).
    A batch of states shares one cell count, the largest; the cells a state
    lacks hold no mass and add exact zeros. Below 8 cells numpy sums them
    in index order, so the padding leaves every bit as it was; from 8 on
    its pairwise summation may regroup the terms.
    """
    n_cells = (int(classes.max()) + 1) * n_symbols
    labels = classes[..., None, :] * n_symbols + symbols
    onehot = (labels[..., None] == np.arange(n_cells)).astype(float)
    cells = marginal @ onehot  # (..., A, Y, cells)
    mass = cells.sum(axis=-2)
    return (_xlogx(mass) - _xlogx(cells).sum(axis=-2)).sum(axis=-1) / _LN2


def rewards(self, pi, rows1, rows2, joint, p) -> tuple:
    """(i1, i2, i3) in bits, one (..., A) array each."""
    # the noise table as the earlier kernel stored it, (A, M1, M2)
    noise = np.ascontiguousarray(np.moveaxis(self.noise, -1, 0))
    noise = (noise * pi[..., None, :, :]).reshape(p.shape[:-1] + (-1,)).sum(axis=-1)
    i3 = -_xlogx(p).sum(axis=-1) / _LN2 - noise
    i1 = _cell_entropy(joint.sum(axis=-2), _row_classes(rows2), self.e2, self.n_x2) - noise
    i2 = _cell_entropy(joint.sum(axis=-1), _row_classes(rows1), self.e1, self.n_x1) - noise
    return i1, i2, i3


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
        i1, i2, i3 = kernel.rewards(pi, *_labels(state), p)
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
        ref1, ref2 = kernel.refined(*_labels(state))
        for a, action in enumerate(actions):
            pred = predictive_distribution(state.pi, action, ch)
            np.testing.assert_allclose(p[a], pred, rtol=0.0, atol=1e-15)
            for y in range(ch.n_outputs):
                if pred[y] > 1e-15:
                    np.testing.assert_allclose(
                        post[:, :, a, y], update_joint(state.pi, action, y, ch).table, rtol=0.0, atol=1e-15
                    )
            for ref, of, table, enc in ((ref1, kernel.enc1_of, state.beta1, action.e1),
                                        (ref2, kernel.enc2_of, state.beta2, action.e2)):
                assert ref[:, of[a]].tolist() == row_classes(update_private(table, enc).rows).tolist()


def _priors_with_zero_mass(rng, m1, m2) -> tuple:
    """A product, a non-product and a prior with a zero-mass message on
    each side that has more than one."""
    product = np.outer(rng.dirichlet(np.ones(m1)), rng.dirichlet(np.ones(m2)))
    zero = random_prior(rng, m1, m2)
    if m1 > 1:
        zero[int(rng.integers(m1)), :] = 0.0
    if m2 > 1:
        zero[:, int(rng.integers(m2))] = 0.0
    return product / product.sum(), random_prior(rng, m1, m2), zero / zero.sum()


def test_label_refinement_equals_row_classes_of_float_tables():
    # from every start the solvers use, the labels the kernel refines along
    # an encoder sequence are exactly the row classes of the tables
    # update_private refines along it, and a zero-mass message stays a
    # class of its own
    rng = make_rng(73)
    steps = 0
    for _ in range(40):
        space = MessageSpace(int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        ch = random_channel(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), 2)
        for prior in (None,) + _priors_with_zero_mass(rng, space.m1, space.m2):
            state = initial_state(space, prior)
            pi = state.pi.table
            marginals = (pi.sum(axis=1), pi.sum(axis=0))
            tables = [state.beta1, state.beta2]
            labels = [root_labels(m) for m in marginals]
            assert [own.tolist() for own in labels] == [row_classes(t.rows).tolist() for t in tables]
            for _ in range(int(rng.integers(1, 5))):
                action = random_action(rng, space, ch.alphabets)
                labels = [ref[:, 0] for ref in ActionKernel(ch, [action]).refined(*labels)]
                tables = [update_private(tables[0], action.e1), update_private(tables[1], action.e2)]
                for marginal, own, table in zip(marginals, labels, tables):
                    assert own.tolist() == row_classes(table.rows).tolist()
                    for m in np.flatnonzero(marginal <= 0.0):
                        assert (own == own[m]).sum() == 1
                steps += 1
    assert steps > 300


def test_root_labels_equal_first_labels_of_mass_codes():
    # the plain-Python numbering against the array one it replaced, on every
    # zero-mass pattern: at the front, in the middle, at the end, everywhere
    # but one message and everywhere
    rng = make_rng(75)
    for m in range(1, 8):
        for pattern in range(1 << m):
            marginal = rng.dirichlet(np.ones(m)) * ((pattern >> np.arange(m)) & 1)
            got = root_labels(marginal)
            want = kernel_module._first_labels(np.where(marginal > 0, -1, np.arange(m)))
            assert got.dtype == want.dtype and got.tolist() == want.tolist()


def _first_appearance(codes: np.ndarray) -> np.ndarray:
    """Each code along the leading axis numbered in order of first
    appearance, one column of the trailing axes at a time, in plain Python."""
    columns = codes.reshape(len(codes), -1).T.tolist()
    labels = []
    for column in columns:
        seen = {}
        labels.append([seen.setdefault(code, len(seen)) for code in column])
    return np.array(labels, dtype=np.intp).T.reshape(codes.shape)


@pytest.mark.parametrize("shape", [(1,), (7,), (3, 8), (1, 4, 5), (3, 8, 98), (7, 3, 200)])
def test_first_labels_equal_first_appearance_reference(shape):
    rng = make_rng(76)
    for high in (2, 3, 9):
        codes = rng.integers(-1, high, shape)
        got = kernel_module._first_labels(codes)
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, _first_appearance(codes))


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
    for values in kernel.rewards(table, np.arange(3), np.arange(3), p):
        np.testing.assert_allclose(values, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# bit for bit: the batched kernel against the earlier kernel, one state at a
# time


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


def _labels(state) -> tuple:
    """The row classes of a state's two private tables."""
    return row_classes(state.beta1.rows), row_classes(state.beta2.rows)


def _stack(states) -> tuple:
    """pi and both senders' labels of a batch of states, batch last."""
    return (
        np.stack([s.pi.table for s in states], axis=-1),
        np.stack([row_classes(s.beta1.rows) for s in states], axis=-1),
        np.stack([row_classes(s.beta2.rows) for s in states], axis=-1),
    )


def _state_batch(rng, space, alphabets, size) -> list:
    states = []
    while len(states) < size:
        states.extend(_varied_states(rng, space, alphabets))
    order = rng.permutation(len(states))
    return [states[i] for i in order[:size]]


def _bitwise_instances(rng):
    """(channel, space, actions): the named channels at 2x2, 2x3 and 3x3
    messages, a one-message sender, an output alphabet of 9, and a
    4-message sender on either side."""
    channels = [
        preset("adder"),
        preset("multiplier"),
        preset("noisy_adder", (0.1,)),
        random_channel(rng, 3, 2, 4, sparse=True),
        random_channel(rng, 2, 2, 9),
    ]
    for ch in channels:
        for m1, m2 in ((2, 2), (2, 3), (3, 3)):
            space = MessageSpace(m1, m2)
            actions = enumerate_actions(space, ch.alphabets)
            if len(actions) > 64:
                actions = [actions[int(i)] for i in rng.choice(len(actions), 64, replace=False)]
            yield ch, space, actions
    ch = preset("bsc_p2p", (0.1,))
    space = MessageSpace(2, 1)
    yield ch, space, enumerate_actions(space, ch.alphabets)
    ch = random_channel(rng, 3, 2, 4, sparse=True)
    for m1, m2 in ((4, 2), (2, 4)):
        space = MessageSpace(m1, m2)
        actions = enumerate_actions(space, ch.alphabets)
        yield ch, space, [actions[int(i)] for i in rng.choice(len(actions), 64, replace=False)]


@pytest.mark.parametrize("batch", [1, 4, 73])
def test_kernel_rewards_bitwise_equal_earlier_kernel_alone(batch):
    rng = make_rng(80 + batch)
    for ch, space, actions in _bitwise_instances(rng):
        kernel = ActionKernel(ch, actions)
        states = _state_batch(rng, space, ch.alphabets, batch)
        pis, labels1, labels2 = _stack(states)
        joint, p = kernel.joint(pis)
        got = kernel.rewards(pis, labels1, labels2, p)
        # the branch form: the output entropies taken per branch and
        # gathered per pair keep the bits of the gathered per-pair masses
        _, by_branch = kernel.branch_joint(pis)
        gathered = kernel.rewards(pis, labels1, labels2, by_branch[kernel.branch_of])
        for new, old, pairs in zip(kernel.rewards(pis, labels1, labels2, by_branch, kernel.branch_of),
                                   gathered, got):
            np.testing.assert_array_equal(_bits(new), _bits(old))
            np.testing.assert_array_equal(_bits(new), _bits(pairs))
        for s, state in enumerate(states):
            pi = state.pi.table
            joint, p = kernel.joint(pi)
            want = rewards(kernel, pi, state.beta1.rows, state.beta2.rows,
                           np.ascontiguousarray(np.moveaxis(joint, (0, 1), (-2, -1))), p)
            for new, old in zip(got, want):
                np.testing.assert_array_equal(_bits(new[:, s]), _bits(old))


def test_kernel_batch_equals_one_state_at_a_time_at_nine_cells():
    # ternary inputs and three messages a side: up to 3 row classes x 3
    # symbols = 9 cells, where numpy sums the cells pairwise
    rng = make_rng(90)
    space = MessageSpace(3, 3)
    ch = random_channel(rng, 3, 3, 3)
    actions = [random_action(rng, space, ch.alphabets) for _ in range(40)]
    kernel = ActionKernel(ch, actions)
    states = _state_batch(rng, space, ch.alphabets, 120)
    pis, labels1, labels2 = _stack(states)
    counts = {int(labels.max()) + 1 for labels in labels2.T}
    assert 3 in counts and len(counts) > 1  # 9 cells and fewer, in one batch
    joint, p = kernel.joint(pis)
    batched = kernel.rewards(pis, labels1, labels2, p)
    for s, state in enumerate(states):
        pi = state.pi.table
        alone = kernel.rewards(pi, *_labels(state), kernel.joint(pi)[1])
        for many, one in zip(batched, alone):
            np.testing.assert_array_equal(_bits(many[:, s]), _bits(one))


def test_kernel_one_cell_sender_bitwise_equal_alone_and_in_a_mixed_batch():
    # sender 1 has one input symbol and there are 12 outputs: a state whose
    # sender-1 rows form one class has a single i2 cell, and its bits must
    # not depend on a two-class state in its batch padding the cells to two
    rng = make_rng(97)
    space = MessageSpace(2, 3)
    for _ in range(20):
        ch = random_channel(rng, 1, 2, 12)
        kernel = ActionKernel(ch, enumerate_actions(space, ch.alphabets))
        one = initial_state(space, random_prior(rng, 2, 3))
        two = AugmentedState(JointBelief(random_prior(rng, 2, 3)), PrivateBeliefTable(np.eye(2)), one.beta2)
        assert row_classes(one.beta1.rows).tolist() == [0, 0]
        pis, labels1, labels2 = _stack([one, two])
        batched = kernel.rewards(pis, labels1, labels2, kernel.joint(pis)[1])
        pi = one.pi.table
        alone = kernel.rewards(pi, *_labels(one), kernel.joint(pi)[1])
        for many, single in zip(batched, alone):
            np.testing.assert_array_equal(_bits(many[:, 0]), _bits(single))


@pytest.mark.parametrize("m1, m2", [(4, 2), (2, 4), (6, 2), (7, 1), (1, 7)])
def test_kernel_batch_equals_one_state_at_many_messages(m1, m2):
    # a cell's members are summed in message order whatever the batch size:
    # a batch, a batch of one and a state alone give the same bits, with
    # member sets of up to 7 messages
    rng = make_rng(100 + 10 * m1 + m2)
    space = MessageSpace(m1, m2)
    ch = random_channel(rng, 2, 2, 3)
    actions = [random_action(rng, space, ch.alphabets) for _ in range(24)]
    kernel = ActionKernel(ch, actions)
    states = _state_batch(rng, space, ch.alphabets, 12)
    pis, labels1, labels2 = _stack(states)
    batched = kernel.rewards(pis, labels1, labels2, kernel.joint(pis)[1])
    for s, state in enumerate(states):
        pi, (labels1, labels2) = state.pi.table, _labels(state)
        alone = kernel.rewards(pi, labels1, labels2, kernel.joint(pi)[1])
        one = kernel.rewards(pi[..., None], labels1[:, None], labels2[:, None],
                             kernel.joint(pi[..., None])[1])
        for many, single, first in zip(batched, alone, one):
            np.testing.assert_array_equal(_bits(many[:, s]), _bits(single))
            np.testing.assert_array_equal(_bits(first[:, 0]), _bits(single))


def test_row_classes_do_not_chain_tolerance_matches():
    # r0 ~ r1 and r1 ~ r2 within the tolerance, r0 !~ r2: a message joins
    # the first class whose representative matches, which is not transitive
    step = np.array([6e-13, -6e-13, 0.0])
    r0 = np.array([0.5, 0.3, 0.2])
    r1 = r0 + step
    r2 = r1 + step
    assert np.max(np.abs(r1 - r0)) <= KERNEL_ROW_MATCH_TOL
    assert np.max(np.abs(r2 - r1)) <= KERNEL_ROW_MATCH_TOL
    assert np.max(np.abs(r2 - r0)) > KERNEL_ROW_MATCH_TOL
    rows = np.array([r0, r1, r2])
    assert row_classes(rows).tolist() == [0, 0, 1]
    assert _row_classes(rows).tolist() == [0, 0, 1]
    batch = np.stack([rows, rows[::-1], np.eye(3)])
    assert row_classes(batch).tolist() == [[0, 0, 1], [0, 0, 1], [0, 1, 2]]


# ---------------------------------------------------------------------------
# branches: the (action, output) pairs that share one Bayes update


def _partition(table) -> tuple:
    """Message partition of an encoder table, as a frozenset of blocks."""
    blocks = {}
    for m, x in enumerate(table):
        blocks.setdefault(x, []).append(m)
    return frozenset(tuple(b) for b in blocks.values())


def _branch_instances():
    rng = make_rng(95)
    sparse = random_channel(rng, 2, 2, 3, sparse=True)
    ternary = random_channel(rng, 3, 2, 4, sparse=True)
    for ch in (preset("noisy_adder", (0.1,)), preset("adder"), sparse, ternary):
        for m1, m2 in ((2, 2), (2, 3), (3, 3)):
            space = MessageSpace(m1, m2)
            yield ch, space, ActionKernel(ch, enumerate_actions(space, ch.alphabets))


def test_branch_members_share_column_and_partitions():
    for ch, space, kernel in _branch_instances():
        n_actions, n_outputs = kernel.branch_of.shape
        assert (n_actions, n_outputs) == (len(kernel), ch.n_outputs)
        flat = kernel.branch_of.ravel()
        # numbered in order of first (action, output) pair
        firsts = [int(np.flatnonzero(flat == b)[0]) for b in range(len(kernel.branch_pair))]
        assert firsts == sorted(firsts) == kernel.branch_pair.tolist()
        keys = {}
        for a, action in enumerate(kernel.actions):
            for y in range(n_outputs):
                column = kernel.lik[:, :, a, y].tobytes()
                key = (column, _partition(action.e1.table), _partition(action.e2.table))
                keys.setdefault(kernel.branch_of[a, y], set()).add(key)
        # one key per branch, and different branches have different keys
        assert all(len(k) == 1 for k in keys.values())
        assert len({next(iter(k)) for k in keys.values()}) == len(keys) == len(kernel.branch_pair)
        for b, pair in enumerate(kernel.branch_pair):
            a, y = divmod(int(pair), n_outputs)
            assert kernel.branch_lik[:, :, b].tobytes() == kernel.lik[:, :, a, y].tobytes()
            assert kernel.branch_enc1[b] == kernel.enc1_of[a]
            assert kernel.branch_enc2[b] == kernel.enc2_of[a]


def test_branch_counts_noisy_adder():
    ch = preset("noisy_adder", (0.1,))
    for m, pairs, branches in ((2, 48, 14), (3, 192, 74)):
        kernel = ActionKernel(ch, enumerate_actions(MessageSpace(m, m), ch.alphabets))
        assert (kernel.branch_of.size, len(kernel.branch_pair)) == (pairs, branches)


def test_branch_map_built_on_first_access():
    # only the finite-horizon programs read the branches; the other users of
    # a kernel never pay for them
    ch = preset("noisy_adder", (0.1,))
    space = MessageSpace(2, 2)
    kernel = ActionKernel(ch, enumerate_actions(space, ch.alphabets))
    pi = np.full((2, 2), 0.25)
    own = np.arange(2)
    kernel.weighted(LambdaWeights(0.3, 0.3, 0.4), pi, own, own, kernel.joint(pi)[1])
    kernel.refined(own, own)
    assert "_branches" not in vars(kernel)
    assert kernel.branch_of is kernel.branch_of
    assert "_branches" in vars(kernel)


def test_kernel_arrays_are_read_only():
    # a kernel outlives its solve (``dp._enumerated_kernel``), so no write
    # may reach the tables every later solve on the channel reads
    ch = preset("noisy_adder", (0.1,))
    space = MessageSpace(2, 2)
    kernel = ActionKernel(ch, enumerate_actions(space, ch.alphabets))
    tables = (kernel.e1, kernel.e2, kernel._enc1, kernel.enc1_of, kernel._enc2, kernel.enc2_of,
              kernel.lik, kernel.noise, *kernel._branches, *kernel._cells[0], *kernel._cells[1])
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 0


def test_reward_tables_built_on_first_reward_call(monkeypatch):
    # the cell tables are built by the first reward evaluation, so DSAHT and
    # its decoder, which evaluate none, never build them; the gather tables
    # are (symbols, actions), with no entry per member set or per pattern
    # of row classes
    built = []

    class Recorded(ActionKernel):
        def __init__(self, *args):
            super().__init__(*args)
            assert "_cells" not in vars(self)
            built.append(self)

    monkeypatch.setattr(dp, "ActionKernel", Recorded)
    monkeypatch.setattr(encoding, "ActionKernel", Recorded)
    ch = preset("noisy_adder", (0.1,))
    space = MessageSpace(3, 2)
    weights = LambdaWeights(0.3, 0.3, 0.4)
    assert dp.solve_dsaht(ch, space, 2).decoder
    assert len(built) == 2 and not any("_cells" in vars(k) for k in built)
    built.clear()
    # a channel object shares one enumerated kernel between its solves, so
    # each call gets a channel of its own
    dp.solve_stationary(preset("noisy_adder", (0.1,)), space, weights, 3)
    dp.solve_stationary(preset("noisy_adder", (0.1,)), space, weights, 3, renewal="none")
    encoding.prune_actions(enumerate_actions(space, ch.alphabets), random_state(make_rng(98), space),
                           preset("noisy_adder", (0.1,)), weights)
    assert len(built) == 3
    for kernel in built:
        assert "_branches" not in vars(kernel)
        (_, masks2, base2), (_, masks1, base1) = kernel._cells
        assert masks1.shape == base1.shape == (2, len(kernel))
        assert masks2.shape == base2.shape == (2, len(kernel))


def test_tables_built_where_they_are_read(monkeypatch):
    # the cell tables are built only by a reward evaluation and the encoder
    # partitions only by the branch map, so a DSAHT solve and its decoder
    # walk build no cell tables and a one-action reward builds no partitions
    calls = {"_cell_tables": 0, "first_rows": 0}

    def counted(name):
        wrapped = getattr(kernel_module, name)

        def count(*args):
            calls[name] += 1
            return wrapped(*args)

        return count

    for name in calls:
        monkeypatch.setattr(kernel_module, name, counted(name))
    assert dp.solve_dsaht(preset("noisy_adder", (0.1,)), MessageSpace(3, 2), 2).decoder
    assert calls["_cell_tables"] == 0
    space, ch = MessageSpace(3, 2), preset("noisy_adder", (0.1,))
    calls["first_rows"] = 0
    reward_weighted(initial_state(space), random_action(make_rng(101), space, ch.alphabets), ch,
                    LambdaWeights(0.3, 0.3, 0.4))
    assert calls["first_rows"] == 0


def test_branch_updates_bitwise_equal_every_member():
    rng = make_rng(96)
    for ch, space, kernel in _branch_instances():
        states = _state_batch(rng, space, ch.alphabets, 6)
        pis, labels1, labels2 = _stack(states)
        joint, p = kernel.joint(pis)
        post = kernel.posteriors(joint, p)
        branch_joint, branch_p = kernel.branch_joint(pis)
        branch_post = kernel.posteriors(branch_joint, branch_p)
        ref1, ref2 = kernel.refined(labels1, labels2)
        for a in range(len(kernel)):
            b = kernel.branch_of[a]
            np.testing.assert_array_equal(_bits(p[a]), _bits(branch_p[b]))
            np.testing.assert_array_equal(_bits(post[:, :, a]), _bits(branch_post[:, :, b]))
            for y in range(ch.n_outputs):
                np.testing.assert_array_equal(ref1[:, kernel.enc1_of[a]], ref1[:, kernel.branch_enc1[b[y]]])
                np.testing.assert_array_equal(ref2[:, kernel.enc2_of[a]], ref2[:, kernel.branch_enc2[b[y]]])


def test_subset_kernel_builds_its_own_tables():
    # the kernels of a policy's distinct actions and of the enumerated
    # actions in another order build tables that agree with the full
    # kernel's at the same actions
    rng = make_rng(99)
    ch, space = preset("noisy_adder", (0.1,)), MessageSpace(3, 3)
    full = ActionKernel(ch, enumerate_actions(space, ch.alphabets))
    tree = random_tree(rng, space, ch.alphabets, 2)
    pis, labels1, labels2 = _stack(_state_batch(rng, space, ch.alphabets, 6))
    weights = LambdaWeights(0.3, 0.3, 0.4)
    rewards = full.weighted(weights, pis, labels1, labels2, full.joint(pis)[1])
    ref1, ref2 = full.refined(labels1, labels2)
    index = {action: a for a, action in enumerate(full.actions)}
    for sub in (dp.policy_kernel(ch, tree), ActionKernel(ch, full.actions[::-1])):
        idx = np.array([index[action] for action in sub.actions])
        np.testing.assert_array_equal(sub.e1, full.e1[idx])
        np.testing.assert_array_equal(sub.e2, full.e2[idx])
        np.testing.assert_array_equal(sub._enc1[sub.enc1_of], full._enc1[full.enc1_of[idx]])
        np.testing.assert_array_equal(sub._enc2[sub.enc2_of], full._enc2[full.enc2_of[idx]])
        np.testing.assert_array_equal(
            _bits(sub.weighted(weights, pis, labels1, labels2, sub.joint(pis)[1])), _bits(rewards[idx]))
        sub1, sub2 = sub.refined(labels1, labels2)
        np.testing.assert_array_equal(sub1[:, sub.enc1_of], ref1[:, full.enc1_of[idx]])
        np.testing.assert_array_equal(sub2[:, sub.enc2_of], ref2[:, full.enc2_of[idx]])


def _first_per_update(kernel, pi, labels1, labels2, totals) -> list:
    """Indices, ascending, of the first action of each group of equal
    update and equal total at one state, grouped in plain Python: an
    action's key is its predictive mass and posteriors (zeros where the
    mass is at or below MASS_EPS) on every output, rounded to multiples
    of PRUNE_TOL, both refined labels and its rounded total."""
    joint, p = kernel.joint(pi)
    post = kernel.posteriors(joint, p)
    ref1, ref2 = kernel.refined(labels1, labels2)
    first = {}
    for a in range(len(kernel)):
        update = []
        for y in range(p.shape[1]):
            cell = post[:, :, a, y] if p[a, y] > MASS_EPS else np.zeros_like(post[:, :, a, y])
            update.extend(np.rint(np.append(p[a, y], cell) / PRUNE_TOL) + 0.0)
        key = (tuple(update), tuple(ref1[:, kernel.enc1_of[a]]), tuple(ref2[:, kernel.enc2_of[a]]),
               float(np.rint(totals[a] / PRUNE_TOL) + 0.0))
        first.setdefault(key, a)
    return sorted(first.values())


def _merged_class_states(rng, space) -> list:
    """States where a message without mass shares its private class with
    one that has mass, on either side: encoders that part the two give the
    same Bayes update and differ only in their refined labels."""
    states = []
    for side in (1, 2):
        pi = random_prior(rng, space.m1, space.m2)
        if side == 1:
            pi[-1, :] = 0.0
        else:
            pi[:, -1] = 0.0
        one = PrivateBeliefTable(np.full((space.m1,) * 2, 1.0 / space.m1))
        two = PrivateBeliefTable(np.full((space.m2,) * 2, 1.0 / space.m2))
        states.append(AugmentedState(JointBelief(pi / pi.sum()), one, two))
    return states


def test_prune_mask_keeps_the_first_action_of_each_update_and_total():
    # the pair form (prune_actions, one state) and the branch form (a batch
    # of states, read through branch_of as the horizon program does) keep
    # the first action of each group; sparse channels give zero-mass
    # branches, and the states include non-product and zero-mass priors
    rng = make_rng(100)
    weights = LambdaWeights(0.3, 0.3, 0.4)
    merged = kept = 0
    for ch, space, kernel in _branch_instances():
        states = _state_batch(rng, space, ch.alphabets, 5) + _merged_class_states(rng, space)
        pis, labels1, labels2 = _stack(states)
        rewards = kernel.weighted(weights, pis, labels1, labels2, kernel.joint(pis)[1])
        joint, p = kernel.branch_joint(pis)
        ref1, ref2 = kernel.refined(labels1, labels2)
        # where every total is equal the update alone decides; totals of 0
        # and 1, off by less than half of PRUNE_TOL, split the updates
        coarse = rng.integers(0, 2, rewards.shape) + 1e-14 * rng.random(rewards.shape)
        for totals in (rewards, np.zeros_like(rewards), coarse):
            mask = kernel.prune_mask(p, kernel.posteriors(joint, p), ref1, ref2, kernel.branch_of,
                                     totals, PRUNE_TOL)
            for s in range(len(states)):
                expected = _first_per_update(kernel, pis[..., s], labels1[:, s], labels2[:, s], totals[:, s])
                assert np.flatnonzero(mask[:, s]).tolist() == expected
                merged += len(kernel) - len(expected)
                kept += len(expected)
        for s, state in enumerate(states):
            expected = _first_per_update(kernel, pis[..., s], labels1[:, s], labels2[:, s], rewards[:, s])
            assert encoding.prune_actions(kernel.actions, state, ch, weights) == \
                [kernel.actions[a] for a in expected]
    assert merged and kept


# ---------------------------------------------------------------------------
# the slice sums against numpy's own sums, bit for bit


def test_slice_sums_equal_numpy_bit_for_bit():
    # ``_sum`` adds the leading axis in numpy's order along a contiguous
    # axis: index order below 8 terms, eight running sums from 8 to 128.
    # Above 128 numpy recurses and ``_sum`` hands the sum to it, so 129 and
    # 300 check the cut-off. ``_sum_in_order`` adds in index order, as numpy
    # does along an axis that more entries follow. The terms span 16
    # decades and hold exact zeros and -0.0, and one column is all -0.0,
    # whose sum is +0.0
    rng = make_rng(101)
    for n in list(range(1, 129)) + [129, 300]:
        x = rng.standard_normal((n, 7, 5)) * 10.0 ** rng.uniform(-8.0, 8.0, (n, 7, 5))
        x[rng.random(x.shape) < 0.1] = 0.0
        x[rng.random(x.shape) < 0.1] = -0.0
        x[:, 0, 0] = -0.0
        want = np.ascontiguousarray(np.moveaxis(x, 0, -1)).sum(axis=-1)
        np.testing.assert_array_equal(_bits(kernel_module._sum(x)), _bits(want))
        np.testing.assert_array_equal(_bits(kernel_module._sum_in_order(x)), _bits(x.sum(axis=0)))
    assert not np.signbit(kernel_module._sum(np.full((9, 2), -0.0))).any()
