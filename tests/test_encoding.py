from array import array

import numpy as np
import pytest

from conftest import make_rng, random_tree
from macfb.belief import uniform_initial
from macfb.channel import Alphabets, MessageSpace, preset
from macfb.encoding import (
    EncoderAction,
    EncoderFunction,
    PolicyTree,
    enumerate_actions,
    history_index,
    policy_from_csv,
    policy_to_csv,
    prune_actions,
)
from macfb.errors import ActionSpaceTooLarge
from macfb.reward import LambdaWeights

L3 = LambdaWeights(0.0, 0.0, 1.0)


def test_encoder_function_bounds():
    e = EncoderFunction((0, 1, 1), 2)
    assert e(2) == 1 and e.n_messages == 3
    with pytest.raises(ValueError):
        EncoderFunction((0, 2), 2)
    with pytest.raises(ValueError):
        EncoderFunction((), 2)


def test_enumerate_counts():
    adder = preset("adder")
    assert len(enumerate_actions(MessageSpace(2, 2), adder.alphabets)) == 16
    assert len(enumerate_actions(MessageSpace(3, 1), preset("bsc_p2p", (0.1,)).alphabets)) == 8


def test_enumerate_order_and_cap():
    adder = preset("adder")
    actions = enumerate_actions(MessageSpace(2, 2), adder.alphabets)
    assert actions[0].e1.table == (0, 0) and actions[0].e2.table == (0, 0)
    keys = [(a.e1.table, a.e2.table) for a in actions]
    assert keys == sorted(keys)
    with pytest.raises(ActionSpaceTooLarge):
        enumerate_actions(MessageSpace(2, 2), adder.alphabets, cap=15)


def test_policy_tree_shape_checks():
    with pytest.raises(ValueError):
        PolicyTree(1, 2, {})  # missing the root node
    empty = PolicyTree(0, 3, {})
    assert empty.depth == 0 and empty.items() == []


def test_policy_tree_with_many_distinct_actions():
    # more distinct actions than one byte can index
    actions = enumerate_actions(MessageSpace(3, 3), Alphabets(3, 3, 400))
    nodes = {(): actions[0]}
    nodes.update({(y,): actions[(7 * y + 1) % len(actions)] for y in range(400)})
    tree = PolicyTree(2, 400, nodes)
    assert len(set(nodes.values())) > 256
    assert all(tree.action_at(hist) == action for hist, action in nodes.items())
    assert tree.nodes == nodes
    assert tree != PolicyTree(2, 400, {**nodes, (399,): actions[0]})


@pytest.mark.parametrize("depth,n_outputs", [(0, 3), (1, 3), (3, 2), (4, 3), (2, 400)])
def test_policy_tree_from_indices_equals_dict_tree(depth, n_outputs):
    # an index array builds the tree that the dict of its nodes builds; the
    # first histories stay at index 0, as the solvers leave unreached ones,
    # and at 400 outputs the 401 nodes hold more distinct actions than one
    # byte can index
    rng = make_rng(depth * 1000 + n_outputs)
    actions = enumerate_actions(MessageSpace(3, 3), Alphabets(3, 3, n_outputs))
    histories = list(history_index(depth, n_outputs))
    at = rng.permutation(len(actions))[: len(histories)] if n_outputs > 256 else rng.integers(0, 5, len(histories))
    at[: len(at) // 3] = 0
    tree = PolicyTree.from_indices(depth, n_outputs, actions, at)
    nodes = {hist: actions[i] for hist, i in zip(histories, at)}
    expected = PolicyTree(depth, n_outputs, nodes)
    assert tree == expected and tree.depth == depth and tree.n_outputs == n_outputs
    assert tree.items() == expected.items() and tree.nodes == nodes
    assert all(tree.action_at(hist) == actions[0] for hist in histories[: len(at) // 3])
    # the same compact storage, slots numbered in order of first appearance
    assert (tree._distinct, tree._at) == (expected._distinct, expected._at)
    assert type(tree._at) is (array if len(set(at.tolist())) > 256 else bytes)
    if n_outputs <= 10:
        assert policy_to_csv(tree) == policy_to_csv(expected)
    with pytest.raises(ValueError):
        PolicyTree.from_indices(depth, n_outputs, actions, np.append(at, 0))


def test_policy_csv_round_trip():
    rng = make_rng(7)
    ch = preset("adder")
    space = MessageSpace(2, 2)
    tree = random_tree(rng, space, ch.alphabets, depth=2)
    text = policy_to_csv(tree)
    assert text.splitlines()[0] == "t,history,e1,e2"
    again = policy_from_csv(text, ch.alphabets)
    assert again == tree
    assert policy_to_csv(again) == text


def test_policy_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        policy_from_csv("who,knows\n", preset("adder").alphabets)


def test_prune_is_order_preserving_subsequence():
    ch = preset("adder")
    space = MessageSpace(2, 2)
    state = uniform_initial(space)
    actions = enumerate_actions(space, ch.alphabets)
    kept = prune_actions(actions, state, ch, L3)
    it = iter(actions)
    assert all(any(a is k for a in it) for k in kept)
    assert kept[0] is actions[0]


def test_prune_useless_channel_keeps_partition_pairs():
    # the channel never separates anything, but private tables still move
    # with each encoder's message partition: 2 partitions per sender -> 4
    ch = preset("useless")
    space = MessageSpace(2, 2)
    state = uniform_initial(space)
    kept = prune_actions(enumerate_actions(space, ch.alphabets), state, ch, L3)
    assert len(kept) == 4


def test_prune_keeps_distinct_rewards_apart():
    ch = preset("adder")
    space = MessageSpace(2, 2)
    state = uniform_initial(space)
    kept = prune_actions(enumerate_actions(space, ch.alphabets), state, ch, L3)
    constant = EncoderAction(EncoderFunction((0, 0), 2), EncoderFunction((0, 0), 2))
    identity = EncoderAction(EncoderFunction((0, 1), 2), EncoderFunction((0, 1), 2))
    assert constant in kept
    assert identity in kept
