import itertools
import tracemalloc
from array import array

import numpy as np
import pytest

from conftest import MISFITS, make_rng, random_tree
from macfb.belief import uniform_initial
from macfb.channel import Alphabets, MessageSpace, preset
from macfb.encoding import (
    EncoderAction,
    EncoderFunction,
    PolicyTree,
    enumerate_actions,
    histories,
    policy_from_csv,
    policy_to_csv,
    prune_actions,
    tree_size,
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


def _histories(depth, n_outputs):
    """The histories shorter than ``depth``, shortest first, each length in
    lexicographic order."""
    return [hist for t in range(depth) for hist in itertools.product(range(n_outputs), repeat=t)]


@pytest.mark.parametrize("depth,n_outputs", [(0, 3), (1, 1), (4, 1), (1, 3), (3, 2), (5, 3), (2, 400)])
def test_histories_and_tree_size_count_the_tree(depth, n_outputs):
    hists = _histories(depth, n_outputs)
    assert list(histories(n_outputs, depth)) == hists
    assert tree_size(n_outputs, depth) == len(hists)
    # a cap at or over the size leaves it exact
    assert tree_size(n_outputs, depth, len(hists)) == len(hists)
    # the position of a history is the size of the shorter ones plus its
    # base-|Y| reading
    for position, hist in enumerate(hists):
        reading = sum(y * n_outputs ** (len(hist) - 1 - i) for i, y in enumerate(hist))
        assert position == tree_size(n_outputs, len(hist)) + reading


def test_capped_tree_size_stops_past_the_cap():
    # a size over the cap is a lower bound, and a deep tree's size is never computed
    for n_outputs, depth, cap in ((3, 13, 10**6), (3, 14, 10**6), (2, 10**9, 100), (3, 10**18, 1)):
        size = tree_size(n_outputs, depth, cap)
        exact = tree_size(n_outputs, depth) if depth < 100 else None
        assert (size > cap) == (exact is None or exact > cap)
        assert exact is None or size <= exact
        assert size.bit_length() < 64
    assert tree_size(3, 13, 10**6) == 797_161
    assert tree_size(1, 10**18, 5) == 10**18


def test_policy_tree_shape_checks():
    with pytest.raises(ValueError):
        PolicyTree(1, 2, {})  # missing the root node
    empty = PolicyTree(0, 3, {})
    assert empty.depth == 0 and empty.items() == []
    # a key that is no history is named, the first one in the dict's order
    action = enumerate_actions(MessageSpace(1, 1), Alphabets(2, 2, 3))[0]
    for nodes, bad in (({(): action, (0,): action, (3,): action, (1,): action}, r"\(3,\)"),
                       ({(): action, (0,): action, (1,): action, "2": action}, "'2'"),
                       ({5: action}, "5")):
        with pytest.raises(ValueError, match=f"history {bad} invalid"):
            PolicyTree(2 if len(nodes) > 1 else 1, 3, nodes)


def test_action_at_refuses_histories_outside_the_tree():
    actions = enumerate_actions(MessageSpace(2, 2), preset("adder").alphabets)
    tree = PolicyTree.from_indices(3, 3, actions, np.arange(13))
    assert tree.action_at((2, 2)) is actions[12] and tree.action_at(np.array([1, 0])) is actions[7]
    for hist in ((0, 0, 0), (0, 1, 2, 0), (-1,), (0, -1), (3,), (1, 3), (0.5,), (1.0, 0), ("0",), (None,)):
        with pytest.raises(KeyError):
            tree.action_at(hist)
    with pytest.raises(KeyError):
        PolicyTree(0, 3, {}).action_at(())


def test_deep_tree_stores_no_histories():
    # 797,161 nodes: a dict of every history took 160 MB
    actions = enumerate_actions(MessageSpace(2, 2), preset("adder").alphabets)
    at = np.arange(tree_size(3, 13)) % len(actions)
    tracemalloc.start()
    try:
        tree = PolicyTree.from_indices(13, 3, actions, at)
        last = tree.action_at((2,) * 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert last is actions[(len(at) - 1) % len(actions)]
    # the same action first sits at position 797,160 mod 16 = 8
    assert tree.first_history(last) == (1, 1)
    assert peak < 20e6


def test_policy_csv_refuses_a_deep_row_at_once():
    # one row at t = 30 names a tree of about 1e14 nodes
    text = "t,history,e1,e2\n30," + "0" * 29 + ",01,01\n"
    with pytest.raises(ValueError, match="1 nodes do not make a complete tree of depth 30"):
        policy_from_csv(text, preset("adder").alphabets)


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
    # the slots are a view of the tree's store, so no caller may write them
    assert not tree.slots().flags.writeable


@pytest.mark.parametrize("depth,n_outputs", [(0, 3), (1, 3), (3, 2), (4, 3), (2, 400)])
def test_policy_tree_from_indices_equals_dict_tree(depth, n_outputs):
    # an index array builds the tree that the dict of its nodes builds; the
    # first histories stay at index 0, as the solvers leave unreached ones,
    # and at 400 outputs the 401 nodes hold more distinct actions than one
    # byte can index
    rng = make_rng(depth * 1000 + n_outputs)
    actions = enumerate_actions(MessageSpace(3, 3), Alphabets(3, 3, n_outputs))
    hists = _histories(depth, n_outputs)
    at = rng.permutation(len(actions))[: len(hists)] if n_outputs > 256 else rng.integers(0, 5, len(hists))
    at[: len(at) // 3] = 0
    tree = PolicyTree.from_indices(depth, n_outputs, actions, at)
    nodes = {hist: actions[i] for hist, i in zip(hists, at)}
    expected = PolicyTree(depth, n_outputs, nodes)
    assert tree == expected and tree.depth == depth and tree.n_outputs == n_outputs
    assert tree.items() == expected.items() and tree.nodes == nodes
    assert all(tree.action_at(hist) == actions[0] for hist in hists[: len(at) // 3])
    # the same compact storage, slots numbered in order of first appearance
    assert (tree._distinct, tree._at) == (expected._distinct, expected._at)
    assert type(tree._at) is (array if len(set(at.tolist())) > 256 else bytes)
    if n_outputs <= 10:
        assert policy_to_csv(tree) == policy_to_csv(expected)
    with pytest.raises(ValueError):
        PolicyTree.from_indices(depth, n_outputs, actions, np.append(at, 0))


@pytest.mark.parametrize("depth,n_outputs", [(0, 3), (1, 3), (4, 3), (2, 400)])
def test_index_trees_equal_dict_trees_node_by_node(depth, n_outputs):
    # from_indices numbers its slots with numpy; the trees must equal the
    # dict constructor's at every node, also at 400 outputs, where more
    # actions than one byte can index sit in one tree, and equality must
    # compare actions by value, whatever objects and slots hold them
    rng = make_rng(7 * depth + n_outputs)
    actions = enumerate_actions(MessageSpace(3, 3), Alphabets(3, 3, n_outputs))
    hists = _histories(depth, n_outputs)
    at = rng.integers(0, len(actions), len(hists))
    tree = PolicyTree.from_indices(depth, n_outputs, actions, at)
    nodes = {hist: actions[i] for hist, i in zip(hists, at)}
    assert tree == PolicyTree(depth, n_outputs, nodes)
    assert all(tree.action_at(hist) is action for hist, action in nodes.items())
    assert tree.items() == list(nodes.items())
    if n_outputs > 256:
        assert len(tree.actions) > 256
    # equal copies of the actions, listed in reverse, make an equal tree
    copies = [EncoderAction(EncoderFunction(a.e1.table, 3), EncoderFunction(a.e2.table, 3))
              for a in reversed(actions)]
    assert tree == PolicyTree.from_indices(depth, n_outputs, copies, len(actions) - 1 - at)
    if hists:
        # one node changed makes another tree
        changed = at.copy()
        changed[-1] = (changed[-1] + 1) % len(actions)
        assert tree != PolicyTree.from_indices(depth, n_outputs, actions, changed)
    assert tree != PolicyTree.from_indices(depth + 1, n_outputs, actions,
                                           np.zeros(len(_histories(depth + 1, n_outputs)), dtype=int))


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


def test_policy_csv_row_with_missing_fields_names_its_line():
    text = "t,history,e1,e2\n1,,01,10\n\n2,0,01\n"
    with pytest.raises(ValueError, match=r"^policy line 4: expected 4 fields t,history,e1,e2, got 3$"):
        policy_from_csv(text, preset("adder").alphabets)


@pytest.mark.parametrize("row,message", [
    ("1,,0x,10", "policy line 2: e1 '0x' is not a digit string"),
    ("x,,01,10", "policy line 2: t 'x' is not a digit string"),
    ("1,,012,10", "policy line 2: e1: symbol 2 outside alphabet of size 2"),
    pytest.param("9" * 5000 + ",,01,10", "policy line 2: history '' inconsistent with t=" + "9" * 5000,
                 id="t-past-the-digit-limit"),
])
def test_policy_csv_bad_field_names_its_line(row, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        policy_from_csv(f"t,history,e1,e2\n{row}\n", preset("adder").alphabets)


def test_policy_csv_output_outside_the_channel_names_its_line():
    # the adder has 3 outputs, 0 to 2
    rows = ["t,history,e1,e2", "1,,01,10", "2,0,00,00", "2,1,00,00", "2,2,00,00", "2,3,00,00"]
    with pytest.raises(ValueError, match="^policy line 6: history '3' has an output outside 3 outputs$"):
        policy_from_csv("\n".join(rows) + "\n", preset("adder").alphabets)


def test_policy_csv_missing_history_is_named():
    rows = ["t,history,e1,e2", "1,,01,10", "2,0,00,00", "2,2,00,00"]
    with pytest.raises(ValueError, match=r"^policy: no row for history '1' at t=2; 3 nodes do not make "
                                         r"a complete tree of depth 2 over 3 outputs$"):
        policy_from_csv("\n".join(rows) + "\n", preset("adder").alphabets)


def test_policy_csv_history_given_twice_names_its_line():
    rows = ["t,history,e1,e2", "1,,01,10", "2,0,00,00", "2,1,00,00", "2,2,00,00", "2,1,11,11"]
    with pytest.raises(ValueError, match="^policy line 6: history '1' given twice$"):
        policy_from_csv("\n".join(rows) + "\n", preset("adder").alphabets)


def _csv_per_node(tree):
    """The CSV one row per node, as policy_to_csv wrote it before it went
    level by level."""
    def digits(values):
        if any(not 0 <= v <= 9 for v in values):
            raise ValueError("digit-string serialisation supports alphabet sizes up to 10")
        return "".join(map(str, values))

    lines = ["t,history,e1,e2"]
    for hist, action in tree.items():
        lines.append(f"{len(hist) + 1},{digits(hist)},{digits(action.e1.table)},{digits(action.e2.table)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("depth", [0, 1, 4])
def test_policy_csv_equals_per_node_rendering(depth):
    # 7 outputs: 400 nodes at depth 4, holding 300 distinct actions, more
    # than one byte can index
    actions = enumerate_actions(MessageSpace(5, 4), Alphabets(2, 2, 7))
    tree = PolicyTree.from_indices(depth, 7, actions, np.arange(tree_size(7, depth)) * 7 % 300)
    assert len(tree.actions) == min(300, tree_size(7, depth))
    assert policy_to_csv(tree) == _csv_per_node(tree)


def test_policy_csv_refuses_digits_above_nine():
    # an output above 9 in a history, or a symbol above 9 in an action,
    # has no digit; a tree of depth 1 has only the empty history
    actions = enumerate_actions(MessageSpace(1, 1), Alphabets(11, 1, 11))
    assert policy_to_csv(PolicyTree.from_indices(1, 11, actions, [0])) == "t,history,e1,e2\n1,,0,0\n"
    for depth, at in ((2, [0] * 12), (1, [10])):
        tree = PolicyTree.from_indices(depth, 11, actions, at)
        for render in (policy_to_csv, _csv_per_node):
            with pytest.raises(ValueError, match="alphabet sizes up to 10"):
                render(tree)


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


def test_prune_refuses_actions_that_do_not_fit():
    ch, state = preset("adder"), uniform_initial(MessageSpace(2, 2))
    actions = enumerate_actions(MessageSpace(2, 2), ch.alphabets)
    for action, message in MISFITS:
        with pytest.raises(ValueError) as info:
            prune_actions(actions + [action], state, ch, L3)
        assert str(info.value).startswith(message)


def test_prune_of_no_actions_is_empty():
    assert prune_actions([], uniform_initial(MessageSpace(2, 2)), preset("adder"), L3) == []
