"""Partial encoding functions, joint encoder actions and policy trees.

An action assigns one input symbol to every message of each sender. A
policy tree fixes one action per output history, i.e. it is a complete
|Y|-ary tree of some depth; the node for step t is addressed by the
history y_1..y_{t-1}.
"""

from __future__ import annotations

import functools
import itertools
import operator
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .channel import Alphabets, Channel, MessageSpace, check_action
from .errors import ActionSpaceTooLarge
from .kernel import ActionKernel, row_classes
from .reward import LambdaWeights

DEFAULT_ACTION_CAP = 1_000_000

# merge tolerance for state-local action pruning
PRUNE_TOL = 1e-12


@dataclass(frozen=True, order=True)
class EncoderFunction:
    """Map from one sender's messages into its input alphabet."""

    table: tuple
    n_symbols: int

    def __post_init__(self):
        if len(self.table) < 1:
            raise ValueError("encoder table must cover at least one message")
        for sym in self.table:
            if not isinstance(sym, int) or not 0 <= sym < self.n_symbols:
                raise ValueError(f"symbol {sym!r} outside alphabet of size {self.n_symbols}")

    def __call__(self, message: int) -> int:
        return self.table[message]

    @property
    def n_messages(self) -> int:
        return len(self.table)


@dataclass(frozen=True, order=True)
class EncoderAction:
    """One encoding function per sender, applied in the same channel use."""

    e1: EncoderFunction
    e2: EncoderFunction


def tree_size(n_outputs: int, depth: int, cap: int = None) -> int:
    """Nodes of a complete ``n_outputs``-ary tree of ``depth`` levels,
    sum_{t<depth} n_outputs^t, which is also the position of the first
    history of length ``depth`` in (t, history) order.

    With ``cap`` the count stops at the first level that takes it past
    ``cap``, so a result over ``cap`` is a lower bound, at most
    n_outputs * cap + 1, and no deep tree's size is ever computed.
    """
    if n_outputs == 1:
        return depth
    count, level = 0, 1
    for _ in range(depth):
        count += level
        if cap is not None and count > cap:
            break
        level *= n_outputs
    return count


def histories(n_outputs: int, depth: int):
    """Every history shorter than ``depth``, as tuples in (t, history)
    order: the history at position i is the i-th one yielded."""
    return itertools.chain.from_iterable(
        itertools.product(range(n_outputs), repeat=t) for t in range(depth))


class PolicyTree:
    """Complete assignment of encoder actions to output histories.

    ``nodes`` maps a history tuple (y_1, ..., y_{t-1}) to the action used at
    step t; depth n therefore needs ``tree_size(|Y|, n)`` =
    sum_{t=0}^{n-1} |Y|^t nodes. Depth 0 is the empty tree (no channel
    uses). A history's position in (t, history) order is arithmetic: it is
    y_1 .. y_{t-1} read as a bijective base-|Y| numeral, each digit y + 1.
    The tree stores each action object once (``actions``) and, for every
    position, the index of its action in a compact array, so a tree whose
    nodes share their action objects (as the solvers' do) costs about a
    byte per node and no history is stored.
    """

    __slots__ = ("depth", "n_outputs", "_distinct", "_at")

    def __init__(self, depth: int, n_outputs: int, nodes: dict):
        self._shape(depth, n_outputs, len(nodes))
        # distinct histories have distinct positions, so as many valid keys
        # as nodes fill every position
        actions = [None] * len(nodes)
        for hist, action in nodes.items():
            try:
                actions[self._position(hist)] = action
            except KeyError:
                raise ValueError(f"history {hist!r} invalid for depth {depth}") from None
        # slots by identity: hashing actions by value is slow, and equal
        # actions in separate slots still compare equal below
        slot = {}
        at = [slot.setdefault(id(action), len(slot)) for action in actions]
        self._store(tuple({id(action): action for action in actions}.values()), at)

    @classmethod
    def from_indices(cls, depth: int, n_outputs: int, actions: Sequence, at) -> "PolicyTree":
        """The tree whose node at position i in (t, history) order is
        ``actions[at[i]]``: the tree that the dict of those nodes gives,
        built from the index array alone."""
        tree = cls.__new__(cls)
        at = np.asarray(at)
        tree._shape(depth, n_outputs, len(at))
        # slots in order of first appearance, as the dict constructor
        # numbers them: the actions sorted by their first node, where an
        # action that no node holds sorts last
        first = np.empty(len(actions), dtype=np.uint32 if len(at) < 1 << 32 else np.intp)
        first.fill(len(at))
        np.minimum.at(first, at, np.arange(len(at), dtype=first.dtype))
        order = np.argsort(first)
        distinct = order[: first[order].searchsorted(len(at))]
        slot = np.argsort(order).astype(np.uint8 if len(distinct) <= 256 else np.uintc)
        tree._store(tuple(actions[i] for i in distinct.tolist()), slot[at])
        return tree

    def _shape(self, depth: int, n_outputs: int, n_nodes: int) -> None:
        """Check and set the shape for ``n_nodes`` nodes."""
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if n_outputs < 1:
            raise ValueError("n_outputs must be >= 1")
        self.depth = int(depth)
        self.n_outputs = int(n_outputs)
        if tree_size(self.n_outputs, self.depth, n_nodes) != n_nodes:
            raise ValueError(f"{n_nodes} nodes do not make a complete tree of depth {depth} "
                             f"over {n_outputs} outputs")

    def _store(self, distinct: tuple, at) -> None:
        """Keep the distinct actions and each node's slot among them, given
        as a list or an int array."""
        small = len(distinct) <= 256
        if isinstance(at, np.ndarray):
            at = at.astype(np.uint8 if small else np.uintc, copy=False).tobytes()
        self._distinct = distinct
        self._at = bytes(at) if small else array("I", at)

    def slots(self) -> np.ndarray:
        """Each node's slot among ``actions``: a read-only view of the stored
        array."""
        slots = np.frombuffer(self._at, dtype=np.uint8 if isinstance(self._at, bytes) else np.uintc)
        slots.flags.writeable = False
        return slots

    @property
    def actions(self) -> tuple:
        """The action objects the nodes hold, each once, in order of their
        first node."""
        return self._distinct

    @property
    def nodes(self) -> dict:
        return dict(self.items())

    def _position(self, history: Sequence[int]) -> int:
        """The position of ``history`` in (t, history) order; KeyError when
        the tree has no such node."""
        try:
            if len(history) >= self.depth:
                raise KeyError(history)
            position = 0
            for y in history:
                if not 0 <= y < self.n_outputs:
                    raise KeyError(history)
                position = position * self.n_outputs + y + 1
            return operator.index(position)
        except TypeError:
            # no length, or an output that is no integer
            raise KeyError(history) from None

    def action_at(self, history: Sequence[int]) -> EncoderAction:
        """The action at ``history``; KeyError when the tree has no such node."""
        return self._distinct[self._at[self._position(history)]]

    def first_history(self, action: EncoderAction) -> tuple:
        """The first history, in (t, history) order, whose node holds the
        object ``action``, one of ``actions``."""
        position = self._at.index(next(i for i, a in enumerate(self._distinct) if a is action))
        history = []
        while position:
            position, y = divmod(position - 1, self.n_outputs)
            history.append(y)
        return tuple(reversed(history))

    def _actions(self) -> list:
        return [self._distinct[i] for i in self._at]

    def items(self):
        """Nodes in deterministic (t, history) order."""
        return list(zip(histories(self.n_outputs, self.depth), self._actions()))

    def __eq__(self, other):
        if not isinstance(other, PolicyTree) or (self.depth, self.n_outputs) != (other.depth, other.n_outputs):
            return False
        # number the distinct actions of both trees by value, then compare
        # the nodes' numbers
        number = {}
        ids = [np.array([number.setdefault(a, len(number)) for a in tree._distinct], dtype=np.intp)
               for tree in (self, other)]
        return bool(np.array_equal(ids[0][self.slots()], ids[1][other.slots()]))


def _digits(values: Iterable[int]) -> str:
    out = []
    for v in values:
        if not 0 <= v <= 9:
            raise ValueError("digit-string serialisation supports alphabet sizes up to 10")
        out.append(str(v))
    return "".join(out)


def policy_to_csv(tree: PolicyTree) -> str:
    """Render a tree as CSV rows t,history,e1,e2 with digit-string fields.

    Rows go level by level in (t, history) order: each level's histories
    extend the previous level's by one output digit, and each distinct
    action's fields are formatted once."""
    fields = [f"{_digits(a.e1.table)},{_digits(a.e2.table)}" for a in tree.actions]
    slots = tree.slots().tolist()
    lines = ["t,history,e1,e2"]
    hists = [""]
    for t in range(1, tree.depth + 1):
        if t > 1:
            digits = [_digits([y]) for y in range(tree.n_outputs)]
            hists = [h + y for h in hists for y in digits]
        start = len(lines) - 1  # the nodes above this level, one line each
        lines.extend([f"{t},{h},{fields[s]}" for h, s in zip(hists, slots[start : start + len(hists)])])
    return "\n".join(lines) + "\n"


def policy_from_csv(text: str, alphabets: Alphabets) -> PolicyTree:
    """Parse the policy CSV format produced by policy_to_csv. A row without
    four digit-string fields (the history may be empty), one that repeats
    a history, or one with an output or symbol outside its alphabet raises
    ValueError naming its line; a file that leaves out a history raises
    ValueError naming the first history missing in (t, history) order."""
    lines = [(number, ln) for number, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1] != "t,history,e1,e2":
        raise ValueError("missing policy header t,history,e1,e2")
    nodes = {}
    depth = 0
    for number, ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != 4:
            raise ValueError(f"policy line {number}: expected 4 fields t,history,e1,e2, got {len(fields)}")
        for name, field in zip(("t", "history", "e1", "e2"), fields):
            if not (field.isascii() and field.isdigit()) and (field or name != "history"):
                raise ValueError(f"policy line {number}: {name} {field!r} is not a digit string")
        t_str, hist_str, e1_str, e2_str = fields
        # t is compared as digits, so a t past int()'s digit limit is named too
        t, hist = len(hist_str) + 1, tuple(int(ch) for ch in hist_str)
        if t_str.lstrip("0") != str(t):
            raise ValueError(f"policy line {number}: history {hist_str!r} inconsistent with t={t_str}")
        if hist in nodes:
            raise ValueError(f"policy line {number}: history {hist_str!r} given twice")
        if any(y >= alphabets.y for y in hist):
            raise ValueError(f"policy line {number}: history {hist_str!r} has an output outside "
                             f"{alphabets.y} outputs")
        encoders = []
        for name, field, size in (("e1", e1_str, alphabets.x1), ("e2", e2_str, alphabets.x2)):
            try:
                encoders.append(EncoderFunction(tuple(int(ch) for ch in field), size))
            except ValueError as err:
                raise ValueError(f"policy line {number}: {name}: {err}") from None
        nodes[hist] = EncoderAction(*encoders)
        depth = max(depth, t)
    if tree_size(alphabets.y, depth, len(nodes)) != len(nodes):
        # every row holds its own position below the tree's size, so a
        # history among the first len(nodes) + 1 is missing
        missing = next(hist for hist in histories(alphabets.y, depth) if hist not in nodes)
        name = "".join(map(str, missing))
        raise ValueError(f"policy: no row for history {name!r} at t={len(missing) + 1}; "
                         f"{len(nodes)} nodes do not make a complete tree of depth {depth} "
                         f"over {alphabets.y} outputs")
    return PolicyTree(depth, alphabets.y, nodes)


def enumerate_actions(
    space: MessageSpace, alphabets: Alphabets, cap: int = DEFAULT_ACTION_CAP
) -> list:
    """All |X1|^|M1| * |X2|^|M2| encoder actions in lexicographic order.

    The order is by (e1.table, e2.table), so the all-zero action comes first
    and downstream argmax tie-breaks are reproducible. Calls for one shape
    share the (immutable) action objects, so the policy trees of many
    solves hold no copies of them.
    """
    count = alphabets.x1**space.m1 * alphabets.x2**space.m2
    if count > cap:
        raise ActionSpaceTooLarge(count, cap)
    return list(_all_actions(space.m1, space.m2, alphabets.x1, alphabets.x2))


@functools.lru_cache(maxsize=4)
def _all_actions(m1: int, m2: int, x1: int, x2: int) -> tuple:
    actions = []
    for t1 in itertools.product(range(x1), repeat=m1):
        e1 = EncoderFunction(t1, x1)
        for t2 in itertools.product(range(x2), repeat=m2):
            actions.append(EncoderAction(e1, EncoderFunction(t2, x2)))
    return tuple(actions)


def prune_actions(
    actions: Sequence[EncoderAction],
    state,
    channel: Channel,
    weights: LambdaWeights,
) -> list:
    """Drop actions indistinguishable at ``state`` from an earlier action.

    The action kernel gives every action's row at once: weighted reward,
    observation distribution and posteriors on the outputs with mass,
    rounded to multiples of PRUNE_TOL (1e-12), and the row classes of both
    refined private tables. Equal rows merge into one class, and the
    lexicographically first action of each class survives
    (``ActionKernel.prune_mask``, the dedupe of the horizon program's
    prune), so the result is an order-preserving subsequence of
    ``actions``. Raises ValueError at the first action that does not fit
    the state's message counts and the channel's input alphabets.
    """
    for action in actions:
        check_action(action, state.pi.m1, state.pi.m2, channel)
    if not actions:
        return []
    kernel = ActionKernel(channel, actions)
    pi, labels1, labels2 = state.pi.table, row_classes(state.beta1.rows), row_classes(state.beta2.rows)
    joint, p = kernel.joint(pi)
    ref1, ref2 = kernel.refined(labels1, labels2)
    post = kernel.posteriors(joint, p).reshape(pi.shape + (p.size,))
    keep = kernel.prune_mask(p.reshape(-1), post, ref1, ref2, np.arange(p.size).reshape(p.shape),
                             kernel.weighted(weights, pi, labels1, labels2, p), PRUNE_TOL)
    return [actions[a] for a in np.flatnonzero(keep)]
