"""Dynamic programs over belief states.

Three solvers:

* solve_horizon: finite-horizon maximisation of the per-step weighted
  information reward over augmented states (common belief and both
  senders' private classes as int labels), with an argmax policy tree.
* solve_dsaht: finite-horizon minimisation of the terminal decoding-error
  probability; the state is the common belief alone.
* solve_stationary: the long-run average reward with fully refined
  private tables. With per-use renewal it is the largest one-step reward
  at the prior, computed exactly from one kernel row; without renewal it
  comes from relative value iteration on a simplex grid of common beliefs,
  whose rewards and interpolated successors are built in one batched pass
  (``_grid_tables``, Freudenthal interpolation with no nearest-point
  fallback).

Each finite-horizon program is a value, a ``Program`` built by one
function (``_horizon_program``, ``_dsaht_program``) from the channel, the
weights and the prior, with no horizon: the paper's program is the same
at every step, so one program serves every depth, and the engine alone
owns the stage count, telling the reward hook each state's steps to go.
Both programs share the forward hook ``_expand`` and one
level-synchronous engine, ``_backward_induction(program, depth,
node_cap)``: three passes, each reading the plain values the one before
it returns. The state moves forward one channel use at a time, so the
forward pass (``_forward_pass``) builds every time step's distinct
states from the previous step's as one batch, with neither the weights
nor the horizon in it: the action kernel (``macfb.kernel``)
gives a stack of states' predictive distributions, posteriors and
refined labels for every action at once, and a Bayes update depends on
an (action, output) pair only through the pair's branch, so successors
are built once per (state, branch) and deduplicated on their common
belief quantised to QUANT and their labels (``_LevelIndex``). The
reward pass (``_reward_pass``) evaluates what every action earns at
every level's states, in batches that may span levels, and the backward
pass (``_backward_pass``) takes the maximum level by level and reads the
policy off into an array of action indices. Validated belief objects
exist only at the API boundary.

Layout: wherever the engine, the programs or the grid process a stack
of states, the states lie on the last axis, as in the kernel (see
``macfb.kernel``): a level's beliefs are (M1, M2, states) and its labels
(M, states), the predictive masses and successors (branches, states),
the totals (actions, states), and a dedupe key is a column of words
(words, keys). A level holds tens to thousands of states and every other
axis is 2-74 long, so numpy's inner loops run the length of the level
and the hash is one multiply-add per word over all keys. Only the
validated API (``macfb.belief``, ``macfb.reward``) keeps a single state's
own shape; the grid's interpolation (``_freudenthal``) takes its beliefs
as columns too.
Every walk over the beliefs a fixed policy reaches (the DSAHT decoder,
``evaluate_tree``, the diagnostic and the CLI's belief file) goes through
one walker, ``walk_policy``, which advances a depth's reached nodes at
once, each by its chosen action alone; ``evaluate_tree`` and the
diagnostic then evaluate every node they walked in one batched reward
pass. The kernel of every action is built once per channel object and
message shape (``_enumerated_kernel``), kept while the channel lives and
shared read-only by every solve, sweep weight and the diagnostic on it;
a walk builds one over the policy's own actions (``policy_kernel``),
which builds no branch map, and cell tables only to rate the nodes.

The engine maximises the totals it is given: an action that ``prune``
rules out has the total -inf (see ``solve_horizon``), and DSAHT passes
minus its error, an exact negation. Ties: the policy takes the
lexicographically smallest action whose total lies within TIE_TOL of the
maximum, so rounding noise in the last bits never decides between tied
actions. The reported value is the optimum itself.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .belief import MASS_EPS, JointBelief, check_prior
from .channel import Channel, MessageSpace, check_action, check_count
from .encoding import (
    DEFAULT_ACTION_CAP,
    PRUNE_TOL,
    PolicyTree,
    enumerate_actions,
    tree_size,
)
from .errors import GridTooLarge, HorizonTooDeep, LevelTooWide
from .kernel import ActionKernel, first_hashed, first_rows, hashed_rows, root_labels
from .reward import LambdaWeights

DEFAULT_NODE_CAP = 1_000_000
DEFAULT_GRID_CAP = 500_000
DEFAULT_STATIONARY_ITERS = 500
DEFAULT_STATIONARY_EPSILON = 1e-6
RENEWALS = ("per_use", "none")  # the renewal modes of solve_stationary

# states are told apart by their coordinates quantised to this granularity
QUANT = 1e-9

# every finite-horizon program puts CHUNK_ENTRIES // width states through
# one chunk of the forward pass and one batch of the reward pass, where
# width is one state's entries in the kernel's branch joint (branches x
# message pairs) or its noise term (actions x message pairs), whichever is
# larger: 1024 states at noisy_adder 2x2, 98 at 3x3, so horizon-wide rates
# its 1 + 73 states in one reward call. Other temporaries are larger per
# state than the width, such as the rewards' margin products (96 entries
# at noisy_adder 2x2, against a width of 64).
CHUNK_ENTRIES = 1 << 16

# totals this close to the optimum count as tied; the first one wins
TIE_TOL = 1e-12


def _quantized_rows(arrays) -> np.ndarray:
    """One int key per state of a stack, as a column: its arrays flattened
    over all but the batch axis, the float ones quantised to QUANT, and
    concatenated, (words, states)."""
    rows = [x.reshape(-1, x.shape[-1]) for x in arrays]
    rows = [np.rint(x / QUANT).astype(np.int64) if x.dtype.kind == "f" else x for x in rows]
    return rows[0] if len(rows) == 1 else np.concatenate(rows)


def _add_continuation(totals: np.ndarray, p: np.ndarray, cont: np.ndarray,
                      branch_of: np.ndarray) -> np.ndarray:
    """totals[a, s] + sum_y p cont over the outputs with mass, added one
    output at a time in y order, from p[b, s] and cont[b, s] per branch:
    the pair (a, y) reads its product at ``branch_of[a, y]``."""
    paid = np.where(p > MASS_EPS, p * cont, 0.0)[branch_of.T]  # (outputs, actions, states)
    totals = totals + paid[0]
    for part in paid[1:]:
        totals += part
    return totals


def _choose(totals: np.ndarray) -> tuple:
    """Maximum of every column of ``totals`` (actions x states) and the
    first action within TIE_TOL of it; a total of -inf is never chosen
    while any action of its column has a finite one."""
    best = totals.max(axis=0)
    return best, (np.abs(totals - best) <= TIE_TOL).argmax(axis=0)


@dataclass
class HorizonResult:
    value_per_step: float
    total_value: float
    policy: PolicyTree
    states_expanded: int
    cache_hits: int


@dataclass
class DsahtResult:
    error_probability: float
    policy: PolicyTree
    states_expanded: int
    cache_hits: int
    _channel: Channel = field(repr=False, compare=False)
    _prior: np.ndarray = field(repr=False, compare=False)

    @functools.cached_property
    def decoder(self) -> dict:
        """Terminal output history -> best-guess message pair, for every
        history the policy reaches, built on first access: the row-major
        argmax of the terminal belief, the smallest (m1, m2) among tied
        maximisers."""
        if self.policy.depth == 0:
            return {(): divmod(int(np.argmax(self._prior)), self._prior.shape[1])}
        last = walk_policy(policy_kernel(self._channel, self.policy), self.policy, self._prior)[-1]
        m1, m2 = np.divmod(last.pi.reshape(-1, len(last.mass)).argmax(axis=0), self._prior.shape[1])
        return dict(zip(map(tuple, last.outputs.T.tolist()), zip(m1.tolist(), m2.tolist())))


@dataclass
class StationaryResult:
    gain: float
    iterations: int
    span_at_stop: float
    converged: bool
    resolution: int
    renewal: str


@dataclass
class ReductionReport:
    """Probe of the claim that the common belief alone determines rewards."""

    n_states: int
    n_groups: int
    conflicts: list
    root_action_injective: bool


def _prior_table(space: MessageSpace, prior: JointBelief) -> np.ndarray:
    """The table of ``prior`` (uniform when None), checked against ``space``."""
    if prior is None:
        return JointBelief(np.full((space.m1, space.m2), 1.0 / space.pairs)).table
    return check_prior(space, prior).table


def _start(space: MessageSpace, prior: JointBelief) -> tuple:
    """(pi, labels1, labels2) before the first channel use."""
    pi = _prior_table(space, prior)
    return pi, root_labels(pi.sum(axis=1)), root_labels(pi.sum(axis=0))


def _check_tree_size(channel: Channel, depth: int, node_cap: int) -> None:
    """Raise HorizonTooDeep when the policy tree of ``depth`` steps has more
    nodes than ``node_cap``. Counting stops once past the cap, so every
    depth is refused at once, before anything is built."""
    nodes = tree_size(channel.n_outputs, depth, node_cap)
    if nodes > node_cap:
        raise HorizonTooDeep(nodes, node_cap)


def _check_fits(channel: Channel, space: MessageSpace, tree: PolicyTree) -> None:
    """Raise ValueError naming the first way ``tree`` does not fit the
    channel's outputs and alphabets or the message space."""
    if tree.n_outputs != channel.n_outputs:
        raise ValueError(f"policy tree branches on {tree.n_outputs} outputs, "
                         f"the channel has {channel.n_outputs}")
    # the actions in order of their first node, so the first node that
    # does not fit is named
    for action in tree.actions:
        check_action(action, space.m1, space.m2, channel, f" at history {tree.first_history(action)}")


_KERNELS = weakref.WeakKeyDictionary()


def _enumerated_kernel(channel: Channel, space: MessageSpace, action_cap: int) -> ActionKernel:
    """The kernel of every action of ``space`` on ``channel``, built once per
    channel object and message shape, kept while the channel lives and
    shared read-only by every solve, sweep weight and diagnostic on it.
    Raises ActionSpaceTooLarge past ``action_cap``, cached kernel or not.

    A Channel compares by identity (``eq=False``) and its table is
    read-only, so the object itself is the key: equal tables in two
    channels build two kernels. The kernel keeps the table, not the
    channel, so the entry goes with the channel."""
    actions = enumerate_actions(space, channel.alphabets, cap=action_cap)
    shapes = _KERNELS.setdefault(channel, {})
    if space not in shapes:
        shapes[space] = ActionKernel(channel, actions)
    return shapes[space]


def policy_kernel(channel: Channel, tree: PolicyTree) -> ActionKernel:
    """Action kernel over the distinct actions of a policy tree."""
    return ActionKernel(channel, dict.fromkeys(tree.actions))


# the reached nodes of one depth of a fixed-policy walk (``walk_policy``)
WalkLevel = collections.namedtuple("WalkLevel", "t pi labels1 labels2 outputs a mass")


def walk_policy(kernel: ActionKernel, tree: PolicyTree, pi, labels1=None, labels2=None) -> list:
    """Level-synchronous walk over the beliefs a fixed policy tree reaches
    from ``pi`` (M1, M2) and the labels (M,).

    ``kernel`` must hold every action the tree uses. Returns one
    ``WalkLevel`` per t = 1..depth + 1, its nodes in history order, batch
    last: beliefs ``pi`` (M1, M2, nodes), labels (M, nodes) or None,
    ``outputs`` (t - 1, nodes), ``a`` the action indices in ``kernel``
    (None at t = depth + 1) and ``mass`` the product of the predictive
    masses along each history. Only the tree's slots at reached positions
    are read, and only each node's chosen action is updated (``joint_of``,
    J / p, ``refined_by``), bit for bit as the all-action methods give it.
    Branches with predictive mass at or below MASS_EPS are not followed.
    Without labels only the common belief is carried.
    """
    index = {action: a for a, action in enumerate(kernel.actions)}
    kernel_of = np.array([index[action] for action in tree.actions], dtype=np.intp)
    slots, n_outputs, levels, first = tree.slots(), tree.n_outputs, [], 0
    pis, labels = pi[..., None], (None, None) if labels1 is None else (labels1[:, None], labels2[:, None])
    outputs, mass, number = np.zeros((0, 1), dtype=np.intp), np.ones(1), np.zeros(1, dtype=np.intp)
    for t in range(1, tree.depth + 2):
        # number: the histories of length t - 1 as base n_outputs numerals;
        # their slots follow the first one's, at tree_size(n_outputs, t - 1)
        a = kernel_of[slots[first + number]] if t <= tree.depth else None
        levels.append(WalkLevel(t, pis, *labels, outputs, a, mass))
        if a is None:
            break
        joint, p = kernel.joint_of(a, pis)
        # the live (node, output) pairs in that order, which is history order
        node, y = np.nonzero((p > MASS_EPS).T)
        live = p[y, node]
        pis = joint[:, :, y, node] / live
        if labels1 is not None:
            labels = tuple(x[:, node] for x in kernel.refined_by(a, *labels))
        outputs, mass = np.concatenate([outputs[:, node], y[None]]), mass[node] * live
        number, first = number[node] * n_outputs + y, first * n_outputs + 1
    return levels


def _walked(kernel: ActionKernel, tree: PolicyTree, start: tuple) -> tuple:
    """The nodes ``walk_policy`` reaches before the last step, stacked
    batch last in depth-first order for one batched kernel pass: (t, hist,
    pi, labels1, labels2, a, mass), where ``hist[:t - 1, i]`` is node i's
    output history padded with -1 to depth outputs (so ``np.lexsort`` has
    a key at depth 1 too), whose lexicographic order is depth-first."""
    t, pis, labels1, labels2, outputs, a, mass = zip(*walk_policy(kernel, tree, *start)[:-1])
    hist = np.concatenate([np.concatenate([x, np.full((tree.depth - len(x), x.shape[1]), -1)])
                           for x in outputs], axis=1)
    order = np.lexsort(hist[::-1])
    return (np.repeat(t, [len(x) for x in mass])[order], hist[:, order],
            *(np.concatenate(x, axis=-1)[..., order] for x in (pis, labels1, labels2, a, mass)))


class _LevelIndex:
    """Numbers the distinct quantised keys of a level across its chunks, in
    order of first occurrence.

    A key, one column of words, is looked up by a 64-bit hash of its words
    (``kernel.hashed_rows``) and then checked word by word, so a hash
    collision costs time but never changes a number. The keys numbered so
    far are kept as sorted runs of their hashes, each run more than twice
    as long as the next, so a chunk is looked up with one binary search in
    each of O(log) runs. Every key is held once, as with a dict over the
    keys' bytes; the last chunk's keys join the runs only when another
    chunk comes, so a level of one chunk sorts nothing.
    """

    def __init__(self):
        self.runs = []  # (sorted hashes, their keys' words, their numbers), longest first
        self.pending = None
        self.count = 0

    def add(self, keys: np.ndarray) -> tuple:
        """Number a chunk's keys (words, keys), repeats included: (the
        number of every key, positions of the first occurrences of the keys
        new to the level)."""
        if self.pending is not None:
            # the last chunk's new keys join the runs only now
            *run, new = self.pending
            self._push(tuple(np.take(x, new, axis=-1) for x in run))
        words, hashes = hashed_rows(keys)
        number = np.full(len(hashes), -1)
        for run in self.runs:
            _look_up(run, words, hashes, number)
        # before any run every key is new, and is deduped without a copy
        miss = np.flatnonzero(number < 0) if self.runs else slice(None)
        first, inverse = first_hashed(words[:, miss], hashes[miss])
        number[miss] = self.count + inverse
        new = miss[first] if self.runs else first
        self.count += len(new)
        self.pending = (hashes, words, number, new) if len(new) else None
        return number, new

    def _push(self, run: tuple) -> None:
        """Add a run (hashes, words, numbers), merged with the runs not
        more than twice as long, sorted by hash."""
        while self.runs and len(self.runs[-1][0]) <= 2 * len(run[0]):
            run = tuple(np.concatenate(parts, axis=-1) for parts in zip(self.runs.pop(), run))
        order = np.argsort(run[0])
        self.runs.append(tuple(np.take(x, order, axis=-1) for x in run))


def _look_up(run: tuple, words: np.ndarray, hashes: np.ndarray, number: np.ndarray) -> None:
    """Set ``number`` at the keys not numbered yet that a run of
    ``_LevelIndex`` holds."""
    run_hashes, run_words, ids = run
    pos = np.minimum(np.searchsorted(run_hashes, hashes), len(run_hashes) - 1)
    hit = np.flatnonzero((run_hashes[pos] == hashes) & (number < 0))
    number[hit] = ids[pos[hit]]
    clash = (np.take(run_words, pos[hit], axis=1) != np.take(words, hit, axis=1)).any(axis=0)
    for i in hit[clash]:
        # a hash collision: the key may lie further along its hash's stretch
        stop = np.searchsorted(run_hashes, hashes[i : i + 1], side="right")[0]
        same = np.flatnonzero(~(run_words[:, pos[i] : stop] != words[:, i : i + 1]).any(axis=0))
        number[i] = ids[pos[i] + same[0]] if len(same) else -1


def _expand_level(expand, states: tuple, step: int) -> tuple:
    """One level of ``_forward_pass``, ``step`` states at a time: (p, succ,
    the next level's states). ``succ`` numbers the successors in the next
    level's order, which is their order of first occurrence. The level's
    temporaries, its index among them, are freed when this returns."""
    ps, succs, reps, index = [], [], [], _LevelIndex()
    for lo in range(0, states[0].shape[-1], step):
        p, gather = expand(*(x[..., lo : lo + step] for x in states))
        # the live (state, branch) pairs in (state, branch) order, as flat
        # indices of p (branches x states)
        live = np.arange(p.size).reshape(p.shape).T[(p > MASS_EPS).T]
        nxt = gather(live)
        number, new = index.add(_quantized_rows(nxt))
        succ = np.full(p.shape, -1)
        succ.reshape(-1)[live] = number
        ps.append(p)
        succs.append(succ)
        reps.append(tuple(np.take(x, new, axis=-1) for x in nxt))
        # the chunk's temporaries go before the next chunk is expanded
        del gather, nxt
    return _joined(ps), _joined(succs), tuple(map(_joined, zip(*reps)))


def _joined(parts) -> np.ndarray:
    """Arrays joined along the batch axis; one array is returned as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


def _batches(levels: list, step: int):
    """The states of ``levels`` (a list of tuples of state arrays) stacked
    in level order, as (lo, arrays) of consecutive runs of ``step`` states
    from state lo on, the last run shorter. A run may span levels; only a
    run that does is copied."""
    starts = np.cumsum([0] + [states[0].shape[-1] for states in levels])
    for lo in range(0, starts[-1], step):
        hi = lo + step
        parts = [tuple(x[..., max(lo - a, 0) : hi - a] for x in states)
                 for states, a, b in zip(levels, starts, starts[1:]) if a < hi and lo < b]
        yield lo, tuple(map(_joined, zip(*parts)))


Levels = collections.namedtuple("Levels", "states links")


def _forward_pass(depth: int, root: tuple, expand, n_pairs: int, node_cap: int, step: int) -> Levels:
    """The distinct states of levels 1..depth from ``root``, built with no
    total and no weight: level t + 1 holds the successors of level t along
    every branch with predictive mass above MASS_EPS, each live (state,
    branch) gathered once (the members of a branch have bit-identical
    successors) and deduplicated on its arrays, the float ones quantised to
    QUANT (``_quantized_rows``). A new state is represented by its first
    occurrence in (state, action, output) order, which is (state, branch)
    order, so each level lists its states in depth-first first-visit order.
    A level is expanded ``step`` states at a time and numbered as one
    dedupe (``_expand_level``). Level t depends on the levels before it
    alone, so a deeper solve from the same root builds these levels first.

    Returns ``Levels``: ``states``, every level's tuple of state arrays,
    and ``links``, (p, succ) of every level but the last, where the pair
    (a, y) of state s leads to state ``succ[kernel.branch_of[a, y], s]`` of
    the next level (-1: none). Raises LevelTooWide before building the
    successors of a level whose states x ``n_pairs`` (action, output)
    pairs exceed ``node_cap``.
    """
    states, links = [root], []
    for t in range(1, depth):
        triples = states[-1][0].shape[-1] * n_pairs
        if triples > node_cap:
            raise LevelTooWide(t, triples, node_cap)
        p, succ, nxt = _expand_level(expand, states[-1], step)
        states.append(nxt)
        links.append((p, succ))
    return Levels(states, links)


def _reward_pass(levels: Levels, totals, n_actions: int, step: int) -> tuple:
    """What every action earns at every level's states, ``step`` states at
    a time stacked in level order (``_batches``), so a batch may span
    levels: (earned, last), each inner level's totals (actions, states) and
    the last level's (value, best), chosen batch by batch.
    """
    sizes = [states[0].shape[-1] for states in levels.states]
    starts = np.cumsum([0] + sizes)
    togo = np.repeat(np.arange(len(sizes) - 1, -1, -1), sizes)
    head = starts[-2]
    earned, last = np.empty((n_actions, head)), []
    for lo, batch in _batches(levels.states, step):
        hi = lo + batch[0].shape[-1]
        out = totals(togo[lo:hi], *batch)
        inner = max(0, min(hi, head) - lo)
        earned[:, lo : lo + inner] = out[:, :inner]
        if hi > head:
            last.append(_choose(out[:, inner:]))
    earned = [earned[:, a:b] for a, b in zip(starts[:-2], starts[1:-1])]
    return earned, tuple(np.concatenate(x) for x in zip(*last))


def _backward_pass(levels: Levels, earned: list, last: tuple, branch_of: np.ndarray,
                   actions: list) -> tuple:
    """The root's value and the policy tree that attains it, from the last
    level's (value, best) back: each level forms p * cont over the outputs
    with mass once per (state, branch), adds it to every pair's total
    output by output, and takes the maximum and the first action within
    TIE_TOL of it. The policy is then read off level by level: the chosen
    actions at the reached states and their successors along
    ``branch_of[a]`` give the next level's reached states and histories,
    numbered in base n_outputs and placed after the shorter histories in
    the tree's order, and the action indices go into
    ``PolicyTree.from_indices`` (actions[0] at every history not reached).
    """
    depth, n_outputs = len(levels.states), branch_of.shape[1]
    value, best = last[0], [None] * (depth - 1) + [last[1]]
    for t in reversed(range(depth - 1)):
        p, succ = levels.links[t]
        cont = np.append(value, 0.0)[succ]
        value, best[t] = _choose(_add_continuation(earned[t], p, cont, branch_of))
    at = np.zeros(tree_size(n_outputs, depth), dtype=np.intp)
    hist, states = np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp)
    for t in range(depth):
        a = best[t][states]
        at[tree_size(n_outputs, t) + hist] = a
        if t + 1 < depth:
            succ = levels.links[t][1][branch_of[a].T, states]
            live = succ >= 0
            hist = (hist * n_outputs + np.arange(n_outputs)[:, None])[live]
            states = succ[live]
    return float(value[0]), PolicyTree.from_indices(depth, n_outputs, actions, at)


class Program(collections.namedtuple("Program", "kernel root expand totals")):
    """A finite-horizon program, as ``_backward_induction`` runs it. It
    knows no horizon: one program serves every depth, and the engine
    tells ``totals`` how many steps follow each state.

    ``root`` holds the start state's arrays, each with a last (batch) axis
    of length 1. The two hooks are functions of a batch of states, stacked
    on that axis:

    * ``expand(*arrays)``, for the states of every level but the last,
      returns (p, gather): p[b, s], the predictive mass of every branch of
      the kernel (see ``macfb.kernel``), which is that of each of its
      (action, output) pairs, and gather(i), the successor states' arrays,
      batch last, for a vector i of flat indices b * states + s of p;
    * ``totals(togo, *arrays)`` returns totals[a, s], what each action
      earns before any continuation: its reward, or in DSAHT minus the
      expected terminal error at the last level. The batch may span
      levels: ``togo[s]`` is the number of steps after state s's level,
      0 at the last level, and the states come in level order, so those
      with steps to go lead the batch. -inf rules an action out, and some
      action of every state must keep a finite total.
    """


def _expand(kernel: ActionKernel, pis: np.ndarray, *labels) -> tuple:
    """Both programs' forward hook: branch masses at beliefs ``pis``, and a
    gather of the successors' posteriors and, given labels, refined labels."""
    joint, p = kernel.branch_joint(pis)
    refined = kernel.refined(*labels) if labels else ()

    def gather(live):
        if not labels:
            return (kernel.posteriors_at(joint, p, live),)
        b, s = np.divmod(live, p.shape[1])
        return (kernel.posteriors_at(joint, p, live),
                *(np.take(ref.reshape(len(ref), -1), enc[b] * p.shape[1] + s, axis=1)
                  for ref, enc in zip(refined, (kernel.branch_enc1, kernel.branch_enc2))))

    return p, gather


def _backward_induction(program: Program, depth: int, node_cap: int) -> tuple:
    """Level-synchronous backward induction of ``program`` over ``depth``
    steps, on the distinct states of each time step: the maximum over
    actions of what they earn now plus the expected value of what follows,
    by ``_forward_pass``, ``_reward_pass`` and ``_backward_pass`` in turn.

    Returns (value, policy, expanded, hits): the root's value, the policy
    tree, the distinct states over all levels, and the successors reached
    that were built already: the live successors (``succ >= 0``) of the
    actions with a finite total over the inner levels, minus the distinct
    states other than the root. Raises LevelTooWide as the forward pass
    does.
    """
    kernel = program.kernel
    branch_of = kernel.branch_of
    step = max(1, CHUNK_ENTRIES // max(kernel.branch_lik.size, kernel.noise.size))
    levels = _forward_pass(depth, program.root, program.expand, branch_of.size, node_cap, step)
    earned, last = _reward_pass(levels, program.totals, len(branch_of), step)
    value, policy = _backward_pass(levels, earned, last, branch_of, kernel.actions)
    expanded = sum(states[0].shape[-1] for states in levels.states)
    hits = sum(np.count_nonzero((succ >= 0)[branch_of] & np.isfinite(level)[:, None])
               for (_, succ), level in zip(levels.links, earned))
    return value, policy, expanded, int(hits) - (expanded - 1)


def _horizon_program(channel: Channel, space: MessageSpace, weights: LambdaWeights,
                     prior: JointBelief, prune: bool, action_cap: int) -> Program:
    """The horizon program: augmented states from ``prior``, weighted rewards."""
    root = tuple(x[..., None] for x in _start(space, prior))
    kernel = _enumerated_kernel(channel, space, action_cap)
    # the branch map and the reward tables are built here, before the
    # passes: built in the first reward pass, among its temporaries, they
    # moved where glibc put those, and most horizon-wide bench runs then
    # faulted fresh heap pages in on every later solve (ru_minflt)
    branch_of, _ = kernel.branch_of, kernel._cells

    def totals(togo, pis, labels1, labels2):
        # the members of a branch share its predictive mass bit for bit
        rewards = kernel.weighted(weights, pis, labels1, labels2, kernel.branch_joint(pis)[1], branch_of)
        if prune and togo[0]:
            # prune leaves the last level alone; the states with steps to go lead the batch
            k = int(np.count_nonzero(togo))
            joint, p = kernel.branch_joint(pis[..., :k])
            ref1, ref2 = kernel.refined(labels1[:, :k], labels2[:, :k])
            keep = kernel.prune_mask(p, kernel.posteriors(joint, p), ref1, ref2, branch_of,
                                     rewards[:, :k], PRUNE_TOL)
            rewards[:, :k] = np.where(keep, rewards[:, :k], -np.inf)
        return rewards

    return Program(kernel, root, functools.partial(_expand, kernel), totals)


def solve_horizon(
    channel: Channel,
    space: MessageSpace,
    weights: LambdaWeights,
    n: int,
    prior: JointBelief = None,
    prune: bool = False,
    action_cap: int = DEFAULT_ACTION_CAP,
    node_cap: int = DEFAULT_NODE_CAP,
) -> HorizonResult:
    """Best n-step average weighted reward and an achieving policy tree,
    from ``prior`` (uniform when None), by the level engine over augmented
    states (``_backward_induction``), skipping branches whose predictive
    mass is at or below 1e-15. ``states_expanded`` counts the distinct
    states over all steps and ``cache_hits`` the successors reached that
    were built already. With ``prune`` the reward pass recomputes
    the Bayes updates of the states whose successors get built and keeps,
    at each, the first action of every class of equal update and reward
    rounded to PRUNE_TOL (``ActionKernel.prune_mask``); every other action
    gets the total -inf, so it is never chosen and its successors count no
    cache hits. The forward pass is the same either way, so the same
    states are built, and the value never changes. Raises HorizonTooDeep
    when the policy tree has more nodes than ``node_cap``
    (``_check_tree_size``), and LevelTooWide before a step whose states x
    actions x outputs exceed it.
    """
    n = check_count(n, "n")
    _check_tree_size(channel, n, node_cap)
    program = _horizon_program(channel, space, weights, prior, prune, action_cap)
    total, policy, expanded, hits = _backward_induction(program, n, node_cap)
    return HorizonResult(total / n, total, policy, expanded, hits)


def evaluate_tree(
    channel: Channel,
    space: MessageSpace,
    tree: PolicyTree,
    weights: LambdaWeights,
    prior: JointBelief = None,
) -> float:
    """Per-step weighted reward of a fixed policy tree via the belief recursion.

    This is the solver-side counterpart of the trajectory oracle: it averages
    the weighted reward over the augmented states reachable from ``prior``
    (uniform when None), weighted by the probability of the output history
    that reaches them. Raises ValueError when the tree's outputs or
    encoders do not fit the channel and message space.
    """
    if tree.depth < 1:
        raise ValueError("policy tree must have depth >= 1")
    _check_fits(channel, space, tree)
    kernel = policy_kernel(channel, tree)
    _, _, pis, labels1, labels2, actions, masses = _walked(kernel, tree, _start(space, prior))
    rewards = kernel.weighted(weights, pis, labels1, labels2, kernel.joint(pis)[1])
    # summed node by node in depth-first order as from a start at 0.0,
    # which + 0.0 stands for: it turns a sum of -0.0 terms into 0.0
    acc = np.cumsum(masses * rewards[actions, np.arange(len(actions))])[-1] + 0.0
    return float(acc) / tree.depth


def _dsaht_program(channel: Channel, space: MessageSpace, pi: np.ndarray, action_cap: int) -> Program:
    """DSAHT's program: the common belief alone from the prior table ``pi``."""
    kernel = _enumerated_kernel(channel, space, action_cap)

    def totals(togo, pis):
        out = np.zeros((len(kernel), pis.shape[-1]))
        # the last level's states close the batch
        k = int(np.count_nonzero(togo))
        if k < len(togo):
            # minus the terminal error, max(posterior) - 1, without the
            # posteriors: dividing by a positive mass keeps the order, and
            # the rounding too. The max is taken in slices over the
            # message pairs
            joint, p = kernel.branch_joint(pis[..., k:])
            cells = joint.reshape((-1,) + p.shape)
            largest = cells[0]
            for cell in cells[1:]:
                largest = np.maximum(largest, cell)
            minus_error = largest / np.where(p > MASS_EPS, p, 1.0) - 1.0
            out[:, k:] = _add_continuation(out[:, k:], p, minus_error, kernel.branch_of)
        return out

    return Program(kernel, (pi[..., None],), functools.partial(_expand, kernel), totals)


def solve_dsaht(
    channel: Channel,
    space: MessageSpace,
    horizon: int,
    prior: JointBelief = None,
    action_cap: int = DEFAULT_ACTION_CAP,
    node_cap: int = DEFAULT_NODE_CAP,
) -> DsahtResult:
    """Minimise the probability that a best-guess decoder errs after T uses.

    Only the common belief matters here; the cost-to-go of a terminal belief
    is one minus its largest entry and interior steps average it under the
    predictive output distribution. The same level-synchronous engine as
    ``solve_horizon`` solves it by maximising minus the error (the terminal
    total is max(posterior) - 1, the exact negation of 1 - max), with the
    same guards and the same two counters over common beliefs (both 0 at
    T = 0).
    """
    horizon = check_count(horizon, "horizon", 0)
    pi = _prior_table(space, prior)
    if horizon == 0:
        return DsahtResult(1.0 - float(pi.max()), PolicyTree(0, channel.n_outputs, {}), 0, 0, channel, pi)
    _check_tree_size(channel, horizon, node_cap)
    program = _dsaht_program(channel, space, pi, action_cap)
    # negation is exact in every sum and product, so 0.0 - value has the bits of the minimised error
    value, policy, expanded, hits = _backward_induction(program, horizon, node_cap)
    return DsahtResult(0.0 - value, policy, expanded, hits, channel, pi)


# ---------------------------------------------------------------------------
# stationary solver


def _freudenthal(beliefs: np.ndarray, d: int) -> tuple:
    """Vertices and barycentric weights of the simplex holding each belief
    in Freudenthal's triangulation of the grid with spacing 1/d (Lovejoy,
    Oper. Res. 1991).

    ``beliefs`` is (parts, N), one belief per column. A point is written in
    cumulative coordinates z_j = d (b_{j+1} + ... + b_{parts-1}), j < parts
    - 1, clipped to [0, d] and made non-increasing. Vertex k steps floor(z)
    up by 1 in the k coordinates with the largest fractional parts, ties
    broken by index, so its weight is the gap between the (k-1)-th and k-th
    largest fractional part (1 above the largest, 0 below the smallest).
    Returns the vertices as (parts - 1, parts, N) int cumulative
    coordinates, coordinate j of vertex k of belief n at [j, k, n], and
    their weights (parts, N). Every vertex whose weight is positive is a
    grid point: equal floors are stepped up in index order, so the
    coordinates stay non-increasing, and a coordinate at d has no
    fractional part, so only vertices of weight 0 step it past d.
    """
    parts, n = beliefs.shape
    suffix = np.cumsum(beliefs[::-1], axis=0)[::-1]
    z = np.minimum.accumulate(np.clip(d * suffix[1:], 0.0, float(d)), axis=0)
    base = np.floor(z)
    frac = z - base
    order = np.argsort(-frac, axis=0, kind="stable")
    rank = np.argsort(order, axis=0)
    verts = base[:, None] + (rank[:, None] < np.arange(parts)[:, None])
    fs = np.take_along_axis(frac, order, axis=0)
    edges = np.concatenate([np.ones((1, n)), fs, np.zeros((1, n))])
    return verts.astype(np.int64), edges[:-1] - edges[1:]


def _grid_tables(kernel: ActionKernel, weights: LambdaWeights, space: MessageSpace,
                 resolution: int) -> tuple:
    """Everything relative value iteration reads, built in one pass over the
    grid of every belief with coordinates k/resolution.

    Returns (rewards, rows, cols, vals, ref_idx, ref_w): the (actions,
    points) reward table with fully refined private tables, the successor
    structure as COO triples over the flattened (action, point) axis in
    (point, action, output, vertex) order, and the interpolation of the
    uniform belief. Each successor with predictive mass above MASS_EPS is
    spread over the vertices of its Freudenthal simplex whose weight
    exceeds 1e-12. Points are listed in lexicographic order of their
    coordinates and evaluated CHUNK_ENTRIES kernel entries at a time.
    """
    d, parts, n_actions = resolution, space.pairs, len(kernel)
    # a grid point by its cumulative coordinates d >= v_0 >= ... >= v_{parts-2}
    # >= 0, in descending lexicographic order: its coordinates
    # (d - v_0, v_0 - v_1, ..., v_{parts-2}) / d then ascend lexicographically
    n_points = math.comb(d + parts - 1, parts - 1)
    cum = np.array(
        list(itertools.combinations_with_replacement(range(d, -1, -1), parts - 1)), dtype=np.int64
    ).reshape(n_points, parts - 1)
    ends = np.full((1, n_points), d)
    grid = -np.diff(np.concatenate([ends, cum.T, np.zeros_like(ends)]), axis=0) / d
    grid = grid.reshape(space.m1, space.m2, n_points)
    # count[q, r]: the compositions of r into q + 1 parts. The points listed
    # before v are, by the first j where they differ from it (v_{-1} = d),
    # count[parts - j - 1, v_{j-1}] - count[parts - j - 1, v_j] in number
    count = np.ones((parts, d + 1), dtype=np.int64)
    for q in range(1, parts):
        count[q] = np.cumsum(count[q - 1])
    tail = np.arange(parts - 1, 0, -1)

    def interpolate(beliefs: np.ndarray) -> tuple:
        """(belief, grid index, weight) of every vertex kept, in (belief,
        vertex) order."""
        verts, w = _freudenthal(beliefs, d)
        which, k = np.nonzero(w.T > 1e-12)
        verts = verts[:, k, which]
        above = np.concatenate([np.full((1, len(k)), d), verts[:-1]])
        return which, (count[tail[:, None], above] - count[tail[:, None], verts]).sum(axis=0), w[k, which]

    # fully refined: every message is a private class of its own
    own1, own2 = np.arange(space.m1), np.arange(space.m2)
    rewards = np.empty((n_actions, n_points))
    rows, cols, vals = [], [], []
    step = max(1, CHUNK_ENTRIES // kernel.lik.size)
    for lo in range(0, n_points, step):
        pis = grid[..., lo : lo + step]
        joint, p = kernel.joint(pis)
        rewards[:, lo : lo + step] = kernel.weighted(weights, pis, own1, own2, p)
        # the live (point, action, output) triples in that order
        s, a, y = np.nonzero(np.moveaxis(p > MASS_EPS, -1, 0))
        live = (a * p.shape[1] + y) * p.shape[2] + s
        which, index, w = interpolate(kernel.posteriors_at(joint, p, live).reshape(parts, -1))
        rows.append((a * n_points + lo + s)[which])
        cols.append(index)
        vals.append(np.take(p, live)[which] * w)
    _, ref_idx, ref_w = interpolate(np.full((parts, 1), 1.0 / parts))
    return rewards, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), ref_idx, ref_w


def solve_stationary(
    channel: Channel,
    space: MessageSpace,
    weights: LambdaWeights,
    resolution: int,
    epsilon: float = DEFAULT_STATIONARY_EPSILON,
    max_iters: int = DEFAULT_STATIONARY_ITERS,
    prior: JointBelief = None,
    renewal: str = "per_use",
    grid_cap: int = DEFAULT_GRID_CAP,
    action_cap: int = DEFAULT_ACTION_CAP,
) -> StationaryResult:
    """Long-run average weighted reward with fully refined private tables.

    renewal="per_use" (default): every channel use carries a fresh message
    pair drawn from the prior, so every continuation restarts at the prior
    and the average-reward Bellman equation is solved by the largest
    one-step reward there. That maximum is returned exactly, with no grid
    (iterations 0, span 0, converged); ``resolution``, ``epsilon``,
    ``max_iters`` and ``grid_cap`` do not affect it. This models a sender
    pipeline that never runs out of new data and makes the gain the
    sustainable per-use information rate; on point-to-point embeddings it
    reproduces the single-letter channel value at the message granularity.
    The private tables are point masses, so the rewards condition on full
    messages; under a non-product prior this can differ from the horizon
    program at n = 1, whose private rows are the prior marginals.

    renewal="none": plain Bayes successors on a fixed message pair, solved
    by relative value iteration on the grid of every belief with
    coordinates k/resolution. The grid's rewards and successors are built
    in one batched pass over the action kernel; off-grid successors are
    evaluated by barycentric interpolation over their simplex in
    Freudenthal's triangulation, whose vertices with weight are always grid
    points, so no nearest-point fallback exists. The update is recentred
    at the uniform belief, whose update value is the gain estimate.
    GridTooLarge is raised when the grid has more than ``grid_cap``
    points, counted before any point is built. Iteration stops when
    the span of successive differences falls below epsilon; running out of
    iterations is reported through the ``converged`` flag rather than an
    exception, with the partial result kept. The total extractable
    information is bounded by the initial entropy, so the gain is 0 for
    every channel; this mode exists to make that degeneracy observable.

    Both modes raise ValueError when ``resolution`` or ``max_iters`` is
    not an integer of at least 1 (``channel.check_count``).
    """
    if renewal not in RENEWALS:
        raise ValueError(f"unknown renewal mode {renewal!r}")
    resolution, max_iters = check_count(resolution, "resolution"), check_count(max_iters, "max_iters")
    pi = _prior_table(space, prior)
    kernel = _enumerated_kernel(channel, space, action_cap)

    if renewal == "per_use":
        own1, own2 = np.arange(space.m1), np.arange(space.m2)
        gain = float(kernel.weighted(weights, pi, own1, own2, kernel.joint(pi)[1]).max())
        return StationaryResult(gain, 0, 0.0, True, resolution, renewal)

    n_points = math.comb(resolution + space.pairs - 1, space.pairs - 1)
    if n_points > grid_cap:
        raise GridTooLarge(n_points, grid_cap)
    rewards, rows, cols, vals, ref_idx, ref_w = _grid_tables(kernel, weights, space, resolution)
    n_actions, flat_rewards = len(kernel), rewards.reshape(-1)
    value, gain, span, iterations, converged = np.zeros(n_points), 0.0, math.inf, 0, False
    for iterations in range(1, max_iters + 1):
        acc = np.bincount(rows, vals * value[cols], minlength=n_points * n_actions)
        updated = (flat_rewards + acc).reshape(n_actions, n_points).max(axis=0)
        gain = float(updated[ref_idx] @ ref_w)
        updated = updated - gain
        diff = updated - value
        span = float(diff.max() - diff.min())
        value = updated
        if span < epsilon:
            converged = True
            break

    return StationaryResult(gain, iterations, span, converged, resolution, renewal)


# ---------------------------------------------------------------------------
# reachability diagnostic


def reachability_diagnostic(
    channel: Channel,
    space: MessageSpace,
    weights: LambdaWeights,
    n: int,
    prior: JointBelief = None,
    action_cap: int = DEFAULT_ACTION_CAP,
    node_cap: int = DEFAULT_NODE_CAP,
) -> ReductionReport:
    """Probe whether the common belief alone pins down rewards on-policy.

    Solves the horizon program, enumerates the augmented states reachable
    under its argmax tree, groups them by the engine's dedupe key on their
    common belief (π quantised to QUANT), and compares, within a group,
    each pair of states whose beliefs also agree within 1e-9 entrywise: it
    reports every action whose weighted reward differs across such a pair
    by more than 1e-9. Purely informational; conflicts are evidence that
    the private tables still matter on this instance.
    """
    tree = solve_horizon(channel, space, weights, n, prior, action_cap=action_cap, node_cap=node_cap).policy
    kernel = _enumerated_kernel(channel, space, action_cap)
    ts, hists, pis, labels1, labels2, *_ = _walked(kernel, tree, _start(space, prior))
    # groups in order of first appearance, each listing its states in walk order
    first, group_of = first_rows(_quantized_rows((pis,)))
    # only states that share a group are compared, so only they get rewards
    shared = np.flatnonzero(np.bincount(group_of)[group_of] > 1)
    rewards = np.empty((len(kernel), len(group_of)))
    if len(shared):
        rewards[:, shared] = kernel.weighted(weights, pis[..., shared], labels1[:, shared],
                                             labels2[:, shared], kernel.joint(pis[..., shared])[1])
    conflicts = []
    for g in np.unique(group_of[shared]):
        for i, j in itertools.combinations(np.flatnonzero(group_of == g), 2):
            if np.max(np.abs(pis[..., i] - pis[..., j])) > 1e-9:
                continue
            gap = np.abs(rewards[:, i] - rewards[:, j])
            conflicts.extend(
                {"history_a": tuple(hists[: ts[i] - 1, i].tolist()),
                 "history_b": tuple(hists[: ts[j] - 1, j].tolist()), "t_a": int(ts[i]), "t_b": int(ts[j]),
                 "action_index": int(a_i), "reward_gap": float(gap[a_i])}
                for a_i in np.flatnonzero(gap > 1e-9)
            )
    root = tree.action_at(())
    injective = len(set(root.e1.table)) == space.m1 and len(set(root.e2.table)) == space.m2
    return ReductionReport(len(group_of), len(first), conflicts, injective)
