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

The two finite-horizon programs share one level-synchronous engine,
``_backward_induction``. The state moves forward one channel use at a
time, so a forward pass builds every time step's distinct states from the
previous step's as one batch: the action kernel (``macfb.kernel``)
evaluates a stack of states for every action at once (rewards,
predictive distributions, posteriors, refined labels). A Bayes update
depends on an (action, output) pair only through the pair's branch, its
likelihood column and encoder partitions, so the successors are built
once per (state, branch) and deduplicated on their common belief
quantised to QUANT and their labels, each represented by its first
occurrence in (state, action, output) order. A backward pass then takes
the optimum level by level, reading each pair's mass and successor
through its branch, and the policy follows the stored successor indices
from the root. Validated belief objects exist only at the API boundary.
Every walk over the beliefs a fixed policy reaches (the DSAHT decoder,
``evaluate_tree``, the diagnostic and the CLI's belief file) goes through
one walker, ``walk_policy``, which builds only the chosen action's update
at each node; ``evaluate_tree`` and the diagnostic then evaluate every
node they walked in one batched reward pass.

Ties: the policy takes the lexicographically smallest action whose total
lies within TIE_TOL of the optimum (the maximum for the horizon program,
the minimum for DSAHT), so rounding noise in the last bits never decides
between tied actions. The reported value is the optimum itself.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .belief import MASS_EPS, JointBelief, check_prior, initial_state
from .channel import Channel, MessageSpace
from .encoding import (
    DEFAULT_ACTION_CAP,
    PRUNE_TOL,
    EncoderAction,
    PolicyTree,
    enumerate_actions,
    history_index,
)
from .errors import GridTooLarge, HorizonTooDeep, LevelTooWide
from .kernel import ActionKernel, first_rows, root_labels
from .reward import LambdaWeights

DEFAULT_NODE_CAP = 1_000_000
DEFAULT_GRID_CAP = 500_000
DEFAULT_STATIONARY_ITERS = 500
DEFAULT_STATIONARY_EPSILON = 1e-6

# states are told apart by their coordinates quantised to this granularity
QUANT = 1e-9

# the finite-horizon programs put CHUNK_ENTRIES // width states through one
# batch, where width counts one state's entries in the branch joint
# (branches x message pairs) in DSAHT, and in the horizon program in that or
# the rewards' noise term (actions x message pairs), whichever is larger:
# 146 states a chunk at noisy_adder 2x2 in DSAHT, 12 at 3x3 in the horizon
# program, where the per-action joint allowed 4. The width counts those
# arrays only; other temporaries of a batch are larger per state, such as
# the rewards' margin products (96 entries at noisy_adder 2x2, against a
# width of 64) and, with prune, the rows ``distinct`` compares (2368 at 3x3,
# against 666). A 50 s bench/run.py run at this value peaks at 41.2 MB RSS
# on horizon-wide and on dsaht-deep (seed 0, medians of 10 runs, 2 cores).
# 1 << 14 makes horizon-wide solves about 13% faster but lifted the peak
# RSS of a run of dsaht-deep solves by 0.2-0.3 MB, so the batch stays at
# this size.
CHUNK_ENTRIES = 1 << 13

# totals this close to the optimum count as tied; the first one wins
TIE_TOL = 1e-12


def _quantized_rows(arrays) -> np.ndarray:
    """One int row per state of a stack: its arrays flattened, the float
    ones quantised to QUANT, and concatenated."""
    rows = [x.reshape(len(x), -1) for x in arrays]
    return np.concatenate([np.rint(x / QUANT).astype(np.int64) if x.dtype.kind == "f" else x
                           for x in rows], axis=1)


def _add_continuation(totals: np.ndarray, p: np.ndarray, cont: np.ndarray) -> np.ndarray:
    """totals + sum_y p[..., y] cont[..., y] over outputs with mass, added
    one output at a time in y order."""
    for y in range(p.shape[-1]):
        totals = totals + np.where(p[..., y] > MASS_EPS, p[..., y] * cont[..., y], 0.0)
    return totals


def _choose(totals: np.ndarray, candidates, maximise: bool) -> tuple:
    """Optimum of every row of ``totals`` (states x actions) over its
    candidate actions (all when ``candidates`` is None), and the first
    candidate within TIE_TOL of it."""
    worst = -np.inf if maximise else np.inf
    if candidates is not None:
        totals = np.where(candidates, totals, worst)
    best = totals.max(axis=1) if maximise else totals.min(axis=1)
    return best, (np.abs(totals - best[:, None]) <= TIE_TOL).argmax(axis=1)


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
        history the policy reaches; built on first access."""
        return _best_guesses(self._channel, self.policy, self._prior)


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


def _estimated_nodes(n_outputs: int, depth: int) -> int:
    return sum(n_outputs**t for t in range(depth))


def _prior_table(space: MessageSpace, prior: JointBelief) -> np.ndarray:
    """The table of ``prior`` (uniform when None), checked against ``space``."""
    return (initial_state(space).pi if prior is None else check_prior(space, prior)).table


def _start(space: MessageSpace, prior: JointBelief) -> tuple:
    """(pi, labels1, labels2) before the first channel use."""
    pi = _prior_table(space, prior)
    return pi, root_labels(pi.sum(axis=1)), root_labels(pi.sum(axis=0))


def policy_kernel(channel: Channel, tree: PolicyTree) -> ActionKernel:
    """Action kernel over the distinct actions of a policy tree."""
    return ActionKernel(channel, dict.fromkeys(tree.nodes.values()))


def walk_policy(kernel: ActionKernel, tree: PolicyTree, pi, labels1=None, labels2=None):
    """Depth-first walk over the beliefs a fixed policy tree reaches.

    ``kernel`` must hold every action the tree uses. Yields (t, hist, pi,
    labels1, labels2, a, mass) in history order for t = 1..depth, with a
    the index in ``kernel`` of the action at hist, then the beliefs at
    t = depth + 1 with a = None; ``mass`` is the probability of the output
    history, the product of the predictive masses along it. Only the
    chosen action's update is built: its joint, posteriors and refined
    labels, bit for bit those of the kernel's all-action methods. Branches
    with predictive mass at or below MASS_EPS are not followed. Without
    labels (labels1 = labels2 = None) only the common belief is carried.
    """
    index = {action: a for a, action in enumerate(kernel.actions)}
    stack = [(1, (), pi, labels1, labels2, 1.0)]
    while stack:
        t, hist, pi, labels1, labels2, mass = stack.pop()
        if t > tree.depth:
            yield t, hist, pi, labels1, labels2, None, mass
            continue
        a = index[tree.action_at(hist)]
        yield t, hist, pi, labels1, labels2, a, mass
        joint = kernel.lik[a] * pi
        p = joint.reshape(len(joint), -1).sum(axis=-1)
        post = kernel.posteriors(joint, p)
        if labels1 is not None:
            labels1, labels2 = kernel.refined_by(a, labels1, labels2)
        for y in reversed(range(len(p))):
            if p[y] > MASS_EPS:
                stack.append((t + 1, hist + (y,), post[y], labels1, labels2, mass * p[y]))


def _walked(kernel: ActionKernel, tree: PolicyTree, start: tuple) -> tuple:
    """The columns (t, hist, pi, labels1, labels2, a, mass) of the nodes
    ``walk_policy`` yields before the last step, in walk order, with the
    beliefs and labels stacked for one batched kernel pass."""
    walked = [node for node in walk_policy(kernel, tree, *start) if node[5] is not None]
    t, hist, pis, labels1, labels2, a, mass = zip(*walked)
    return t, hist, np.stack(pis), np.stack(labels1), np.stack(labels2), a, mass


def _complete_tree(depth: int, n_outputs: int, reached: dict, default: EncoderAction) -> PolicyTree:
    # unreachable histories never execute; they get the default action
    nodes = {hist: reached.get(hist, default) for hist in history_index(depth, n_outputs)}
    return PolicyTree(depth, n_outputs, nodes)


def _best_guesses(channel: Channel, policy: PolicyTree, prior: np.ndarray) -> dict:
    """Best-guess message pair at every terminal history the policy reaches."""
    # row-major argmax: the smallest (m1, m2) among tied maximisers
    if policy.depth == 0:
        return {(): divmod(int(np.argmax(prior)), prior.shape[1])}
    decoder = {}
    for t, hist, pi, _, _, a, _ in walk_policy(policy_kernel(channel, policy), policy, prior):
        if a is None:
            decoder[hist] = divmod(int(np.argmax(pi)), pi.shape[1])
    return decoder


def _expand_chunk(expand, members, met, t: int, states: tuple, last: bool,
                  maximise: bool, index) -> tuple:
    """One chunk of a level for ``_backward_induction``: returns what the
    backward pass needs, the arrays of the successor states new to the
    level, in order of first occurrence, and the number of live (state,
    action, output) successors. ``succ`` in the first part numbers the
    successors as ``index`` numbers the level's states.
    ``members[a, b]`` counts the outputs of action a in branch b and
    ``met[a, b]`` is the first of those pairs in (action, output) order.
    At the last level the chunk is chosen at once, (values, actions). Its
    temporaries are freed when this returns, before the next chunk is
    evaluated."""
    totals, p, cand, gather = expand(t, *states)
    if last:
        return _choose(totals, cand, maximise), None, 0
    # the live (action, output) pairs of every (state, branch)
    pairs = (p > MASS_EPS) * (members.sum(axis=0) if cand is None else cand @ members)
    s, b = np.nonzero(pairs)
    if cand is not None:
        # (state, action, output) order meets a state's branches at their
        # first candidate pairs; without pruning that is branch order
        first_met = np.where(cand[..., None], met, np.iinfo(met.dtype).max).min(axis=1)
        order = np.lexsort((first_met[s, b], s))
        s, b = s[order], b[order]
    nxt = gather(s, b)
    number, new = index.add(_quantized_rows(nxt))
    succ = np.full(p.shape, -1)
    succ[s, b] = number
    return (totals, p, cand, succ), tuple(x[new] for x in nxt), int(pairs.sum())


class _LevelIndex:
    """Numbers the distinct quantised rows of a level across its chunks, in
    order of first occurrence.

    The rows numbered so far are kept as sorted runs of their bytes, each
    run more than twice as long as the next, so a chunk is looked up with
    one binary search in each of O(log) runs. Every row is held once, as
    with a dict over the rows' bytes; the last chunk's rows are sorted only
    when another chunk comes, so a level of one chunk sorts nothing.
    """

    def __init__(self):
        self.runs = []  # (sorted row bytes, their numbers), longest first
        self.pending = None
        self.count = 0

    def add(self, rows: np.ndarray) -> tuple:
        """Number a chunk's rows, repeats included: (the number of every
        row, positions of the first occurrences of the rows new to the
        level)."""
        if self.pending is not None:
            # the last chunk's new rows join the runs only now
            keys, number, new = self.pending
            self._push(keys[new], number[new])
        keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
        number = np.full(len(keys), -1)
        for run, ids in self.runs:
            pos = np.minimum(np.searchsorted(run, keys), len(run) - 1)
            hit = run[pos] == keys
            number[hit] = ids[pos[hit]]
        # before any run every row is new, and is deduped without a copy
        miss = np.flatnonzero(number < 0) if self.runs else slice(None)
        first, inverse = first_rows(rows[miss])
        number[miss] = self.count + inverse
        new = miss[first] if self.runs else first
        self.count += len(new)
        self.pending = (keys, number, new) if len(new) else None
        return number, new

    def _push(self, run: np.ndarray, ids: np.ndarray) -> None:
        while self.runs and len(self.runs[-1][0]) <= 2 * len(run):
            old, old_ids = self.runs.pop()
            run, ids = np.concatenate([old, run]), np.concatenate([old_ids, ids])
        order = np.argsort(run, kind="stable")
        self.runs.append((run[order], ids[order]))


def _backward_induction(kernel: ActionKernel, depth: int, root: tuple, expand,
                        maximise: bool, node_cap: int, width: int) -> tuple:
    """Level-synchronous backward induction over the distinct states of each
    time step.

    ``root`` holds the start state's arrays, each with a leading axis of
    length 1. ``expand(t, *arrays)`` evaluates a batch of level-t states,
    stacked on that axis, and returns (totals, p, candidates, gather):

    * totals[s, a], what the action earns before any continuation: its
      reward, or in DSAHT the expected terminal error at the last level;
    * p[s, b], the predictive mass of every branch of the kernel (see
      ``macfb.kernel``), which is that of each of its (action, output)
      pairs; unused at the last level;
    * candidates[s, a], a mask of the actions to consider, or None for all;
    * gather(s, b), the successor states' arrays for index vectors s and b;
      unused at the last level.

    Forward pass: level t + 1 holds the successors of level t along every
    candidate action and every output with predictive mass above MASS_EPS,
    deduplicated on their float arrays quantised to QUANT and their int
    arrays as they are (``_quantized_rows``). The members of a
    branch have bit-identical successors, so each live (state, branch) is
    gathered, quantised and deduplicated once. A new state is represented
    by its first occurrence in (state, action, output) order, so each level
    lists its states in depth-first first-visit order: a state's live
    branches are taken in the order of their first candidate pair, which
    without candidates is branch order. ``succ[s, b]`` indexes the
    successor (-1 where there is none), and the pair (a, y) reads it at
    ``branch_of[a, y]``. A level is built CHUNK_ENTRIES kernel entries at a
    time, ``width`` of them per state, and ``_LevelIndex`` numbers each
    chunk's successors as one dedupe of the level.

    Backward pass: each level adds its successors' values output by output,
    then takes the optimum and the first candidate within TIE_TOL of it;
    the last level, which has no successors, does so chunk by chunk during
    the forward pass.

    Returns (value, policy, expanded, hits): the root's value, the policy
    tree (the chosen action at every history it reaches, actions[0]
    elsewhere), the number of distinct states over all levels, and the
    number of successor visits that found an existing state (live
    successors minus distinct states).
    Raises LevelTooWide before building the successors of a level with more
    (state, action, output) triples than ``node_cap``.
    """
    branch_of = kernel.branch_of
    n_actions, n_outputs = branch_of.shape
    step = max(1, CHUNK_ENTRIES // width)
    # members[a, b]: the outputs of action a in branch b; met[a, b]: the
    # first of those pairs, as a flat index a * Y + y (A * Y for none)
    action = np.repeat(np.arange(n_actions), n_outputs)
    members = np.zeros((n_actions, len(kernel.branch_lik)), dtype=np.intp)
    np.add.at(members, (action, branch_of.ravel()), 1)
    met = np.full(members.shape, branch_of.size)
    np.minimum.at(met, (action, branch_of.ravel()), np.arange(branch_of.size))
    levels, states = [], root
    expanded = hits = 0
    for t in range(1, depth + 1):
        n_states = len(states[0])
        expanded += n_states
        last = t == depth
        if not last and n_states * n_actions * n_outputs > node_cap:
            raise LevelTooWide(t, n_states * n_actions * n_outputs, node_cap)
        chunks, reps, index = [], [], _LevelIndex()
        for lo in range(0, n_states, step):
            chunk = tuple(x[lo : lo + step] for x in states)
            stored, found, n_live = _expand_chunk(expand, members, met, t, chunk, last, maximise, index)
            chunks.append(stored)
            reps.append(found)
            hits += n_live
        if not last:
            states = reps[0] if len(reps) == 1 else tuple(np.concatenate(arrays) for arrays in zip(*reps))
            hits -= index.count
        levels.append(tuple(None if part[0] is None else np.concatenate(part) for part in zip(*chunks)))

    value, last_best = levels[-1]
    best = [None] * (depth - 1) + [last_best]
    for t in reversed(range(depth - 1)):
        totals, p, cand, succ = levels[t]
        cont = np.append(value, 0.0)[succ]
        totals = _add_continuation(totals, p[:, branch_of], cont[:, branch_of])
        value, best[t] = _choose(totals, cand, maximise)

    nodes, stack = {}, [(0, (), 0)]
    while stack:
        t, hist, s = stack.pop()
        a = best[t][s]
        nodes[hist] = kernel.actions[a]
        if t + 1 < depth:
            succ = levels[t][3][s, branch_of[a]]
            stack.extend((t + 1, hist + (y,), j) for y, j in enumerate(succ) if j >= 0)
    policy = _complete_tree(depth, n_outputs, nodes, kernel.actions[0])
    return float(value[0]), policy, expanded, hits


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
    from ``prior`` (uniform when None).

    Level-synchronous backward induction over augmented states (see
    ``_backward_induction``): a forward pass builds the distinct states of
    steps 1..n, skipping branches whose predictive mass is at or below
    1e-15, and a backward pass adds the continuation values and takes the
    maximum. ``states_expanded`` counts the distinct states over all steps
    and ``cache_hits`` the successor visits that found a state already
    built (live successors minus distinct states). With ``prune`` the
    actions of a state whose successors get built are first collapsed to
    the first representative of each class with equal (reward, predictive,
    successor) rows, which never changes the value. Raises HorizonTooDeep
    when the full tree estimate exceeds ``node_cap``, and LevelTooWide
    before a step whose states x actions x outputs exceed it.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    est = _estimated_nodes(channel.n_outputs, n)
    if est > node_cap:
        raise HorizonTooDeep(est, node_cap)
    pi, labels1, labels2 = _start(space, prior)
    kernel = ActionKernel(channel, enumerate_actions(space, channel.alphabets, cap=action_cap))
    enc1, enc2, branch_of = kernel.branch_enc1, kernel.branch_enc2, kernel.branch_of

    def expand(t, pis, labels1, labels2):
        joint, p = kernel.branch_joint(pis)
        # the members of a branch share its predictive mass bit for bit
        totals = kernel.weighted(weights, pis, labels1, labels2, p[:, branch_of])
        if t == n:
            return totals, None, None, None
        post = kernel.posteriors(joint, p)
        ref1, ref2 = kernel.refined(labels1, labels2)
        cand = None
        if prune:
            cand = kernel.distinct(totals, p[:, branch_of], post[:, branch_of], ref1, ref2, PRUNE_TOL)

        def gather(s, b):
            return post[s, b], ref1[s, enc1[b]], ref2[s, enc2[b]]

        return totals, p, cand, gather

    root = (pi[None], labels1[None], labels2[None])
    total, policy, expanded, hits = _backward_induction(
        kernel, n, root, expand, True, node_cap, max(kernel.branch_lik.size, kernel.noise.size)
    )
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
    that reaches them.
    """
    if tree.depth < 1:
        raise ValueError("policy tree must have depth >= 1")
    kernel = policy_kernel(channel, tree)
    _, _, pis, labels1, labels2, actions, masses = _walked(kernel, tree, _start(space, prior))
    rewards = kernel.weighted(weights, pis, labels1, labels2, kernel.joint(pis)[1])
    acc = 0.0
    for mass, reward in zip(masses, rewards[np.arange(len(actions)), actions]):
        acc += mass * reward
    return float(acc) / tree.depth


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
    ``solve_horizon`` solves it, with the same guards and the same two
    counters over common beliefs (both 0 at T = 0).
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    pi = _prior_table(space, prior)
    if horizon == 0:
        policy = PolicyTree(0, channel.n_outputs, {})
        return DsahtResult(1.0 - float(pi.max()), policy, 0, 0, channel, pi)
    est = _estimated_nodes(channel.n_outputs, horizon)
    if est > node_cap:
        raise HorizonTooDeep(est, node_cap)
    kernel = ActionKernel(channel, enumerate_actions(space, channel.alphabets, cap=action_cap))
    branch_of = kernel.branch_of

    def expand(t, pis):
        joint, p = kernel.branch_joint(pis)
        totals = np.zeros((len(pis), len(kernel)))
        if t == horizon:
            # 1 - max(posterior) without the posteriors: dividing by a
            # positive mass keeps the order, and the rounding too
            largest = joint.reshape(p.shape + (-1,)).max(axis=-1)
            terminal = 1.0 - largest / np.where(p > MASS_EPS, p, 1.0)
            totals = _add_continuation(totals, p[:, branch_of], terminal[:, branch_of])
            return totals, None, None, None
        post = kernel.posteriors(joint, p)
        return totals, p, None, lambda s, b: (post[s, b],)

    error, policy, expanded, hits = _backward_induction(
        kernel, horizon, (pi[None],), expand, False, node_cap, kernel.branch_lik.size
    )
    return DsahtResult(error, policy, expanded, hits, channel, pi)


# ---------------------------------------------------------------------------
# stationary solver


def _freudenthal(beliefs: np.ndarray, d: int) -> tuple:
    """Vertices and barycentric weights of the simplex holding each belief
    in Freudenthal's triangulation of the grid with spacing 1/d (Lovejoy,
    Oper. Res. 1991).

    ``beliefs`` is (N, parts). A point is written in cumulative coordinates
    z_j = d (b_{j+1} + ... + b_{parts-1}), j < parts - 1, clipped to [0, d]
    and made non-increasing. Vertex k steps floor(z) up by 1 in the k
    coordinates with the largest fractional parts, ties broken by index, so
    its weight is the gap between the (k-1)-th and k-th largest fractional
    part (1 above the largest, 0 below the smallest). Returns the vertices
    as (N, parts, parts - 1) int cumulative coordinates and their weights
    (N, parts). Every vertex whose weight is positive is a grid point:
    equal floors are stepped up in index order, so the coordinates stay
    non-increasing, and a coordinate at d has no fractional part, so only
    vertices of weight 0 step it past d.
    """
    n, parts = beliefs.shape
    suffix = np.cumsum(beliefs[:, ::-1], axis=1)[:, ::-1]
    z = np.minimum.accumulate(np.clip(d * suffix[:, 1:], 0.0, float(d)), axis=1)
    base = np.floor(z)
    frac = z - base
    order = np.argsort(-frac, axis=1, kind="stable")
    rank = np.argsort(order, axis=1)
    verts = base[:, None, :] + (rank[:, None, :] < np.arange(parts)[:, None])
    fs = np.take_along_axis(frac, order, axis=1)
    edges = np.concatenate([np.ones((n, 1)), fs, np.zeros((n, 1))], axis=1)
    return verts.astype(np.int64), edges[:, :-1] - edges[:, 1:]


def _grid_tables(kernel: ActionKernel, weights: LambdaWeights, space: MessageSpace,
                 resolution: int) -> tuple:
    """Everything relative value iteration reads, built in one pass over the
    grid of every belief with coordinates k/resolution.

    Returns (rewards, rows, cols, vals, ref_idx, ref_w): the (points,
    actions) reward table with fully refined private tables, the successor
    structure as COO triples over the flattened (point, action) axis in
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
    ends = np.full((n_points, 1), d)
    grid = -np.diff(np.concatenate([ends, cum, np.zeros_like(ends)], axis=1), axis=1) / d
    grid = grid.reshape(n_points, space.m1, space.m2)
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
        which, k = np.nonzero(w > 1e-12)
        verts = verts[which, k]
        above = np.concatenate([np.full((len(verts), 1), d), verts[:, :-1]], axis=1)
        return which, (count[tail, above] - count[tail, verts]).sum(axis=1), w[which, k]

    # fully refined: every message is a private class of its own
    own1, own2 = np.arange(space.m1), np.arange(space.m2)
    rewards = np.empty((n_points, n_actions))
    rows, cols, vals = [], [], []
    step = max(1, CHUNK_ENTRIES // kernel.lik.size)
    for lo in range(0, n_points, step):
        pis = grid[lo : lo + step]
        joint, p = kernel.joint(pis)
        rewards[lo : lo + step] = kernel.weighted(weights, pis, own1, own2, p)
        s, a, y = np.nonzero(p > MASS_EPS)
        post = kernel.posteriors(joint, p)[s, a, y].reshape(len(s), parts)
        which, index, w = interpolate(post)
        rows.append(((lo + s) * n_actions + a)[which])
        cols.append(index)
        vals.append(p[s, a, y][which] * w)
    _, ref_idx, ref_w = interpolate(np.full((1, parts), 1.0 / parts))
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
    """
    if renewal not in ("per_use", "none"):
        raise ValueError(f"unknown renewal mode {renewal!r}")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    pi = _prior_table(space, prior)
    actions = enumerate_actions(space, channel.alphabets, cap=action_cap)
    kernel = ActionKernel(channel, actions)

    if renewal == "per_use":
        own1, own2 = np.arange(space.m1), np.arange(space.m2)
        gain = float(kernel.weighted(weights, pi, own1, own2, kernel.joint(pi)[1]).max())
        return StationaryResult(gain, 0, 0.0, True, resolution, renewal)

    n_points = math.comb(resolution + space.pairs - 1, space.pairs - 1)
    if n_points > grid_cap:
        raise GridTooLarge(n_points, grid_cap)
    rewards, rows, cols, vals, ref_idx, ref_w = _grid_tables(kernel, weights, space, resolution)
    n_actions = len(actions)

    flat_rewards = rewards.reshape(-1)
    value = np.zeros(n_points)
    gain = 0.0
    span = math.inf
    iterations = 0
    converged = False
    for iterations in range(1, max_iters + 1):
        acc = np.zeros(n_points * n_actions)
        np.add.at(acc, rows, vals * value[cols])
        updated = (flat_rewards + acc).reshape(n_points, n_actions).max(axis=1)
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
    under its argmax tree, groups states whose joint beliefs agree within
    1e-9 entrywise, and reports every action whose weighted reward differs
    across the group by more than 1e-9. Purely informational; conflicts are
    evidence that the private tables still matter on this instance.
    """
    tree = solve_horizon(channel, space, weights, n, prior, action_cap=action_cap,
                         node_cap=node_cap).policy
    kernel = ActionKernel(channel, enumerate_actions(space, channel.alphabets, cap=action_cap))
    ts, hists, pis, labels1, labels2, *_ = _walked(kernel, tree, _start(space, prior))
    # groups in order of first appearance, each listing its states in walk order
    first, group_of = first_rows(_quantized_rows((pis,)))
    # only states that share a group are compared, so only they get rewards
    shared = np.flatnonzero(np.bincount(group_of)[group_of] > 1)
    rewards = np.empty((len(pis), len(kernel)))
    if len(shared):
        rewards[shared] = kernel.weighted(weights, pis[shared], labels1[shared], labels2[shared],
                                          kernel.joint(pis[shared])[1])
    conflicts = []
    for g in np.unique(group_of[shared]):
        for i, j in itertools.combinations(np.flatnonzero(group_of == g), 2):
            if np.max(np.abs(pis[i] - pis[j])) > 1e-9:
                continue
            gap = np.abs(rewards[i] - rewards[j])
            conflicts.extend(
                {"history_a": hists[i], "history_b": hists[j], "t_a": ts[i], "t_b": ts[j],
                 "action_index": int(a_i), "reward_gap": float(gap[a_i])}
                for a_i in np.flatnonzero(gap > 1e-9)
            )
    root = tree.action_at(())
    injective = len(set(root.e1.table)) == space.m1 and len(set(root.e2.table)) == space.m2
    return ReductionReport(len(pis), len(first), conflicts, injective)
