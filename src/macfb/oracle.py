"""Brute-force reference implementations, kept deliberately definitional.

Everything here works on explicit trajectory tables: enumerate message
pairs and full output sequences under a fixed policy tree, weight them by
the product of kernel factors, and read quantities straight off their
definitions (conditional mutual informations as grouped sums, error
probability as one minus the best-guess mass). No belief recursion, no
reward shortcuts; the only shared vocabulary with the solver modules is
the channel, the message space and the policy-tree container.

All sums over trajectory collections use compensated summation.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .channel import Channel, MessageSpace
from .encoding import DEFAULT_ACTION_CAP, PolicyTree, enumerate_actions
from .errors import NotConverged, SearchTooLarge, TableTooLarge

DEFAULT_TABLE_CAP = 1_000_000
DEFAULT_TREE_CAP = 100_000

_LN2 = math.log(2.0)


def _lam(weights) -> tuple:
    if hasattr(weights, "as_tuple"):
        return tuple(float(v) for v in weights.as_tuple())
    w = tuple(float(v) for v in weights)
    if len(w) != 3:
        raise ValueError("expected three reward weights")
    return w


def _uniform_prior(space: MessageSpace) -> np.ndarray:
    return np.full((space.m1, space.m2), 1.0 / space.pairs)


def _check_prior(space: MessageSpace, prior) -> np.ndarray:
    if prior is None:
        return _uniform_prior(space)
    p = np.asarray(prior, dtype=float)
    if p.shape != (space.m1, space.m2):
        raise ValueError("prior shape disagrees with the message space")
    if (p < 0.0).any() or not abs(float(p.sum()) - 1.0) <= 1e-9:  # NaN fails it too
        raise ValueError("prior must be a probability table")
    return p


def build_trajectories(
    channel: Channel,
    space: MessageSpace,
    tree: PolicyTree,
    prior=None,
    cap: int = DEFAULT_TABLE_CAP,
):
    """Joint law of (m1, m2, y_1..y_n) under ``tree``.

    Returns a list of records (m1, m2, ys, x1s, x2s, probability); exact-zero
    branches are dropped. The input sequences are recorded because they are
    deterministic along each record and every conditional information needs
    them.
    """
    n = tree.depth
    entries = space.pairs * channel.n_outputs**n
    if entries > cap:
        raise TableTooLarge(entries, cap)
    prior = _check_prior(space, prior)
    kernel = channel.kernel
    n_y = channel.n_outputs
    records = []

    for m1 in range(space.m1):
        for m2 in range(space.m2):
            base = float(prior[m1, m2])
            if base == 0.0:
                continue
            stack = [((), (), (), base)]
            while stack:
                hist, x1s, x2s, p = stack.pop()
                if len(hist) == n:
                    records.append((m1, m2, hist, x1s, x2s, p))
                    continue
                action = tree.action_at(hist)
                x1 = action.e1.table[m1]
                x2 = action.e2.table[m2]
                for y in range(n_y):
                    q = float(kernel[y, x1, x2])
                    if q == 0.0:
                        continue
                    stack.append((hist + (y,), x1s + (x1,), x2s + (x2,), p * q))
    return records


def _grouped_mi(triples) -> float:
    """I(A; B | C) from (c, a, b, probability) tuples, straight from the
    definition: sum p log2( p(a,b,c) p(c) / (p(a,c) p(b,c)) )."""
    pabc, pc, pac, pbc = {}, {}, {}, {}
    for c, a, b, p in triples:
        if p <= 0.0:
            continue
        pabc.setdefault((c, a, b), []).append(p)
        pc.setdefault(c, []).append(p)
        pac.setdefault((c, a), []).append(p)
        pbc.setdefault((c, b), []).append(p)
    pabc = {k: math.fsum(v) for k, v in pabc.items()}
    pc = {k: math.fsum(v) for k, v in pc.items()}
    pac = {k: math.fsum(v) for k, v in pac.items()}
    pbc = {k: math.fsum(v) for k, v in pbc.items()}
    terms = [
        p * math.log((p * pc[c]) / (pac[(c, a)] * pbc[(c, b)]))
        for (c, a, b), p in pabc.items()
    ]
    return math.fsum(terms) / _LN2


def evaluate_policy_In(
    channel: Channel,
    space: MessageSpace,
    tree: PolicyTree,
    weights,
    prior=None,
    cap: int = DEFAULT_TABLE_CAP,
) -> float:
    """Per-step weighted sum of the three directed conditional informations.

    For each step t the conditioning variables are read off the trajectory
    records: the running output prefix, plus for the single-sender terms the
    other sender's inputs through time t.
    """
    l1, l2, l3 = _lam(weights)
    n = tree.depth
    if n < 1:
        raise ValueError("policy tree must have depth >= 1")
    records = build_trajectories(channel, space, tree, prior, cap)
    per_step = []
    for t in range(1, n + 1):
        i1 = _grouped_mi(
            ((ys[: t - 1], x2s[:t]), x1s[t - 1], ys[t - 1], p)
            for _, _, ys, x1s, x2s, p in records
        )
        i2 = _grouped_mi(
            ((ys[: t - 1], x1s[:t]), x2s[t - 1], ys[t - 1], p)
            for _, _, ys, x1s, x2s, p in records
        )
        i3 = _grouped_mi(
            (ys[: t - 1], (x1s[t - 1], x2s[t - 1]), ys[t - 1], p)
            for _, _, ys, x1s, x2s, p in records
        )
        per_step.append(l1 * i1 + l2 * i2 + l3 * i3)
    return math.fsum(per_step) / n


def _all_trees(channel: Channel, space: MessageSpace, depth: int, tree_cap: int,
               action_cap: int):
    actions = enumerate_actions(space, channel.alphabets, cap=action_cap)
    histories = [
        hist
        for t in range(depth)
        for hist in itertools.product(range(channel.n_outputs), repeat=t)
    ]
    count = len(actions) ** len(histories)
    if count > tree_cap:
        raise SearchTooLarge(count, tree_cap)
    for choice in itertools.product(actions, repeat=len(histories)):
        yield PolicyTree(depth, channel.n_outputs, dict(zip(histories, choice)))


def exhaustive_Cn(
    channel: Channel,
    space: MessageSpace,
    weights,
    n: int,
    prior=None,
    tree_cap: int = DEFAULT_TREE_CAP,
    action_cap: int = DEFAULT_ACTION_CAP,
    table_cap: int = DEFAULT_TABLE_CAP,
):
    """Maximum of evaluate_policy_In over every depth-n policy tree.

    Returns (value, argmax tree); the first maximiser in enumeration order
    wins, which makes repeated runs byte-stable. ``table_cap`` caps each
    tree's trajectory table (see ``build_trajectories``).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    best_value = -math.inf
    best_tree = None
    for tree in _all_trees(channel, space, n, tree_cap, action_cap):
        value = evaluate_policy_In(channel, space, tree, weights, prior, table_cap)
        if value > best_value:
            best_value = value
            best_tree = tree
    return best_value, best_tree


def evaluate_scheme_error(
    channel: Channel,
    space: MessageSpace,
    tree: PolicyTree,
    prior=None,
    cap: int = DEFAULT_TABLE_CAP,
) -> float:
    """Exact error probability of best-guess decoding after ``tree`` runs.

    The decoder sees the full output sequence and picks the message pair of
    largest joint mass; the success probability is the summed maxima.
    """
    if tree.depth == 0:
        prior = _check_prior(space, prior)
        return 1.0 - float(prior.max())
    records = build_trajectories(channel, space, tree, prior, cap)
    by_sequence = {}
    for m1, m2, ys, _, _, p in records:
        cell = by_sequence.setdefault(ys, {})
        cell[(m1, m2)] = cell.get((m1, m2), 0.0) + p
    correct = math.fsum(max(cell.values()) for cell in by_sequence.values())
    return 1.0 - correct


def exhaustive_min_error(
    channel: Channel,
    space: MessageSpace,
    horizon: int,
    prior=None,
    tree_cap: int = DEFAULT_TREE_CAP,
    action_cap: int = DEFAULT_ACTION_CAP,
    table_cap: int = DEFAULT_TABLE_CAP,
):
    """Minimum decoding-error probability over every depth-T policy tree;
    ``table_cap`` as in ``exhaustive_Cn``."""
    if horizon == 0:
        prior = _check_prior(space, prior)
        return 1.0 - float(prior.max()), PolicyTree(0, channel.n_outputs, {})
    best_error = math.inf
    best_tree = None
    for tree in _all_trees(channel, space, horizon, tree_cap, action_cap):
        err = evaluate_scheme_error(channel, space, tree, prior, table_cap)
        if err < best_error:
            best_error = err
            best_tree = tree
    return best_error, best_tree


def p2p_matrix(channel: Channel) -> np.ndarray:
    """Q(y|x) for a channel whose second sender is mute (|X2| = 1)."""
    if channel.alphabets.x2 != 1:
        raise ValueError("point-to-point extraction needs |X2| = 1")
    m = channel.kernel[:, :, 0].T.copy()
    return m


def blahut_arimoto(q_yx, eps: float = 1e-9, max_iters: int = 200_000) -> float:
    """Capacity in bits of a point-to-point kernel, rows q_yx[x][y].

    Alternating maximisation with the classical upper/lower capacity
    bracket as the stopping rule; raises NotConverged when the bracket is
    still wider than eps after max_iters rounds.
    """
    q = np.asarray(q_yx, dtype=float)
    if q.ndim != 2:
        raise ValueError("point-to-point kernel must be 2d, rows indexed by x")
    if (q < 0.0).any() or np.max(np.abs(q.sum(axis=1) - 1.0)) > 1e-9:
        raise ValueError("rows of the point-to-point kernel must be distributions")
    n_x = q.shape[0]
    r = np.full(n_x, 1.0 / n_x)
    support = q > 0.0
    gap = math.inf
    for _ in range(max_iters):
        w = r[:, None] * q
        col = w.sum(axis=0)
        col_safe = np.where(col > 0.0, col, 1.0)
        post = w / col_safe
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(support, np.log(np.where(support, post, 1.0))
                            - np.log(r)[:, None], 0.0)
        c = np.exp((q * logs).sum(axis=1))
        total = float(r @ c)
        low = math.log(total)
        upp = math.log(float(c.max()))
        gap = (upp - low) / _LN2
        if gap <= eps:
            return low / _LN2
        r = r * c / total
    raise NotConverged(gap, max_iters)
