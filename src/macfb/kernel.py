"""Batched action kernel: every action's rewards and Bayes updates at once.

For a channel Q and a fixed list of joint encoder actions a = (e1, e2) two
tables are built once:

* the likelihood L[a, y, m1, m2] = Q(y | e1_a(m1), e2_a(m2));
* the noise entropies Hn[a, m1, m2] = H(Q(. | e1_a(m1), e2_a(m2))) in bits.

A state is the common belief pi and, per sender, one int label per
message naming its private class, the messages with its input history,
counted from 0 in order of first appearance (``root_labels`` before any
channel use, ``row_classes`` from a validated float table). At a state
(pi, labels1, labels2) the joint J = L * pi then gives, for all actions:

* the predictive distribution p[a, y] = sum_m J[a, y, m];
* every posterior J[a, y] / p[a, y];
* i3 = H(p_a) - sum_m pi Hn[a];
* i1 = H(Y | C2) - sum_m pi Hn[a], where C2 is sender 2's cell (its
  private class times its current symbol). An action reaches the
  terms of H(Y | C2) only through sender 1's distinct encoder and, per
  cell, the cell's symbol and set of member messages, so the terms are
  computed once per (encoder, symbol, member set) from the margins
  sum_m1 Q(y | e1(m1), x2) pi(m1, m2) and gathered per action (at
  noisy_adder 3x3, 8 encoders x 2 symbols x 8 member sets for the 64
  actions' up to 6 cells);
* i2, the mirror of i1;
* the refined labels, which depend on the action only, never on y.

The rewards need the state and p only, not the joint. This is the
common-information split of the state: the common belief carries the
outputs, the labels only the encoders' partitions.
Every method also takes a batch of states, stacked on a leading axis of
pi and the labels, and then returns its results with that axis in
front; each state's entries are bit-identical to evaluating it alone.
The reward sums over the short axes (messages, outputs, sender cells) are
slice additions in index order wherever numpy's own sum adds in that
order, and numpy's sum where it regroups the terms (``_sum``); the margins
carry the bits of the joint's message sums and a cell adds its members in
message order, so the rewards carry the bits of plain numpy reductions
over the joint at a fraction of their cost.
Everything here works on raw arrays and validates nothing; the validated
belief and reward functions wrap it at the API boundary.

A Bayes update depends on (a, y) only through the likelihood column
L[a, y] and the two senders' encoder partitions, and many pairs share
them. The kernel groups the pairs into branches once: pairs with the same
column, compared by its bytes, and the same partition on each side. The
members of a branch give bit-identical predictive masses, posteriors and
refined labels from any state, because the same operations run on the
same numbers, so a program needs one update per branch (``branch_joint``,
and ``branch_of`` to read a pair's branch). At noisy_adder 2x2 the 48
pairs make 14 branches, at 3x3 the 192 make 74.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .belief import MASS_EPS
from .channel import Channel

_LN2 = float(np.log(2.0))

# private rows from identical input histories agree to this tolerance
ROW_MATCH_TOL = 1e-12


def _xlogx(x: np.ndarray) -> np.ndarray:
    """Elementwise x ln x of a non-negative array, with 0 ln 0 = +0.0."""
    return x * np.log(np.where(x > 0.0, x, 1.0))


def _sum(x: np.ndarray, axis: int) -> np.ndarray:
    """``x.sum(axis)``, bit for bit, for a negative ``axis``.

    Where numpy adds the terms in index order (along an axis followed by
    more than one entry, or one shorter than 8 when nothing follows) this
    is a chain of slice additions, which on the short axes here costs a
    fraction of numpy's strided reduction; the final + 0.0 matches numpy's
    start from +0.0 in the sign of a zero sum. Elsewhere numpy sums
    pairwise and is left to it.
    """
    n = x.shape[axis]
    if n < 2 or (n >= 8 and math.prod(x.shape[x.ndim + axis + 1 :]) == 1):
        return x.sum(axis=axis)
    tail = (slice(None),) * (-1 - axis)
    acc = x[(..., 0) + tail] + x[(..., 1) + tail]
    for k in range(2, n):
        acc += x[(..., k) + tail]
    acc += 0.0
    return acc


def _column_entropies(cols: np.ndarray) -> np.ndarray:
    """Entropy in bits of each column of a (Y, N) stochastic array."""
    return -_xlogx(cols).sum(axis=0) / _LN2


def _first_labels(codes: np.ndarray) -> np.ndarray:
    """Relabel the last axis of an int array in order of first appearance:
    equal codes get equal labels, counting up from 0."""
    first = (codes[..., :, None] == codes[..., None, :]).argmax(axis=-1)
    new = first == np.arange(codes.shape[-1])
    return np.take_along_axis(np.cumsum(new, axis=-1) - 1, first, axis=-1)


def root_labels(marginal: np.ndarray) -> np.ndarray:
    """A sender's labels before any channel use: the messages with mass in
    ``marginal`` share one class and each zero-mass message is a class of
    its own, as its point-mass row in ``belief.initial_state`` is."""
    return _first_labels(np.where(marginal > 0.0, -1, np.arange(marginal.shape[-1])))


def row_classes(rows: np.ndarray) -> np.ndarray:
    """Label each message by the class of private rows it belongs to, for a
    validated float table entering the kernel.

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


def _distinct_encoders(tables) -> tuple:
    """Distinct encoder tables in first-seen order, and each input's index."""
    index = {}
    of = np.array([index.setdefault(t, len(index)) for t in tables], dtype=np.intp)
    return np.array(list(index), dtype=np.intp), of


def _cell_tables(own: np.ndarray, other_of: np.ndarray, n_symbols: int) -> tuple:
    """The member sets and gather tables of one conditioning sender's cells.

    ``own[a]`` is this sender's encoder table in action a and
    ``other_of[a]`` the other sender's encoder index. Returns (bits, masks,
    base): ``bits[m, u]`` is 1 when message m is in the member set u, a
    bitmask; ``masks[x, a]`` is the bitmask of the messages action a sends
    to symbol x; and action a reads its cell of symbol x in a class of
    messages v at ``base[x, a] + (v & masks[x, a])`` in one state's (other
    encoder, symbol, member set) terms flattened.
    """
    n_msgs = own.shape[1]
    msgs = np.arange(n_msgs)
    bits = ((np.arange(1 << n_msgs) >> msgs[:, None]) & 1).astype(float)
    masks = ((own.T[:, None, :] == np.arange(n_symbols)[:, None]) << msgs[:, None, None]).sum(axis=0)
    base = (other_of * n_symbols + np.arange(n_symbols)[:, None]) << n_msgs
    return bits, masks, base


def _cell_sum(cells: np.ndarray) -> np.ndarray:
    """cells[..., c, a] summed over c, bit for bit ``_sum`` of the
    (..., a, c) transpose over its last axis."""
    if cells.shape[-2] < 8:
        return _sum(cells, -2)
    return np.ascontiguousarray(np.swapaxes(cells, -1, -2)).sum(axis=-1)


def _cell_entropy(margin: np.ndarray, labels: np.ndarray, bits: np.ndarray, masks: np.ndarray,
                  base: np.ndarray) -> np.ndarray:
    """H(Y | C) in bits for every action.

    margin[..., k, x, y, m] is the joint of the output and the conditioning
    sender's message m when that sender sends x and the other sender uses
    its distinct encoder k; C groups m by (label, current symbol). The
    terms of a cell depend on the action only through (k, x) and the
    cell's member set, so they are computed once for every member set u,
    its members summed in message order, and each action's cells gather
    them (``_cell_tables``). The empty set gives exact zeros, which
    is what a cell that a state lacks adds. A batch of states shares one
    cell count, the largest: in index order, below 8 cells, the padding
    keeps every bit; from 8 on numpy sums the cells pairwise, so states
    with fewer cells are summed apart, by count. Either way every state
    gets the bits it gets alone.
    """
    sub = margin @ bits  # (..., K, X, Y, sets)
    terms = _xlogx(_sum(sub, -2)) - _sum(_xlogx(sub), -2)
    lead = margin.shape[:-4]
    n_symbols = len(masks)
    n_classes = labels.max(axis=-1) + 1
    n_cells = int(n_classes.max()) * n_symbols
    # members[..., j]: the messages of class j, as a bitmask
    members = ((labels[..., None] == np.arange(n_cells // n_symbols))
               << np.arange(labels.shape[-1])[:, None]).sum(axis=-2)
    flat = terms.reshape(lead + (-1,))
    offset = np.arange(flat[..., 0].size).reshape(lead) * flat.shape[-1]
    index = base + (members[..., None, None] & masks) + offset[..., None, None, None]
    cells = flat.reshape(-1)[index].reshape(lead + (n_cells, -1))  # (..., class x symbol, A)
    if n_cells >= 8 and int(n_classes.min()) * n_symbols < n_cells:
        counts = np.broadcast_to(n_classes * n_symbols, lead)
        out = np.empty(cells.shape[:-2] + cells.shape[-1:])
        for count in np.unique(counts):
            part = counts == count
            out[part] = _cell_sum(cells[part][..., :count, :])
        return out / _LN2
    return _cell_sum(cells) / _LN2


def first_rows(rows: np.ndarray) -> tuple:
    """Distinct rows of a 2-D array, compared by their bytes, in order of
    first appearance: (first, inverse) with ``rows[first]`` the distinct
    rows and ``rows[i]`` equal to ``rows[first[inverse[i]]]``."""
    rows = np.ascontiguousarray(rows)
    flat = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.ravel()]


class ActionKernel:
    """Likelihoods and noise entropies of a fixed action list on one channel.

    ``enc1_of[a]`` and ``enc2_of[a]`` index the distinct encoders of action
    a, which is how the refined labels are shared between actions.

    Branches, numbered in order of their first (a, y): ``branch_of[a, y]``
    is the branch of a pair, ``branch_pair[b]`` the flat index a * Y + y of
    its first pair, ``branch_lik[b]`` its likelihood column and
    ``branch_enc1[b]``, ``branch_enc2[b]`` the encoder indices of its first
    pair. They are built on first access, and so are the tables the
    rewards gather their cell terms with.
    """

    def __init__(self, channel: Channel, actions):
        self.actions = list(actions)
        self.n_x1 = channel.alphabets.x1
        self.n_x2 = channel.alphabets.x2
        self.e1 = np.array([a.e1.table for a in self.actions], dtype=np.intp)
        self.e2 = np.array([a.e2.table for a in self.actions], dtype=np.intp)
        q = channel.kernel
        x1 = self.e1[:, :, None]
        x2 = self.e2[:, None, :]
        self.lik = np.ascontiguousarray(np.moveaxis(q[:, x1, x2], 0, 1))
        noise = _column_entropies(q.reshape(q.shape[0], -1)).reshape(q.shape[1:])
        self.noise = noise[x1, x2]
        self._enc1, self.enc1_of = _distinct_encoders(a.e1.table for a in self.actions)
        self._enc2, self.enc2_of = _distinct_encoders(a.e2.table for a in self.actions)
        self._q = q

    @functools.cached_property
    def _branches(self) -> tuple:
        """(branch_pair, branch_of, branch_lik, branch_enc1, branch_enc2),
        built on first access: only the finite-horizon programs read them."""
        n_actions, n_outputs = self.lik.shape[:2]
        # the refined labels depend on an encoder through its partition
        # only, which its symbols relabelled by first appearance name
        keys = np.concatenate(
            [
                self.lik.reshape(n_actions * n_outputs, -1).view(np.int64),
                np.repeat(_first_labels(self._enc1)[self.enc1_of], n_outputs, axis=0),
                np.repeat(_first_labels(self._enc2)[self.enc2_of], n_outputs, axis=0),
            ],
            axis=1,
        )
        pair, branch_of = first_rows(keys)
        return (
            pair,
            branch_of.reshape(n_actions, n_outputs),
            self.lik.reshape((-1,) + self.lik.shape[2:])[pair],
            self.enc1_of[pair // n_outputs],
            self.enc2_of[pair // n_outputs],
        )

    branch_pair = property(lambda self: self._branches[0])
    branch_of = property(lambda self: self._branches[1])
    branch_lik = property(lambda self: self._branches[2])
    branch_enc1 = property(lambda self: self._branches[3])
    branch_enc2 = property(lambda self: self._branches[4])

    def __len__(self) -> int:
        return len(self.actions)

    def joint(self, pi: np.ndarray) -> tuple:
        """J[..., a, y, m1, m2] = L * pi and the predictive p[..., a, y]."""
        joint = self.lik * pi[..., None, None, :, :]
        p = joint.reshape(joint.shape[:-2] + (-1,)).sum(axis=-1)
        return joint, p

    def branch_joint(self, pi: np.ndarray) -> tuple:
        """J[..., b, m1, m2] = L_b * pi and the predictive p[..., b] of every
        branch, bit for bit those of each of its pairs in ``joint``."""
        joint = self.branch_lik * pi[..., None, :, :]
        p = joint.reshape(joint.shape[:-2] + (-1,)).sum(axis=-1)
        return joint, p

    @staticmethod
    def posteriors(joint: np.ndarray, p: np.ndarray) -> np.ndarray:
        """J[..., a, y] / p[..., a, y]. Entries whose p is at or below
        MASS_EPS are impossible branches; they hold the unnormalised joint
        instead."""
        safe = np.where(p > MASS_EPS, p, 1.0)
        return joint / safe[..., None, None]

    @functools.cached_property
    def _cells(self) -> tuple:
        """(lik, bits, masks, base) of sender 2's cells (i1), then of
        sender 1's (i2), built on first access: only the rewards read them.
        lik[k, x, y, m] = Q(y | ...) with the other sender's distinct
        encoder k on its message m and the conditioning sender on symbol x;
        bits, masks and base as ``_cell_tables`` returns them."""
        q = self._q
        return (
            (q[:, self._enc1].transpose(1, 3, 0, 2), *_cell_tables(self.e2, self.enc1_of, self.n_x2)),
            (q[:, :, self._enc2].transpose(2, 1, 0, 3), *_cell_tables(self.e1, self.enc2_of, self.n_x1)),
        )

    def rewards(self, pi, labels1, labels2, p) -> tuple:
        """(i1, i2, i3) in bits, one (..., A) array each, from the
        predictive p[..., a, y]."""
        noise = (self.noise * pi[..., None, :, :]).reshape(p.shape[:-1] + (-1,)).sum(axis=-1)
        i3 = -_sum(_xlogx(p), -1) / _LN2 - noise
        (lik1, *cells2), (lik2, *cells1) = self._cells
        pi = pi[..., None, None, None, :, :]
        # the products and message sums of ``joint``, per distinct encoder
        margin2 = _sum(lik1[..., None] * pi, -2)
        margin1 = _sum(lik2[..., None, :] * pi, -1)
        i1 = _cell_entropy(margin2, labels2, *cells2) - noise
        i2 = _cell_entropy(margin1, labels1, *cells1) - noise
        return i1, i2, i3

    def weighted(self, weights, pi, labels1, labels2, p) -> np.ndarray:
        """l1 i1 + l2 i2 + l3 i3 for every action."""
        i1, i2, i3 = self.rewards(pi, labels1, labels2, p)
        return weights.l1 * i1 + weights.l2 * i2 + weights.l3 * i3

    def refined(self, labels1, labels2) -> tuple:
        """Both senders' labels refined by every distinct encoder: the
        (label, symbol) pairs relabelled in order of first appearance.
        Index the results with ``enc1_of[a]`` and ``enc2_of[a]`` on the axis
        after the state axes."""
        return (_first_labels(labels1[..., None, :] * self.n_x1 + self._enc1),
                _first_labels(labels2[..., None, :] * self.n_x2 + self._enc2))

    def refined_by(self, a: int, labels1, labels2) -> tuple:
        """Both senders' labels refined by action a's encoders alone, as
        ``refined`` gives them at ``enc1_of[a]`` and ``enc2_of[a]``."""
        return (_first_labels(labels1 * self.n_x1 + self.e1[a]),
                _first_labels(labels2 * self.n_x2 + self.e2[a]))

    def distinct(self, totals, p, post, ref1, ref2, tol: float) -> np.ndarray:
        """Mask (..., A) of the first action of each class whose rows agree,
        separately for every state. A row is the weighted reward, the
        predictive distribution and the posteriors on outputs with mass,
        rounded to multiples of ``tol``, and both refined labels (as
        returned by ``refined``)."""
        lead, n_actions = p.shape[:-2], len(self)
        masked = np.where((p > MASS_EPS)[..., None, None], post, 0.0)
        rows = np.concatenate([totals[..., None], p, masked.reshape(lead + (n_actions, -1))], axis=-1)
        keys = np.concatenate(
            [
                np.rint(rows / tol) + 0.0,  # + 0.0 folds -0.0 into 0.0
                ref1[..., self.enc1_of, :],
                ref2[..., self.enc2_of, :],
            ],
            axis=-1,
        )
        # the state's position keeps the classes of different states apart
        state = np.broadcast_to(
            np.arange(keys[..., 0].size // n_actions, dtype=float).reshape(lead + (1, 1)),
            lead + (n_actions, 1),
        )
        first, _ = first_rows(np.concatenate([state, keys], axis=-1).reshape(-1, keys.shape[-1] + 1))
        mask = np.zeros(keys[..., 0].size, dtype=bool)
        mask[first] = True
        return mask.reshape(lead + (n_actions,))
