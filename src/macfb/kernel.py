"""Batched action kernel: every action's rewards and Bayes updates at once.

For a channel Q and a fixed list of joint encoder actions a = (e1, e2) two
tables are built once:

* the likelihood L[m1, m2, a, y] = Q(y | e1_a(m1), e2_a(m2));
* the noise entropies Hn[m1, m2, a] = H(Q(. | e1_a(m1), e2_a(m2))) in bits.

A state is the common belief pi and, per sender, one int label per
message naming its private class, the messages with its input history,
counted from 0 in order of first appearance (``root_labels`` before any
channel use, ``row_classes`` from a validated float table). At a state
(pi, labels1, labels2) the joint J = L * pi then gives, for all actions:

* the predictive distribution p[a, y] = sum_m J[m, a, y];
* every posterior J[m, a, y] / p[a, y];
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

Layout: every method also takes a batch of states, stacked on a last
axis of pi (M1, M2, ...) and of the labels (M, ...), and returns its
results with the same batch axes last; a single state is the stack with
no batch axis, and each state's entries are bit-identical to evaluating
it alone. An axis that is summed or compared over comes first: the joint
and the posteriors are J[m1, m2, a, y, ...] (J[m1, m2, b, ...] per
branch), the refined labels ref[m, k, ...], the predictive p[a, y, ...]
and each reward [a, ...]. The batch is the long axis (hundreds of states
a level) and the others are short (2-9 messages, 2-9 message pairs, 2-3
outputs), so every elementwise operation runs numpy's inner loop the
length of the batch, where a stack on a leading axis ran it over a short
axis. The short sums (messages, outputs, sender cells) are slice
additions over the leading axis, in numpy's own order for the same terms
along a contiguous axis (``_sum``) or in index order where numpy adds in
that order (``_sum_in_order``); the margins carry the bits of the
joint's message sums and a cell adds its members in message order, so
the rewards carry the bits of plain numpy reductions over the joint at a
fraction of their cost.
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

Prune's dedupe lives here too: ``prune_mask`` keeps, at each state of a
batch, the first action of every class of equal update and rounded total,
read from the pairs (``prune_actions``) or from the branches through
``branch_of`` (the horizon program's reward pass).
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
    """Elementwise x ln x of a non-negative array, with 0 ln 0 = +0.0, in
    one new array."""
    out = np.where(x > 0.0, x, 1.0)
    np.log(out, out=out)
    out *= x
    return out


def _sum_in_order(x: np.ndarray) -> np.ndarray:
    """``x`` summed over its leading axis in index order, as numpy sums an
    axis that more entries follow; the final + 0.0 is numpy's start from
    +0.0, which sets the sign of a zero sum."""
    if len(x) < 2:
        return x[0] + 0.0 if len(x) else np.zeros(x.shape[1:])
    acc = x[0] + x[1]
    for k in range(2, len(x)):
        acc += x[k]
    acc += 0.0
    return acc


def _sum(x: np.ndarray) -> np.ndarray:
    """``x`` summed over its leading axis as slice additions, bit for bit
    what numpy's sum gives along a contiguous axis of the same terms.

    numpy adds fewer than 8 terms in index order. From 8 to 128 it keeps
    eight running sums over blocks of 8, combines them as ((r0 + r1) + (r2
    + r3)) + ((r4 + r5) + (r6 + r7)) and adds the tail in index order; then
    + 0.0, its start. Above 128 terms it recurses, and is left to it. The
    slices run numpy's inner loops over the trailing (batch) axes, where
    its own reduction would run them the length of the summed axis.
    """
    n = len(x)
    if n < 8:
        return _sum_in_order(x)
    if n > 128:
        return np.ascontiguousarray(np.moveaxis(x, 0, -1)).sum(axis=-1)
    stop = n - n % 8
    r = [x[j] for j in range(8)]
    for i in range(8, stop, 8):
        r = [r[j] + x[i + j] for j in range(8)]
    acc = (r[0] + r[1]) + (r[2] + r[3])
    acc += (r[4] + r[5]) + (r[6] + r[7])
    for i in range(stop, n):
        acc += x[i]
    acc += 0.0
    return acc


def _column_entropies(cols: np.ndarray) -> np.ndarray:
    """Entropy in bits of each column of a (Y, N) stochastic array."""
    return -_xlogx(cols).sum(axis=0) / _LN2


def _first_labels(codes: np.ndarray) -> np.ndarray:
    """Relabel the leading axis of an int array in order of first
    appearance: equal codes get equal labels, counting up from 0. The
    messages go one by one, so that every operation runs the length of
    the trailing (batch) axes."""
    labels = np.zeros(codes.shape, dtype=np.intp)
    count = np.ones(codes.shape[1:], dtype=np.intp)
    for m in range(1, len(codes)):
        # the label of the first earlier message with m's code, else a new
        # one; every earlier label is below the count, so m's label is new
        # exactly where it equals the count
        label = labels[m, ...]
        label[...] = count
        for k in reversed(range(m)):
            np.copyto(label, labels[k], where=codes[k] == codes[m])
        count += label == count
    return labels


def root_labels(marginal: np.ndarray) -> np.ndarray:
    """A sender's labels before any channel use: the messages with mass in
    ``marginal`` share one class and each zero-mass message is a class of
    its own, as its point-mass row in ``belief.initial_state`` is.
    ``marginal`` is 1-D and a few messages long, so it is numbered in plain
    Python."""
    labels, count, shared = [], 0, None
    for has_mass in (marginal > 0.0).tolist():
        if has_mass and shared is not None:
            labels.append(shared)
            continue
        if has_mass:
            shared = count
        labels.append(count)
        count += 1
    return np.array(labels, dtype=np.intp)


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
    ``other_of[a]`` the other sender's encoder index. A member set is a
    bitmask of messages. Returns (masks, base): ``masks[x, a]`` is the
    bitmask of the messages action a sends to symbol x; and action a reads
    its cell of symbol x in a class of messages v at member set ``v &
    masks[x, a]`` and (other encoder, symbol) ``base[x, a]``, flattened.
    """
    msgs = np.arange(own.shape[1])
    masks = ((own.T[:, None, :] == np.arange(n_symbols)[:, None]) << msgs[:, None, None]).sum(axis=0)
    base = other_of * n_symbols + np.arange(n_symbols)[:, None]
    return masks, base


def _cell_entropy(margin: np.ndarray, labels: np.ndarray, masks: np.ndarray,
                  base: np.ndarray) -> np.ndarray:
    """H(Y | C) in bits for every action, (A, ...).

    margin[y, m, k, x, ...] is the joint of the output and the conditioning
    sender's message m when that sender sends x and the other sender uses
    its distinct encoder k; C groups m by (label, current symbol). The
    terms of a cell depend on the action only through (k, x) and the
    cell's member set, so they are computed once for every member set u,
    its members summed in message order by slice additions whatever the
    batch size (the set's last member added to the set of its earlier
    ones, one output at a time, so that numpy copies no slice for
    overlap), and each action's cells gather them (``_cell_tables``). The
    empty set's term is written as +0.0, the value its logarithms would
    give, without taking them; it is what a cell that a state lacks adds. A
    batch of states shares one cell count, the largest: in index order,
    below 8 cells, the padding keeps every bit; from 8 on numpy sums the
    cells pairwise, so states with fewer cells are summed apart, by count.
    Either way every state gets the bits it gets alone.
    """
    batch = margin.shape[4:]
    n_states = math.prod(batch)
    margin = margin.reshape(margin.shape[:4] + (n_states,))
    n_msgs = margin.shape[1]
    # (Y, sets, K, X, states)
    sub = np.empty(margin.shape[:1] + (1 << n_msgs,) + margin.shape[2:])
    sub[:, 0] = 0.0
    for sets, part in zip(sub, margin):
        for m in range(n_msgs):
            # the sets whose last member is m
            np.add(sets[: 1 << m], part[m], out=sets[1 << m : 2 << m])
    terms = np.empty(sub.shape[1:])
    terms[0] = 0.0
    sub = sub[:, 1:]
    np.subtract(_xlogx(_sum_in_order(sub)), _sum_in_order(_xlogx(sub)), out=terms[1:])
    del sub
    labels = np.broadcast_to(labels.reshape(len(labels), -1), (len(labels), n_states))
    n_symbols = len(masks)
    n_classes = labels.max(axis=0) + 1
    n_cells = int(n_classes.max()) * n_symbols
    # members[j, s]: the messages of class j at state s, as a bitmask
    members = ((labels == np.arange(n_cells // n_symbols)[:, None, None])
               << np.arange(len(labels))[:, None]).sum(axis=1)
    # one index array, built in place: it is as large as the cells; the
    # (other encoder, symbol) and state offsets come in one small table
    index = members[:, None, None, :] & masks[:, :, None]
    index *= terms.shape[1] * terms.shape[2] * n_states
    index += (base * n_states)[:, :, None] + np.arange(n_states)
    cells = np.take(terms, index).reshape((n_cells, -1, n_states))
    del index
    if n_cells >= 8 and int(n_classes.min()) * n_symbols < n_cells:
        counts = n_classes * n_symbols
        out = np.empty(cells.shape[1:])
        for count in np.unique(counts):
            part = counts == count
            out[:, part] = _sum(cells[:count, :, part])
    else:
        out = _sum(cells)
    return (out / _LN2).reshape(out.shape[:1] + batch)


@functools.lru_cache(maxsize=64)
def _multipliers(width: int) -> np.ndarray:
    """Fixed odd 64-bit multipliers, one per word of a key ``width`` words
    wide: the splitmix64 outputs of 1..width, made odd. Read-only, as
    every caller shares them."""
    x = np.arange(1, width + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> 27)) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> 31) | 1
    x.flags.writeable = False
    return x


def _hash(words: np.ndarray) -> np.ndarray:
    """A 64-bit multiplicative hash of every column of a (width, keys)
    uint64 array, one multiply-add per word, wrapping around in array
    arithmetic: the dot product of each key with ``_multipliers``. Each
    word is first folded onto its low half, since floats of round values
    differ in high bits only."""
    folded = words >> 32
    folded ^= words
    folded *= _multipliers(len(words))[:, None]
    return folded.sum(axis=0)


def hashed_rows(keys: np.ndarray) -> tuple:
    """(words, hashes) of a 2-D array of keys, one key per column: each
    key's bytes as 64-bit words, zero-padded, (words, keys), and their
    hash. Keys with equal bytes get equal words and hashes, so -0.0 and 0.0
    stay apart."""
    if keys.dtype.itemsize == 8:
        words = keys.view(np.uint64)
    else:
        raw = np.ascontiguousarray(keys.T).view(np.uint8)
        pad = np.zeros((len(raw), -raw.shape[1] % 8), dtype=np.uint8)
        words = np.concatenate([raw, pad], axis=1).view(np.uint64).T
    return words, _hash(words)


def first_hashed(words: np.ndarray, hashes: np.ndarray) -> tuple:
    """``first_rows`` of the keys that ``hashed_rows`` gave (words, hashes).

    A quicksort groups the keys by hash and the first key of each group is
    its smallest index; every key is then checked word by word against its
    group's first key. The keys of a group with a mismatch, a hash
    collision, are told apart by their bytes, so a collision costs time
    but never changes a number.
    """
    n = len(hashes)
    if n == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    order = np.argsort(hashes)
    ordered = hashes[order]
    start = np.empty(n, dtype=bool)
    start[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=start[1:])
    # rep[i]: the first key with key i's bytes
    rep = np.empty(n, dtype=np.intp)
    rep[order] = np.minimum.reduceat(order, np.flatnonzero(start))[np.cumsum(start) - 1]
    clash = np.take(words, rep, axis=1) != words
    if clash.any():
        shared = np.flatnonzero(np.isin(rep, rep[clash.any(axis=0)]))
        keys = np.ascontiguousarray(words[:, shared].T).view(np.dtype((np.void, 8 * len(words)))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        rep[shared] = shared[first[inverse.ravel()]]
    is_first = rep == np.arange(n)
    return np.flatnonzero(is_first), (np.cumsum(is_first) - 1)[rep]


def first_rows(keys: np.ndarray) -> tuple:
    """Distinct keys of a 2-D array, one key per column, compared by their
    bytes, in order of first appearance: (first, inverse) with
    ``keys[:, first]`` the distinct keys and ``keys[:, i]`` equal to
    ``keys[:, first[inverse[i]]]``.

    The keys are grouped by a 64-bit hash of their words (``hashed_rows``)
    and checked against their group's first key (``first_hashed``): a
    quicksort of integers where ``np.unique`` over the keys' bytes would
    mergesort them with a generic byte comparison. Laid out as columns,
    the hash and the check run one numpy loop the length of the keys per
    word."""
    return first_hashed(*hashed_rows(keys))


class ActionKernel:
    """Likelihoods and noise entropies of a fixed action list on one channel.

    ``lik[m1, m2, a, y]`` is the likelihood and ``noise[m1, m2, a]`` the
    noise entropy, message-first as the products with a belief read them.
    ``e1[a]`` and ``e2[a]`` are the encoder tables of action a, and
    ``enc1_of[a]`` and ``enc2_of[a]`` index its distinct encoders, which is
    how the refined labels are shared between actions.

    Branches, numbered in order of their first (a, y): ``branch_of[a, y]``
    is the branch of a pair, ``branch_pair[b]`` the flat index a * Y + y of
    its first pair, ``branch_lik[m1, m2, b]`` its likelihood column and
    ``branch_enc1[b]``, ``branch_enc2[b]`` the encoder indices of its first
    pair. They are built on first access, with the encoder partitions they
    are keyed on, and so are the cell tables the rewards gather their terms
    with: a DSAHT solve never builds the cell tables, and a walk that rates
    no node builds neither. Every array is read-only, since every solve on
    a channel shares its kernel (``dp._enumerated_kernel``).
    """

    def __init__(self, channel: Channel, actions):
        self.actions = list(actions)
        self.n_x1 = channel.alphabets.x1
        self.n_x2 = channel.alphabets.x2
        self.e1 = np.array([a.e1.table for a in self.actions], dtype=np.intp)
        self.e2 = np.array([a.e2.table for a in self.actions], dtype=np.intp)
        self._enc1, self.enc1_of = _distinct_encoders(a.e1.table for a in self.actions)
        self._enc2, self.enc2_of = _distinct_encoders(a.e2.table for a in self.actions)
        q = channel.kernel
        x1 = self.e1.T[:, None, :]
        x2 = self.e2.T[None, :, :]
        self.lik = np.ascontiguousarray(q.transpose(1, 2, 0)[x1, x2])
        noise = _column_entropies(q.reshape(q.shape[0], -1)).reshape(q.shape[1:])
        self.noise = np.ascontiguousarray(noise[x1, x2])
        self._q = q
        for x in (self.e1, self.e2, self._enc1, self.enc1_of, self._enc2, self.enc2_of, self.lik, self.noise):
            x.flags.writeable = False

    @functools.cached_property
    def _branches(self) -> tuple:
        """(branch_pair, branch_of, branch_lik, branch_enc1, branch_enc2),
        built on first access: only the finite-horizon programs read them."""
        n_actions, n_outputs = self.lik.shape[2:]
        # the refined labels depend on an encoder through its partition only,
        # which its symbols relabelled by first appearance name
        _, partition_of = first_rows(np.concatenate(
            [_first_labels(self._enc1.T)[:, self.enc1_of], _first_labels(self._enc2.T)[:, self.enc2_of]]))
        columns = self.lik.reshape(-1, n_actions * n_outputs)
        keys = np.concatenate([columns.view(np.int64), np.repeat(partition_of, n_outputs)[None]])
        pair, branch_of = first_rows(keys)
        branches = (
            pair,
            branch_of.reshape(n_actions, n_outputs),
            np.ascontiguousarray(self.lik.reshape(self.lik.shape[:2] + (-1,))[..., pair]),
            self.enc1_of[pair // n_outputs],
            self.enc2_of[pair // n_outputs],
        )
        for x in branches:
            x.flags.writeable = False
        return branches

    branch_pair = property(lambda self: self._branches[0])
    branch_of = property(lambda self: self._branches[1])
    branch_lik = property(lambda self: self._branches[2])
    branch_enc1 = property(lambda self: self._branches[3])
    branch_enc2 = property(lambda self: self._branches[4])

    def __len__(self) -> int:
        return len(self.actions)

    @staticmethod
    def _times(table: np.ndarray, pi: np.ndarray) -> np.ndarray:
        """table[m1, m2, ...] * pi[m1, m2, batch...], with the table's
        axes between the messages' and the batch's."""
        extra = table.ndim - 2
        return table.reshape(table.shape + (1,) * (pi.ndim - 2)) * pi.reshape(
            pi.shape[:2] + (1,) * extra + pi.shape[2:])

    def joint(self, pi: np.ndarray) -> tuple:
        """J[m1, m2, a, y, ...] = L * pi and the predictive p[a, y, ...]."""
        joint = self._times(self.lik, pi)
        return joint, _sum(joint.reshape((-1,) + joint.shape[2:]))

    def joint_of(self, a: np.ndarray, pi: np.ndarray) -> tuple:
        """J[m1, m2, y, s] and p[y, s] of action a[s] alone at each state s
        of a stack, bit for bit those of ``joint`` at (a[s], s)."""
        joint = self.lik.transpose(0, 1, 3, 2)[..., a] * pi[:, :, None]
        return joint, _sum(joint.reshape((-1,) + joint.shape[2:]))

    def branch_joint(self, pi: np.ndarray) -> tuple:
        """J[m1, m2, b, ...] = L_b * pi and the predictive p[b, ...] of every
        branch, bit for bit those of each of its pairs in ``joint``."""
        joint = self._times(self.branch_lik, pi)
        return joint, _sum(joint.reshape((-1,) + joint.shape[2:]))

    @staticmethod
    def posteriors(joint: np.ndarray, p: np.ndarray) -> np.ndarray:
        """J / p, laid out as J. Entries whose p is at or below MASS_EPS
        are impossible branches; they hold the unnormalised joint
        instead."""
        return joint / np.where(p > MASS_EPS, p, 1.0)

    @staticmethod
    def posteriors_at(joint: np.ndarray, p: np.ndarray, flat: np.ndarray) -> np.ndarray:
        """The posteriors J / p at the flat indices ``flat`` of p, all with
        mass, (M1, M2, len(flat)): each entry is the one ``posteriors``
        gives there, computed only where it is read."""
        cells = np.take(joint.reshape(-1, p.size), flat, axis=1)
        return (cells / np.take(p, flat)).reshape(joint.shape[:2] + (-1,))

    @functools.cached_property
    def _cells(self) -> tuple:
        """(lik, masks, base) of sender 2's cells (i1), then of sender 1's
        (i2), built on first access: only the rewards read them. lik[m, y,
        0, k, x] = Q(y | ...) with the other sender's distinct encoder k on
        its message m and the conditioning sender on symbol x, the 0 axis
        for the conditioning sender's message; masks and base as
        ``_cell_tables`` returns them."""
        q = self._q
        lik1 = np.ascontiguousarray(q[:, self._enc1].transpose(2, 0, 1, 3))[:, :, None]
        lik2 = np.ascontiguousarray(q[:, :, self._enc2].transpose(3, 0, 2, 1))[:, :, None]
        cells2 = _cell_tables(self.e2, self.enc1_of, self.n_x2)
        cells1 = _cell_tables(self.e1, self.enc2_of, self.n_x1)
        for x in (lik1, lik2, *cells2, *cells1):
            x.flags.writeable = False
        return (lik1, *cells2), (lik2, *cells1)

    def rewards(self, pi, labels1, labels2, p, pair_of=None) -> tuple:
        """(i1, i2, i3) in bits, one (A, ...) array each, from the
        predictive p[a, y, ...], or with ``pair_of`` from the predictive
        p[b, ...] of the branches, the pair (a, y) reading row
        ``pair_of[a, y]`` (``branch_of``, as ``prune_mask`` reads it). The
        output entropies of i3 are then taken once per branch and gathered
        per pair, with the bits of the pair form."""
        noise = _sum(self._times(self.noise, pi).reshape((-1, len(self)) + pi.shape[2:]))
        # (Y, A, ...): the outputs lead, to be summed
        plogp = np.moveaxis(_xlogx(p), 1, 0) if pair_of is None else _xlogx(p)[pair_of.T]
        i3 = -_sum(plogp) / _LN2 - noise
        del plogp
        (lik1, *cells2), (lik2, *cells1) = self._cells
        batch = (1,) * (pi.ndim - 2)
        # the products and message sums of ``joint``, per distinct encoder,
        # one sender's at a time: with fewer temporaries alive at once (and
        # ``_xlogx`` in one array), glibc keeps the freed heap between
        # solves, where a horizon-wide solve at CHUNK_ENTRIES = 1 << 16
        # faulted about 190 fresh pages in every time (ru_minflt). Sender
        # 1's messages are summed where sender 2's follow them in J, in
        # index order unless sender 2 has one message; sender 2's are J's
        # last message axis
        i1 = _cell_entropy((_sum_in_order if pi.shape[1] > 1 else _sum)(
            lik1.reshape(lik1.shape + batch) * pi[:, None, :, None, None]), labels2, *cells2) - noise
        i2 = _cell_entropy(_sum(
            lik2.reshape(lik2.shape + batch) * np.moveaxis(pi, 1, 0)[:, None, :, None, None]),
            labels1, *cells1) - noise
        return i1, i2, i3

    def weighted(self, weights, pi, labels1, labels2, p, pair_of=None) -> np.ndarray:
        """l1 i1 + l2 i2 + l3 i3 for every action, p and ``pair_of`` as
        ``rewards`` reads them."""
        i1, i2, i3 = self.rewards(pi, labels1, labels2, p, pair_of)
        return weights.l1 * i1 + weights.l2 * i2 + weights.l3 * i3

    def refined(self, labels1, labels2) -> tuple:
        """Both senders' labels refined by every distinct encoder, (M1, K1,
        ...) and (M2, K2, ...): the (label, symbol) pairs relabelled in
        order of first appearance. Index the results with ``enc1_of[a]`` and
        ``enc2_of[a]`` on the axis after the message axis."""
        batch = (1,) * (labels1.ndim - 1)
        return (_first_labels(labels1[:, None] * self.n_x1 + self._enc1.T.reshape(self._enc1.T.shape + batch)),
                _first_labels(labels2[:, None] * self.n_x2 + self._enc2.T.reshape(self._enc2.T.shape + batch)))

    def refined_by(self, a: np.ndarray, labels1, labels2) -> tuple:
        """Both senders' labels (M, s) refined by action a[s]'s encoders alone,
        as ``refined`` gives them at ``enc1_of[a[s]]`` and ``enc2_of[a[s]]``."""
        return (_first_labels(labels1 * self.n_x1 + self.e1[a].T),
                _first_labels(labels2 * self.n_x2 + self.e2[a].T))

    def prune_mask(self, p, post, ref1, ref2, pair_of, totals, tol: float) -> np.ndarray:
        """Mask (A, ...) of the actions that prune keeps at each state: the
        first action of every class of equal Bayes update and equal total,
        found by one dedupe of the actions over (state, update, total).

        Action a's update is its predictive distribution and its
        posteriors on the outputs with mass, rounded to multiples of
        ``tol``, read at rows ``pair_of[a, y]`` of p (P, ...) and post
        (M1, M2, P, ...), and both refined labels (as ``refined`` returns
        them); its total ``totals[a, ...]`` is rounded to a multiple of
        ``tol`` too. A rounded row enters the dedupe as its number among
        the distinct rounded rows, one word in place of 1 + M1 M2: at
        noisy_adder 3x3 that takes about two thirds of the time and half
        the memory of a dedupe over the rows themselves.
        """
        n_states = math.prod(totals.shape[1:])
        p = p.reshape(len(p), n_states)
        masked = np.where(p > MASS_EPS, post.reshape((-1,) + p.shape), 0.0)
        rows = np.concatenate([p[None], masked])
        # + 0.0 folds -0.0 into 0.0
        _, row_of = first_rows((np.rint(rows / tol) + 0.0).reshape(len(rows), -1))
        keys = np.concatenate(
            [
                np.broadcast_to(np.arange(n_states), (1, len(self), n_states)),
                row_of.reshape(p.shape)[pair_of.T],
                ref1.reshape(ref1.shape[:2] + (n_states,))[:, self.enc1_of],
                ref2.reshape(ref2.shape[:2] + (n_states,))[:, self.enc2_of],
                (np.rint(totals / tol) + 0.0).reshape(1, len(self), n_states).view(np.int64),
            ]
        )
        first, _ = first_rows(keys.reshape(len(keys), -1))
        mask = np.zeros(totals.size, dtype=bool)
        mask[first] = True
        return mask.reshape(totals.shape)
