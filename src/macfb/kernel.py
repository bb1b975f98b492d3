"""Batched action kernel: every action's rewards and Bayes updates at once.

For a channel Q and a fixed list of joint encoder actions a = (e1, e2) two
tables are built once:

* the likelihood L[a, y, m1, m2] = Q(y | e1_a(m1), e2_a(m2));
* the noise entropies Hn[a, m1, m2] = H(Q(. | e1_a(m1), e2_a(m2))) in bits.

At a state (pi, beta1, beta2) the joint J = L * pi then gives, for all
actions in a few numpy operations:

* the predictive distribution p[a, y] = sum_m J[a, y, m];
* every posterior J[a, y] / p[a, y];
* i3 = H(p_a) - sum_m pi Hn[a];
* i1 = H(Y | C2) - sum_m pi Hn[a], where C2 is sender 2's cell (its
  private-row class times its current symbol); H(Y | C2) comes from
  grouping the columns of J by cell;
* i2, the mirror of i1;
* the refined private tables, which depend on the action only, never on y.

This is the common-information split of the state: the common belief
carries the outputs, the private tables only the encoders' partitions.
Everything here works on raw arrays and validates nothing; the validated
belief and reward functions wrap it at the API boundary.
"""

from __future__ import annotations

import numpy as np

from .belief import MASS_EPS
from .channel import Channel

_LN2 = float(np.log(2.0))

# private rows from identical input histories agree to this tolerance
ROW_MATCH_TOL = 1e-12


def _xlogx(x: np.ndarray) -> np.ndarray:
    """Elementwise x ln x with the 0 ln 0 = 0 convention."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0.0, x * np.log(x), 0.0)


def _column_entropies(cols: np.ndarray) -> np.ndarray:
    """Entropy in bits of each column of a (Y, N) stochastic array."""
    return -_xlogx(cols).sum(axis=0) / _LN2


def _row_classes(rows: np.ndarray) -> np.ndarray:
    """Label each message by the class of private rows it belongs to.

    A message joins the first class whose representative row matches its
    own entrywise within ROW_MATCH_TOL; labels count up from 0 in order of
    first appearance.
    """
    close = np.max(np.abs(rows[:, None, :] - rows[None, :, :]), axis=2) <= ROW_MATCH_TOL
    labels = np.empty(rows.shape[0], dtype=np.intp)
    reps = []
    for m in range(rows.shape[0]):
        for k, rep in enumerate(reps):
            if close[m, rep]:
                labels[m] = k
                break
        else:
            labels[m] = len(reps)
            reps.append(m)
    return labels


def _distinct_encoders(tables) -> tuple:
    """Distinct encoder tables in first-seen order, and each input's index."""
    index = {}
    of = np.array([index.setdefault(t, len(index)) for t in tables], dtype=np.intp)
    return np.array(list(index), dtype=np.intp), of


def _partition_masks(encoders: np.ndarray) -> np.ndarray:
    """same[k, m, m'] = 1 when encoder k sends m and m' to the same symbol."""
    return (encoders[:, None, :] == encoders[:, :, None]).astype(float)


def _cell_entropy(marginal: np.ndarray, classes: np.ndarray, symbols: np.ndarray,
                  n_symbols: int) -> np.ndarray:
    """H(Y | C) in bits for every action.

    marginal[a, y, m] is the joint of the output and the conditioning
    sender's message m; C groups m by (private-row class, current symbol).
    """
    n_cells = (int(classes.max()) + 1) * n_symbols
    labels = classes[None, :] * n_symbols + symbols
    onehot = (labels[:, :, None] == np.arange(n_cells)).astype(float)
    cells = marginal @ onehot  # (A, Y, cells)
    mass = cells.sum(axis=1)
    return (_xlogx(mass) - _xlogx(cells).sum(axis=1)).sum(axis=1) / _LN2


class ActionKernel:
    """Likelihoods and noise entropies of a fixed action list on one channel.

    ``enc1_of[a]`` and ``enc2_of[a]`` index the distinct encoders of action
    a, which is how the refined private tables are shared between actions.
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
        enc1, self.enc1_of = _distinct_encoders(a.e1.table for a in self.actions)
        enc2, self.enc2_of = _distinct_encoders(a.e2.table for a in self.actions)
        self._same1 = _partition_masks(enc1)
        self._same2 = _partition_masks(enc2)

    def __len__(self) -> int:
        return len(self.actions)

    def joint(self, pi: np.ndarray) -> tuple:
        """J[a, y, m1, m2] = L * pi and the predictive p[a, y]."""
        joint = self.lik * pi
        p = joint.reshape(joint.shape[0], joint.shape[1], -1).sum(axis=2)
        return joint, p

    @staticmethod
    def posteriors(joint: np.ndarray, p: np.ndarray) -> np.ndarray:
        """J[a, y] / p[a, y]. Entries whose p is at or below MASS_EPS are
        impossible branches; they hold the unnormalised joint instead."""
        safe = np.where(p > MASS_EPS, p, 1.0)
        return joint / safe[:, :, None, None]

    def rewards(self, pi, rows1, rows2, joint, p) -> tuple:
        """(i1, i2, i3) in bits, one (A,) array each."""
        noise = (self.noise * pi).reshape(len(self), -1).sum(axis=1)
        i3 = -_xlogx(p).sum(axis=1) / _LN2 - noise
        i1 = _cell_entropy(joint.sum(axis=2), _row_classes(rows2), self.e2, self.n_x2) - noise
        i2 = _cell_entropy(joint.sum(axis=3), _row_classes(rows1), self.e1, self.n_x1) - noise
        return i1, i2, i3

    def weighted(self, weights, pi, rows1, rows2, joint, p) -> np.ndarray:
        """l1 i1 + l2 i2 + l3 i3 for every action."""
        i1, i2, i3 = self.rewards(pi, rows1, rows2, joint, p)
        return weights.l1 * i1 + weights.l2 * i2 + weights.l3 * i3

    def refined(self, rows1, rows2) -> tuple:
        """Both private tables refined by every distinct encoder; index the
        results with ``enc1_of[a]`` and ``enc2_of[a]``."""
        return _refine(rows1, self._same1), _refine(rows2, self._same2)

    def distinct(self, totals, p, post, ref1, ref2, tol: float) -> list:
        """Indices, ascending, of the first action of each class whose rows
        agree after rounding to multiples of ``tol``. A row is the weighted
        reward, the predictive distribution, the posteriors on outputs with
        mass and both refined private tables (as returned by ``refined``)."""
        n_actions = len(self)
        masked = np.where((p > MASS_EPS)[:, :, None, None], post, 0.0)
        rows = np.concatenate(
            [
                totals[:, None],
                p,
                masked.reshape(n_actions, -1),
                ref1[self.enc1_of].reshape(n_actions, -1),
                ref2[self.enc2_of].reshape(n_actions, -1),
            ],
            axis=1,
        )
        keys = np.rint(rows / tol) + 0.0  # + 0.0 folds -0.0 into 0.0
        first = {}
        for a, key in enumerate(keys):
            first.setdefault(key.tobytes(), a)
        return list(first.values())


def _refine(rows: np.ndarray, same: np.ndarray) -> np.ndarray:
    masked = rows * same
    return masked / masked.sum(axis=2, keepdims=True)
