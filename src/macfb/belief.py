"""Belief states over message pairs and their update maps.

Three objects track what is knowable mid-transmission:

* the common belief pi(m1, m2) held by anyone who has seen the outputs;
* one private table per sender, whose row m is the belief an output-blind
  observer of that sender's past inputs would hold if the true message were
  m. In the tables ``initial_state`` and ``update_private`` build, rows
  from identical input histories coincide and rows from different
  histories have disjoint support; the validator does not check this, and
  ``macfb.reward`` and ``prune_actions`` read any table through its
  classes of identical rows (``kernel.row_classes``);
* the augmented state bundling all three, the state of the finite-horizon
  program.

The common update is driven by the channel output, the private update only
by the encoder's partition of the message set. Neither sees the policy.

These are the validated objects at the package's boundary; the solvers
carry each private table as its row classes, int labels (``macfb.kernel``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Channel, MessageSpace, check_action
from .errors import ImpossibleObservation

# predictive mass at or below this is treated as an impossible branch
MASS_EPS = 1e-15

_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class JointBelief:
    """Distribution over message pairs, stored as a read-only (M1, M2) table."""

    table: np.ndarray

    def __post_init__(self):
        t = np.array(self.table, dtype=float)
        if t.ndim != 2:
            raise ValueError("joint belief must be a 2d table indexed [m1][m2]")
        if (t < 0.0).any():
            raise ValueError("joint belief has a negative entry")
        # written so that a NaN entry fails it too
        if not abs(t.sum() - 1.0) <= _SUM_TOL:
            raise ValueError(f"joint belief sums to {float(t.sum())!r}, expected 1")
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    @property
    def m1(self) -> int:
        return self.table.shape[0]

    @property
    def m2(self) -> int:
        return self.table.shape[1]

    def marginal1(self) -> np.ndarray:
        return self.table.sum(axis=1)

    def marginal2(self) -> np.ndarray:
        return self.table.sum(axis=0)

    def argmax_pair(self) -> tuple:
        # first maximiser in row-major order, i.e. smallest (m1, m2)
        flat = int(np.argmax(self.table))
        return flat // self.m2, flat % self.m2


@dataclass(frozen=True, eq=False)
class PrivateBeliefTable:
    """Per-message conditional beliefs for one sender, rows[m][m'], checked
    only for stochastic rows with a positive diagonal (see the module
    docstring for the structure of the tables the package builds)."""

    rows: np.ndarray

    def __post_init__(self):
        r = np.array(self.rows, dtype=float)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ValueError("private belief table must be square")
        if (r < 0.0).any():
            raise ValueError("private belief table has a negative entry")
        sums = r.sum(axis=1)
        if not (np.abs(sums - 1.0) <= _SUM_TOL).all():  # NaN fails it too
            raise ValueError("private belief rows must each sum to 1")
        if (np.diagonal(r) <= 0.0).any():
            raise ValueError("row m must give its own message positive mass")
        r.flags.writeable = False
        object.__setattr__(self, "rows", r)

    @property
    def n_messages(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True, eq=False)
class AugmentedState:
    """Common belief plus both private tables; the finite-horizon DP state."""

    pi: JointBelief
    beta1: PrivateBeliefTable
    beta2: PrivateBeliefTable

    def __post_init__(self):
        if self.beta1.n_messages != self.pi.m1 or self.beta2.n_messages != self.pi.m2:
            raise ValueError("belief shapes disagree with the message space")


def uniform_initial(space: MessageSpace) -> AugmentedState:
    """State before any channel use: uniform joint, uniform private rows."""
    pi = JointBelief(np.full((space.m1, space.m2), 1.0 / space.pairs))
    b1 = PrivateBeliefTable(np.full((space.m1, space.m1), 1.0 / space.m1))
    b2 = PrivateBeliefTable(np.full((space.m2, space.m2), 1.0 / space.m2))
    return AugmentedState(pi, b1, b2)


def check_prior(space: MessageSpace, prior: JointBelief) -> JointBelief:
    """``prior``, if it is a JointBelief (else TypeError) of the message
    space's shape (else ValueError)."""
    if not isinstance(prior, JointBelief):
        raise TypeError(f"prior must be a JointBelief, not {type(prior).__name__}")
    if (prior.m1, prior.m2) != (space.m1, space.m2):
        raise ValueError("prior shape disagrees with the message space")
    return prior


def initial_state(space: MessageSpace, prior=None) -> AugmentedState:
    """Initial augmented state for an arbitrary joint prior on message pairs.

    With no input history every private row equals the corresponding prior
    marginal. Messages carrying zero marginal mass can never occur; their
    rows are set to a point mass at themselves purely to keep the table
    well formed.
    """
    if prior is None:
        return uniform_initial(space)
    pi = check_prior(space, JointBelief(np.asarray(prior, dtype=float)))

    def rows_from(marginal):
        n = marginal.shape[0]
        rows = np.tile(marginal, (n, 1))
        for m in range(n):
            if marginal[m] <= 0.0:
                rows[m] = 0.0
                rows[m, m] = 1.0
        return PrivateBeliefTable(rows)

    return AugmentedState(pi, rows_from(pi.marginal1()), rows_from(pi.marginal2()))


def _likelihood(channel: Channel, action) -> np.ndarray:
    """Q(y | e1(m1), e2(m2)) as a (Y, M1, M2) table."""
    return channel.kernel[
        np.ix_(
            np.arange(channel.n_outputs),
            np.asarray(action.e1.table),
            np.asarray(action.e2.table),
        )
    ]


def predictive_distribution(pi: JointBelief, action, channel: Channel) -> np.ndarray:
    """Output distribution P(y) = sum_m pi(m) Q(y | e(m)) before observing.
    Raises ValueError when the action's encoders do not fit the belief's
    message counts and the channel's input alphabets."""
    check_action(action, pi.m1, pi.m2, channel)
    lik = _likelihood(channel, action)
    return (lik * pi.table[None, :, :]).sum(axis=(1, 2))


def observation_distribution(state: AugmentedState, action, channel: Channel) -> np.ndarray:
    return predictive_distribution(state.pi, action, channel)


def update_joint(pi: JointBelief, action, y: int, channel: Channel) -> JointBelief:
    """One Bayes step of the common belief after observing output y.

    Raises ImpossibleObservation when the predictive mass of y is at or
    below 1e-15; there is no posterior to report in that branch, and
    ValueError when the action does not fit (``predictive_distribution``).
    """
    check_action(action, pi.m1, pi.m2, channel)
    lik = channel.kernel[y][np.ix_(np.asarray(action.e1.table), np.asarray(action.e2.table))]
    num = lik * pi.table
    mass = float(num.sum())
    if mass <= MASS_EPS:
        raise ImpossibleObservation(y, mass)
    return JointBelief(num / mass)


def update_private(table: PrivateBeliefTable, encoder) -> PrivateBeliefTable:
    """Refine each row by the partition cells of one sender's encoder map.

    When the true message is m the realised symbol is encoder(m), so row m
    keeps exactly the messages sharing that symbol and renormalises. The
    channel output never enters; point-mass rows are fixed points.
    """
    sym = np.asarray(encoder.table)
    same = sym[None, :] == sym[:, None]
    masked = table.rows * same
    return PrivateBeliefTable(masked / masked.sum(axis=1, keepdims=True))


def update_augmented(state: AugmentedState, action, y: int, channel: Channel) -> AugmentedState:
    """Joint Bayes step and both private refinements, as one transition."""
    return AugmentedState(
        update_joint(state.pi, action, y, channel),
        update_private(state.beta1, action.e1),
        update_private(state.beta2, action.e2),
    )
