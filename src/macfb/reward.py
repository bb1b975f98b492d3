"""Per-step information rewards, in bits.

The weighted reward combines three one-step mutual informations evaluated
at an augmented belief state under a joint encoder action:

* i3: information the output carries about the input pair;
* i1: information it carries about sender 1's input once sender 2's input
  history is given, computed by partitioning sender 2's messages into
  cells that share a private-belief row and a current symbol;
* i2: the mirror image.

Each equals the expected drop of the matching conditional entropy of the
message belief, which is what ties the per-state recursion to trajectory
averages.

All three are conditional output entropies minus the noise entropy
H(Y | X1, X2), which is how the action kernel (``macfb.kernel``) computes
them for every action of a state at once. The functions here are thin
one-action views of that kernel on validated states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .belief import AugmentedState, JointBelief, PrivateBeliefTable
from .channel import Channel, check_action
from .errors import NotNormalized
from .kernel import ActionKernel, row_classes

_LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class LambdaWeights:
    """Non-negative weights (l1, l2, l3) on the three reward components."""

    l1: float
    l2: float
    l3: float

    def __post_init__(self):
        for name in ("l1", "l2", "l3"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0.0:
                raise ValueError(f"weight {name} must be finite and >= 0, got {v!r}")

    def normalized(self) -> "LambdaWeights":
        s = self.l1 + self.l2 + self.l3
        if s <= 0.0:
            raise ValueError("cannot normalise all-zero weights")
        return LambdaWeights(self.l1 / s, self.l2 / s, self.l3 / s)

    def as_tuple(self) -> tuple:
        return (self.l1, self.l2, self.l3)

    def scaled(self, c: float) -> "LambdaWeights":
        return LambdaWeights(c * self.l1, c * self.l2, c * self.l3)


@dataclass(frozen=True)
class RewardBreakdown:
    i1: float
    i2: float
    i3: float
    weighted: float


def entropy(p) -> float:
    """Shannon entropy in bits with the 0 log 0 = 0 convention."""
    arr = np.asarray(p, dtype=float)
    if (arr < 0.0).any():
        raise ValueError("probability vector has a negative entry")
    total = float(arr.sum())
    if not abs(total - 1.0) <= 1e-9:  # NaN fails it too
        raise NotNormalized(total)
    pos = arr[arr > 0.0]
    return float(-np.sum(pos * np.log(pos)) / _LN2)


def _components(state: AugmentedState, action, channel: Channel) -> tuple:
    """(i1, i2, i3) of one action: the action kernel on a one-action list.
    Raises ValueError when the action's encoders do not fit the state's
    message counts and the channel's input alphabets."""
    check_action(action, state.pi.m1, state.pi.m2, channel)
    kernel = ActionKernel(channel, [action])
    pi = state.pi.table
    labels1, labels2 = row_classes(state.beta1.rows), row_classes(state.beta2.rows)
    i1, i2, i3 = kernel.rewards(pi, labels1, labels2, kernel.joint(pi)[1])
    return float(i1[0]), float(i2[0]), float(i3[0])


def reward_i3(state: AugmentedState, action, channel: Channel) -> float:
    """I(X1, X2; Y) at the current belief: output entropy minus noise entropy."""
    return _components(state, action, channel)[2]


def reward_i1(state: AugmentedState, action, channel: Channel) -> float:
    """I(X1; Y | X2 input history) at the current belief, averaged over the
    conditioning cells of sender 2."""
    return _components(state, action, channel)[0]


def reward_i2(state: AugmentedState, action, channel: Channel) -> float:
    """Mirror of reward_i1 with the senders swapped."""
    return _components(state, action, channel)[1]


def reward_weighted(state: AugmentedState, action, channel: Channel,
                    weights: LambdaWeights) -> RewardBreakdown:
    i1, i2, i3 = _components(state, action, channel)
    return RewardBreakdown(i1, i2, i3, weights.l1 * i1 + weights.l2 * i2 + weights.l3 * i3)


def reward_reduced(pi: JointBelief, action, channel: Channel,
                   weights: LambdaWeights) -> RewardBreakdown:
    """Weighted reward at a state whose private tables are point masses.

    This is the fully-refined regime: each sender's input history separates
    every message, so i1 conditions on m2 exactly and i2 on m1 exactly.
    """
    state = AugmentedState(
        pi,
        PrivateBeliefTable(np.eye(pi.m1)),
        PrivateBeliefTable(np.eye(pi.m2)),
    )
    return reward_weighted(state, action, channel, weights)
