"""Discrete memoryless two-sender channel and its preset zoo.

A channel is a conditional probability table Q[y, x1, x2] in double
precision. Stochasticity is checked on construction and never silently
repaired: a malformed table is the caller's bug, not something to
renormalise away.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NegativeEntry, NonStochastic, ParamOutOfRange, UnknownPreset

ROW_SUM_TOL = 1e-9

PRESET_NAMES = ("adder", "noisy_adder", "multiplier", "bsc_p2p", "useless")


def check_count(value, name: str, least: int = 1) -> int:
    """``value`` as a plain int: any integer ``operator.index`` accepts
    (numpy's too), not a bool, and at least ``least``; anything else raises
    a ValueError that names ``name``. Sizes, depths and counts all pass
    through it."""
    try:
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None or count < least:
        kind = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return count


@dataclass(frozen=True)
class Alphabets:
    """Input and output alphabet sizes; symbols are 0-based indices."""

    x1: int
    x2: int
    y: int

    def __post_init__(self):
        for name in ("x1", "x2", "y"):
            object.__setattr__(self, name, check_count(getattr(self, name), f"alphabet size {name}"))


@dataclass(frozen=True)
class MessageSpace:
    """Message set sizes for the two senders."""

    m1: int
    m2: int

    def __post_init__(self):
        for name in ("m1", "m2"):
            object.__setattr__(self, name, check_count(getattr(self, name), f"message count {name}"))

    @property
    def pairs(self) -> int:
        return self.m1 * self.m2


@dataclass(frozen=True, eq=False)
class Channel:
    """Validated memoryless kernel plus its alphabet sizes."""

    alphabets: Alphabets
    kernel: np.ndarray  # shape (y, x1, x2), read-only

    @property
    def n_outputs(self) -> int:
        return self.alphabets.y


def check_action(action, m1: int, m2: int, channel: Channel, where: str = "") -> None:
    """Raise ValueError naming the first sender whose encoder in ``action``
    does not map its ``m1`` or ``m2`` messages into the channel's input
    alphabet; ``where`` follows "encoder" in the message."""
    for sender, enc, m, x in ((1, action.e1, m1, channel.alphabets.x1),
                              (2, action.e2, m2, channel.alphabets.x2)):
        if (enc.n_messages, enc.n_symbols) != (m, x):
            raise ValueError(
                f"sender {sender}'s encoder{where} maps {enc.n_messages} messages to {enc.n_symbols} "
                f"symbols; the space has {m} messages and the channel {x} symbols")


def validate_channel(kernel) -> Channel:
    """Build a Channel from a [y][x1][x2] table, rejecting invalid entries.

    Raises NegativeEntry for any entry below zero and NonStochastic when a
    conditional distribution over y deviates from total mass 1 by more than
    1e-9. No renormalisation is performed.
    """
    q = np.array(kernel, dtype=float)
    if q.ndim != 3:
        raise ValueError("kernel must be a 3d table indexed [y][x1][x2]")
    neg = np.argwhere(q < 0.0)
    if neg.size:
        idx = tuple(neg[0])
        raise NegativeEntry(idx, q[idx])
    sums = q.sum(axis=0)
    for x1 in range(q.shape[1]):
        for x2 in range(q.shape[2]):
            # written so that a NaN entry fails it too
            if not abs(sums[x1, x2] - 1.0) <= ROW_SUM_TOL:
                raise NonStochastic(x1, x2, sums[x1, x2])
    q.flags.writeable = False
    alph = Alphabets(x1=int(q.shape[1]), x2=int(q.shape[2]), y=int(q.shape[0]))
    return Channel(alph, q)


def _as_size(preset: str, value: float, what: str) -> int:
    if not math.isfinite(value) or value != int(value) or value < 1:
        raise ParamOutOfRange(preset, f"{what} must be a positive integer, got {value!r}")
    return int(value)


def preset(name: str, params=()) -> Channel:
    """Construct one of the named example channels.

    adder        y = x1 + x2 over binary inputs (ternary output); no params.
    noisy_adder  adder followed by a symmetric ternary crossover; params (eps,).
    multiplier   y = x1 * x2 over binary inputs; no params.
    bsc_p2p      point-to-point binary symmetric embedding, sender 2 mute; params (p,).
    useless      uniform output regardless of inputs; params optionally (x1, x2, y),
                 finite positive integers.

    A parameter list that does not fit the preset raises ParamOutOfRange.
    """
    params = tuple(float(v) for v in params)

    if name in ("adder", "multiplier") and params:
        raise ParamOutOfRange(name, f"takes no parameters, got {len(params)}")

    if name == "adder":
        q = np.zeros((3, 2, 2))
        for x1 in range(2):
            for x2 in range(2):
                q[x1 + x2, x1, x2] = 1.0
        return validate_channel(q)

    if name == "noisy_adder":
        if len(params) != 1:
            raise ParamOutOfRange(name, f"expected one parameter (eps), got {len(params)}")
        eps = params[0]
        if not 0.0 <= eps <= 1.0:
            raise ParamOutOfRange(name, f"eps must lie in [0, 1], got {eps!r}")
        clean = preset("adder").kernel
        # symmetric crossover: stay with 1-eps, move to either other symbol with eps/2
        cross = np.full((3, 3), eps / 2.0)
        np.fill_diagonal(cross, 1.0 - eps)
        return validate_channel(np.einsum("zy,yab->zab", cross, clean))

    if name == "multiplier":
        q = np.zeros((2, 2, 2))
        for x1 in range(2):
            for x2 in range(2):
                q[x1 * x2, x1, x2] = 1.0
        return validate_channel(q)

    if name == "bsc_p2p":
        if len(params) != 1:
            raise ParamOutOfRange(name, f"expected one parameter (p), got {len(params)}")
        p = params[0]
        if not 0.0 <= p <= 1.0:
            raise ParamOutOfRange(name, f"p must lie in [0, 1], got {p!r}")
        q = np.zeros((2, 2, 1))
        for x1 in range(2):
            for y in range(2):
                q[y, x1, 0] = 1.0 - p if y == x1 else p
        return validate_channel(q)

    if name == "useless":
        if params and len(params) != 3:
            raise ParamOutOfRange(name, "expected no parameters or three sizes (x1, x2, y)")
        if params:
            sx1 = _as_size(name, params[0], "x1 size")
            sx2 = _as_size(name, params[1], "x2 size")
            sy = _as_size(name, params[2], "y size")
        else:
            sx1, sx2, sy = 2, 2, 2
        q = np.full((sy, sx1, sx2), 1.0 / sy)
        return validate_channel(q)

    raise UnknownPreset(name)
