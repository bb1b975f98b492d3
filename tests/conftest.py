"""Seeded generators shared across the test modules."""

import itertools
from pathlib import Path

import numpy as np

from macfb.belief import AugmentedState, JointBelief, PrivateBeliefTable
from macfb.channel import Channel, MessageSpace, validate_channel
from macfb.encoding import EncoderAction, EncoderFunction, PolicyTree

REPO_ROOT = Path(__file__).resolve().parents[1]
CASES_DIR = REPO_ROOT / "cases"


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_channel(rng, x1: int, x2: int, y: int, sparse: bool = False) -> Channel:
    raw = rng.random((y, x1, x2))
    if sparse:
        raw = raw * (rng.random((y, x1, x2)) < 0.5)
        for i in range(x1):
            for j in range(x2):
                if raw[:, i, j].sum() <= 0.0:
                    raw[int(rng.integers(y)), i, j] = 1.0
    return validate_channel(raw / raw.sum(axis=0, keepdims=True))


def random_prior(rng, m1: int, m2: int) -> np.ndarray:
    raw = rng.random((m1, m2)) + 1e-3
    return raw / raw.sum()


def random_encoder(rng, n_messages: int, n_symbols: int) -> EncoderFunction:
    table = tuple(int(v) for v in rng.integers(0, n_symbols, n_messages))
    return EncoderFunction(table, n_symbols)


def random_action(rng, space: MessageSpace, alphabets) -> EncoderAction:
    return EncoderAction(
        random_encoder(rng, space.m1, alphabets.x1),
        random_encoder(rng, space.m2, alphabets.x2),
    )


def random_tree(rng, space: MessageSpace, alphabets, depth: int) -> PolicyTree:
    nodes = {}
    for t in range(depth):
        for hist in itertools.product(range(alphabets.y), repeat=t):
            nodes[hist] = random_action(rng, space, alphabets)
    return PolicyTree(depth, alphabets.y, nodes)


def random_state(rng, space: MessageSpace) -> AugmentedState:
    # rows here are generic stochastic tables; update laws must cope with any
    def table(n):
        raw = rng.random((n, n)) + 1e-3
        return PrivateBeliefTable(raw / raw.sum(axis=1, keepdims=True))

    pi = JointBelief(random_prior(rng, space.m1, space.m2))
    return AugmentedState(pi, table(space.m1), table(space.m2))


# actions that do not fit adder 2x2, each with the start of its message: a
# 3-symbol encoder on adder's binary inputs, a 3x3 action on a 2x2 state,
# and a misfit on sender 2's side alone
MISFITS = [
    (EncoderAction(EncoderFunction((0, 2), 3), EncoderFunction((0, 1), 2)),
     "sender 1's encoder maps 2 messages to 3 symbols; the space has 2 messages and the channel 2 symbols"),
    (EncoderAction(EncoderFunction((0, 1, 1), 2), EncoderFunction((1, 0, 0), 2)),
     "sender 1's encoder maps 3 messages to 2 symbols; the space has 2 messages"),
    (EncoderAction(EncoderFunction((0, 1), 2), EncoderFunction((1,), 2)),
     "sender 2's encoder maps 1 messages to 2 symbols; the space has 2 messages"),
]
