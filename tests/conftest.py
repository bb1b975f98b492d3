"""Seeded generators shared across the test modules."""

import collections
import itertools
from pathlib import Path

import numpy as np

from macfb.belief import AugmentedState, JointBelief, PrivateBeliefTable
from macfb.channel import Channel, MessageSpace, validate_channel
from macfb.encoding import EncoderAction, EncoderFunction, PolicyTree
from macfb.reward import LambdaWeights

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


def random_kind_channel(rng, kind: str, x1: int, x2: int, y: int) -> Channel:
    """A channel of ``kind``: ``random_channel`` dense or sparse, or
    near-deterministic, a random map of the input pairs to outputs plus a
    spread drawn log-uniformly from 1e-12 to 1e-3, normalised."""
    if kind != "near-deterministic":
        return random_channel(rng, x1, x2, y, sparse=kind == "sparse")
    raw = np.zeros((y, x1, x2))
    raw[(rng.integers(y, size=(x1, x2)), *np.indices((x1, x2)))] = 1.0
    raw += 10.0 ** -rng.uniform(3.0, 12.0) * rng.random((y, x1, x2))
    return validate_channel(raw / raw.sum(axis=0, keepdims=True))


Instance = collections.namedtuple("Instance", "channel space n prior weights")


def random_instances(seed: int, kind: str, count: int) -> list:
    """``count`` seeded instances over binary-input channels of ``kind``
    (``random_kind_channel``): 2 or 3 outputs, 2x2, 2x3 or 3x2 messages,
    n = 2..4 with n = 4 on 2-output channels only (a dense 3-output solve
    at n = 4 takes about a second), the uniform prior (None), a product
    and a non-product ``JointBelief`` in turn, and random weights."""
    rng = make_rng(seed)
    instances = []
    for i in range(count):
        y = int(rng.integers(2, 4))
        m1, m2 = ((2, 2), (2, 3), (3, 2))[rng.integers(3)]
        n = int(rng.integers(2, 5 if y == 2 else 4))
        channel = random_kind_channel(rng, kind, 2, 2, y)
        if i % 3 == 0:
            prior = None
        elif i % 3 == 1:
            prior = JointBelief(np.outer(rng.dirichlet(np.ones(m1)), rng.dirichlet(np.ones(m2))))
        else:
            prior = JointBelief(random_prior(rng, m1, m2))
        instances.append(Instance(channel, MessageSpace(m1, m2), n, prior,
                                  LambdaWeights(*rng.dirichlet(np.ones(3)))))
    return instances


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
