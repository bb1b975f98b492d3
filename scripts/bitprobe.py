#!/usr/bin/env python3
"""Print the exact results of a fixed set of finite-horizon solves.

One line per solve: the instance, the value as ``float.hex``,
``states_expanded``, ``cache_hits``, and the sha1 of the policy CSV and (for
DSAHT) of the decoder CSV. A change that must leave every result bit for
bit as it was is checked by running this on both trees and diffing:

    python3 scripts/bitprobe.py > after.txt
    (cd ../parent && python3 scripts/bitprobe.py) > before.txt
    diff before.txt after.txt

The instances are seeded and fixed: the horizon program with and without
prune and DSAHT, on adder, noisy_adder(0.1), multiplier and two random
channels (one with zero entries), message spaces 1x2 to 3x3, uniform,
product, non-product and zero-mass priors, n and T from 1 to 3, and
noisy_adder(0.1) 3x3 at n = 4 with and without prune. The output is not
pinned by any test: the last bits may differ between numpy builds.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from macfb import JointBelief, MessageSpace, preset, validate_channel  # noqa: E402
from macfb.dp import solve_dsaht, solve_horizon  # noqa: E402
from macfb.encoding import policy_to_csv  # noqa: E402
from macfb.reward import LambdaWeights  # noqa: E402

WEIGHTS = LambdaWeights(0.3, 0.3, 0.4)
SPACES = ((1, 2), (2, 2), (2, 3), (3, 3))


def _random_channel(seed: int, sparse: bool):
    rng = np.random.default_rng(seed)
    raw = rng.random((3, 2, 2))
    if sparse:
        raw = raw * (rng.random(raw.shape) < 0.5)
        raw[0] += raw.sum(axis=0) == 0.0
    return validate_channel(raw / raw.sum(axis=0, keepdims=True))


def channels() -> dict:
    return {
        "adder": preset("adder"),
        "noisy_adder": preset("noisy_adder", (0.1,)),
        "multiplier": preset("multiplier"),
        "random": _random_channel(1, False),
        "random_sparse": _random_channel(2, True),
    }


def priors(m1: int, m2: int, seed: int) -> dict:
    """Uniform, product, non-product and zero-mass priors on m1 x m2."""
    rng = np.random.default_rng(seed)
    product = np.outer(rng.dirichlet(np.ones(m1)), rng.dirichlet(np.ones(m2)))
    joint = rng.random((m1, m2)) + 1e-3
    zero = rng.random((m1, m2)) + 1e-3
    # sender 2's last message has no mass
    zero[:, -1] = 0.0
    return {
        "uniform": None,
        "product": JointBelief(product / product.sum()),
        "joint": JointBelief(joint / joint.sum()),
        "zero": JointBelief(zero / zero.sum()),
    }


def _sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def _decoder_csv(decoder: dict) -> str:
    return "".join(f"{''.join(map(str, hist))},{m1},{m2}\n" for hist, (m1, m2) in sorted(decoder.items()))


def horizon_line(name, channel, space, prior_name, prior, n, prune) -> str:
    res = solve_horizon(channel, space, WEIGHTS, n, prior, prune=prune)
    return (f"horizon {name} {space.m1}x{space.m2} {prior_name} n={n} prune={int(prune)} "
            f"{res.total_value.hex()} {res.states_expanded} {res.cache_hits} "
            f"{_sha1(policy_to_csv(res.policy))}")


def dsaht_line(name, channel, space, prior_name, prior, horizon) -> str:
    res = solve_dsaht(channel, space, horizon, prior)
    return (f"dsaht {name} {space.m1}x{space.m2} {prior_name} T={horizon} "
            f"{res.error_probability.hex()} {res.states_expanded} {res.cache_hits} "
            f"{_sha1(policy_to_csv(res.policy))} {_sha1(_decoder_csv(res.decoder))}")


def main() -> int:
    for name, channel in channels().items():
        for m1, m2 in SPACES:
            space = MessageSpace(m1, m2)
            for prior_name, prior in priors(m1, m2, 10 * m1 + m2).items():
                for depth in (1, 2, 3):
                    for prune in (False, True):
                        print(horizon_line(name, channel, space, prior_name, prior, depth, prune))
                    print(dsaht_line(name, channel, space, prior_name, prior, depth))
    for prune in (False, True):
        print(horizon_line("noisy_adder", preset("noisy_adder", (0.1,)), MessageSpace(3, 3),
                           "uniform", None, 4, prune))
    return 0


if __name__ == "__main__":
    sys.exit(main())
