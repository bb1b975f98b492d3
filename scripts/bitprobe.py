#!/usr/bin/env python3
"""Print the exact results of a fixed set of solves and evaluations.

One line per call: the instance and its result, floats as ``float.hex``
and policies, decoders and longer lists as sha1s. A finite-horizon solve
prints its value, ``states_expanded``, ``cache_hits`` and the sha1 of the
policy CSV and (for DSAHT) of the decoder CSV. A change that must leave
every result bit for bit as it was is checked by running this on both
trees and diffing:

    python3 scripts/bitprobe.py > after.txt
    (cd ../parent && python3 scripts/bitprobe.py) > before.txt
    diff before.txt after.txt

The instances are seeded and fixed: the horizon program with and without
prune and DSAHT, on adder, noisy_adder(0.1), multiplier and two random
channels (one with zero entries), message spaces 1x2 to 3x3, uniform,
product, non-product and zero-mass priors, n and T from 1 to 3, and
noisy_adder(0.1) 3x3 at n = 4 with and without prune and DSAHT at T = 4
(27,886 states over levels of many chunks), adder 2x2 with
lambda = (0, 0, 1) at n = T = 13, whose policy trees have 797,161 nodes,
with ``evaluate_tree`` of the horizon policy, and the horizon program at
n = 1 and 2 on 4x2, 2x4 and 7x1 messages. On the same
channels, spaces and priors it prints ``evaluate_tree`` of the solved
policy and of a random tree, the reachability diagnostic, the actions
``prune_actions`` keeps at the start state and at two states it reaches,
and ``solve_stationary`` with per-use renewal (and without renewal on a
grid, up to 2x2); then the bounds and vertices of a 2x2 ``sweep`` with
either solver, per channel, from the uniform and the non-product prior.
Last, on adder and noisy_adder(0.1) at every message space, from the
uniform and the non-product prior at n = 1 to 3, it prints the sha1 of the
belief file that ``macfb horizon --emit-beliefs`` writes, run through
``cli.main``. Only the public API and ``cli.main`` are called, so the
script runs unchanged on an older tree. The output is not pinned by any test: the last bits may differ
between numpy builds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from macfb import (  # noqa: E402
    EncoderAction,
    EncoderFunction,
    JointBelief,
    LambdaWeights,
    MessageSpace,
    PolicyTree,
    enumerate_actions,
    evaluate_tree,
    initial_state,
    observation_distribution,
    policy_to_csv,
    preset,
    prune_actions,
    reachability_diagnostic,
    solve_dsaht,
    solve_horizon,
    solve_stationary,
    sweep,
    update_augmented,
    validate_channel,
)
from macfb import cli  # noqa: E402

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


def horizon_line(name, channel, space, prior_name, prior, n, prune, weights=WEIGHTS) -> str:
    res = solve_horizon(channel, space, weights, n, prior, prune=prune)
    return (f"horizon {name} {space.m1}x{space.m2} {prior_name} n={n} prune={int(prune)} "
            f"{res.total_value.hex()} {res.states_expanded} {res.cache_hits} "
            f"{_sha1(policy_to_csv(res.policy))}")


def dsaht_line(name, channel, space, prior_name, prior, horizon) -> str:
    res = solve_dsaht(channel, space, horizon, prior)
    return (f"dsaht {name} {space.m1}x{space.m2} {prior_name} T={horizon} "
            f"{res.error_probability.hex()} {res.states_expanded} {res.cache_hits} "
            f"{_sha1(policy_to_csv(res.policy))} {_sha1(_decoder_csv(res.decoder))}")


def deep_lines():
    """adder 2x2, lambda = (0, 0, 1), uniform prior: the horizon program at
    n = 13 and ``evaluate_tree`` of its policy, and DSAHT at T = 13."""
    channel, space, weights = preset("adder"), MessageSpace(2, 2), LambdaWeights(0.0, 0.0, 1.0)
    yield horizon_line("adder", channel, space, "uniform", None, 13, False, weights)
    policy = solve_horizon(channel, space, weights, 13).policy
    yield f"evaluate adder 2x2 uniform n=13 {evaluate_tree(channel, space, policy, weights).hex()}"
    yield dsaht_line("adder", channel, space, "uniform", None, 13)


def wide_lines():
    """The horizon program at n = 1 and 2 on senders of 4 and 7 messages,
    uniform and non-product priors: an n = 1 solve rates one state, so
    cells of up to 7 member messages are summed with a batch of one as
    well as with many."""
    for name in ("noisy_adder", "random"):
        channel = channels()[name]
        for m1, m2 in ((4, 2), (2, 4), (7, 1)):
            space = MessageSpace(m1, m2)
            joint = np.random.default_rng(10 * m1 + m2).random((m1, m2)) + 1e-3
            for prior_name, prior in (("uniform", None), ("joint", JointBelief(joint / joint.sum()))):
                for n in (1, 2):
                    yield horizon_line(name, channel, space, prior_name, prior, n, False)


def _random_tree(rng, space, channel, depth: int) -> PolicyTree:
    """A tree of uniformly drawn actions at every history."""
    a = channel.alphabets

    def encoder(n_messages, n_symbols):
        return EncoderFunction(tuple(int(x) for x in rng.integers(0, n_symbols, n_messages)), n_symbols)

    histories = (h for t in range(depth) for h in np.ndindex(*(a.y,) * t))
    return PolicyTree(depth, a.y, {tuple(h): EncoderAction(encoder(space.m1, a.x1), encoder(space.m2, a.x2))
                                   for h in histories})


def tree_lines(name, channel, space, prior_name, prior, seed: int):
    """``evaluate_tree`` of the solved n = 2 policy and of a random depth-3
    tree, and the reachability diagnostic at n = 2."""
    head = f"{name} {space.m1}x{space.m2} {prior_name}"
    solved = solve_horizon(channel, space, WEIGHTS, 2, prior).policy
    for label, tree in (("solved", solved), ("random", _random_tree(np.random.default_rng(seed), space,
                                                                     channel, 3))):
        yield f"evaluate {head} {label} {evaluate_tree(channel, space, tree, WEIGHTS, prior).hex()}"
    rep = reachability_diagnostic(channel, space, WEIGHTS, 2, prior)
    conflicts = "".join(f"{c['history_a']},{c['history_b']},{c['t_a']},{c['t_b']},{c['action_index']},"
                        f"{c['reward_gap'].hex()}\n" for c in rep.conflicts)
    yield (f"diagnostic {head} n=2 {rep.n_states} {rep.n_groups} {len(rep.conflicts)} "
           f"{_sha1(conflicts)} {int(rep.root_action_injective)}")


def prune_lines(name, channel, space, prior_name, prior, seed: int):
    """The indices ``prune_actions`` keeps at the start state and at the
    states that two random actions reach along outputs with mass."""
    rng = np.random.default_rng(seed)
    actions = enumerate_actions(space, channel.alphabets)
    state = initial_state(space, None if prior is None else prior.table)
    for step in range(3):
        kept = [actions.index(a) for a in prune_actions(actions, state, channel, WEIGHTS)]
        yield (f"prune {name} {space.m1}x{space.m2} {prior_name} step={step} {len(kept)} "
               f"{_sha1(','.join(map(str, kept)))}")
        action = actions[int(rng.integers(len(actions)))]
        live = np.flatnonzero(observation_distribution(state, action, channel) > 1e-15)
        state = update_augmented(state, action, int(live[rng.integers(len(live))]), channel)


def stationary_lines(name, channel, space, prior_name, prior):
    """The per-use gain, and up to 2x2 the renewal-free grid solve."""
    head = f"stationary {name} {space.m1}x{space.m2} {prior_name}"
    yield f"{head} per_use {solve_stationary(channel, space, WEIGHTS, 1, prior=prior).gain.hex()}"
    if space.pairs <= 4:
        res = solve_stationary(channel, space, WEIGHTS, 4, prior=prior, renewal="none", max_iters=50)
        yield (f"{head} none {res.gain.hex()} {res.iterations} {res.span_at_stop.hex()} "
               f"{int(res.converged)}")


def region_lines(name, channel):
    """Bounds and vertices of a 2x2 sweep with either solver."""
    space = MessageSpace(2, 2)
    for prior_name, prior in priors(2, 2, 22).items():
        if prior_name not in ("uniform", "joint"):
            continue
        for solver in ("horizon", "stationary"):
            est = sweep(channel, space, 2, 6, solver=solver, prior=prior)
            bounds = ",".join(hp.bound.hex() for hp in est.halfplanes)
            vertices = ",".join(f"{x.hex()}/{y.hex()}" for x, y in est.vertices)
            yield (f"region {name} 2x2 {prior_name} {solver} {len(est.halfplanes)} {_sha1(bounds)} "
                   f"{len(est.vertices)} {_sha1(vertices)} {int(est.degenerate)}")


def belief_lines():
    """The sha1 of ``horizon --emit-beliefs``'s belief file on adder and
    noisy_adder(0.1), every message space, the uniform and the non-product
    prior, n = 1 to 3."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, params in (("adder", []), ("noisy_adder", [0.1])):
            for m1, m2 in SPACES:
                for prior_name, prior in priors(m1, m2, 10 * m1 + m2).items():
                    if prior_name not in ("uniform", "joint"):
                        continue
                    doc = {"channel": {"preset": {"name": name, "params": params}},
                           "messages": {"m1": m1, "m2": m2},
                           "prior": None if prior is None else prior.table.reshape(-1).tolist()}
                    path = Path(tmp) / "run.yaml"
                    path.write_text(json.dumps(doc))
                    for n in (1, 2, 3):
                        argv = ["horizon", "--config", str(path), "--n", str(n), "--lambda", "0.3,0.3,0.4",
                                "--emit-beliefs", "--out", str(Path(tmp) / "run")]
                        with contextlib.redirect_stdout(io.StringIO()):
                            code = cli.main(argv)
                        text = (Path(tmp) / "run_beliefs.csv").read_text()
                        yield f"beliefs {name} {m1}x{m2} {prior_name} n={n} {code} {_sha1(text)}"


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
    print(dsaht_line("noisy_adder", preset("noisy_adder", (0.1,)), MessageSpace(3, 3), "uniform", None, 4))
    for line in deep_lines():
        print(line)
    for line in wide_lines():
        print(line)
    for name, channel in channels().items():
        for m1, m2 in SPACES:
            space = MessageSpace(m1, m2)
            for prior_name, prior in priors(m1, m2, 10 * m1 + m2).items():
                seed = 100 * m1 + 10 * m2
                for line in (*tree_lines(name, channel, space, prior_name, prior, seed),
                             *prune_lines(name, channel, space, prior_name, prior, seed),
                             *stationary_lines(name, channel, space, prior_name, prior)):
                    print(line)
        for line in region_lines(name, channel):
            print(line)
    for line in belief_lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
