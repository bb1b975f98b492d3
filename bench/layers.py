"""Per-layer numbers of the traced run, taken from outside the program.

The modules of macfb are the layers. Nothing here reaches into them: layer
times come from replaying a layer's public function on a seeded sample of
the belief states the workload reaches, and counts come from public results
(``HorizonResult``, ``StationaryResult``) or are computed from action and
grid sizes. ``collect`` returns the metrics together with a note saying how
each one was obtained ("measured", "replay" or "computed").

Reachable states are built with the public ``update_augmented`` and
``update_joint`` from the workload's start state, under every action and
every output with mass, and deduplicated on beliefs quantised to 1e-9 the
way the dynamic programs key their memo.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from macfb import (
    HorizonResult,
    LambdaWeights,
    MessageSpace,
    enumerate_actions,
    exhaustive_Cn,
    initial_state,
    reward_reduced,
    reward_weighted,
    update_augmented,
    update_joint,
)
from macfb.belief import MASS_EPS, predictive_distribution
from macfb.config import load_config

import workloads as wl

QUANT = 1e-9
SAMPLE_STATES = 8
# value-iteration sweeps timed against the stationary set-up
EXTRA_SWEEPS = 5000


def _key(state) -> bytes:
    arrays = (state.pi.table, state.beta1.rows, state.beta2.rows) if hasattr(state, "pi") \
        else (state.table,)
    return b"".join(np.rint(a / QUANT).astype(np.int64).tobytes() for a in arrays)


def reachable(channel, actions, start, depth, step):
    """Distinct states at steps 1..depth reachable from ``start``, and the
    number of successor visits into each step (a memo lookup each)."""
    levels, visits = [[start]], [1]
    for _ in range(depth - 1):
        seen, n = {}, 0
        for state in levels[-1]:
            pi = getattr(state, "pi", state)
            for action in actions:
                p = predictive_distribution(pi, action, channel)
                for y in np.flatnonzero(p > MASS_EPS):
                    n += 1
                    nxt = step(state, action, int(y), channel)
                    seen.setdefault(_key(nxt), nxt)
        levels.append(list(seen.values()))
        visits.append(n)
    return levels, visits


def memo_counts(levels, visits) -> tuple:
    """(states expanded, memo hits) of a memoised recursion over ``levels``."""
    expanded = sum(len(level) for level in levels)
    return expanded, sum(visits[1:]) - (expanded - len(levels[0]))


def _us_per_call(fn, calls: int) -> float:
    t = time.perf_counter()
    fn()
    return (time.perf_counter() - t) / calls * 1e6


def replay(tracer, channel, weights, states, actions) -> dict:
    """Median over ``states`` of the per-call cost of each belief and reward
    function, each called for every action (and every output with mass)."""
    out = {k: [] for k in ("reward.weighted_us", "reward.reduced_us", "belief.predictive_us",
                           "belief.update_joint_us", "belief.update_augmented_us")}
    for state in states:
        pairs = [
            (a, int(y))
            for a in actions
            for y in np.flatnonzero(predictive_distribution(state.pi, a, channel) > MASS_EPS)
        ]
        n_a = len(actions)
        with tracer.span("replay.reward_weighted", calls=n_a):
            out["reward.weighted_us"].append(_us_per_call(
                lambda: [reward_weighted(state, a, channel, weights) for a in actions], n_a))
        with tracer.span("replay.reward_reduced", calls=n_a):
            out["reward.reduced_us"].append(_us_per_call(
                lambda: [reward_reduced(state.pi, a, channel, weights) for a in actions], n_a))
        with tracer.span("replay.predictive_distribution", calls=n_a):
            out["belief.predictive_us"].append(_us_per_call(
                lambda: [predictive_distribution(state.pi, a, channel) for a in actions], n_a))
        with tracer.span("replay.update_joint", calls=len(pairs)):
            out["belief.update_joint_us"].append(_us_per_call(
                lambda: [update_joint(state.pi, a, y, channel) for a, y in pairs], len(pairs)))
        with tracer.span("replay.update_augmented", calls=len(pairs)):
            out["belief.update_augmented_us"].append(_us_per_call(
                lambda: [update_augmented(state, a, y, channel) for a, y in pairs], len(pairs)))
    return {k: statistics.median(v) for k, v in out.items()}


def _sample(levels, rng) -> list:
    states = [s for level in levels for s in level]
    if len(states) <= SAMPLE_STATES:
        return states
    picks = rng.choice(len(states), size=SAMPLE_STATES, replace=False)
    return [states[i] for i in sorted(picks)]


def _enumerate_ms(space, alphabets) -> tuple:
    times = []
    for _ in range(5):
        t = time.perf_counter()
        actions = enumerate_actions(space, alphabets)
        times.append(time.perf_counter() - t)
    return actions, statistics.median(times) * 1e3


def collect(name, inputs, timed, tracer, rng, seed, tmp) -> tuple:
    """Per-layer metrics, a note on how each was taken, and the results of
    the replayed public calls (to be checked like timed ones).

    ``timed`` is the traced measurement of workload ``name``; its counts are
    per public solve. The stationary solver and the corpus are no timed
    workload of their own (see CHANGES.md). Every traced run replays them
    instead: solves of a seeded stationary-grid instance, and one pass over
    every corpus case.
    """
    metrics, notes = {}, {}

    def put(key, value, how):
        metrics[key] = float(value)
        notes[key] = how

    solve_spans = [dt for _, out, dt in timed.results if not isinstance(out, Exception)]
    put("dp.solve_s", statistics.median(solve_spans), "measured: median span of the public call")
    stationary, corpus = wl.REPLAYED["stationary-grid"], wl.REPLAYED["corpus"]
    replayed = _stationary_layers(stationary, stationary.make_inputs(seed), tracer, put)
    replayed += _corpus_layers(corpus, tmp, tracer, put)

    inst = inputs["instances"][0]
    space = MessageSpace(*inputs["messages"])
    channel = wl.preset("noisy_adder", (inst["eps"],))
    # solve_dsaht has no reward weights; its replay uses unit weights
    weights = LambdaWeights(*inst.get("lambda", (1.0, 1.0, 1.0)))
    start = initial_state(space, wl.prior_of(inst).table if "prior1" in inst else None)
    actions, enum_ms = _enumerate_ms(space, channel.alphabets)
    put("encoding.actions", len(actions), "computed: |X1|^|M1| * |X2|^|M2|")
    put("encoding.enumerate_ms", enum_ms, "replay: median of 5 enumerate_actions calls")

    if name == "horizon-wide":
        results = [out for _, out, _ in timed.results if isinstance(out, HorizonResult)]
        expanded = statistics.median(r.states_expanded for r in results)
        hits = statistics.median(r.cache_hits for r in results)
        put("dp.states_expanded", expanded, "from HorizonResult, per solve")
        put("dp.cache_hits", hits, "from HorizonResult, per solve")
        put("reward.calls", expanded * len(actions), "computed: states expanded x actions")
    else:
        with tracer.span("replay.reachable_common", depth=inputs["T"]):
            levels, visits = reachable(channel, actions, start.pi, inputs["T"], update_joint)
        expanded, hits = memo_counts(levels, visits)
        put("dp.states_expanded", expanded,
            "computed: distinct reachable common beliefs at steps 1..T, instance 0")
        put("dp.cache_hits", hits, "computed: successor visits minus distinct beliefs, instance 0")
        put("reward.calls", 0, "computed: solve_dsaht makes no reward call")
    put("dp.memo_hit_ratio", hits / (hits + expanded), "computed: hits / (hits + expanded)")

    with tracer.span("replay.reachable"):
        levels, _ = reachable(channel, actions, start, 2, update_augmented)
    with tracer.span("replay"):
        layer_us = replay(tracer, channel, weights, _sample(levels, rng), actions)
    for key, value in layer_us.items():
        put(key, value, f"replay: median over <= {SAMPLE_STATES} reachable states of us per call")
    put("reward.est_share",
        metrics["reward.calls"] * layer_us["reward.weighted_us"] * 1e-6 / metrics["dp.solve_s"],
        "computed: reward calls x replayed us per call over the measured solve")
    return metrics, notes, replayed


def _stationary_layers(stationary, inputs, tracer, put) -> list:
    """Set-up against sweeps of solve_stationary on one seeded instance."""
    call = stationary.calls(inputs)[0]
    space = MessageSpace(*inputs["messages"])
    points = wl.grid_points(inputs["grid"], space.pairs)
    channel = wl.preset("noisy_adder", (inputs["instances"][0]["eps"],))
    n_actions = len(enumerate_actions(space, channel.alphabets))
    put("dp.grid_points", points, "computed: C(grid + pairs - 1, pairs - 1), stationary replay")
    put("reward.reduced_calls", points * n_actions,
        "computed: grid points x actions, per stationary replay solve")
    # set-up alone is a solve stopped after its first sweep; with epsilon 0 a
    # solve runs exactly max_iters sweeps. Adjacent pairs keep machine-speed
    # drift out of the difference.
    setups, sweeps = [], []
    for _ in range(2):
        with tracer.span("replay.solve_stationary", max_iters=1):
            t = time.perf_counter()
            call.run(max_iters=1)
            setups.append(time.perf_counter() - t)
        with tracer.span("replay.solve_stationary", max_iters=1 + EXTRA_SWEEPS, epsilon=0.0):
            t = time.perf_counter()
            call.run(max_iters=1 + EXTRA_SWEEPS, epsilon=0.0)
            sweeps.append((time.perf_counter() - t - setups[-1]) / EXTRA_SWEEPS)
    with tracer.span("replay.solve_stationary"):
        t = time.perf_counter()
        full = call.run()
        results = [(call, full, time.perf_counter() - t)]
    put("dp.vi_iterations", full.iterations, "from StationaryResult, stationary replay")
    put("dp.stationary_setup_s", statistics.median(setups),
        "replay: median of 2 solves with max_iters=1")
    put("dp.vi_sweep_ms", statistics.median(sweeps) * 1e3,
        f"computed: (solve of 1 + {EXTRA_SWEEPS} sweeps - solve of 1 sweep) / {EXTRA_SWEEPS}, "
        "median of 2 adjacent pairs")
    return results


def _corpus_layers(corpus, tmp, tracer, put) -> list:
    """One pass over every corpus case, plus the config and oracle layers
    the cases go through."""
    results = []
    for call in corpus.calls(corpus.make_inputs(0), tmp):
        with tracer.span("replay.run_case", case=call.label):
            t = time.perf_counter()
            try:
                out = call.run()
            except Exception as exc:  # counted as a failed call, like a timed one
                out = exc
            results.append((call, out, time.perf_counter() - t))
        put(f"corpus.case.{call.label}_s", results[-1][2], "measured: span of run_case, one pass")

    loads = []
    with tracer.span("replay.load_config"):
        for call, _, _ in results:
            t = time.perf_counter()
            load_config(wl.CASES_DIR / call.meta.config)
            loads.append(time.perf_counter() - t)
    put("config.load_ms", statistics.median(loads) * 1e3, "replay: median load_config per case")

    for call, _, _ in results:
        case = call.meta
        if case.command != "oracle-check":
            continue
        cfg = load_config(wl.CASES_DIR / case.config)
        sec = cfg.section("oracle_check")
        n = int(case.flags.get("n", sec["n"]))
        lam = [float(v) for v in str(case.flags["lambda"]).split(",")] \
            if "lambda" in case.flags else sec["lambda"]
        n_actions = len(enumerate_actions(cfg.space, cfg.channel.alphabets))
        trees = n_actions ** sum(cfg.channel.n_outputs ** t for t in range(n))
        with tracer.span("replay.exhaustive_Cn", case=call.label, trees=trees):
            t = time.perf_counter()
            exhaustive_Cn(cfg.channel, cfg.space, LambdaWeights(*lam), n, cfg.prior)
            put("oracle.trees_per_s", trees / (time.perf_counter() - t),
                "replay: exhaustive_Cn of the oracle-check case, trees enumerated per s")
    return results
