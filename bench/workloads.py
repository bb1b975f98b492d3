"""Seeded inputs, public-API calls and correctness checks of each workload.

A workload turns a seed into plain JSON-serialisable inputs, and the inputs
into a list of ``Call`` objects: one public macfb call each, plus the check
its result must pass. The same seed always gives byte-identical inputs
(``inputs_bytes``); a different seed changes the drawn channel noise,
weights and priors, never the instance shapes.

Every workload is a closed loop: the benchmark issues the next call only
after the previous one returned.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from macfb import (
    JointBelief,
    LambdaWeights,
    MessageSpace,
    evaluate_policy_In,
    evaluate_scheme_error,
    evaluate_tree,
    examples,
    preset,
    solve_dsaht,
    solve_horizon,
    solve_stationary,
)

ROOT = Path(__file__).resolve().parents[1]
CASES_DIR = ROOT / "cases"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

DEFAULT_SEED = 0

# DP value against the belief-recursion and trajectory evaluations of its own
# policy; the same tolerances as acceptance criterion 3
HORIZON_TOL = 1e-9
DSAHT_TOL = 1e-12
# recorded optimum per instance of the default seed
REFERENCE_TOL = 1e-9


@dataclass
class Call:
    """One public call the benchmark times, and how to judge its result."""

    label: str
    run: Callable[..., object]
    check: Callable[[object], list]  # failure messages; empty when correct
    value: Callable[[object], float] = None  # compared with reference.json
    meta: object = None  # the corpus case behind the call


def inputs_bytes(inputs: dict) -> bytes:
    return json.dumps(inputs, sort_keys=True).encode()


def _noise_and_weights(rng) -> dict:
    return {
        "eps": float(rng.uniform(0.05, 0.2)),
        "lambda": [float(v) for v in rng.uniform(0.1, 1.0, 3)],
    }


def _horizon_check(channel, space, weights, res) -> list:
    errs = []
    via_tree = evaluate_tree(channel, space, res.policy, weights)
    via_oracle = evaluate_policy_In(channel, space, res.policy, weights)
    for name, other in (("evaluate_tree", via_tree), ("evaluate_policy_In", via_oracle)):
        if not abs(res.value_per_step - other) <= HORIZON_TOL:
            errs.append(f"value {res.value_per_step!r} != {name} {other!r}")
    return errs


def _dsaht_check(channel, space, prior, res) -> list:
    err = evaluate_scheme_error(channel, space, res.policy, prior.table)
    if not abs(res.error_probability - err) <= DSAHT_TOL:
        return [f"error {res.error_probability!r} != evaluate_scheme_error {err!r}"]
    return []


def _stationary_check(epsilon, res) -> list:
    # with renewal "none" the exact long-run gain is 0 for every channel
    errs = []
    if not res.converged:
        errs.append(f"not converged after {res.iterations} iterations")
    if not abs(res.gain) <= epsilon:
        errs.append(f"gain {res.gain!r} not within {epsilon} of 0")
    return errs


def _corpus_check(result) -> list:
    outcomes, _ = result
    errs = [f"{o.field}: expected {o.expected!r}, got {o.actual!r}" for o in outcomes if not o.ok]
    if not outcomes:
        errs.append("no outcome recorded")
    return errs


class HorizonWide:
    """solve_horizon on noisy_adder 3x3, n=2, uniform prior: 64 actions,
    shallow, reward-bound."""

    name = "horizon-wide"
    per_pass = 2

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {
            "messages": [3, 3],
            "n": 2,
            "instances": [_noise_and_weights(rng) for _ in range(self.per_pass)],
        }

    def calls(self, inputs: dict, out_dir: Path = None) -> list:
        space = MessageSpace(*inputs["messages"])
        out = []
        for k, inst in enumerate(inputs["instances"]):
            channel = preset("noisy_adder", (inst["eps"],))
            weights = LambdaWeights(*inst["lambda"])
            out.append(Call(
                f"instance{k}",
                partial(solve_horizon, channel, space, weights, inputs["n"]),
                partial(_horizon_check, channel, space, weights),
                lambda res: res.value_per_step,
            ))
        return out

    def warm_up(self, out_dir: Path = None) -> None:
        solve_horizon(preset("adder"), MessageSpace(2, 2), LambdaWeights(0, 0, 1), 1)


class DsahtDeep:
    """solve_dsaht on noisy_adder 2x2, T=5, random product prior: 16
    actions, deep, Bayes-update-bound, no reward calls."""

    name = "dsaht-deep"
    per_pass = 4

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        instances = []
        for _ in range(self.per_pass):
            instances.append({
                "eps": float(rng.uniform(0.05, 0.2)),
                "prior1": [float(v) for v in rng.dirichlet([2.0, 2.0])],
                "prior2": [float(v) for v in rng.dirichlet([2.0, 2.0])],
            })
        return {"messages": [2, 2], "T": 5, "instances": instances}

    def calls(self, inputs: dict, out_dir: Path = None) -> list:
        space = MessageSpace(*inputs["messages"])
        out = []
        for k, inst in enumerate(inputs["instances"]):
            channel = preset("noisy_adder", (inst["eps"],))
            prior = prior_of(inst)
            out.append(Call(
                f"instance{k}",
                partial(solve_dsaht, channel, space, inputs["T"], prior),
                partial(_dsaht_check, channel, space, prior),
                lambda res: res.error_probability,
            ))
        return out

    def warm_up(self, out_dir: Path = None) -> None:
        solve_dsaht(preset("adder"), MessageSpace(2, 2), 1)


def prior_of(inst: dict) -> JointBelief:
    table = np.outer(inst["prior1"], inst["prior2"])
    return JointBelief(table / table.sum())


class StationaryGrid:
    """solve_stationary(renewal="none") on noisy_adder 2x2, grid 10: the
    simplex interpolator, successor build and value-iteration sweeps.
    Replayed in traced runs only."""

    name = "stationary-grid"
    per_pass = 1
    epsilon = 1e-6

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {
            "messages": [2, 2],
            "grid": 10,
            "epsilon": self.epsilon,
            "instances": [_noise_and_weights(rng) for _ in range(self.per_pass)],
        }

    def calls(self, inputs: dict, out_dir: Path = None) -> list:
        space = MessageSpace(*inputs["messages"])
        out = []
        for k, inst in enumerate(inputs["instances"]):
            channel = preset("noisy_adder", (inst["eps"],))
            weights = LambdaWeights(*inst["lambda"])
            out.append(Call(
                f"instance{k}",
                partial(solve_stationary, channel, space, weights, inputs["grid"],
                        epsilon=inputs["epsilon"], renewal="none"),
                partial(_stationary_check, inputs["epsilon"]),
            ))
        return out


class Corpus:
    """Every case in cases/ through examples.run_case: CLI, config, solver
    and JSON/CSV writes. The inputs are fixed; the seed is not used.
    Replayed in traced runs only."""

    name = "corpus"

    def make_inputs(self, seed: int) -> dict:
        return {"cases": sorted(p.name for p in CASES_DIR.glob("*.yaml"))}

    def calls(self, inputs: dict, out_dir: Path = None) -> list:
        cases = examples.load_cases(CASES_DIR)
        if [c.path.name for c in cases] != inputs["cases"]:
            raise RuntimeError("case files changed between input generation and the run")
        return [
            Call(c.label, partial(examples.run_case, c, CASES_DIR, out_dir), _corpus_check,
                 meta=c)
            for c in cases
        ]


# the timed workloads; the other two are replayed by layers.py in traced runs
WORKLOADS = {w.name: w for w in (HorizonWide(), DsahtDeep())}
REPLAYED = {w.name: w for w in (StationaryGrid(), Corpus())}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def check_results(results, reference: dict = None) -> list:
    """Failure messages of each (call, result, seconds) triple, one list per
    triple. With ``reference`` (label -> recorded value), every call that
    reports a value must also reproduce the recorded one."""
    verdicts = []
    for call, out, _ in results:
        if isinstance(out, Exception):
            verdicts.append([f"raised {out!r}"])
            continue
        errs = call.check(out)
        if reference is not None and call.value is not None:
            expected = reference.get(call.label)
            if expected is None:
                errs.append("no reference value recorded")
            elif not abs(call.value(out) - expected) <= REFERENCE_TOL:
                errs.append(f"value {call.value(out)!r} != reference {expected!r}")
        verdicts.append(errs)
    return verdicts


def grid_points(resolution: int, parts: int) -> int:
    """Number of beliefs with coordinates k/resolution on a simplex."""
    return math.comb(resolution + parts - 1, parts - 1)
