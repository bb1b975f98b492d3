"""Own-policy checks on seeded random instances
(``conftest.random_instances``): every solve reports the value of its own
policy, as read by code that never merges states. ``evaluate_tree`` walks
the horizon program's policy over every belief it reaches, with no
dedupe. The oracle shares no code with the solvers: ``evaluate_policy_In``
reads the horizon policy's value and ``evaluate_scheme_error`` the DSAHT
policy's error off its trajectory table; every instance lies within the
oracle's default caps. Each must agree with the solve to 1e-12, and
``evaluate_tree`` with the oracle on every kind.

Dense and sparse channels pass. On near-deterministic channels distinct
beliefs lie closer than QUANT = 1e-9, the engine merges them, and some
solves report a value that their own policy misses (ROADMAP item 2), so
that set stays in the suite as one strict expected failure.
"""

import functools

import pytest

from conftest import random_instances
from macfb.dp import evaluate_tree, solve_dsaht, solve_horizon
from macfb.oracle import evaluate_policy_In, evaluate_scheme_error

SEED, COUNT, TOL = 11, 15, 1e-12


@functools.cache
def _horizon_values(kind: str) -> list:
    """(reported, evaluate_tree, oracle) values of the horizon solve of
    each of the kind's instances, the last two of its own policy."""
    values = []
    for channel, space, n, prior, weights in random_instances(SEED, kind, COUNT):
        res = solve_horizon(channel, space, weights, n, prior)
        values.append((res.value_per_step, evaluate_tree(channel, space, res.policy, weights, prior),
                       evaluate_policy_In(channel, space, res.policy, weights, prior)))
    return values


def _misses(kind: str) -> list:
    """(instance, program, gap) of every solve of the kind's instances
    whose own policy's value, by ``evaluate_tree`` or by the oracle,
    differs from the reported one by more than TOL."""
    gaps = []
    solved = zip(random_instances(SEED, kind, COUNT), _horizon_values(kind))
    for i, ((channel, space, n, prior, _), (value, walked, exact)) in enumerate(solved):
        gaps += [(i, "horizon", value - walked), (i, "horizon-oracle", value - exact)]
        res = solve_dsaht(channel, space, n, prior)
        gaps.append((i, "dsaht", res.error_probability - evaluate_scheme_error(channel, space, res.policy, prior)))
    return [(i, program, gap) for i, program, gap in gaps if abs(gap) > TOL]


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_solves_report_their_own_policy_value(kind):
    assert _misses(kind) == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: QUANT merges distinct near-deterministic beliefs")
def test_solves_report_their_own_policy_value_near_deterministic():
    assert _misses("near-deterministic") == []


@pytest.mark.parametrize("kind", ["dense", "sparse", "near-deterministic"])
def test_walk_reads_the_oracle_value(kind):
    # the walk merges no states, so it agrees with the oracle even where
    # the solve does not
    values = _horizon_values(kind)
    assert [i for i, (_, walked, exact) in enumerate(values) if abs(walked - exact) > TOL] == []
