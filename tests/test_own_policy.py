"""Own-policy checks on seeded random instances
(``conftest.random_instances``): every solve reports the value of its own
policy, as read by code that never merges states. ``evaluate_tree`` walks
the horizon program's policy over every belief it reaches, with no
dedupe, and the oracle's ``evaluate_scheme_error`` reads the DSAHT
policy's error off its trajectory table, sharing no code with the
solvers; every instance lies within the oracle's default caps. Each must
agree with the solve to 1e-12.

Dense and sparse channels pass. On near-deterministic channels distinct
beliefs lie closer than QUANT = 1e-9, the engine merges them, and some
solves report a value that their own policy misses (ROADMAP item 2), so
that set stays in the suite as one strict expected failure.
"""

import pytest

from conftest import random_instances
from macfb.dp import evaluate_tree, solve_dsaht, solve_horizon
from macfb.oracle import evaluate_scheme_error

SEED, COUNT, TOL = 11, 15, 1e-12


def _misses(kind: str) -> list:
    """(instance, program, gap) of every solve of the kind's instances
    whose own policy's value differs from the reported one by more than
    TOL."""
    gaps = []
    for i, (channel, space, n, prior, weights) in enumerate(random_instances(SEED, kind, COUNT)):
        res = solve_horizon(channel, space, weights, n, prior)
        gaps.append((i, "horizon", res.value_per_step - evaluate_tree(channel, space, res.policy, weights, prior)))
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
