"""Checks that reach past the exhaustive oracle's instances, with code that
shares nothing with the solvers.

* Achievability: the oracle's trajectory evaluation of the DP's own policy
  tree gives the DP's value, at sizes where exhaustive search is out of
  reach (3x3 messages at n = 3, and DSAHT at T = 4).
* Symmetry: the optimum does not change when either sender's messages are
  relabelled (the prior relabelled with them), when the senders swap roles
  (Q transposed, l1 and l2 swapped, the prior transposed) or when the
  outputs are relabelled. Relabelled states differ in their last bits, so
  the values are compared to 1e-12, not bit for bit.
"""

import itertools

import numpy as np
import pytest

from conftest import make_rng
from macfb.belief import JointBelief
from macfb.channel import MessageSpace, preset, validate_channel
from macfb.dp import solve_dsaht, solve_horizon
from macfb.oracle import evaluate_policy_In, evaluate_scheme_error
from macfb.reward import LambdaWeights

# l1 != l2, so that swapping the senders changes the program
W = LambdaWeights(0.2, 0.45, 0.35)
NOISY_ADDER = preset("noisy_adder", (0.1,))


def _instances():
    """(label, channel, space, prior table or None): noisy_adder 3x3 under
    the uniform prior, and under a seeded 3x2 product and a 2x3 non-product
    prior."""
    rng = make_rng(111)
    product = np.outer(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(2)))
    joint = rng.dirichlet(np.ones(6)).reshape(2, 3)
    return [
        ("uniform-3x3", NOISY_ADDER, MessageSpace(3, 3), None),
        ("product-3x2", NOISY_ADDER, MessageSpace(3, 2), product / product.sum()),
        ("joint-2x3", NOISY_ADDER, MessageSpace(2, 3), joint),
    ]


INSTANCES = _instances()
IDS = [label for label, *_ in INSTANCES]


def _value(channel, space, prior, weights=W) -> float:
    pri = None if prior is None else JointBelief(prior)
    return solve_horizon(channel, space, weights, 3, pri).value_per_step


@pytest.mark.parametrize("label,channel,space,prior", INSTANCES, ids=IDS)
def test_oracle_evaluates_the_dp_policy_at_the_dp_value(label, channel, space, prior):
    pri = None if prior is None else JointBelief(prior)
    res = solve_horizon(channel, space, W, 3, pri)
    via_paths = evaluate_policy_In(channel, space, res.policy, W, prior=prior)
    assert abs(via_paths - res.value_per_step) <= 1e-9


def test_oracle_evaluates_the_dsaht_policy_at_its_error():
    space = MessageSpace(3, 3)
    res = solve_dsaht(NOISY_ADDER, space, 4)
    assert abs(evaluate_scheme_error(NOISY_ADDER, space, res.policy) - res.error_probability) <= 1e-12


@pytest.mark.parametrize("label,channel,space,prior", INSTANCES[1:], ids=IDS[1:])
def test_optimum_invariant_under_message_relabelling(label, channel, space, prior):
    want = _value(channel, space, prior)
    perms = itertools.product(itertools.permutations(range(space.m1)),
                              itertools.permutations(range(space.m2)))
    checked = 0
    for sigma, tau in perms:
        if sigma == tuple(range(space.m1)) and tau == tuple(range(space.m2)):
            continue
        # message m1 is called sigma[m1], m2 is called tau[m2]
        relabelled = np.empty_like(prior)
        relabelled[np.ix_(sigma, tau)] = prior
        assert abs(_value(channel, space, relabelled) - want) <= 1e-12
        checked += 1
    assert checked == 11


@pytest.mark.parametrize("label,channel,space,prior", INSTANCES, ids=IDS)
def test_optimum_invariant_under_sender_swap(label, channel, space, prior):
    swapped = validate_channel(np.transpose(channel.kernel, (0, 2, 1)))
    weights = LambdaWeights(W.l2, W.l1, W.l3)
    transposed = None if prior is None else prior.T
    got = _value(swapped, MessageSpace(space.m2, space.m1), transposed, weights)
    assert abs(got - _value(channel, space, prior)) <= 1e-12


@pytest.mark.parametrize("label,channel,space,prior", INSTANCES, ids=IDS)
def test_optimum_invariant_under_output_relabelling(label, channel, space, prior):
    # output y is called rho[y]
    rho = np.roll(np.arange(channel.n_outputs), 1)
    kernel = np.empty_like(channel.kernel)
    kernel[rho] = channel.kernel
    relabelled = validate_channel(kernel)
    assert not np.array_equal(relabelled.kernel, channel.kernel)
    assert abs(_value(relabelled, space, prior) - _value(channel, space, prior)) <= 1e-12
