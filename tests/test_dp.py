import hashlib
import math

import numpy as np
import pytest

from conftest import make_rng, random_channel, random_prior, random_tree
from macfb import dp, region
from macfb.belief import JointBelief, initial_state, uniform_initial
from macfb.channel import MessageSpace, preset, validate_channel
from macfb.dp import (
    evaluate_tree,
    reachability_diagnostic,
    solve_dsaht,
    solve_horizon,
    solve_stationary,
)
from macfb.encoding import enumerate_actions, policy_to_csv
from macfb.errors import GridTooLarge, HorizonTooDeep
from macfb.oracle import evaluate_policy_In
from macfb.reward import LambdaWeights, reward_weighted

L3 = LambdaWeights(0.0, 0.0, 1.0)
L_ALL = LambdaWeights(1.0, 1.0, 1.0)


def faithful_channel():
    # y = 2*x1 + x2 resolves the input pair in one use
    q = np.zeros((4, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            q[2 * x1 + x2, x1, x2] = 1.0
    return validate_channel(q)


def test_one_step_equals_best_reward():
    rng = make_rng(41)
    space = MessageSpace(2, 2)
    for _ in range(10):
        ch = random_channel(rng, 2, 2, 3)
        start = uniform_initial(space)
        best = max(
            reward_weighted(start, a, ch, L_ALL).weighted
            for a in enumerate_actions(space, ch.alphabets)
        )
        res = solve_horizon(ch, space, L_ALL, 1)
        assert res.total_value == pytest.approx(best, abs=1e-12)
        assert res.value_per_step == res.total_value


def test_adder_values():
    ch = preset("adder")
    space = MessageSpace(2, 2)
    res1 = solve_horizon(ch, space, L3, 1)
    assert res1.total_value == pytest.approx(1.5, abs=1e-12)
    res2 = solve_horizon(ch, space, L3, 2)
    assert res2.total_value == pytest.approx(2.0, abs=1e-9)
    assert res2.value_per_step == pytest.approx(1.0, abs=1e-9)
    assert res2.policy.depth == 2


def test_multiplier_value():
    res = solve_horizon(preset("multiplier"), MessageSpace(2, 2), L3, 2)
    assert res.value_per_step == pytest.approx(1.0, abs=1e-9)


def test_useless_value_zero():
    res = solve_horizon(preset("useless"), MessageSpace(2, 2), L_ALL, 2)
    assert res.total_value == pytest.approx(0.0, abs=1e-12)


def test_horizon_argument_guards():
    ch = preset("adder")
    with pytest.raises(ValueError):
        solve_horizon(ch, MessageSpace(2, 2), L3, 0)
    with pytest.raises(HorizonTooDeep):
        solve_horizon(ch, MessageSpace(2, 2), L3, 2, node_cap=2)


def test_returned_policy_achieves_value():
    rng = make_rng(42)
    space = MessageSpace(2, 2)
    for _ in range(5):
        ch = random_channel(rng, 2, 2, 2)
        res = solve_horizon(ch, space, L_ALL, 2)
        assert evaluate_tree(ch, space, res.policy, L_ALL) == pytest.approx(
            res.value_per_step, abs=1e-12
        )


def test_evaluate_tree_matches_trajectory_oracle():
    rng = make_rng(43)
    for _ in range(20):
        m1, m2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        space = MessageSpace(m1, m2)
        ch = random_channel(rng, 2, 2, 2, sparse=bool(rng.integers(2)))
        tree = random_tree(rng, space, ch.alphabets, int(rng.integers(1, 3)))
        w = LambdaWeights(*rng.random(3))
        a = evaluate_tree(ch, space, tree, w)
        b = evaluate_policy_In(ch, space, tree, w)
        assert a == pytest.approx(b, abs=1e-9)


def test_lambda_homogeneity():
    ch = preset("adder")
    space = MessageSpace(2, 2)
    base = solve_horizon(ch, space, L_ALL, 2).value_per_step
    for c in (0.5, 2.0, 10.0):
        scaled = solve_horizon(ch, space, L_ALL.scaled(c), 2).value_per_step
        assert scaled == pytest.approx(c * base, abs=1e-9)


def test_prune_matches_full_enumeration():
    rng = make_rng(44)
    space = MessageSpace(2, 2)
    for ch in (preset("adder"), preset("useless"), random_channel(rng, 2, 2, 3)):
        full = solve_horizon(ch, space, L_ALL, 2, prune=False)
        pruned = solve_horizon(ch, space, L_ALL, 2, prune=True)
        assert pruned.total_value == pytest.approx(full.total_value, abs=1e-9)


def test_horizon_deterministic_re_run():
    ch = preset("adder")
    space = MessageSpace(2, 2)
    a = solve_horizon(ch, space, L3, 2)
    b = solve_horizon(ch, space, L3, 2)
    assert a.total_value == b.total_value
    assert a.states_expanded == b.states_expanded and a.cache_hits == b.cache_hits
    assert policy_to_csv(a.policy) == policy_to_csv(b.policy)


def test_horizon_with_prior_start():
    ch = preset("adder")
    space = MessageSpace(2, 2)
    prior = np.array([[0.7, 0.1], [0.1, 0.1]])
    res = solve_horizon(ch, space, L3, 1, prior=JointBelief(prior))
    start = initial_state(space, prior)
    best = max(
        reward_weighted(start, a, ch, L3).weighted
        for a in enumerate_actions(space, ch.alphabets)
    )
    assert res.total_value == pytest.approx(best, abs=1e-12)


def test_dsaht_adder_ladder():
    ch = preset("adder")
    space = MessageSpace(2, 2)
    assert solve_dsaht(ch, space, 0).error_probability == pytest.approx(0.75)
    assert solve_dsaht(ch, space, 1).error_probability == pytest.approx(0.25, abs=1e-12)
    assert solve_dsaht(ch, space, 2).error_probability == pytest.approx(0.0, abs=1e-12)


def test_dsaht_guards_and_T0_decoder():
    ch = preset("adder")
    space = MessageSpace(2, 2)
    with pytest.raises(ValueError):
        solve_dsaht(ch, space, -1)
    prior = JointBelief(np.array([[0.1, 0.2], [0.3, 0.4]]))
    res = solve_dsaht(ch, space, 0, prior=prior)
    assert res.error_probability == pytest.approx(0.6)
    assert res.decoder == {(): (1, 1)}
    assert res.policy.depth == 0


def test_dsaht_faithful_single_use():
    res = solve_dsaht(faithful_channel(), MessageSpace(2, 2), 1)
    assert res.error_probability == pytest.approx(0.0, abs=1e-12)
    assert set(res.decoder) == {(y,) for y in range(4)}


def test_dsaht_monotone_in_horizon():
    rng = make_rng(45)
    ch = random_channel(rng, 2, 2, 2)
    space = MessageSpace(2, 2)
    prior = JointBelief(random_prior(rng, 2, 2))
    errs = [solve_dsaht(ch, space, t, prior=prior).error_probability for t in range(4)]
    for lo, hi in zip(errs[1:], errs):
        assert lo <= hi + 1e-12


def test_dsaht_decoder_covers_reachable_histories():
    ch = preset("adder")
    res = solve_dsaht(ch, MessageSpace(2, 2), 2)
    assert all(len(h) == 2 for h in res.decoder)
    assert len(res.decoder) >= 1


def test_stationary_useless_gain_zero():
    res = solve_stationary(preset("useless"), MessageSpace(2, 2), L_ALL, resolution=4)
    assert res.converged
    assert res.gain == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize(
    "p,expected",
    [(0.0, 1.0), (0.1, 0.5310044064107188), (0.25, 0.18872187554086717)],
)
def test_stationary_bsc_matches_capacity(p, expected):
    res = solve_stationary(preset("bsc_p2p", (p,)), MessageSpace(2, 1), L3, resolution=16)
    assert res.converged
    assert res.gain == pytest.approx(expected, abs=1e-6)
    assert res.renewal == "per_use"


def test_stationary_literal_mode_gain_zero():
    res = solve_stationary(
        preset("bsc_p2p", (0.0,)), MessageSpace(2, 1), L3, resolution=8, renewal="none"
    )
    assert res.converged
    assert res.gain == pytest.approx(0.0, abs=1e-9)


def test_literal_gain_tracks_finite_horizon_decay():
    # with a fixed message pair the n-step per-step optimum is 1/n here, so
    # the stationary gain must sit within epsilon + 1/n of it for every n
    ch = preset("bsc_p2p", (0.0,))
    space = MessageSpace(2, 1)
    eps = 1e-6
    res = solve_stationary(ch, space, L3, resolution=8, epsilon=eps, renewal="none")
    for n in (1, 2, 3):
        cn = solve_horizon(ch, space, L3, n).value_per_step
        assert cn == pytest.approx(1.0 / n, abs=1e-9)
        assert abs(res.gain - cn) <= eps + 1.0 / n + 1e-9


def test_stationary_guards():
    ch = preset("bsc_p2p", (0.1,))
    space = MessageSpace(2, 1)
    for renewal in ("per_use", "none"):
        with pytest.raises(ValueError):
            solve_stationary(ch, space, L3, resolution=0, renewal=renewal)
    with pytest.raises(ValueError):
        solve_stationary(ch, space, L3, resolution=4, renewal="sometimes")
    # only renewal: none builds a grid
    with pytest.raises(GridTooLarge):
        solve_stationary(ch, space, L3, resolution=64, grid_cap=10, renewal="none")


def test_stationary_partial_result_when_iters_exhausted():
    # only renewal: none iterates
    res = solve_stationary(
        preset("bsc_p2p", (0.1,)), MessageSpace(2, 1), L3, resolution=16, max_iters=1,
        renewal="none",
    )
    assert not res.converged
    assert res.iterations == 1
    assert res.span_at_stop > 1e-6


def test_per_use_gain_is_exact_one_step_value():
    # under a product prior the fully refined one-step reward at the prior
    # is the horizon n = 1 reward, so the two must agree wherever the prior
    # sits relative to the belief grid; the uniform 3x3 prior is not a
    # point of the grid-4 simplex grid
    w = LambdaWeights(0.3, 0.3, 0.4)
    rng = make_rng(53)
    prior = JointBelief(np.outer(rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2))))
    for ch, space, pri, resolutions in (
        (preset("noisy_adder", (0.1,)), MessageSpace(3, 3), None, (4, 1, 7)),
        (random_channel(rng, 2, 2, 3), MessageSpace(2, 2), prior, (8, 1, 16)),
    ):
        want = solve_horizon(ch, space, w, 1, pri).value_per_step
        for resolution in resolutions:
            res = solve_stationary(ch, space, w, resolution, prior=pri)
            assert abs(res.gain - want) <= 1e-12
            assert (res.converged, res.iterations, res.span_at_stop) == (True, 0, 0.0)
        if pri is None:
            assert res.gain == pytest.approx(0.7262474942212631, abs=1e-12)


def test_diagnostic_adder_two_steps():
    ch = preset("adder")
    rep = reachability_diagnostic(ch, MessageSpace(2, 2), L3, 2)
    assert rep.n_states == 3
    assert rep.n_groups == 3
    assert rep.conflicts == []
    # the lexicographic tie-break lands on a constant first encoder
    assert rep.root_action_injective is False


def test_diagnostic_injective_first_step_has_no_conflicts():
    # n = 1 for the faithful channel: at n = 2 revealing now or later ties
    # and the tie-break lands on the constant action
    for ch, space, n in (
        (preset("bsc_p2p", (0.1,)), MessageSpace(2, 1), 2),
        (faithful_channel(), MessageSpace(2, 2), 1),
    ):
        rep = reachability_diagnostic(ch, space, L3, n)
        assert rep.root_action_injective is True
        assert rep.conflicts == []


def test_root_action_is_first_within_tie_tolerance():
    # values from the public per-action functions, not from the kernel's
    # batch; on this instance several actions tie up to rounding noise, and
    # a strict first maximum (minimum) lands later in the action order
    from macfb.belief import predictive_distribution, update_joint
    from macfb.dp import TIE_TOL

    ch = preset("noisy_adder", (0.05,))
    space = MessageSpace(3, 3)
    actions = enumerate_actions(space, ch.alphabets)
    weights = L_ALL
    start = uniform_initial(space)

    rewards = np.array([reward_weighted(start, a, ch, weights).weighted for a in actions])
    first = int(np.flatnonzero(rewards >= rewards.max() - TIE_TOL)[0])
    res = solve_horizon(ch, space, weights, 1)
    assert res.policy.action_at(()) == actions[first]
    assert res.total_value == pytest.approx(rewards.max(), abs=1e-12)

    def error_after_one_use(action):
        p = predictive_distribution(start.pi, action, ch)
        return sum(
            p[y] * (1.0 - update_joint(start.pi, action, y, ch).table.max())
            for y in range(ch.n_outputs)
            if p[y] > 1e-15
        )

    errors = np.array([error_after_one_use(a) for a in actions])
    first = int(np.flatnonzero(errors <= errors.min() + TIE_TOL)[0])
    res = solve_dsaht(ch, space, 1)
    assert res.policy.action_at(()) == actions[first]
    assert res.error_probability == pytest.approx(errors.min(), abs=1e-12)


@pytest.mark.parametrize(
    "name,params,m,weights,expanded,hits",
    [
        ("adder", (), 2, (1.0, 1.0, 1.0), 12, 21),
        ("noisy_adder", (0.1,), 3, (0.3, 0.3, 0.4), 74, 119),
    ],
)
def test_memo_counters_pinned(name, params, m, weights, expanded, hits):
    res = solve_horizon(preset(name, params), MessageSpace(m, m), LambdaWeights(*weights), 2)
    assert (res.states_expanded, res.cache_hits) == (expanded, hits)


def test_one_state_chunks_solve_the_same(monkeypatch):
    # built one state at a time, a level numbers its successors through
    # many lookups in the level index's sorted runs; the results must not move
    ch = preset("noisy_adder", (0.1,))
    space = MessageSpace(2, 3)
    weights = LambdaWeights(0.3, 0.3, 0.4)
    horizon = solve_horizon(ch, space, weights, 3)
    dsaht = solve_dsaht(ch, space, 3)
    monkeypatch.setattr(dp, "CHUNK_ENTRIES", 1)
    assert solve_horizon(ch, space, weights, 3) == horizon
    small = solve_dsaht(ch, space, 3)
    assert (small.error_probability, small.policy) == (dsaht.error_probability, dsaht.policy)
    assert (small.states_expanded, small.cache_hits) == (dsaht.states_expanded, dsaht.cache_hits)
    assert horizon.states_expanded > 50 and dsaht.states_expanded > 50


def test_level_index_numbers_rows_as_one_dedupe_of_the_level():
    # chunk by chunk, the index gives every row the number that one
    # first_rows over the level's rows in chunk order gives it, whether a
    # chunk comes deduped or raw, with its repeats
    from macfb.kernel import first_rows

    rng = make_rng(99)
    for raw in (False, True):
        for _ in range(20):
            rows = rng.integers(-2, 3, size=(int(rng.integers(1, 400)), 3)).astype(np.int64)
            level_first, expected = first_rows(rows)
            cuts = np.sort(rng.integers(0, len(rows) + 1, size=int(rng.integers(0, 30))))
            index, got, firsts = dp._LevelIndex(), [], []
            for lo, chunk in zip(np.concatenate([[0], cuts]), np.split(rows, cuts)):
                first, inverse = first_rows(chunk)
                if raw:
                    number, new = index.add(chunk)
                    firsts.append(lo + new)
                else:
                    number, new = index.add(chunk[first])
                    firsts.append(lo + first[new])
                    number = number[inverse]
                got.append(number)
            np.testing.assert_array_equal(np.concatenate(got), expected)
            np.testing.assert_array_equal(np.concatenate(firsts), level_first)
            assert index.count == expected.max() + 1


def test_noisy_adder_four_steps_pinned():
    # value bits and counters as the per-action joint and one-hot kernel gave them
    res = solve_horizon(preset("noisy_adder", (0.1,)), MessageSpace(3, 3), LambdaWeights(0.3, 0.3, 0.4), 4)
    assert res.value_per_step.hex() == "0x1.fb822824c4756p-2"
    assert (res.states_expanded, res.cache_hits) == (31286, 382667)


def test_result_values_are_plain_floats():
    ch = preset("noisy_adder", (0.1,))
    space = MessageSpace(2, 2)
    for n in (1, 2, 3):
        res = solve_horizon(ch, space, L_ALL, n)
        assert type(res.value_per_step) is float and type(res.total_value) is float
    for big_t in (0, 1, 2, 3):
        assert type(solve_dsaht(ch, space, big_t).error_probability) is float


_WRONG = JointBelief(np.full((3, 3), 1.0 / 9.0))
_ADDER, _SPACE = preset("adder"), MessageSpace(2, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: solve_dsaht(_ADDER, _SPACE, 0, prior=_WRONG),
        lambda: solve_dsaht(_ADDER, _SPACE, 2, prior=_WRONG),
        lambda: solve_stationary(_ADDER, _SPACE, L3, 2, prior=_WRONG),
        lambda: solve_stationary(_ADDER, _SPACE, L3, 2, prior=_WRONG, renewal="none"),
        lambda: solve_horizon(_ADDER, _SPACE, L3, 2, prior=_WRONG),
        lambda: evaluate_tree(_ADDER, _SPACE, solve_horizon(_ADDER, _SPACE, L3, 1).policy, L3, prior=_WRONG),
        lambda: reachability_diagnostic(_ADDER, _SPACE, L3, 1, prior=_WRONG),
        lambda: region.sweep(_ADDER, _SPACE, 1, 3, prior=_WRONG.table),
        lambda: region.sweep(_ADDER, _SPACE, 1, 3, solver="stationary", prior=_WRONG.table),
    ],
    ids=["dsaht-T0", "dsaht-T2", "stationary-per-use", "stationary-none", "horizon",
         "evaluate-tree", "diagnostic", "region-horizon", "region-stationary"],
)
def test_prior_of_another_shape_is_rejected(call):
    # a 3x3 prior on a 2x2 message space: at T = 0 DSAHT used to return
    # 0.8889, and elsewhere numpy failed to broadcast
    with pytest.raises(ValueError, match="^prior shape disagrees with the message space$"):
        call()


def test_diagnostic_reports_private_table_conflicts():
    # output 0 is uninformative, so after it the common belief is the prior
    # again while the private tables have moved; from a correlated prior the
    # rewards then depend on the tables
    from macfb.belief import update_augmented

    q = np.zeros((4, 2, 2))
    for x1 in range(2):
        for x2 in range(2):
            q[0, x1, x2] = 0.5
            q[1 + x1 + x2, x1, x2] = 0.5
    ch = validate_channel(q)
    space = MessageSpace(2, 2)
    prior = np.array([[0.4, 0.1], [0.1, 0.4]])
    start = initial_state(space, prior)
    rep = reachability_diagnostic(ch, space, L_ALL, 2, prior=JointBelief(prior))
    assert rep.conflicts
    root = solve_horizon(ch, space, L_ALL, 2, prior=JointBelief(prior)).policy.action_at(())
    after = update_augmented(start, root, 0, ch)
    actions = enumerate_actions(space, ch.alphabets)
    for c in rep.conflicts:
        assert (c["history_a"], c["history_b"]) == ((), (0,))
        action = actions[c["action_index"]]
        gap = abs(
            reward_weighted(start, action, ch, L_ALL).weighted
            - reward_weighted(after, action, ch, L_ALL).weighted
        )
        assert c["reward_gap"] == pytest.approx(gap, abs=1e-12)


def _half_silent_channel(seed: int, m: tuple) -> tuple:
    # output 0 carries nothing half the time, so histories through it meet
    # again on a common belief while their private labels differ
    rng = make_rng(seed)
    raw = random_channel(rng, 2, 2, 3, sparse=True).kernel
    ch = validate_channel(np.concatenate([np.full((1, 2, 2), 0.5), 0.5 * raw]))
    for size in ((2, 2), (3, 2)):
        prior = random_prior(rng, *size)
        if size == m:
            return ch, MessageSpace(*m), JointBelief(prior)


@pytest.mark.parametrize(
    "seed, m, n_states, n_groups, n_conflicts, digest, pairs",
    [
        (3, (3, 2), 21, 7, 88, "592e6189681b9be790cf0954f32ac54aec4b505e745d5314e911a3f1fdf6e84d",
         [((), (0,)), ((), (0, 0)), ((0, 2), (2, 0)), ((0, 2), (3, 0)), ((0, 3), (2, 0)),
          ((0, 3), (3, 0)), ((2,), (2, 0)), ((2,), (3, 0)), ((2, 0), (3,)), ((3,), (3, 0))]),
        (10, (2, 2), 18, 9, 16, "0b054413fabcf26c63c14a571cfbedef771492c1a57a0232516cb0e2935fbfe2",
         [((), (0,)), ((), (0, 0)), ((0,), (0, 0))]),
        (1, (3, 2), 21, 13, 64, "716d20553367f92923e264836e572e32f98f96db35b1605fe394f6bad235f014",
         [((), (0,)), ((), (0, 0)), ((0, 1), (1, 0)), ((1,), (1, 0))]),
    ],
)
def test_diagnostic_report_pinned(seed, m, n_states, n_groups, n_conflicts, digest, pairs):
    # every conflict, in order and with the bits of its gap
    ch, space, prior = _half_silent_channel(seed, m)
    rep = reachability_diagnostic(ch, space, L_ALL, 3, prior=prior)
    assert (rep.n_states, rep.n_groups, rep.root_action_injective) == (n_states, n_groups, False)
    assert len(rep.conflicts) == n_conflicts
    assert list(dict.fromkeys((c["history_a"], c["history_b"]) for c in rep.conflicts)) == pairs
    text = "\n".join(
        f"{c['history_a']} {c['history_b']} {c['t_a']} {c['t_b']} {c['action_index']} "
        f"{c['reward_gap'].hex()}"
        for c in rep.conflicts
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_evaluate_tree_bits_pinned():
    rng = make_rng(5)
    cases = [
        (preset("noisy_adder", (0.1,)), MessageSpace(3, 3), "0x1.a5209b15a30e8p-2"),
        (random_channel(make_rng(6), 2, 2, 3), MessageSpace(2, 2), "0x1.c59b18ba846d1p-5"),
        (preset("adder"), MessageSpace(2, 3), "0x1.22e2c2d5b48cbp-1"),
    ]
    for ch, space, expected in cases:
        prior = JointBelief(random_prior(rng, space.m1, space.m2))
        tree = random_tree(rng, space, ch.alphabets, 3)
        assert evaluate_tree(ch, space, tree, LambdaWeights(0.3, 0.3, 0.4), prior).hex() == expected



def test_walk_updates_the_chosen_action_only_and_rewards_come_in_one_pass(monkeypatch):
    from macfb.kernel import ActionKernel

    ch, space = preset("noisy_adder", (0.1,)), MessageSpace(2, 2)
    res = solve_horizon(ch, space, L_ALL, 3)
    value = evaluate_tree(ch, space, res.policy, L_ALL)
    report = reachability_diagnostic(ch, space, L_ALL, 3)
    weighted, calls = ActionKernel.weighted, []

    def all_actions(*args):
        raise AssertionError("the walk built every action's update")

    def counted(self, *args):
        calls.append(len(args[1]))
        return weighted(self, *args)

    kernel = dp.policy_kernel(ch, res.policy)
    monkeypatch.setattr(ActionKernel, "joint", all_actions)
    monkeypatch.setattr(ActionKernel, "refined", all_actions)
    start = dp._start(space, None)
    assert len(list(dp.walk_policy(kernel, res.policy, *start))) == 1 + 3 + 9 + 27
    monkeypatch.undo()

    monkeypatch.setattr(ActionKernel, "weighted", counted)
    assert evaluate_tree(ch, space, res.policy, L_ALL) == value
    assert calls == [1 + 3 + 9]
    monkeypatch.setattr(dp, "solve_horizon", lambda *args, **kwargs: res)
    calls.clear()
    assert reachability_diagnostic(ch, space, L_ALL, 3) == report
    assert len(calls) <= 1
