import gc
import hashlib
import math
import time
import weakref

import numpy as np
import pytest

from conftest import make_rng, random_channel, random_prior, random_tree
from macfb import dp, region
from macfb.belief import JointBelief, initial_state, uniform_initial
from macfb.channel import Alphabets, MessageSpace, preset, validate_channel
from macfb.dp import (
    evaluate_tree,
    reachability_diagnostic,
    solve_dsaht,
    solve_horizon,
    solve_stationary,
)
from macfb.encoding import (
    EncoderAction,
    EncoderFunction,
    PolicyTree,
    enumerate_actions,
    policy_to_csv,
)
from macfb.errors import ActionSpaceTooLarge, GridTooLarge, HorizonTooDeep
from macfb.kernel import ActionKernel
from macfb.oracle import evaluate_policy_In, exhaustive_Cn, exhaustive_min_error
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


def test_deep_horizons_are_refused_before_anything_is_built():
    # a depth-100,000 tree over 3 outputs has about 10^47712 nodes; the
    # guard stops counting past the cap
    ch, space = preset("adder"), MessageSpace(2, 2)
    for solve in (lambda n: solve_horizon(ch, space, L3, n), lambda n: solve_dsaht(ch, space, n)):
        start = time.perf_counter()
        with pytest.raises(HorizonTooDeep, match="2391484 or more policy tree nodes") as info:
            solve(100_000)
        assert time.perf_counter() - start < 1.0
        assert info.value.cap == dp.DEFAULT_NODE_CAP
        # 13 steps make 797,161 nodes, under the cap; 14 make 2,391,484
        with pytest.raises(HorizonTooDeep, match="2391484 or more policy tree nodes"):
            solve(14)


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


def test_evaluate_tree_rejects_a_tree_that_does_not_fit():
    # adder has 3 outputs and binary inputs; each tree below used to end
    # in a bare KeyError, a matmul ValueError or an IndexError
    ch, space = preset("adder"), MessageSpace(2, 2)
    rng = make_rng(47)
    cases = [
        (random_tree(rng, space, Alphabets(2, 2, 2), 2), "2 outputs"),
        (solve_horizon(ch, MessageSpace(1, 1), L3, 2).policy, "maps 1 messages"),
        (random_tree(rng, space, Alphabets(2, 3, 3), 2), "sender 2's encoder .* to 3 symbols"),
    ]
    # the first node that does not fit is named, though a later node fails
    # on sender 1, whose encoder is checked first
    fits, wide1, wide2 = (EncoderAction(EncoderFunction((0, 1), x1), EncoderFunction((0, 1), x2))
                          for x1, x2 in ((2, 2), (3, 2), (2, 3)))
    tree = PolicyTree(2, 3, {(): fits, (0,): fits, (1,): wide2, (2,): wide1})
    cases.append((tree, r"sender 2's encoder at history \(1,\)"))
    for tree, message in cases:
        with pytest.raises(ValueError, match=message):
            evaluate_tree(ch, space, tree, L3)


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


def test_prune_builds_the_states_it_builds_without():
    # prune only rules actions out of the choice; the forward pass builds
    # every live branch, so the levels are those of the unpruned program
    from test_acceptance import _instances

    for label, ch, space, n, weights, prior in _instances():
        pi0 = None if prior is None else JointBelief(np.asarray(prior, dtype=float))
        plain = solve_horizon(ch, space, weights, n, prior=pi0)
        pruned = solve_horizon(ch, space, weights, n, prior=pi0, prune=True)
        assert pruned.states_expanded == plain.states_expanded, label
        assert pruned.cache_hits <= plain.cache_hits, label


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
        with pytest.raises(ValueError, match="max_iters"):
            solve_stationary(ch, space, L3, resolution=4, max_iters=0, renewal=renewal)
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
    # many lookups in the level index's sorted runs, and the reward pass
    # rates one state per batch; at 1 << 22 every level of a solve goes
    # through one reward batch. The results must not move
    ch = preset("noisy_adder", (0.1,))
    space = MessageSpace(2, 3)
    weights = LambdaWeights(0.3, 0.3, 0.4)
    batches = []

    def counted(levels, step):
        for lo, batch in engine_batches(levels, step):
            batches.append(batch[0].shape[-1])
            yield lo, batch

    engine_batches = dp._batches
    monkeypatch.setattr(dp, "_batches", counted)

    def solves(chunk):
        monkeypatch.setattr(dp, "CHUNK_ENTRIES", chunk)
        batches.clear()
        out = []
        for prune in (False, True):
            res = solve_horizon(ch, space, weights, 3, prune=prune)
            out.append((res.total_value.hex(), res.policy, res.states_expanded, res.cache_hits))
        res = solve_dsaht(ch, space, 3)
        out.append((res.error_probability.hex(), res.policy, res.states_expanded, res.cache_hits))
        return out, list(batches)

    default, default_batches = solves(dp.CHUNK_ENTRIES)
    small, small_batches = solves(1)
    whole, whole_batches = solves(1 << 22)
    assert small == default == whole
    expanded = [solve[2] for solve in default]
    assert min(expanded) > 50
    assert small_batches == [1] * sum(expanded)
    assert whole_batches == expanded


def test_every_program_batches_by_one_rule(monkeypatch):
    # both programs rate CHUNK_ENTRIES // max(branch_lik.size, noise.size)
    # states per reward batch, 1024 at noisy_adder 2x2; the levels of these
    # solves hold more states than that together, so every batch but the
    # last is full
    ch = preset("noisy_adder", (0.1,))
    space = MessageSpace(2, 2)
    kernel = ActionKernel(ch, enumerate_actions(space, ch.alphabets))
    step = dp.CHUNK_ENTRIES // max(kernel.branch_lik.size, kernel.noise.size)
    assert step == 1024
    batches = []

    def counted(levels, step):
        for lo, batch in engine_batches(levels, step):
            batches.append(batch[0].shape[-1])
            yield lo, batch

    engine_batches = dp._batches
    monkeypatch.setattr(dp, "_batches", counted)
    for solve in (lambda: solve_dsaht(ch, space, 7),
                  lambda: solve_horizon(ch, space, LambdaWeights(0.3, 0.3, 0.4), 6)):
        batches.clear()
        expanded = solve().states_expanded
        assert expanded > step and sum(batches) == expanded
        assert batches[:-1] == [step] * (len(batches) - 1) and 0 < batches[-1] <= step


def _numbered_by_bytes(rows: np.ndarray) -> tuple:
    """(first, inverse) of the rows in order of first appearance, numbered
    through a dict over each row's bytes."""
    number, first = {}, []
    inverse = [number.setdefault(row.tobytes(), len(number)) for row in rows]
    for i, j in enumerate(inverse):
        if j == len(first):
            first.append(i)
    return np.array(first, dtype=np.intp), np.array(inverse, dtype=np.intp)


def _random_rows(rng, floats: bool) -> np.ndarray:
    rows = rng.integers(-2, 3, size=(int(rng.integers(1, 400)), int(rng.integers(1, 6))))
    if not floats:
        return rows.astype(np.int64)
    rows = rows * 0.5
    # -0.0 and 0.0 differ in their bytes, so they must stay apart
    rows[rng.random(rows.shape) < 0.3] = -0.0
    return rows


def _level_numbers(rows: np.ndarray, cuts: np.ndarray, raw: bool) -> tuple:
    """The numbers and first occurrences ``_LevelIndex`` gives the rows fed
    in chunks split at ``cuts``, each chunk raw, with its repeats, or
    deduped first."""
    index, got, firsts = dp._LevelIndex(), [], []
    for lo, chunk in zip(np.concatenate([[0], cuts]), np.split(rows, cuts)):
        if raw:
            number, new = index.add(chunk.T)
            firsts.append(lo + new)
        else:
            first, inverse = _numbered_by_bytes(chunk)
            number, new = index.add(chunk[first].T)
            firsts.append(lo + first[new])
            number = number[inverse]
        got.append(number)
    number = np.concatenate(got)
    assert index.count == number.max() + 1
    return number, np.concatenate(firsts)


def test_level_index_numbers_rows_as_one_dedupe_of_the_level():
    # chunk by chunk, the index gives every row the number that one dedupe
    # of the level's rows in chunk order gives it, whether a chunk comes
    # deduped or raw, with its repeats
    rng = make_rng(99)
    for raw in (False, True):
        for _ in range(20):
            rows = _random_rows(rng, floats=False)[:, :3]
            cuts = np.sort(rng.integers(0, len(rows) + 1, size=int(rng.integers(0, 30))))
            number, first = _level_numbers(rows, cuts, raw)
            level_first, expected = _numbered_by_bytes(rows)
            np.testing.assert_array_equal(number, expected)
            np.testing.assert_array_equal(first, level_first)


def test_first_rows_numbers_rows_by_their_bytes():
    from macfb.kernel import first_rows

    rng = make_rng(98)
    for floats in (False, True):
        for _ in range(30):
            rows = _random_rows(rng, floats)
            for got, expected in zip(first_rows(rows.T), _numbered_by_bytes(rows)):
                np.testing.assert_array_equal(got, expected)
    first, inverse = first_rows(np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]).T)
    assert first.tolist() == [0, 1] and inverse.tolist() == [0, 1, 0]
    # rows of any byte width, not only whole 64-bit words
    first, inverse = first_rows(np.array([[1, 2, 3], [1, 2, 3], [1, 2, 4]], dtype=np.int8).T)
    assert first.tolist() == [0, 2] and inverse.tolist() == [0, 0, 1]


@pytest.mark.parametrize("collide", ["all", "some"])
def test_hash_collisions_never_change_a_number(monkeypatch, collide):
    # rows are numbered by a 64-bit hash of their words and then checked
    # word by word, so forcing hash collisions (every row in one group, or
    # mixed groups) must leave every number and every solve as it was
    from macfb import kernel

    rng = make_rng(97)
    cases = []
    for floats in (False, True):
        for raw in (False, True):
            for _ in range(5):
                rows = _random_rows(rng, floats)
                cuts = np.sort(rng.integers(0, len(rows) + 1, size=int(rng.integers(0, 12))))
                cases.append((rows, cuts, raw))
    ch = preset("noisy_adder", (0.1,))
    space, weights = MessageSpace(2, 3), LambdaWeights(0.3, 0.3, 0.4)
    prior = JointBelief(random_prior(make_rng(96), 2, 3))
    monkeypatch.setattr(dp, "CHUNK_ENTRIES", 1)

    def outputs():
        numbered = [kernel.first_rows(rows.T) for rows, _, _ in cases]
        levels = [_level_numbers(rows, cuts, raw) for rows, cuts, raw in cases]
        horizon = solve_horizon(ch, space, weights, 3, prior)
        pruned = solve_horizon(ch, space, weights, 2, prior, prune=True)
        dsaht = solve_dsaht(ch, space, 3, prior)
        solves = [(r.total_value, r.policy, r.states_expanded, r.cache_hits) for r in (horizon, pruned)]
        solves.append((dsaht.error_probability, dsaht.policy, dsaht.states_expanded, dsaht.cache_hits))
        return numbered, levels, solves

    numbered, levels, solves = outputs()
    if collide == "all":
        monkeypatch.setattr(kernel, "_hash", lambda words: np.zeros(words.shape[1], dtype=np.uint64))
    else:
        monkeypatch.setattr(kernel, "_hash", lambda words: words[0] % np.uint64(3))
    collided = outputs()
    for got, expected in zip(collided[0] + collided[1], numbered + levels):
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)
    assert collided[2] == solves


def test_noisy_adder_four_steps_pinned():
    # value bits and counters as the per-action joint and one-hot kernel gave them
    res = solve_horizon(preset("noisy_adder", (0.1,)), MessageSpace(3, 3), LambdaWeights(0.3, 0.3, 0.4), 4)
    assert res.value_per_step.hex() == "0x1.fb822824c4756p-2"
    assert (res.states_expanded, res.cache_hits) == (31286, 382667)


def test_uniform_start_table_is_the_initial_state_table():
    for m1, m2 in ((1, 1), (2, 2), (2, 3), (3, 3), (4, 3)):
        space = MessageSpace(m1, m2)
        assert dp._prior_table(space, None).tobytes() == initial_state(space).pi.table.tobytes()


def test_dsaht_deep_first_instance_pinned():
    # the dsaht-deep benchmark's first instance at seed 0 (noisy_adder 2x2,
    # T = 5, product prior), as the per-node policy walk gave it
    rng = np.random.default_rng(0)
    eps = float(rng.uniform(0.05, 0.2))
    prior = np.outer(rng.dirichlet([2.0, 2.0]), rng.dirichlet([2.0, 2.0]))
    res = solve_dsaht(preset("noisy_adder", (eps,)), MessageSpace(2, 2), 5, JointBelief(prior / prior.sum()))
    assert res.error_probability.hex() == "0x1.a6325192d909dp-6"
    assert (res.states_expanded, res.cache_hits) == (485, 8924)
    csv = policy_to_csv(res.policy)
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "ecaf7cffc0644e530bb000d9e282c0bee64b7253b68b891a280c07724c5a6399"
    )


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
# every entry that takes a prior, as a function of it
_PRIOR_ENTRIES = pytest.mark.parametrize(
    "call",
    [
        lambda prior: solve_dsaht(_ADDER, _SPACE, 0, prior=prior),
        lambda prior: solve_dsaht(_ADDER, _SPACE, 2, prior=prior),
        lambda prior: solve_stationary(_ADDER, _SPACE, L3, 2, prior=prior),
        lambda prior: solve_stationary(_ADDER, _SPACE, L3, 2, prior=prior, renewal="none"),
        lambda prior: solve_horizon(_ADDER, _SPACE, L3, 2, prior=prior),
        lambda prior: evaluate_tree(_ADDER, _SPACE, solve_horizon(_ADDER, _SPACE, L3, 1).policy, L3,
                                    prior=prior),
        lambda prior: reachability_diagnostic(_ADDER, _SPACE, L3, 1, prior=prior),
        lambda prior: region.sweep(_ADDER, _SPACE, 1, 3, prior=prior),
        lambda prior: region.sweep(_ADDER, _SPACE, 1, 3, solver="stationary", prior=prior),
    ],
    ids=["dsaht-T0", "dsaht-T2", "stationary-per-use", "stationary-none", "horizon",
         "evaluate-tree", "diagnostic", "region-horizon", "region-stationary"],
)


@_PRIOR_ENTRIES
def test_prior_of_another_shape_is_rejected(call):
    # a 3x3 prior on a 2x2 message space: at T = 0 DSAHT used to return
    # 0.8889, and elsewhere numpy failed to broadcast
    with pytest.raises(ValueError, match="^prior shape disagrees with the message space$"):
        call(_WRONG)


@_PRIOR_ENTRIES
def test_raw_table_prior_is_rejected(call):
    # a plain array of the right shape used to fail with AttributeError
    # on its missing m1
    with pytest.raises(TypeError, match="^prior must be a JointBelief, not ndarray$"):
        call(np.full((2, 2), 0.25))


@pytest.mark.parametrize(
    "call,name,good",
    [
        (lambda v: solve_horizon(_ADDER, _SPACE, L3, v), "n", 2),
        (lambda v: solve_dsaht(_ADDER, _SPACE, v), "horizon", 2),
        (lambda v: solve_stationary(_ADDER, _SPACE, L3, v, renewal="none"), "resolution", 2),
        (lambda v: solve_stationary(_ADDER, _SPACE, L3, 2, max_iters=v, renewal="none"), "max_iters", 1),
        (lambda v: region.sweep(_ADDER, _SPACE, v, 3), "n", 1),
        (lambda v: region.sweep(_ADDER, _SPACE, 1, v), "weight samples", 3),
        (lambda v: exhaustive_Cn(_ADDER, MessageSpace(1, 2), L3, v), "n", 1),
        (lambda v: exhaustive_min_error(_ADDER, MessageSpace(1, 2), v), "horizon", 1),
    ],
    ids=["horizon", "dsaht", "stationary-resolution", "stationary-max-iters", "region-n",
         "region-samples", "oracle-Cn", "oracle-min-error"],
)
def test_depths_and_counts_follow_the_size_rule(call, name, good):
    # as for MessageSpace and Alphabets: a numpy integer is an integer, a
    # bool or a float is not (True solved n = 1, 2.0 failed in range())
    assert call(np.int64(good)) == call(good)
    for bad in (True, np.True_, float(good)):
        with pytest.raises(ValueError, match=f"^{name} must be .*, got {bad!r}$"):
            call(bad)


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
        calls.append(args[1].shape[-1])
        return weighted(self, *args)

    trees = (res.policy, solve_horizon(ch, space, L_ALL, 1).policy)
    kernels = [dp.policy_kernel(ch, tree) for tree in trees]
    monkeypatch.setattr(ActionKernel, "joint", all_actions)
    monkeypatch.setattr(ActionKernel, "refined", all_actions)
    start = dp._start(space, None)
    levels = dp.walk_policy(kernels[0], res.policy, *start)
    assert sum(len(level.mass) for level in levels) == 1 + 3 + 9 + 27
    # the nodes before the last step come out of _walked in depth-first
    # order, which is tuple order: a history before its extensions,
    # siblings in output order; at depth 1 too, where it is the root alone
    for kernel, tree, nodes in zip(kernels, trees, (1 + 3 + 9, 1)):
        ts, hists, *_ = dp._walked(kernel, tree, start)
        walked = [tuple(hists[: t - 1, i].tolist()) for i, t in enumerate(ts)]
        assert len(set(walked)) == nodes
        assert walked == sorted(walked)
    monkeypatch.undo()

    monkeypatch.setattr(ActionKernel, "weighted", counted)
    assert evaluate_tree(ch, space, res.policy, L_ALL) == value
    assert calls == [1 + 3 + 9]
    monkeypatch.setattr(dp, "solve_horizon", lambda *args, **kwargs: res)
    calls.clear()
    assert reachability_diagnostic(ch, space, L_ALL, 3) == report
    assert len(calls) <= 1


def test_one_enumerated_kernel_per_channel_and_message_shape(monkeypatch):
    # every program, the diagnostic and both region sweeps on one channel
    # object share one kernel per message shape; a channel with an equal
    # table is another object and builds its own
    built = []

    class Recorded(ActionKernel):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(dp, "ActionKernel", Recorded)
    ch, space = preset("noisy_adder", (0.1,)), MessageSpace(2, 2)
    solve_horizon(ch, space, L_ALL, 2)
    solve_dsaht(ch, space, 2)
    for renewal in ("per_use", "none"):
        solve_stationary(ch, space, L_ALL, 3, renewal=renewal)
    reachability_diagnostic(ch, space, L_ALL, 2)
    region.sweep(ch, space, 1, 3)
    region.sweep(ch, space, 1, 3, solver="stationary")
    assert len(built) == 1
    solve_dsaht(ch, MessageSpace(3, 2), 1)
    assert len(built) == 2
    solve_dsaht(preset("noisy_adder", (0.1,)), space, 1)
    assert len(built) == 3


def test_shared_kernel_gives_the_bits_of_a_fresh_one():
    # DSAHT builds the shared kernel's branch map, the horizon program adds
    # its cell tables, and DSAHT runs again on a kernel both filled in: each
    # result has the bits of the same solve on a channel of its own
    space, weights = MessageSpace(3, 2), LambdaWeights(0.3, 0.3, 0.4)
    prior = JointBelief(random_prior(make_rng(131), 3, 2))
    shared = preset("noisy_adder", (0.1,))

    def bits(res):
        if isinstance(res, dp.DsahtResult):
            value, decoder = res.error_probability, res.decoder
        else:
            value, decoder = res.total_value, None
        return (value.hex(), res.policy.actions, res.policy.slots().tolist(), decoder,
                res.states_expanded, res.cache_hits)

    for solve in (lambda ch: solve_dsaht(ch, space, 3, prior),
                  lambda ch: solve_horizon(ch, space, weights, 3, prior, prune=True),
                  lambda ch: solve_dsaht(ch, space, 3, prior)):
        assert bits(solve(shared)) == bits(solve(preset("noisy_adder", (0.1,))))


def test_a_cached_kernel_keeps_the_action_cap():
    ch, space = preset("noisy_adder", (0.1,)), MessageSpace(2, 2)
    solve_horizon(ch, space, L_ALL, 1)
    for solve in (lambda: solve_horizon(ch, space, L_ALL, 1, action_cap=15),
                  lambda: solve_dsaht(ch, space, 1, action_cap=15),
                  lambda: solve_stationary(ch, space, L_ALL, 3, action_cap=15),
                  lambda: reachability_diagnostic(ch, space, L_ALL, 1, action_cap=15)):
        with pytest.raises(ActionSpaceTooLarge):
            solve()


def test_kernel_entry_goes_with_its_channel():
    ch, space = preset("noisy_adder", (0.1,)), MessageSpace(2, 2)
    solve_horizon(ch, space, L_ALL, 1)
    gc.collect()
    entries = len(dp._KERNELS)
    channel, kernel = weakref.ref(ch), weakref.ref(dp._KERNELS[ch][space])
    del ch
    gc.collect()
    assert channel() is None and kernel() is None
    assert len(dp._KERNELS) == entries - 1
