"""The level-synchronous finite-horizon programs against the memoised
recursions they replaced: values, policies, decoders and counters must be
exactly equal, not merely close. The horizon recursion carries the float
private tables the engine carried before it carried int labels, and reads
their classes through ``row_classes``, so it shares no label code with the
engine; neither recursion uses the engine's walker, their policies are
completed here, not by engine code, and the reference decoder walks the
validated belief objects."""

import itertools

import numpy as np
import pytest

from conftest import make_rng, random_channel, random_prior
from macfb import dp
from macfb.belief import MASS_EPS, JointBelief, initial_state, predictive_distribution, update_joint
from macfb.channel import MessageSpace, preset
from macfb.dp import (
    QUANT,
    TIE_TOL,
    Program,
    _backward_induction,
    evaluate_tree,
    solve_dsaht,
    solve_horizon,
)
from macfb.encoding import DEFAULT_ACTION_CAP, PRUNE_TOL, PolicyTree, enumerate_actions
from macfb.errors import LevelTooWide, SolverError
from macfb.kernel import ActionKernel, row_classes
from macfb.reward import LambdaWeights

# ---------------------------------------------------------------------------
# reference: the memoised recursions as they stood before the level engine,
# verbatim apart from the function headers, the returned tuples, the
# counters in cost(), which counts like value(), the float private tables'
# refinement and classes (now outside the kernel), the policy walk and
# its completion, and the kernel's posteriors, whose message axes the
# kernel puts first and these recursions last


def _quantized(arr: np.ndarray) -> bytes:
    return np.rint(arr / QUANT).astype(np.int64).tobytes()


def _state_key(t: int, pi: np.ndarray, rows1: np.ndarray, rows2: np.ndarray) -> tuple:
    return (t, _quantized(pi), _quantized(rows1), _quantized(rows2))


def _first_within(totals: np.ndarray, best: float) -> int:
    """Index of the first total within TIE_TOL of ``best``."""
    return int(np.flatnonzero(np.abs(totals - best) <= TIE_TOL)[0])


def _add_continuation(totals: np.ndarray, p: np.ndarray, cont: np.ndarray) -> np.ndarray:
    """totals + sum_y p[:, y] cont[:, y] over outputs with mass, added one
    output at a time in y order."""
    for y in range(p.shape[1]):
        totals = totals + np.where(p[:, y] > MASS_EPS, p[:, y] * cont[:, y], 0.0)
    return totals


def _distinct(kernel, totals, p, post, ref1, ref2, tol: float) -> list:
    """Indices, ascending, of the first action of each class whose rows
    agree after rounding to multiples of ``tol``. A row is the weighted
    reward, the predictive distribution, the posteriors on outputs with
    mass and both refined private tables (as returned by ``refined``)."""
    n_actions = len(kernel)
    masked = np.where((p > MASS_EPS)[:, :, None, None], post, 0.0)
    rows = np.concatenate(
        [
            totals[:, None],
            p,
            masked.reshape(n_actions, -1),
            ref1[kernel.enc1_of].reshape(n_actions, -1),
            ref2[kernel.enc2_of].reshape(n_actions, -1),
        ],
        axis=1,
    )
    keys = np.rint(rows / tol) + 0.0  # + 0.0 folds -0.0 into 0.0
    first = {}
    for a, key in enumerate(keys):
        first.setdefault(key.tobytes(), a)
    return list(first.values())


def _partition_masks(encoders: np.ndarray) -> np.ndarray:
    """same[k, m, m'] = 1 when encoder k sends m and m' to the same symbol."""
    return (encoders[:, None, :] == encoders[:, :, None]).astype(float)


def _refine(rows: np.ndarray, same: np.ndarray) -> np.ndarray:
    masked = rows[..., None, :, :] * same
    return masked / masked.sum(axis=-1, keepdims=True)


def _complete(depth, n_y, reached, default):
    """The tree of the nodes ``reached``, with ``default`` at every history
    they leave out; unreached histories never execute."""
    histories = (hist for t in range(depth) for hist in itertools.product(range(n_y), repeat=t))
    return PolicyTree(depth, n_y, {hist: reached.get(hist, default) for hist in histories})


def _policy(kernel, depth, pi, tables, choose, refine=None):
    """The tree of the actions ``choose(t, pi, tables)`` takes at every
    node reachable from (pi, tables), following outputs with predictive
    mass above MASS_EPS; ``refine(tables, a)`` gives a child's private
    tables (unused when ``tables`` is None)."""
    n_y = kernel.lik.shape[-1]
    nodes, stack = {}, [(1, (), pi, tables)]
    while stack:
        t, hist, pi, tables = stack.pop()
        a = choose(t, pi, tables)
        nodes[hist] = kernel.actions[a]
        if t < depth:
            joint, p = kernel.joint(pi)
            post = np.moveaxis(kernel.posteriors(joint, p), (0, 1), (-2, -1))
            child = None if tables is None else refine(tables, a)
            stack.extend((t + 1, hist + (y,), post[a, y], child) for y in range(n_y) if p[a, y] > MASS_EPS)
    return _complete(depth, n_y, nodes, kernel.actions[0])


def recursive_horizon(channel, space, weights, n, prior=None, prune=False):
    start = initial_state(space, None if prior is None else prior.table)
    actions = enumerate_actions(space, channel.alphabets)
    kernel = ActionKernel(channel, actions)
    enc1_of, enc2_of = kernel.enc1_of, kernel.enc2_of
    same1, same2 = _partition_masks(kernel._enc1), _partition_masks(kernel._enc2)
    n_y = channel.n_outputs
    memo = {}
    stats = {"expanded": 0, "hits": 0}

    def value(t, pi, rows1, rows2, key) -> float:
        hit = memo.get(key)
        if hit is not None:
            stats["hits"] += 1
            return hit[0]
        stats["expanded"] += 1
        joint, p = kernel.joint(pi)
        totals = kernel.weighted(weights, pi, row_classes(rows1), row_classes(rows2), p)
        candidates = np.arange(len(actions))
        if t < n:
            post = np.moveaxis(kernel.posteriors(joint, p), (0, 1), (-2, -1))
            ref1, ref2 = _refine(rows1, same1), _refine(rows2, same2)
            if prune:
                candidates = np.asarray(_distinct(kernel, totals, p, post, ref1, ref2, PRUNE_TOL))
            qpost = np.rint(post / QUANT).astype(np.int64)
            q1 = [_quantized(r) for r in ref1]
            q2 = [_quantized(r) for r in ref2]
            cont = np.zeros_like(p)
            for a in candidates:
                r1, r2 = enc1_of[a], enc2_of[a]
                for y in range(n_y):
                    if p[a, y] > MASS_EPS:
                        cont[a, y] = value(
                            t + 1, post[a, y], ref1[r1], ref2[r2],
                            (t + 1, qpost[a, y].tobytes(), q1[r1], q2[r2]),
                        )
            totals = _add_continuation(totals, p, cont)
        totals = totals[candidates]
        best = float(totals.max())
        memo[key] = (best, int(candidates[_first_within(totals, best)]))
        return best

    pi0, rows1, rows2 = start.pi.table, start.beta1.rows, start.beta2.rows
    total = value(1, pi0, rows1, rows2, _state_key(1, pi0, rows1, rows2))

    def choose(t, pi, tables):
        return memo[_state_key(t, pi, *tables)][1]

    def refine(tables, a):
        return _refine(tables[0], same1)[enc1_of[a]], _refine(tables[1], same2)[enc2_of[a]]

    policy = _policy(kernel, n, pi0, (rows1, rows2), choose, refine)
    return total, policy, stats["expanded"], stats["hits"]


def reference_decoder(channel, policy, prior):
    """Best-guess message pair at every terminal history the policy
    reaches, through the validated beliefs: ``update_joint`` along the
    policy, outputs at or below MASS_EPS skipped, ``argmax_pair`` at the
    end."""
    decoder, stack = {}, [((), prior)]
    while stack:
        hist, pi = stack.pop()
        if len(hist) == policy.depth:
            decoder[hist] = pi.argmax_pair()
            continue
        action = policy.action_at(hist)
        p = predictive_distribution(pi, action, channel)
        stack.extend((hist + (y,), update_joint(pi, action, y, channel))
                     for y in range(len(p)) if p[y] > MASS_EPS)
    return decoder


def recursive_dsaht(channel, space, horizon, prior=None):
    if prior is None:
        prior = initial_state(space).pi
    actions = enumerate_actions(space, channel.alphabets)
    kernel = ActionKernel(channel, actions)
    n_y = channel.n_outputs
    memo = {}
    stats = {"expanded": 0, "hits": 0}

    def cost(t: int, pi: np.ndarray) -> float:
        key = (t, _quantized(pi))
        hit = memo.get(key)
        if hit is not None:
            stats["hits"] += 1
            return hit[0]
        stats["expanded"] += 1
        joint, p = kernel.joint(pi)
        post = np.moveaxis(kernel.posteriors(joint, p), (0, 1), (-2, -1))
        if t == horizon:
            cont = 1.0 - post.reshape(p.shape + (-1,)).max(axis=2)
        else:
            cont = np.zeros_like(p)
            for a in range(len(actions)):
                for y in range(n_y):
                    if p[a, y] > MASS_EPS:
                        cont[a, y] = cost(t + 1, post[a, y])
        expected = _add_continuation(np.zeros(len(actions)), p, cont)
        best = float(expected.min())
        memo[key] = (best, _first_within(expected, best))
        return best

    error = cost(1, prior.table)

    def choose(t, pi, tables):
        return memo[(t, _quantized(pi))][1]

    policy = _policy(kernel, horizon, prior.table, None, choose)
    return error, policy, stats["expanded"], stats["hits"]


# ---------------------------------------------------------------------------

W_ALL = LambdaWeights(1.0, 1.0, 1.0)
W_MIX = LambdaWeights(0.3, 0.3, 0.4)

CHANNELS = {
    "adder": preset("adder"),
    "multiplier": preset("multiplier"),
    "noisy_adder": preset("noisy_adder", (0.1,)),
}


def _priors(space, seed):
    """Uniform, a product and a non-product prior on ``space``."""
    rng = make_rng(seed)
    product = np.outer(rng.dirichlet(np.ones(space.m1)), rng.dirichlet(np.ones(space.m2)))
    return {
        "uniform": None,
        "product": product / product.sum(),
        "joint": random_prior(rng, space.m1, space.m2),
    }


def _horizon_cases():
    for name in CHANNELS:
        for m1, m2 in ((2, 2), (2, 3), (3, 3)):
            for n in (1, 2, 3) if (m1, m2) != (3, 3) else (1, 2):
                yield name, m1, m2, n, W_ALL, "uniform", False
    for name in CHANNELS:
        yield name, 2, 2, 3, W_MIX, "joint", True
        yield name, 2, 3, 2, W_MIX, "product", True
        yield name, 3, 3, 2, W_ALL, "joint", False
    yield "noisy_adder", 2, 3, 3, W_MIX, "product", False
    yield "noisy_adder", 3, 3, 2, W_MIX, "uniform", True


@pytest.mark.parametrize("name,m1,m2,n,weights,prior,prune", list(_horizon_cases()))
def test_horizon_equals_recursion(name, m1, m2, n, weights, prior, prune):
    ch, space = CHANNELS[name], MessageSpace(m1, m2)
    table = _priors(space, 7 * m1 + m2)[prior]
    pri = None if table is None else JointBelief(table)
    total, policy, expanded, hits = recursive_horizon(ch, space, weights, n, pri, prune)
    res = solve_horizon(ch, space, weights, n, pri, prune=prune)
    assert res.total_value == total
    assert res.value_per_step == total / n
    assert res.policy == policy
    assert (res.states_expanded, res.cache_hits) == (expanded, hits)


def test_horizon_equals_recursion_sparse_channel():
    # outputs with zero predictive mass leave holes in the successor table
    rng = make_rng(61)
    space = MessageSpace(2, 3)
    for _ in range(3):
        ch = random_channel(rng, 2, 2, 3, sparse=True)
        pri = JointBelief(random_prior(rng, 2, 3))
        total, policy, expanded, hits = recursive_horizon(ch, space, W_MIX, 3, pri)
        res = solve_horizon(ch, space, W_MIX, 3, pri)
        assert (res.total_value, res.policy) == (total, policy)
        assert (res.states_expanded, res.cache_hits) == (expanded, hits)


def test_horizon_prune_equals_recursion_sparse_channel():
    # pruning leaves some branches without a kept pair: the recursion skips
    # them, the engine builds them, and each reaches a state that a kept
    # pair reaches first, so both build the same states in the same order
    rng = make_rng(62)
    space = MessageSpace(2, 3)
    for _ in range(3):
        ch = random_channel(rng, 2, 2, 3, sparse=True)
        pri = JointBelief(random_prior(rng, 2, 3))
        total, policy, expanded, hits = recursive_horizon(ch, space, W_MIX, 3, pri, prune=True)
        res = solve_horizon(ch, space, W_MIX, 3, pri, prune=True)
        assert (res.total_value, res.policy) == (total, policy)
        assert (res.states_expanded, res.cache_hits) == (expanded, hits)


def test_dsaht_equals_recursion_sparse_channel():
    # zero-mass branches leave holes in the successor table
    rng = make_rng(63)
    for m1, m2 in ((2, 2), (2, 3)):
        space = MessageSpace(m1, m2)
        for _ in range(3):
            ch = random_channel(rng, 2, 2, 3, sparse=True)
            pri = JointBelief(random_prior(rng, m1, m2))
            error, policy, expanded, hits = recursive_dsaht(ch, space, 3, pri)
            res = solve_dsaht(ch, space, 3, pri)
            assert (res.error_probability, res.policy) == (error, policy)
            assert res.decoder == reference_decoder(ch, policy, pri)
            assert (res.states_expanded, res.cache_hits) == (expanded, hits)


@pytest.mark.parametrize("prune", [False, True])
def test_first_candidate_pair_represents_a_state(prune):
    # every branch leads to one state, with bits that name the branch; the
    # representative comes from the first live (action, output) pair whatever
    # the totals, so it is branch 0, which only action 0 reaches first, even
    # when prune rules action 0 out with a total of -inf
    ch = preset("adder")
    kernel = ActionKernel(ch, enumerate_actions(MessageSpace(2, 2), ch.alphabets))
    n_actions, n_outputs = kernel.branch_of.shape
    n_branches = len(kernel.branch_pair)
    totals = np.zeros((n_actions, 1))
    totals[0, 0] = -np.inf if prune else 0.0

    depth = 2

    def expand(x):
        tags = 0.5 + 1e-13 * np.arange(n_branches)[None]
        # one state: the flat index of (branch b, state 0) is b
        return np.ones((n_branches, 1)), lambda b: (tags[:, b],)

    def totals_at(togo, x):
        # the root's totals at level 1, the state itself at level 2
        return np.where(togo == depth - 1, totals, np.repeat(x, n_actions, axis=0))

    value, policy, expanded, hits = _backward_induction(
        Program(kernel, (np.zeros((1, 1)),), expand, totals_at), depth, 10**6
    )
    assert kernel.branch_of[0, 0] == 0 and kernel.branch_of[1, 0] != 0
    tag = 0.5
    assert value == ((0.0 + tag) + tag) + tag
    assert policy.action_at(()) == kernel.actions[1 if prune else 0]
    # cache hits count the successors of actions with a finite total only
    kept = int(np.isfinite(totals).sum())
    assert (expanded, hits) == (2, kept * n_outputs - 1)


def test_engine_maximises_the_totals_it_is_given():
    # a synthetic program on adder 2x2's branches, depth 3: a successor adds
    # its branch's tag to the state, and the tags of the branches in one
    # residue class mod 3 fall in one quantisation cell, so a state's
    # representative carries the bits of the first branch that reaches it;
    # a branch is dead (mass 0) where branch + 100 x state is 3 mod 4, and
    # the last level's value of a state is 100 x state, rounded
    ch = preset("adder")
    kernel = ActionKernel(ch, enumerate_actions(MessageSpace(2, 2), ch.alphabets))
    branch_of = kernel.branch_of
    n_actions, n_branches = len(branch_of), len(kernel.branch_pair)
    cls = np.arange(n_branches) % 3
    tags = 0.01 * cls + 1e-13 * np.arange(n_branches)
    depth = 3

    def live(r):
        return (np.arange(n_branches) + r) % 4 != 3

    def run(rule):
        seen, rated = [], []

        def expand(x):
            seen.append(x.tobytes())
            r = np.rint(x[0] * 100).astype(int)
            p = np.stack([live(ri) for ri in r], axis=-1).astype(float)

            def gather(i):
                b, s = np.divmod(i, x.shape[-1])
                return (x[:, s] + tags[b],)

            return p, gather

        def totals(togo, x):
            t = depth - togo
            rated.append((t, x))
            r = np.rint(x[0] * 100).astype(int)
            out = np.empty((n_actions, x.shape[-1]))
            for level in np.unique(t):
                rows = t == level
                out[:, rows] = (np.repeat(r[rows][None].astype(float), n_actions, axis=0) if level == 3
                                else np.where(rule(level, r[rows]), -np.inf, 0.0).T)
            return out

        result = _backward_induction(Program(kernel, (np.zeros((1, 1)),), expand, totals), depth, 10**6)
        t, x = (np.concatenate(parts, axis=-1) for parts in zip(*rated))
        return result, seen, (t.tobytes(), x.tobytes())

    def totals_at(t, r, rule):
        # the program without dedupe, on a state's residue sum r: every
        # total is a whole number, so the sums are exact in any order
        if t == 3:
            return np.full(n_actions, float(r))
        totals = np.array([
            sum(totals_at(t + 1, r + cls[b], rule).max() for b in branch_of[a] if live(r)[b])
            for a in range(n_actions)
        ])
        totals[rule(t, np.array([r]))[0]] = -np.inf
        return totals

    def no_rule(t, r):
        return np.zeros((len(r), n_actions), dtype=bool)

    # rule out action 0 and every action with the best root total
    free = totals_at(1, 0, no_rule)
    top = (free == free.max()) | (np.arange(n_actions) == 0)
    assert not top.all()

    def root_rule(t, r):
        return np.broadcast_to(top & (t == 1), (len(r), n_actions))

    def mixed_rule(t, r):
        # action 0 everywhere, and at each state the actions a with a + r = 0 mod 3
        return ((np.arange(n_actions) + r[:, None]) % 3 == 0) | (np.arange(n_actions) == 0)

    # the levels by an independent dedupe, in (state, branch) order
    levels = [[np.zeros(1)]]
    for _ in range(2):
        first = {}
        for x in levels[-1]:
            for b in np.flatnonzero(live(int(np.rint(x[0] * 100)))):
                first.setdefault(np.rint((x + tags[b]) / QUANT).astype(np.int64).tobytes(), x + tags[b])
        levels.append(list(first.values()))
    # expand sees levels 1 and 2, in that order
    expected_seen = [np.stack(level).tobytes() for level in levels[:2]]
    # the reward pass rates every level's states once, in level order
    expected_rated = (np.repeat(np.arange(1, 4), [len(level) for level in levels]).tobytes(),
                      np.concatenate([np.stack(level) for level in levels]).tobytes())

    for rule in (no_rule, root_rule, mixed_rule):
        (total, policy, expanded, hits), seen, rated = run(rule)
        # the same levels, states, representatives and numbering, whatever is ruled out
        assert seen == expected_seen
        assert rated == expected_rated
        assert expanded == sum(len(level) for level in levels)
        # cache hits count the live pairs of actions with a finite total only
        pairs = 0
        for t, level in enumerate(levels[:2]):
            for x in level:
                r = int(np.rint(x[0] * 100))
                kept = ~rule(t + 1, np.array([r]))[0]
                pairs += int(live(r)[branch_of[kept]].sum())
        assert hits == pairs - len(levels[1]) - len(levels[2])
        # the first best action is chosen, never a ruled-out one
        root = totals_at(1, 0, rule)
        a = int(np.argmax(root))
        assert total == root[a]
        assert policy.action_at(()) == kernel.actions[a]
        assert not rule(1, np.zeros(1, dtype=int))[0, a]
    # the ruled-out actions had the best continuation
    assert totals_at(1, 0, root_rule).max() < free.max()


def test_forward_pass_is_free_of_the_weights(monkeypatch):
    # the weights and prune enter the reward pass only: every run hands
    # expand the same states, level by level, bit for bit
    def spied(program, depth, node_cap):
        def recorded(*arrays):
            seen.append((arrays[0].shape[-1],) + tuple(x.tobytes() for x in arrays))
            return program.expand(*arrays)

        return engine(program._replace(expand=recorded), depth, node_cap)

    engine = dp._backward_induction
    monkeypatch.setattr(dp, "_backward_induction", spied)
    rng = make_rng(64)
    space = MessageSpace(2, 3)
    for ch in (CHANNELS["noisy_adder"], random_channel(rng, 2, 2, 3, sparse=True)):
        pri = JointBelief(random_prior(rng, 2, 3))
        runs = []
        for weights in (W_ALL, W_MIX):
            for prune in (False, True):
                seen = []
                solve_horizon(ch, space, weights, 3, pri, prune=prune)
                runs.append(seen)
        # one expand call per level but the last
        assert len(runs[0]) == 2
        assert all(run == runs[0] for run in runs)
        # nor the horizon: an n-step solve hands expand the leading arrays
        # of an (n + 1)-step solve, in both programs
        for solve in (lambda n: solve_horizon(ch, space, W_MIX, n, pri),
                      lambda n: solve_dsaht(ch, space, n, pri)):
            runs, results = [], []
            for n in (3, 4):
                seen = []
                results.append(solve(n))
                runs.append(seen)
            assert runs[1][: len(runs[0])] == runs[0]
            # and the rest are the states of the 3-step solve's last level
            inner = sum(states for states, *_ in runs[0])
            assert sum(states for states, *_ in runs[1][len(runs[0]) :]) == results[0].states_expanded - inner


@pytest.mark.parametrize("name", list(CHANNELS) + ["random_sparse"])
def test_one_program_solves_every_depth(name):
    # a program knows no horizon: each is built once and solves depths 1-4
    # with the bits of a fresh solve at each depth, counters included
    rng = make_rng(32)
    ch = CHANNELS[name] if name in CHANNELS else random_channel(rng, 2, 2, 3, sparse=True)
    space, pri = MessageSpace(2, 2), JointBelief(random_prior(rng, 2, 2))
    horizon = {prune: dp._horizon_program(ch, space, W_MIX, pri, prune, DEFAULT_ACTION_CAP)
               for prune in (False, True)}
    dsaht = dp._dsaht_program(ch, space, pri.table, DEFAULT_ACTION_CAP)
    for depth in (1, 2, 3, 4):
        for prune, program in horizon.items():
            value, *rest = _backward_induction(program, depth, dp.DEFAULT_NODE_CAP)
            res = solve_horizon(ch, space, W_MIX, depth, pri, prune=prune)
            assert value.hex() == res.total_value.hex()
            assert rest == [res.policy, res.states_expanded, res.cache_hits]
        value, *rest = _backward_induction(dsaht, depth, dp.DEFAULT_NODE_CAP)
        res = solve_dsaht(ch, space, depth, pri)
        assert (0.0 - value).hex() == res.error_probability.hex()
        assert rest == [res.policy, res.states_expanded, res.cache_hits]


def test_horizon_counters_noisy_adder_3x3_n3():
    ch, space = CHANNELS["noisy_adder"], MessageSpace(3, 3)
    total, policy, expanded, hits = recursive_horizon(ch, space, W_MIX, 3)
    res = solve_horizon(ch, space, W_MIX, 3)
    assert (res.states_expanded, res.cache_hits) == (expanded, hits) == (2156, 12053)
    assert (res.total_value, res.policy) == (total, policy)


@pytest.mark.parametrize("name", list(CHANNELS))
@pytest.mark.parametrize("m1,m2", [(2, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("prior", ["uniform", "product", "joint"])
def test_dsaht_equals_recursion(name, m1, m2, prior):
    ch, space = CHANNELS[name], MessageSpace(m1, m2)
    table = _priors(space, 5 * m1 + m2)[prior]
    pri = None if table is None else JointBelief(table)
    for horizon in (1, 2, 3) if (m1, m2) != (3, 3) else (1, 2):
        error, policy, expanded, hits = recursive_dsaht(ch, space, horizon, pri)
        res = solve_dsaht(ch, space, horizon, pri)
        assert res.error_probability == error
        assert res.policy == policy
        assert res.decoder == reference_decoder(ch, policy, pri or initial_state(space).pi)
        assert (res.states_expanded, res.cache_hits) == (expanded, hits)


def test_sparse_deep_trees_walk_to_their_values():
    # adder 2x2 at n = T = 13: policy trees of 797,161 nodes, of which the
    # walk reaches a few per level
    ch, space, weights = preset("adder"), MessageSpace(2, 2), LambdaWeights(0.0, 0.0, 1.0)
    res = solve_horizon(ch, space, weights, 13)
    assert evaluate_tree(ch, space, res.policy, weights) == pytest.approx(res.value_per_step, abs=1e-9)
    res = solve_dsaht(ch, space, 13)
    assert res.decoder == reference_decoder(ch, res.policy, initial_state(space).pi)


def test_dsaht_counters_pinned():
    res = solve_dsaht(preset("adder"), MessageSpace(2, 2), 2)
    assert (res.states_expanded, res.cache_hits) == (12, 21)
    res = solve_dsaht(preset("adder"), MessageSpace(2, 2), 0)
    assert (res.states_expanded, res.cache_hits) == (0, 0)


def test_level_guard_names_level_and_count():
    # noisy_adder(0.1) 3x3, uniform prior: level 4 holds 29,130 states, so
    # its successors would be 29,130 x 64 actions x 3 outputs
    ch, space = CHANNELS["noisy_adder"], MessageSpace(3, 3)
    with pytest.raises(LevelTooWide) as info:
        solve_horizon(ch, space, W_MIX, 5)
    assert isinstance(info.value, SolverError)
    assert (info.value.level, info.value.count) == (4, 29130 * 64 * 3)
    assert "level 4" in str(info.value) and str(29130 * 64 * 3) in str(info.value)
    # level 2 holds 73 augmented states, or 67 common beliefs
    with pytest.raises(LevelTooWide) as info:
        solve_horizon(ch, space, W_MIX, 3, node_cap=10_000)
    assert (info.value.level, info.value.count) == (2, 73 * 64 * 3)
    with pytest.raises(LevelTooWide) as info:
        solve_dsaht(ch, space, 3, node_cap=10_000)
    assert (info.value.level, info.value.count) == (2, 67 * 64 * 3)
