"""The batched ``renewal: none`` grid set-up against the per-successor
simplex interpolator it replaced: tables and solves must be exactly equal,
not merely close."""

import math
import time

import numpy as np
import pytest

from conftest import make_rng
from macfb.belief import MASS_EPS
from macfb.channel import MessageSpace, preset
from macfb.dp import _freudenthal, _grid_tables, solve_stationary
from macfb.encoding import enumerate_actions
from macfb.errors import GridTooLarge
from macfb.kernel import ActionKernel
from macfb.reward import LambdaWeights

# ---------------------------------------------------------------------------
# reference: the grid set-up and value iteration as they stood before the
# batched pass, verbatim apart from the function headers and the returned
# tuples


def _compositions(total: int, parts: int):
    """All length-``parts`` tuples of non-negative ints summing to ``total``,
    in lexicographic order."""
    if parts == 1:
        return [(total,)]
    out = []
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            out.append((head,) + tail)
    return out


def _nearest_composition(scaled: np.ndarray, d: int) -> tuple:
    base = np.floor(scaled).astype(int)
    base = np.clip(base, 0, d)
    rem = d - int(base.sum())
    frac = scaled - base
    if rem > 0:
        for j in np.argsort(-frac, kind="stable")[:rem]:
            base[j] += 1
    elif rem < 0:
        for j in np.argsort(frac, kind="stable")[: -rem]:
            base[j] -= 1
    return tuple(int(v) for v in base)


class _SimplexInterpolator:
    """Barycentric weights over the standard triangulation of the d-grid.

    Beliefs are mapped through cumulative coordinates; the cell containing a
    point is the simplex of the triangulation picked by sorting fractional
    parts, which keeps every returned vertex inside the simplex grid. Falls
    back to the nearest grid point if rounding ever produces an invalid
    vertex.
    """

    def __init__(self, d: int, parts: int, index_of: dict):
        self.d = d
        self.parts = parts
        self.index_of = index_of

    def weights(self, flat_belief: np.ndarray):
        d, parts = self.d, self.parts
        if parts == 1:
            return [self.index_of[(d,)]], [1.0]
        suffix = np.cumsum(flat_belief[::-1])[::-1]
        z = np.clip(d * suffix[1:], 0.0, float(d))
        z = np.minimum.accumulate(z)
        base = np.floor(z)
        frac = z - base
        order = np.argsort(-frac, kind="stable")
        fs = frac[order]
        verts = [base]
        for j in order:
            nxt = verts[-1].copy()
            nxt[j] += 1.0
            verts.append(nxt)
        idxs, ws = [], []
        for level, vert in enumerate(verts):
            if level == 0:
                w = 1.0 - fs[0]
            elif level < parts - 1:
                w = fs[level - 1] - fs[level]
            else:
                w = fs[-1]
            if w <= 1e-12:
                continue
            comp = self._to_composition(vert)
            idx = self.index_of.get(comp)
            if idx is None:
                comp = _nearest_composition(d * flat_belief, d)
                return [self.index_of[comp]], [1.0]
            idxs.append(idx)
            ws.append(float(w))
        if not idxs:
            comp = _nearest_composition(d * flat_belief, d)
            return [self.index_of[comp]], [1.0]
        return idxs, ws

    def _to_composition(self, vert: np.ndarray):
        d = self.d
        parts = self.parts
        comp = [d - vert[0]]
        for j in range(1, parts - 1):
            comp.append(vert[j - 1] - vert[j])
        comp.append(vert[-1])
        out = tuple(int(round(c)) for c in comp)
        if any(c < 0 for c in out) or sum(out) != d:
            return None
        return out


def reference_grid_tables(kernel, weights, space, resolution):
    actions = kernel.actions
    channel_n_outputs = kernel.lik.shape[-1]
    # fully refined private tables: every message a class of its own
    own1, own2 = np.arange(space.m1), np.arange(space.m2)
    parts = space.pairs
    comps = _compositions(resolution, parts)
    n_points = len(comps)
    index_of = {c: i for i, c in enumerate(comps)}
    interp = _SimplexInterpolator(resolution, parts, index_of)
    n_actions = len(actions)
    n_y = channel_n_outputs

    # rewards, and the successor structure as COO triples over the flattened
    # (state, action) axis
    rewards = np.empty((n_points, n_actions))
    rows, cols, vals = [], [], []
    for i, comp in enumerate(comps):
        pi = np.asarray(comp, dtype=float).reshape(space.m1, space.m2) / resolution
        joint, p = kernel.joint(pi)
        rewards[i] = kernel.weighted(weights, pi, own1, own2, p)
        post = np.moveaxis(kernel.posteriors(joint, p), (0, 1), (-2, -1))
        for a_i in range(n_actions):
            for y in range(n_y):
                if p[a_i, y] <= MASS_EPS:
                    continue
                idxs, ws = interp.weights(post[a_i, y].reshape(-1))
                for idx, w in zip(idxs, ws):
                    rows.append(i * n_actions + a_i)
                    cols.append(idx)
                    vals.append(float(p[a_i, y]) * w)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=float)

    uniform = np.full(parts, 1.0 / parts)
    ref_idx, ref_w = interp.weights(uniform)
    ref_idx = np.asarray(ref_idx, dtype=np.int64)
    ref_w = np.asarray(ref_w, dtype=float)
    return rewards, rows, cols, vals, ref_idx, ref_w


def reference_value_iteration(tables, epsilon=1e-6, max_iters=500):
    rewards, rows, cols, vals, ref_idx, ref_w = tables
    n_points, n_actions = rewards.shape
    flat_rewards = rewards.reshape(-1)
    value = np.zeros(n_points)
    gain = 0.0
    span = math.inf
    iterations = 0
    converged = False
    for iterations in range(1, max_iters + 1):
        acc = np.zeros(n_points * n_actions)
        np.add.at(acc, rows, vals * value[cols])
        updated = (flat_rewards + acc).reshape(n_points, n_actions).max(axis=1)
        gain = float(updated[ref_idx] @ ref_w)
        updated = updated - gain
        diff = updated - value
        span = float(diff.max() - diff.min())
        value = updated
        if span < epsilon:
            converged = True
            break
    return gain, iterations, span, converged


# ---------------------------------------------------------------------------

INSTANCES = [
    ("noisy_adder", (0.1,), (2, 2), 10),
    ("noisy_adder", (0.05,), (2, 2), 16),
    ("bsc_p2p", (0.0,), (2, 1), 8),
    ("bsc_p2p", (0.1,), (2, 1), 16),
    ("adder", (), (2, 2), 8),
    ("multiplier", (), (2, 2), 6),
    ("useless", (), (2, 2), 4),
    ("noisy_adder", (0.1,), (3, 3), 3),
    ("bsc_p2p", (0.1,), (1, 1), 4),
]
LAMBDAS = [LambdaWeights(0.3, 0.3, 0.4), LambdaWeights(0.5, 0.2, 0.3)]


def _kernel(name, params, messages):
    channel = preset(name, params)
    space = MessageSpace(*messages)
    return channel, space, ActionKernel(channel, enumerate_actions(space, channel.alphabets))


@pytest.mark.parametrize("weights", LAMBDAS, ids=["w0", "w1"])
@pytest.mark.parametrize("name,params,messages,resolution", INSTANCES)
def test_grid_tables_equal_interpolator(name, params, messages, resolution, weights):
    channel, space, kernel = _kernel(name, params, messages)
    want = reference_grid_tables(kernel, weights, space, resolution)
    got = _grid_tables(kernel, weights, space, resolution)
    # the solver lays its tables out actions x points: the reference's
    # rewards transposed, its rows numbered over that flattened axis
    n_points, n_actions = want[0].shape
    rows = want[1] % n_actions * n_points + want[1] // n_actions
    for g, w in zip(got, (np.ascontiguousarray(want[0].T), rows) + want[2:]):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    res = solve_stationary(channel, space, weights, resolution, renewal="none")
    gain, iterations, span, converged = reference_value_iteration(want)
    assert res.gain.hex() == gain.hex()
    assert res.span_at_stop.hex() == span.hex()
    assert (res.iterations, res.converged) == (iterations, converged)


def test_single_message_pair_grid():
    # one message pair: the grid is the single point (resolution,), every
    # successor lands on it with weight 1 and nothing is ever learned
    res = solve_stationary(preset("bsc_p2p", (0.1,)), MessageSpace(1, 1), LAMBDAS[0], 4,
                           renewal="none")
    assert (res.gain, res.iterations, res.span_at_stop, res.converged) == (0.0, 1, 0.0, True)


def _boundary_beliefs(rng, parts: int, d: int) -> list:
    beliefs = [np.full(parts, 1.0 / parts), np.eye(parts)[0], np.eye(parts)[-1]]
    # exact grid points, and the points between two of them
    comps = np.array(_compositions(d, parts)[:200])
    beliefs.extend(comps / d)
    beliefs.extend((comps[:-1] + comps[1:]) / (2 * d))
    for _ in range(50):
        # zeros, repeated entries (ties in the fractional parts) and tiny masses
        b = rng.choice([0.0, 1e-17, 1.0, 1.0, 2.0, 0.5], size=parts)
        if b.sum() == 0.0:
            b[0] = 1.0
        beliefs.append(b / b.sum())
    return beliefs


@pytest.mark.parametrize("parts,d", [(1, 4), (2, 1), (2, 7), (3, 5), (4, 10), (6, 3), (9, 3)])
def test_kept_freudenthal_vertices_are_grid_points(parts, d):
    rng = make_rng(100 + 10 * parts + d)
    beliefs = _boundary_beliefs(rng, parts, d)
    beliefs.extend(rng.dirichlet(np.ones(parts), size=200))
    beliefs.extend(rng.dirichlet(np.full(parts, 0.1), size=200))
    beliefs = np.array(beliefs)
    verts, w = _freudenthal(beliefs.T, d)
    assert verts.shape == (parts - 1, parts, len(beliefs))
    keep = w > 1e-12
    for b, v, wk, k in zip(beliefs, verts.transpose(2, 1, 0), w.T, keep.T):
        assert k.any()
        n = int(k.sum())
        comps = -np.diff(np.column_stack([np.full(n, d), v[k], np.zeros(n, dtype=np.int64)]), axis=1)
        assert (comps >= 0).all() and (comps.sum(axis=1) == d).all()
        assert abs(wk[k].sum() - 1.0) <= 1e-12
        # and they reproduce the point
        suffix = np.cumsum(b[::-1])[::-1][1:]
        assert np.abs(wk[k] @ v[k] - d * suffix).max(initial=0.0) <= 1e-9


def test_kept_vertices_of_kernel_posteriors_are_grid_points():
    # the posteriors the solver interpolates, at grid points and between them
    channel, space, kernel = _kernel("noisy_adder", (0.1,), (3, 3))
    rng = make_rng(7)
    pis = np.concatenate([rng.dirichlet(np.ones(9), size=20), np.eye(9)]).T.reshape(3, 3, -1)
    joint, p = kernel.joint(pis)
    post = kernel.posteriors(joint, p)[:, :, p > MASS_EPS].reshape(9, -1)
    verts, w = _freudenthal(post, 3)
    keep = w > 1e-12
    kept = verts[:, keep]
    assert (kept[:-1] >= kept[1:]).all() and (kept >= 0).all() and (kept <= 3).all()
    assert np.abs(np.where(keep, w, 0.0).sum(axis=0) - 1.0).max() <= 1e-12


def test_grid_cap_checked_before_any_point_is_built():
    ch = preset("noisy_adder", (0.1,))
    start = time.perf_counter()
    with pytest.raises(GridTooLarge) as info:
        solve_stationary(ch, MessageSpace(3, 3), LAMBDAS[0], resolution=10**6, renewal="none")
    assert time.perf_counter() - start < 5.0
    assert info.value.points == math.comb(10**6 + 8, 8)
