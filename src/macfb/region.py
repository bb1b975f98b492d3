"""Weighted-bound sweep and the induced rate polygon.

Each weight vector on the 2-simplex yields one supporting half-plane
l1*R1 + l2*R2 + l3*(R1+R2) <= bound; intersecting the sampled half-planes
with the non-negative quadrant gives an outer polygon for the achievable
pairs at the solved horizon.

Weight vectors are drawn from a triangular grid whose subdivision level is
a power of two, so the sample set for a larger request always contains the
sample set for a smaller one; refining the sweep can then only shrink the
polygon.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .belief import JointBelief
from .channel import Channel, MessageSpace, check_count
from .dp import DEFAULT_NODE_CAP, solve_horizon, solve_stationary
from .encoding import DEFAULT_ACTION_CAP
from .reward import LambdaWeights
from ._io import atomic_write_text

CLIP_EPS = 1e-12
VERTEX_DEDUP_TOL = 1e-9
SOLVERS = ("horizon", "stationary")  # the solvers sweep takes its bounds from


@dataclass(frozen=True)
class HalfPlane:
    """Constraint l1*R1 + l2*R2 + l3*(R1+R2) <= bound with normalised weights."""

    weights: LambdaWeights
    bound: float


@dataclass
class RegionEstimate:
    halfplanes: list
    vertices: list  # (R1, R2) pairs, counterclockwise
    n: int
    space: MessageSpace
    solver: str
    degenerate: bool


def lambda_samples(count: int) -> list:
    """At least ``count`` weight vectors on a power-of-two triangular grid.

    The three corner vectors are always present; grids at different levels
    nest, which keeps sweep refinement monotone.
    """
    count = check_count(count, "weight samples", 3)
    level = 1
    while (level + 1) * (level + 2) // 2 < count:
        level *= 2
    pts = []
    for i in range(level, -1, -1):
        for j in range(level - i, -1, -1):
            k = level - i - j
            pts.append((i / level, j / level, k / level))
    return pts


def sweep(
    channel: Channel,
    space: MessageSpace,
    n: int,
    samples: int,
    solver: str = "horizon",
    prior: JointBelief = None,
    action_cap: int = DEFAULT_ACTION_CAP,
    node_cap: int = DEFAULT_NODE_CAP,
) -> RegionEstimate:
    """Evaluate the weighted bound on a simplex grid and intersect.

    ``prior`` (uniform when None) is handed to every solve as it is.
    ``solver="stationary"`` takes each bound from the per-use stationary
    gain, which is exact and needs no belief grid, so it has no grid or
    iteration settings.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown region solver {solver!r}")
    n, lams = check_count(n, "n"), lambda_samples(samples)

    def bound_for(lam):
        weights = LambdaWeights(*lam)
        if solver == "horizon":
            res = solve_horizon(
                channel, space, weights, n, prior,
                action_cap=action_cap, node_cap=node_cap,
            )
            return res.value_per_step
        # the per-use gain is read off the prior; the grid resolution is unused
        res = solve_stationary(
            channel, space, weights, resolution=1, prior=prior,
            renewal="per_use", action_cap=action_cap,
        )
        return res.gain

    halfplanes = [HalfPlane(LambdaWeights(*lam), float(bound_for(lam))) for lam in lams]
    vertices, degenerate = _intersect(halfplanes)
    return RegionEstimate(halfplanes, vertices, n, space, solver, degenerate)


def _clip(poly, a, b, c):
    """Keep the part of a convex polygon with a*x + b*y <= c."""
    if not poly:
        return []
    out = []
    for i in range(len(poly)):
        p = poly[i]
        q = poly[(i + 1) % len(poly)]
        fp = a * p[0] + b * p[1] - c
        fq = a * q[0] + b * q[1] - c
        p_in = fp <= CLIP_EPS
        q_in = fq <= CLIP_EPS
        if p_in:
            out.append(p)
        if p_in != q_in:
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _intersect(halfplanes):
    """Vertices of the polygon cut by the half-planes inside R1, R2 >= 0."""
    corner_r1 = max(
        (hp.bound for hp in halfplanes if hp.weights.l1 > 0 or hp.weights.l3 > 0),
        default=1.0,
    )
    corner_r2 = max(
        (hp.bound for hp in halfplanes if hp.weights.l2 > 0 or hp.weights.l3 > 0),
        default=1.0,
    )
    poly = [
        (0.0, 0.0),
        (corner_r1 + 1.0, 0.0),
        (corner_r1 + 1.0, corner_r2 + 1.0),
        (0.0, corner_r2 + 1.0),
    ]
    for hp in halfplanes:
        a = hp.weights.l1 + hp.weights.l3
        b = hp.weights.l2 + hp.weights.l3
        poly = _clip(poly, a, b, hp.bound)
        if not poly:
            break
    # numerical slack from edge intersections; the quadrant is a hard constraint
    poly = [(max(x, 0.0), max(y, 0.0)) for x, y in poly]

    deduped = []
    for v in poly:
        if all(
            (v[0] - u[0]) ** 2 + (v[1] - u[1]) ** 2 > VERTEX_DEDUP_TOL**2 for u in deduped
        ):
            deduped.append(v)
    if not deduped:
        deduped = [(0.0, 0.0)]
    if len(deduped) >= 3:
        area = 0.0
        for i in range(len(deduped)):
            x0, y0 = deduped[i]
            x1, y1 = deduped[(i + 1) % len(deduped)]
            area += x0 * y1 - x1 * y0
        if area < 0.0:
            deduped.reverse()
    start = min(range(len(deduped)), key=lambda i: deduped[i])
    deduped = deduped[start:] + deduped[:start]
    degenerate = len(deduped) == 1
    return deduped, degenerate


def export_region(region: RegionEstimate, prefix) -> tuple:
    """Write the half-plane and vertex CSVs next to ``prefix``.

    Floats are rendered with 17 significant digits so a reader recovers the
    exact doubles. Returns the two paths.
    """
    prefix = Path(prefix)
    hp_path = prefix.parent / (prefix.name + "_halfplanes.csv")
    vx_path = prefix.parent / (prefix.name + "_vertices.csv")

    lines = ["lambda1,lambda2,lambda3,bound"]
    for hp in region.halfplanes:
        w = hp.weights
        lines.append(f"{w.l1:.17g},{w.l2:.17g},{w.l3:.17g},{hp.bound:.17g}")
    atomic_write_text(hp_path, "\n".join(lines) + "\n")

    lines = ["R1,R2"]
    for r1, r2 in region.vertices:
        lines.append(f"{r1:.17g},{r2:.17g}")
    atomic_write_text(vx_path, "\n".join(lines) + "\n")
    return hp_path, vx_path
