"""From-scratch Nelder-Mead simplex minimizer over swarm decision variables.

The decision vector holds, per spacecraft, two chart coordinates (u, v) of
its direction in a deterministic aimed search, else (x, y, z), in
theta_tilt mode (x, y, z, theta); thetas are wrapped modulo 2 pi before
every evaluation so orientations stay on [0, 2 pi). The simplex itself keeps
unwrapped thetas, so vertices on either side of the 0 / 2 pi seam stay close
and it can shrink.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from copy import copy
from dataclasses import dataclass
from functools import partial, reduce
from itertools import accumulate
from operator import add
from typing import Callable

import numpy as np

from .cost import (EvalPlan, SwarmConfig, chart_apexes, cost_breakdown,
                   evaluate, evaluate_directions)
from .geometry import (TWO_PI, DegenerateGeometryError, check_fields,
                       wrap_theta)
from .sampling import PoiSet

# Standard simplex coefficients, and the initial step of a position
# coordinate relative to its magnitude (at least 1).
REFLECTION = 1.0
EXPANSION = 2.0
CONTRACTION = 0.5
SHRINK = 0.5
INITIAL_SIMPLEX_SCALE = 0.05


class ObjectiveDomainError(ValueError):
    """The objective returned a non-finite value."""


@dataclass(frozen=True)
class NelderMeadOptions:
    f_tolerance: float = 1e-8
    x_tolerance: float = 1e-8
    max_iterations: int | None = None  # defaults to 200 * dimension
    # absolute simplex step of an angle, rad; an aimed swarm searches none
    # (its chart coordinates start at 0 and take the relative step, 0.05)
    theta_initial_step: float = 0.5

    def __post_init__(self):
        check_fields(self)
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if min(self.f_tolerance, self.x_tolerance) < 0.0:
            raise ValueError("f_tolerance, x_tolerance must be non-negative")
        if not 0.0 < self.theta_initial_step <= TWO_PI:  # a full turn
            raise ValueError("theta_initial_step must lie in (0, 2 pi]")


@dataclass
class OptResult:
    best_point: np.ndarray
    best_value: float
    iterations: int
    evaluation_count: int
    termination: str  # "f_tol", "x_tol" or "budget"
    shrinks: int
    final_diameter: float  # largest distance of a vertex from the best
    best_at: int  # the first evaluation (from 1) that scored best_value

    @property
    def converged(self) -> bool:
        return self.termination != "budget"


# The least coordinate gap whose square is a normal float: from there up the
# rounded sqrt(gap * gap) is gap again. Below it the square loses bits or
# vanishes (1e-200 squares to 0), and so can the diameter.
_NORMAL_GAP = 2.0 ** -511


def _wrap(x: list, theta_idx) -> list:
    """A copy of the float list x with its thetas wrapped (float % gives the
    bits of np.remainder)."""
    x = x[:]
    for i in theta_idx:
        x[i] = wrap_theta(x[i])
    return x


def _far(worst: list, best: list, gap: float) -> bool:
    """Whether a coordinate of worst lies at least gap from best's. For gap
    at least _NORMAL_GAP the diameter is then at least gap: that
    coordinate's rounded square, and every rounded sum of nonnegative terms
    holding it, is at least the rounded gap * gap, whose rounded root is
    gap."""
    return any(abs(w - b) >= gap for w, b in zip(worst, best))


def _diameter(others: np.ndarray, best: np.ndarray) -> float:
    """The largest distance of the rows others from the row best, with
    np.linalg.norm's arithmetic: the root of add.reduce of squares, the
    largest taken first (a correctly rounded root is monotone)."""
    dev = others - best
    dev *= dev
    return math.sqrt(np.maximum.reduce(np.add.reduce(dev, axis=1)))


def nelder_mead(objective: Callable[[list[float]], float], x0,
                opts: NelderMeadOptions,
                theta_indices: frozenset[int] = frozenset(),
                trace_sink=None) -> OptResult:
    """Minimize with the standard reflect/expand/contract/shrink simplex.

    Terminates when the objective spread over the simplex falls below
    f_tolerance, the simplex diameter falls below x_tolerance, or the
    iteration budget runs out. Deterministic given (x0, opts). The
    coordinates named by theta_indices are angles: they take the absolute
    initial step opts.theta_initial_step, the others a step relative to
    their magnitude. trace_sink, when given, gets (iteration, best value,
    diameter) once per iteration. The best point comes back with its thetas
    wrapped.

    Vertices are float lists; the objective gets a wrapped copy, or with no
    theta_indices the vertex itself, which it must not mutate. An array
    of the same rows serves the centroid's and the diameter's reductions,
    and the x_tolerance test computes the diameter only when _far cannot
    settle it.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1:
        raise ValueError(f"x0 must be 1-D, got shape {x0.shape}")
    x0, n = x0.tolist(), len(x0)
    theta_idx = sorted(theta_indices)
    max_iter = opts.max_iterations
    if max_iter is None:
        max_iter = 200 * n
    gap = max(opts.x_tolerance, _NORMAL_GAP)

    # a value below the best vertex's always enters: best_value is the least
    evals, low, best_at = 0, math.inf, 0

    def f(point: list) -> float:
        nonlocal evals, low, best_at
        x = _wrap(point, theta_idx) if theta_idx else point
        v = float(objective(x))
        evals += 1
        if not math.isfinite(v):
            raise ObjectiveDomainError(f"objective non-finite at {x}")
        if v < low:
            low, best_at = v, evals
        return v

    verts = [x0]
    for i in range(n):
        if i in theta_indices:
            step = opts.theta_initial_step
        else:
            step = INITIAL_SIMPLEX_SCALE * max(abs(x0[i]), 1.0)
        xi = x0[:]
        xi[i] += step
        verts.append(xi)
    values = [f(v) for v in verts]
    simplex = np.array(verts)

    # The bits of NumPy's bookkeeping at less cost: values are finite, so the
    # stable sort is argsort(kind="stable"), and np.mean is add.reduce / n.
    # Any step but a shrink moves one vertex, inserted where that sort puts it.
    termination, shrinks, iteration, ordered = "budget", 0, 0, False
    for iteration in range(1, max_iter + 1):
        if not ordered:
            order = sorted(range(n + 1), key=values.__getitem__)
            verts = [verts[i] for i in order]
            values = [values[i] for i in order]
            simplex, ordered = simplex.take(order, 0), True
        best, worst = verts[0], verts[-1]

        spread = values[-1] - values[0]
        if trace_sink is not None:
            trace_sink(iteration, values[0],
                       _diameter(simplex[1:], simplex[0]))
        small = (not _far(worst, best, gap)
                 and _diameter(simplex[1:], simplex[0]) < opts.x_tolerance)
        if spread < opts.f_tolerance or small:
            termination = "f_tol" if spread < opts.f_tolerance else "x_tol"
            break

        total = np.add.reduce(simplex[:-1], axis=0).tolist()
        centroid = [t / n for t in total]  # float / int rounds as NumPy's
        xr = [c + REFLECTION * (c - w) for c, w in zip(centroid, worst)]
        fr = f(xr)
        if fr < values[0]:
            xe = [c + EXPANSION * (r - c) for c, r in zip(centroid, xr)]
            fe = f(xe)
            new = (xe, fe) if fe < fr else (xr, fr)
        elif fr < values[-2]:
            new = xr, fr
        else:
            if fr < values[-1]:
                # outside contraction
                xc = [c + CONTRACTION * (r - c) for c, r in zip(centroid, xr)]
                fc = f(xc)
                accept = fc <= fr
            else:
                # inside contraction
                xc = [c - CONTRACTION * (c - w)
                      for c, w in zip(centroid, worst)]
                fc = f(xc)
                accept = fc < values[-1]
            new = (xc, fc) if accept else None
        if new is None:
            shrinks, ordered = shrinks + 1, False
            for i in range(1, n + 1):
                verts[i] = [b + SHRINK * (v - b)
                            for b, v in zip(best, verts[i])]
                values[i] = f(verts[i])
                simplex[i] = verts[i]
        else:
            x_new, f_new = new
            p = bisect_right(values, f_new, 0, n)
            verts[p:] = [x_new, *verts[p:-1]]
            values[p:] = [f_new, *values[p:-1]]
            simplex[p + 1:] = simplex[p:-1]
            simplex[p] = x_new

    k = min(range(n + 1), key=values.__getitem__)
    final = _diameter(np.concatenate((simplex[:k], simplex[k + 1:])),
                      simplex[k])
    return OptResult(np.array(_wrap(verts[k], theta_idx)), values[k],
                     iteration, evals, termination, shrinks, final, best_at)


def swarm_objective(plan: EvalPlan, cost_mode=(0.0, 1, 0)
                    ) -> Callable[[list[float]], float]:
    """Objective over the float list that evaluate reads on the evaluation
    plan (an aimed swarm's 3N positions, else the 4N packed rows, thetas
    wrapped): for cost_mode (position_stddev, n_samples, seed) the expected
    cost, the mean of evaluate over n_samples copies of the vector whose
    positions carry isotropic normal noise (km) drawn here, once, as
    (n_samples, N, 3); a zero stddev gives evaluate itself."""
    stddev, n_samples, seed = cost_mode
    if n_samples < 1 or not 0.0 <= stddev < math.inf:
        raise ValueError("need n_samples >= 1, 0 <= position_stddev < inf")
    score = partial(evaluate, plan)
    if stddev == 0.0:
        return score
    n_craft = len(plan.phi)
    offsets = np.random.default_rng(seed).normal(
        0.0, stddev, (n_samples, n_craft, 3))
    if plan.tilted:  # and -0.0 per theta: theta + -0.0 is theta
        offsets = np.dstack((offsets, np.full((n_samples, n_craft), -0.0)))
    offsets = offsets.reshape(n_samples, -1)
    # reduce sums in order (sum() rounds otherwise from Python 3.12 on)
    return lambda x: reduce(
        add, map(score, (offsets + x).tolist()), 0.0) / n_samples


def lap_thetas(nu) -> list[float]:
    """Thetas (wrapped) laying the arcs [theta_k +- nu_k] end to end from 0,
    lap after lap. The summed pairwise overlap is the integral over the
    circle of C(m, 2), m the count of arcs over an angle; C(m, 2) is convex
    and m integrates to L = sum 2 nu_k, so the sum is least, k (k - 1) pi +
    k (L - 2 pi k) for k = floor(L / 2 pi), where m is only k or k + 1."""
    return [wrap_theta(end - half) for end, half in
            zip(accumulate(2.0 * half for half in nu), nu)]


def optimize_swarm(pois: PoiSet, initial: SwarmConfig,
                   opts: NelderMeadOptions = NelderMeadOptions(),
                   cost_mode=(0.0, 1, 0), trace_sink=None, **cost_kwargs):
    """Locally optimize spacecraft positions and orientations.

    cost_mode is swarm_objective's (position_stddev, n_samples, seed); a
    zero stddev optimizes the information cost itself. Aimed cones never
    read their thetas, so the cost splits into w min kappa - max coverage:
    lap_thetas places the thetas and the run's plan is built from the placed
    swarm. A held aimed cone sees a half-space that only its direction
    sets, so a deterministic aimed run searches the 2N chart coordinates of
    the plan's direction charts, each spacecraft at max(start distance,
    hold distance) (cost._chart); it raises DegenerateGeometryError when a
    spacecraft has no chart. A noisy aimed run searches the 3N positions,
    a theta_tilt run the 4N packed rows. Returns the optimized swarm, its
    cost breakdown on the run's own plan (under a zero stddev its
    information_cost is best_value, bit for bit) and the raw optimizer
    result, over the searched coordinates."""
    placed = copy(initial)
    state = placed.state = initial.state.copy()
    tilted = cost_kwargs.get("orientation_mode") == "theta_tilt"
    if not tilted:
        state[:, 3] = lap_thetas(initial.nu.tolist())
    plan = EvalPlan(placed, pois, **cost_kwargs)
    objective = swarm_objective(plan, cost_mode)  # checks cost_mode
    k, x0 = plan.stride, state[:, :plan.stride].ravel()
    directions = not tilted and cost_mode[0] == 0.0
    if directions:
        if not plan.charted:
            raise DegenerateGeometryError(
                "a spacecraft at the center with no hold distance, or too "
                "far for a finite norm, has no direction to search")
        objective = partial(evaluate_directions, plan)
        x0 = [0.0] * (2 * len(state))
    angles = range(3, state.size, 4) if tilted else ()
    result = nelder_mead(objective, x0, opts, frozenset(angles), trace_sink)
    best = result.best_point
    state[:, :k] = chart_apexes(plan, best.tolist()) if directions else \
        best.reshape(-1, k)
    return (SwarmConfig.from_state(state, initial),
            cost_breakdown(plan, state[:, :k].ravel().tolist()), result)
