"""From-scratch Nelder-Mead simplex minimizer over swarm decision variables.

The decision vector packs (x, y, z, theta) per spacecraft; theta coordinates
are wrapped modulo 2 pi before every objective evaluation so orientations
stay on [0, 2 pi). The simplex itself keeps unwrapped thetas, so vertices on
either side of the 0 / 2 pi seam stay close and the simplex can shrink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

# expected_information_cost stays importable from here: perfbench/spans.py
# wraps this module's name.
from .cost import (EvalPlan, SwarmConfig, _expected_cost, evaluate,
                   expected_information_cost, information_cost, wrap_theta)
from .sampling import PoiSet

# Standard simplex coefficients, and the initial step relative to a
# coordinate's magnitude (at least 1) when no absolute step applies.
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
    # Absolute simplex step for angle coordinates; None keeps the relative rule.
    theta_initial_step: float | None = None

    def __post_init__(self):
        n = self.max_iterations
        if n is not None and (not isinstance(n, (int, np.integer))
                              or isinstance(n, bool) or n < 1):
            raise ValueError(
                f"max_iterations must be an integer of at least 1, got {n!r}")
        for name in ("f_tolerance", "x_tolerance"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        step = self.theta_initial_step
        if step is not None and not 0.0 < step < math.inf:
            raise ValueError("theta_initial_step must be finite and positive")


@dataclass(frozen=True)
class OptimizationProblem:
    dimension: int
    objective: Callable[[list[float]], float]  # takes a fresh float list
    theta_indices: frozenset[int] = frozenset()


@dataclass
class OptResult:
    best_point: np.ndarray
    best_value: float
    iterations: int
    converged: bool
    evaluation_count: int
    termination: str  # "f_tol", "x_tol" or "budget"
    shrinks: int
    final_diameter: float  # largest distance of a vertex from the best


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


def nelder_mead(problem: OptimizationProblem, x0, opts: NelderMeadOptions,
                trace_sink=None) -> OptResult:
    """Minimize with the standard reflect/expand/contract/shrink simplex.

    Terminates when the objective spread over the simplex falls below
    f_tolerance, the simplex diameter falls below x_tolerance, or the
    iteration budget runs out. Deterministic given (x0, opts). trace_sink,
    when given, gets (iteration, best value, diameter) once per iteration.
    The best point comes back with its thetas wrapped.

    Vertices are float lists (the objective gets a wrapped copy); an array
    of the same rows serves the centroid's and the diameter's reductions,
    and without a trace the diameter is computed only when _far cannot
    settle the x_tolerance test.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.dimension,):
        raise ValueError(f"x0 must have length {problem.dimension}")
    x0 = x0.tolist()
    theta_idx = sorted(problem.theta_indices)
    max_iter = opts.max_iterations
    if max_iter is None:
        max_iter = 200 * problem.dimension
    gap = max(opts.x_tolerance, _NORMAL_GAP)

    evals = 0

    def f(point: list) -> float:
        nonlocal evals
        x = _wrap(point, theta_idx)
        v = float(problem.objective(x))
        evals += 1
        if not math.isfinite(v):
            raise ObjectiveDomainError(f"objective non-finite at {x}")
        return v

    n = problem.dimension
    verts = [x0]
    for i in range(n):
        if i in problem.theta_indices and opts.theta_initial_step is not None:
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
    termination, shrinks, iteration = "budget", 0, 0
    for iteration in range(1, max_iter + 1):
        order = sorted(range(n + 1), key=values.__getitem__)
        verts, values = [verts[i] for i in order], [values[i] for i in order]
        simplex = simplex.take(order, 0)
        best, worst = verts[0], verts[-1]

        spread = values[-1] - values[0]
        if trace_sink is not None:
            diameter = _diameter(simplex[1:], simplex[0])
            trace_sink(iteration, values[0], diameter)
            small = diameter < opts.x_tolerance
        else:
            small = (not _far(worst, best, gap)
                     and _diameter(simplex[1:], simplex[0]) < opts.x_tolerance)
        if spread < opts.f_tolerance or small:
            termination = "f_tol" if spread < opts.f_tolerance else "x_tol"
            break

        centroid = (np.add.reduce(simplex[:-1], axis=0) / n).tolist()
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
            shrinks += 1
            for i in range(1, n + 1):
                verts[i] = [b + SHRINK * (v - b)
                            for b, v in zip(best, verts[i])]
                values[i] = f(verts[i])
                simplex[i] = verts[i]
        else:
            verts[-1], values[-1] = new
            simplex[-1] = verts[-1]

    k = min(range(n + 1), key=values.__getitem__)
    final = _diameter(np.delete(simplex, k, 0), simplex[k])
    return OptResult(np.array(_wrap(verts[k], theta_idx)), values[k],
                     iteration, termination != "budget", evals, termination,
                     shrinks, final)


def pack_swarm(swarm: SwarmConfig) -> np.ndarray:
    """Flatten a swarm into the (x, y, z, theta) * N decision vector."""
    return swarm.state.flatten()


def unpack_swarm(x: np.ndarray, template: SwarmConfig) -> SwarmConfig:
    """Rebuild a swarm from a decision vector, keeping each pose's nu and phi."""
    return SwarmConfig.from_state(x, template)


def swarm_objective(pois: PoiSet, template: SwarmConfig, cost_mode="deterministic",
                    **cost_kwargs) -> Callable[[list[float]], float]:
    """Objective over the wrapped decision vector as a float list, with the
    degeneracy penalty; its evaluation plan is built once, here, and the
    expected cost scores its noisy samples from that plan."""
    plan = EvalPlan(template, pois, **cost_kwargs)
    if cost_mode == "deterministic":
        return partial(evaluate, plan)
    stddev, n_samples, seed = cost_mode
    return partial(evaluate, plan, cost=partial(
        _expected_cost, stddev=stddev, n_samples=n_samples, seed=seed))


def optimize_swarm(pois: PoiSet, initial: SwarmConfig,
                   opts: NelderMeadOptions = NelderMeadOptions(),
                   cost_mode="deterministic", trace_sink=None,
                   **cost_kwargs):
    """Locally optimize spacecraft positions and orientations.

    cost_mode is "deterministic" or a (position_stddev, n_samples, seed)
    triple for the expected-cost objective. Returns the optimized swarm, its
    final cost breakdown, and the raw optimizer result.
    """
    n = len(initial)
    problem = OptimizationProblem(
        dimension=4 * n,
        objective=swarm_objective(pois, initial, cost_mode, **cost_kwargs),
        theta_indices=frozenset(4 * k + 3 for k in range(n)),
    )
    result = nelder_mead(problem, pack_swarm(initial), opts, trace_sink)
    best = unpack_swarm(result.best_point, initial)
    breakdown = information_cost(best, pois, **cost_kwargs)
    return best, breakdown, result
