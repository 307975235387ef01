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

from .cost import (EvalPlan, SwarmConfig, evaluate, expected_information_cost,
                   information_cost, wrap_theta)
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
    objective: Callable[[np.ndarray], float]
    theta_indices: frozenset[int] = frozenset()


@dataclass
class OptResult:
    best_point: np.ndarray
    best_value: float
    iterations: int
    converged: bool
    evaluation_count: int


def _wrap(x: np.ndarray, theta_idx) -> np.ndarray:
    """x with its thetas wrapped, on Python floats (float % gives the bits
    of np.remainder)."""
    x = x.tolist()
    for i in theta_idx:
        x[i] = wrap_theta(x[i])
    return np.array(x)


def nelder_mead(problem: OptimizationProblem, x0, opts: NelderMeadOptions,
                trace_sink=None) -> OptResult:
    """Minimize with the standard reflect/expand/contract/shrink simplex.

    Terminates when the objective spread over the simplex falls below
    f_tolerance, the simplex diameter falls below x_tolerance, or the
    iteration budget runs out. Deterministic given (x0, opts). trace_sink,
    when given, gets (iteration, best value, diameter) once per iteration.
    The best point comes back with its thetas wrapped.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.dimension,):
        raise ValueError(f"x0 must have length {problem.dimension}")
    theta_idx = sorted(problem.theta_indices)
    max_iter = opts.max_iterations
    if max_iter is None:
        max_iter = 200 * problem.dimension

    evals = 0

    def f(point: np.ndarray) -> tuple[np.ndarray, float]:
        nonlocal evals
        x = _wrap(point, theta_idx)
        v = float(problem.objective(x))
        evals += 1
        if not math.isfinite(v):
            raise ObjectiveDomainError(f"objective non-finite at {x.tolist()}")
        return point, v

    n = problem.dimension
    simplex = np.empty((n + 1, n))
    values = [0.0] * (n + 1)
    simplex[0], values[0] = f(x0)
    for i in range(n):
        if i in problem.theta_indices and opts.theta_initial_step is not None:
            step = opts.theta_initial_step
        else:
            step = INITIAL_SIMPLEX_SCALE * max(abs(x0[i]), 1.0)
        xi = x0.copy()
        xi[i] += step
        simplex[i + 1], values[i + 1] = f(xi)

    # The bits of NumPy's bookkeeping at less cost: values are finite, so the
    # stable sort is argsort(kind="stable"); np.mean is add.reduce / n, and
    # np.linalg.norm the root of add.reduce of squares (a monotone root).
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        order = sorted(range(n + 1), key=values.__getitem__)
        simplex, values = simplex.take(order, 0), [values[i] for i in order]

        dev = simplex[1:] - simplex[0]
        dev *= dev
        diameter = math.sqrt(np.maximum.reduce(np.add.reduce(dev, axis=1)))
        spread = values[-1] - values[0]
        if trace_sink is not None:
            trace_sink(iteration, values[0], diameter)
        if spread < opts.f_tolerance or diameter < opts.x_tolerance:
            converged = True
            break

        centroid = np.add.reduce(simplex[:-1], axis=0) / n
        xr, fr = f(centroid + REFLECTION * (centroid - simplex[-1]))
        if fr < values[0]:
            xe, fe = f(centroid + EXPANSION * (xr - centroid))
            if fe < fr:
                simplex[-1], values[-1] = xe, fe
            else:
                simplex[-1], values[-1] = xr, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = xr, fr
        else:
            if fr < values[-1]:
                # outside contraction
                xc, fc = f(centroid + CONTRACTION * (xr - centroid))
                accept = fc <= fr
            else:
                # inside contraction
                xc, fc = f(centroid - CONTRACTION * (centroid - simplex[-1]))
                accept = fc < values[-1]
            if accept:
                simplex[-1], values[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    simplex[i], values[i] = f(
                        simplex[0] + SHRINK * (simplex[i] - simplex[0])
                    )

    best = min(range(n + 1), key=values.__getitem__)
    return OptResult(_wrap(simplex[best], theta_idx), values[best],
                     iteration, converged, evals)


def pack_swarm(swarm: SwarmConfig) -> np.ndarray:
    """Flatten a swarm into the (x, y, z, theta) * N decision vector."""
    return swarm.state.flatten()


def unpack_swarm(x: np.ndarray, template: SwarmConfig) -> SwarmConfig:
    """Rebuild a swarm from a decision vector, keeping each pose's nu and phi."""
    return SwarmConfig.from_state(x, template)


def swarm_objective(pois: PoiSet, template: SwarmConfig, cost_mode="deterministic",
                    **cost_kwargs) -> Callable[[np.ndarray], float]:
    """Objective over the wrapped decision vector, with the degeneracy
    penalty; its evaluation plan is built once, here."""
    plan = EvalPlan(template, pois, **cost_kwargs)
    if cost_mode == "deterministic":
        return partial(evaluate, plan)
    stddev, n_samples, seed = cost_mode

    def expected(_plan, state, _rows):
        swarm = SwarmConfig.from_state(state, template)
        return expected_information_cost(swarm, pois, stddev, n_samples, seed,
                                         **cost_kwargs)

    return partial(evaluate, plan, cost=expected)


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
