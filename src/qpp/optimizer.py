"""Derivative-free maximization of selection probabilities.

The search strategy is a coarse cell-centered grid over the open
parameter box followed by local refinement: around the incumbent, a
9-point-per-axis lattice of halving half-width is rescanned until the
lattice diameter drops below the refinement tolerance.  The incumbent
never regresses, so per-iteration best values are monotone
nondecreasing.  Ties prefer the lexicographically smallest parameter
point, making results deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .constructions import hardy_probability

__all__ = [
    "ConvergenceError",
    "OptimizationResult",
    "maximize_hardy",
    "feasibility_root",
    "maximize_cabello_family",
]

DEFAULT_EXCLUSIVITY_TOL = 1e-9
MAX_REFINE_ITERATIONS = 60


class ConvergenceError(RuntimeError):
    """A search failed to reach the requested tolerance or a feasible point."""


@dataclass(frozen=True)
class OptimizationResult:
    """Maximizer, objective value, and bookkeeping for one search."""

    parameters: tuple[tuple[str, float], ...]
    objective: float
    evaluations: int
    grid_resolution: int
    refine_tolerance: float
    exclusivity_tol: float | None = None


def _grid_refine(f, lows, highs, grid, refine_tol):
    """Shared search engine; returns (best_point, best_value, evals, history).

    history holds the best value after the initial scan and after each
    refinement pass; it is monotone nondecreasing by construction.
    """
    ndim = len(lows)
    spans = [hi - lo for lo, hi in zip(lows, highs)]

    axes = [
        [lows[d] + (i + 0.5) * spans[d] / grid for i in range(grid)]
        for d in range(ndim)
    ]
    points = [tuple(pt) for pt in itertools.product(*axes)]
    values = [f(pt) for pt in points]
    evals = len(points)
    best_point, best_value = points[0], values[0]
    for pt, v in zip(points[1:], values[1:]):
        if v > best_value or (v == best_value and pt < best_point):
            best_point, best_value = pt, v
    history = [best_value]

    half_widths = [span / grid for span in spans]
    iterations = 0
    while 2.0 * max(half_widths) >= refine_tol:
        iterations += 1
        if iterations > MAX_REFINE_ITERATIONS:
            raise ConvergenceError(
                f"refinement did not reach tolerance {refine_tol!r} "
                f"within {MAX_REFINE_ITERATIONS} iterations"
            )
        axes = []
        for d in range(ndim):
            lo = max(best_point[d] - half_widths[d], np.nextafter(lows[d], highs[d]))
            hi = min(best_point[d] + half_widths[d], np.nextafter(highs[d], lows[d]))
            axes.append(np.linspace(lo, hi, 9).tolist())
        points = [tuple(pt) for pt in itertools.product(*axes)]
        values = [f(pt) for pt in points]
        evals += len(points)
        for pt, v in zip(points, values):
            if v > best_value or (v == best_value and pt < best_point):
                best_point, best_value = pt, v
        history.append(best_value)
        half_widths = [hw / 2.0 for hw in half_widths]

    return best_point, best_value, evals, history


def _check_search_args(grid: int, refine_tol: float) -> None:
    if grid < 16:
        raise ValueError(f"grid must be at least 16, got {grid}")
    if not refine_tol > 0.0:
        raise ValueError(f"refine_tol must be positive, got {refine_tol!r}")


def maximize_hardy(grid: int = 64, refine_tol: float = 1e-9) -> OptimizationResult:
    """Maximize the Hardy selection probability over both angles.

    The objective is the closed form :func:`hardy_probability`; the
    search only evaluates it inside the open box (0, pi/2)^2.
    """
    _check_search_args(grid, refine_tol)
    half_pi = math.pi / 2.0
    point, value, evals, _ = _grid_refine(
        lambda pt: hardy_probability(*pt), (0.0, 0.0), (half_pi, half_pi), grid, refine_tol
    )
    return OptimizationResult(
        parameters=(("theta_a", point[0]), ("theta_b", point[1])),
        objective=value,
        evaluations=evals,
        grid_resolution=grid,
        refine_tolerance=refine_tol,
    )


def feasibility_root(c: float) -> tuple[float, float]:
    """The p minimizing the family's delta overlap at fixed c, in closed form.

    With u = p^2 the overlap is |c^2 + s^2 u (2u - 1)| / (c^2 + s^2 u),
    s^2 = 1 - c^2.  When disc = 1 - 8c^2/s^2 >= 0 (c <= 1/3) the
    numerator vanishes at u = (1 + sqrt(disc)) / 4; otherwise the
    overlap is smallest at u = c / (1 + c), where it equals
    (3c - 1) / (1 + c).  Returns (p, overlap), the overlap evaluated in
    this u-form with plain floats (it agrees with the delta overlap of
    constructions.cabello_family(c, p) to rounding).  The overlap
    at the returned p is the feasibility defect: zero (to rounding)
    exactly when some family member at this c forms a valid scenario.

    Raises:
        ValueError: c outside (0, 1).
    """
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must lie strictly inside (0, 1), got {c!r}")
    s2 = 1.0 - c * c
    disc = 1.0 - 8.0 * c * c / s2
    u = (1.0 + math.sqrt(disc)) / 4.0 if disc >= 0.0 else c / (1.0 + c)
    return math.sqrt(u), abs(c * c + s2 * u * (2.0 * u - 1.0)) / (c * c + s2 * u)


def maximize_cabello_family(
    grid: int = 64,
    refine_tol: float = 1e-9,
    exclusivity_tol: float = DEFAULT_EXCLUSIVITY_TOL,
) -> OptimizationResult:
    """Maximize the selection probability over feasible family members.

    The family's selection probability is c^2 and feasibility ties p to
    c, so the search is one-dimensional: a c scores c^2 when
    feasibility_root finds a delta overlap below exclusivity_tol and 0
    otherwise.  The reported p is the root at the winning c.
    """
    _check_search_args(grid, refine_tol)
    if not exclusivity_tol > 0.0:
        raise ValueError(f"exclusivity_tol must be positive, got {exclusivity_tol!r}")

    def objective(pt):
        (c,) = pt
        _, overlap = feasibility_root(c)
        return c * c if overlap < exclusivity_tol else 0.0

    point, value, evals, _ = _grid_refine(objective, (0.0,), (1.0,), grid, refine_tol)
    c = point[0]
    p, _ = feasibility_root(c)
    if not value > 0.0:
        raise ConvergenceError(
            f"no feasible family member found at exclusivity tolerance {exclusivity_tol!r}"
        )
    return OptimizationResult(
        parameters=(("c", c), ("p", p)),
        objective=c ** 2,
        evaluations=evals,
        grid_resolution=grid,
        refine_tolerance=refine_tol,
        exclusivity_tol=exclusivity_tol,
    )
