"""Derivative-free maximization of selection probabilities.

Both searches score lattices, each in one objective call that returns its
first maximizer and the maximum: a coarse cell-centered grid over the open
parameter box, then, around the incumbent, 9-point-per-axis lattices of
halving half-width until the lattice diameter drops below the refinement
tolerance.  Each search runs its own loop of Python floats, Hardy's over
two angles and the family's over one axis; both take the pass count
from one schedule.  The incumbent never regresses, so the returned value
is at least every value of the first grid.  Ties prefer the
lexicographically smallest point, so results are deterministic.  The
grid and the tolerance alone fix the passes, and so the evaluation count.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .constructions import _hardy_ratio

__all__ = [
    "ConvergenceError",
    "OptimizationResult",
    "maximize_hardy",
    "feasibility_root",
    "maximize_cabello_family",
]

DEFAULT_GRID = 64
DEFAULT_REFINE_TOL = 1e-9
DEFAULT_EXCLUSIVITY_TOL = 1e-9
MAX_REFINE_ITERATIONS = 60
# Hardy's first grid holds grid**2 points in memory; 256 keeps it at 65536.
MAX_GRID = 256


class ConvergenceError(RuntimeError):
    """A search failed to reach the requested tolerance."""


@dataclass(frozen=True)
class OptimizationResult:
    """Maximizer, objective value, and bookkeeping for one search.

    evaluations counts the lattice points searched, grid^2 + 81 per pass
    for Hardy and grid + 9 per pass for the family, whether or not the
    search computed each point's value.
    """

    parameters: tuple[tuple[str, float], ...]
    objective: float
    evaluations: int
    grid_resolution: int
    refine_tolerance: float
    exclusivity_tol: float | None = None


def _axis9(a, b):
    """np.linspace(a, b, 9) term for term, as a list of Python floats."""
    s = (b - a) / 8
    return [0 * s + a, 1 * s + a, 2 * s + a, 3 * s + a, 4 * s + a, 5 * s + a, 6 * s + a,
            7 * s + a, b]


def _passes(half_width, refine_tol):
    """The pass schedule shared by both searches: passes until a lattice of
    half-width half_width, halved each pass (exactly), is narrower than
    refine_tol.  More than MAX_REFINE_ITERATIONS is refused."""
    for k in range(MAX_REFINE_ITERATIONS + 1):
        if 2.0 * half_width / 2.0 ** k < refine_tol:
            return k
    raise ConvergenceError(f"refinement did not reach tolerance {refine_tol!r} "
                           f"within {MAX_REFINE_ITERATIONS} iterations")


def _check_search_args(grid: int, **tols: float) -> int:
    try:
        grid = operator.index(grid)
    except TypeError:
        raise TypeError(f"grid must be an integer, got {grid!r}") from None
    if grid < 16:
        raise ValueError(f"grid must be at least 16, got {grid}")
    if grid > MAX_GRID:
        raise ValueError(f"grid must be at most {MAX_GRID}, got {grid}")
    for name, tol in tols.items():
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
            raise TypeError(f"{name} must be a real number, got {tol!r}")
        if not tol > 0.0:
            raise ValueError(f"{name} must be positive, got {tol!r}")
    return grid


def _hardy_lattice(ta, tb):
    """hardy_probability over the lattice ta x tb, bit for bit, as one
    len(ta) x len(tb) ndarray: one cos and sin per axis value, flat."""
    ca, sa, cb, sb = (np.array([f(t) for t in ts]) for ts in (ta, tb) for f in (math.cos, math.sin))
    return _hardy_ratio(ca[:, None], sa[:, None], cb, sb)


def _hardy_max(ta, tb):
    """The first maximizer of _hardy_lattice(ta, tb), in row-major order, so
    the lexicographically smallest, as ((ta[i], tb[j]), v)."""
    values = _hardy_lattice(ta, tb)
    i, j = divmod(int(values.argmax()), len(tb))
    return (ta[i], tb[j]), values.item(i, j)


def maximize_hardy(grid: int = DEFAULT_GRID, refine_tol: float = DEFAULT_REFINE_TOL) -> OptimizationResult:
    """Maximize the Hardy selection probability over both angles.

    The objective is the closed form :func:`hardy_probability`, one lattice
    at a time; the search only evaluates it inside the open box (0, pi/2)^2.
    """
    grid = _check_search_args(grid, refine_tol=refine_tol)
    half_pi = math.pi / 2.0
    hw = half_pi / grid  # halved each pass, exactly
    passes = _passes(hw, refine_tol)
    lo, hi = math.nextafter(0.0, half_pi), math.nextafter(half_pi, 0.0)
    axis = [(i + 0.5) * half_pi / grid for i in range(grid)]
    point, best = _hardy_max(axis, axis)
    for _ in range(passes):
        a, b = point
        pt, v = _hardy_max(_axis9(max(a - hw, lo), min(a + hw, hi)),
                           _axis9(max(b - hw, lo), min(b + hw, hi)))
        if v > best or (v == best and pt < point):
            point, best = pt, v
        hw /= 2.0
    return OptimizationResult(
        parameters=(("theta_a", point[0]), ("theta_b", point[1])),
        objective=best,
        evaluations=grid * grid + passes * 81,
        grid_resolution=grid,
        refine_tolerance=refine_tol,
    )


def _delta_overlap(c):
    """feasibility_root(c)[1] bit for bit, without its range check: the
    family objective's kernel, one Python float per c in (0, 1)."""
    s2 = 1.0 - c * c
    if 1.0 - 8.0 * c * c / s2 >= 0.0:
        return 0.0
    u = c / (1.0 + c)
    return abs(c * c + s2 * u * (2.0 * u - 1.0)) / (c * c + s2 * u)


def _family_max(cs, exclusivity_tol):
    """The family objective's first maximizer over the ascending axis cs
    and its value, as (c, v): c scores c*c when _delta_overlap(c) is below
    exclusivity_tol, else 0.0.  Rounding keeps c*c non-decreasing along
    cs, so the highest feasible point holds the maximum: the scan computes
    overlaps from the top down to it, and below it only for the points
    with the same square, the lowest feasible one of which is first.  With
    no point feasible the maximum is 0.0, first at cs[0]."""
    for k in reversed(range(len(cs))):
        if _delta_overlap(cs[k]) < exclusivity_tol:
            break
    else:
        return cs[0], 0.0
    v = cs[k] * cs[k]
    for j in reversed(range(k)):
        if cs[j] * cs[j] != v:
            break
        if _delta_overlap(cs[j]) < exclusivity_tol:
            k = j
    return cs[k], v


def feasibility_root(c: float) -> tuple[float, float]:
    """The p minimizing the family's delta overlap at fixed c, in closed form.

    With u = p^2 the overlap is |c^2 + s^2 u (2u - 1)| / (c^2 + s^2 u),
    s^2 = 1 - c^2.  When disc = 1 - 8c^2/s^2 >= 0 (c <= 1/3) it vanishes
    at u = (1 + sqrt(disc)) / 4, and the overlap returned is exactly 0.0,
    not the u-form's rounding noise; otherwise it is smallest at
    u = c / (1 + c), where it equals (3c - 1) / (1 + c) (evaluated in
    the u-form).  Returns (p, overlap), the overlap agreeing with
    constructions.cabello_family(c, p).delta_overlap to rounding: it is
    0.0 exactly when some family member at this c forms a valid scenario.

    Raises:
        ValueError: c outside (0, 1).
    """
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must lie strictly inside (0, 1), got {c!r}")
    disc = 1.0 - 8.0 * c * c / (1.0 - c * c)
    if disc >= 0.0:
        return math.sqrt((1.0 + math.sqrt(disc)) / 4.0), 0.0
    return math.sqrt(c / (1.0 + c)), _delta_overlap(c)


def maximize_cabello_family(
    grid: int = DEFAULT_GRID,
    refine_tol: float = DEFAULT_REFINE_TOL,
    exclusivity_tol: float = DEFAULT_EXCLUSIVITY_TOL,
) -> OptimizationResult:
    """Maximize the selection probability over feasible family members.

    The family's selection probability is c^2 and feasibility ties p to
    c, so the search is one-dimensional: a c scores c^2 when
    feasibility_root finds a delta overlap below exclusivity_tol and 0
    otherwise.  Feasible members (c <= 1/3) have overlap exactly 0, so
    any positive exclusivity_tol admits them all.  The reported p is the
    root at the winning c.
    """
    grid = _check_search_args(grid, refine_tol=refine_tol, exclusivity_tol=exclusivity_tol)

    hw = 1.0 / grid  # halved each pass, exactly
    passes = _passes(hw, refine_tol)
    lo, hi = math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0)
    c, best = _family_max([(i + 0.5) / grid for i in range(grid)], exclusivity_tol)
    for _ in range(passes):
        x, v = _family_max(_axis9(max(c - hw, lo), min(c + hw, hi)), exclusivity_tol)
        if v > best or (v == best and x < c):
            c, best = x, v
        hw /= 2.0
    return OptimizationResult(
        parameters=(("c", c), ("p", feasibility_root(c)[0])),
        objective=c ** 2,
        evaluations=grid + passes * 9,
        grid_resolution=grid,
        refine_tolerance=refine_tol,
        exclusivity_tol=exclusivity_tol,
    )
