"""Dense complex linear algebra for small Hilbert spaces.

States are immutable wrappers around complex128 numpy arrays.  Every
proposition in the package is a rank-1 projector |v><v|, so each
projector relation is computed from the unit vector v alone: certain
values from the overlap <v|s>, pair exclusivity from |<a|b>| (the
spectral norm of the product of the two projectors), and resolutions of
identity from the singular values of the member states' matrix, with
a deviation of at least 1 for fewer members than dim.  Both relations a
scenario applies to many projectors at once, certain values and context
deviations, exist only in matrix form over stacked states
(:func:`certain_values`, :func:`context_deviations`); a single
projector or context is a stack of one.  States are checked the same
way: a caller with many states builds one (n, dim) block and makes one
:func:`unit_states` call, which takes each norm once; each state keeps
its deviation from 1 for later reports.  Every dimension used in
practice is at most 8, so all storage is dense.

There is no null-space solver: every state the package builds has a
closed form, e.g. (-conj(b), conj(a)) completes the qubit state (a, b).

Two tolerance regimes are used throughout the package:

* ``TOL_NORM`` (1e-12) guards objects the package constructs itself.
* ``TOL_CHECK`` (1e-9) is the default for data supplied by callers or
  loaded from files.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "TOL_NORM",
    "TOL_CHECK",
    "StateVector",
    "RowError",
    "row_norms",
    "unit_states",
    "inner",
    "certain_values",
    "context_deviations",
]

TOL_NORM = 1e-12
TOL_CHECK = 1e-9


def _check_tol(tol: float, name: str = "tol") -> None:
    """The one tolerance rule: a bool or a non-real tol is a TypeError, and one
    outside (0, inf) a ValueError.  Any other real is judged, and named, as the
    float it is used as, so one beyond the float range counts as infinite.  A
    float skips the slow numbers.Real test and the conversion."""
    if type(tol) is not float:
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
            raise TypeError(f"{name} must be a real number, got {tol!r}")
        try:
            tol = float(tol)
        except OverflowError:
            tol = np.inf if tol > 0 else -np.inf
    if not 0.0 < tol < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {tol!r}")


def _check_int(name: str, value, least: int) -> int:
    """value as an int; a bool or non-integer is a TypeError, one below least a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return int(value)


class StateVector:
    """Unit vector in a finite-dimensional Hilbert space.

    The one-row case of :func:`unit_states` at ``TOL_NORM``; a state at
    another norm tolerance is built with ``unit_states``.

    Args:
        amps: flat sequence of complex amplitudes, length >= 2.

    Raises:
        ValueError: non-flat input, dimension < 2, non-finite entries,
            or a norm deviating from 1 by more than ``TOL_NORM``.
    """

    __slots__ = ("_amps", "_dev")

    def __init__(self, amps) -> None:
        arr = np.array(amps, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValueError(f"amplitudes must form a flat sequence, got shape {arr.shape}")
        (state,) = unit_states(arr[None])
        self._amps, self._dev = state._amps, state._dev

    @property
    def dim(self) -> int:
        return self._amps.size

    @property
    def amps(self) -> np.ndarray:
        """Read-only complex128 array of amplitudes."""
        return self._amps

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return bool(np.array_equal(self._amps, other._amps))

    __hash__ = None  # mutable-looking payload; equality is exact array equality

    def __repr__(self) -> str:
        return f"StateVector({self._amps.tolist()!r})"


class RowError(ValueError):
    """A row of an amplitude block is not a unit state; ``row`` is its index."""

    def __init__(self, message: str, row: int) -> None:
        self.row = row
        super().__init__(message)


@np.errstate(over="ignore")
def row_norms(block: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (n, dim) complex array.

    Each is sqrt(re.re + im.im) with the stacked (n, 1, dim) @ (n, dim, 1)
    products on the dot kernel np.linalg.norm uses for one row, so it
    equals that norm bit for bit; norm(axis=1) sums in another order.
    A finite row too large to square has norm inf, without a warning.
    """
    re, im = block.real[:, None, :], block.imag[:, None, :]
    return np.sqrt((re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0, 0])


def unit_states(block: np.ndarray, tol_norm: float = TOL_NORM) -> list[StateVector]:
    """StateVectors over the rows of an (n, dim) complex128 block.

    Every row must be finite with a norm within ``tol_norm`` of 1; a
    tol_norm is refused as :func:`_check_tol` says.  Only a row that fails the
    norm test is checked for finiteness, since a non-finite row has a
    non-finite norm.  The block is made read-only; each state's amps is a
    view of its row and its _dev the measured |norm - 1|.

    Raises:
        RowError: dim < 2 (named at row 0), or the first row that is
            not finite or not of unit norm.
    """
    _check_tol(tol_norm)
    if block.shape[1] < 2:
        raise RowError(f"dimension must be at least 2, got {block.shape[1]}", 0)
    deviations = np.abs(row_norms(block) - 1.0)
    bad = ~(deviations <= tol_norm)
    if bad.any():
        i = int(bad.argmax())
        if not np.isfinite(block[i]).all():
            raise RowError("amplitudes must be finite", i)
        raise RowError(f"norm deviates from 1 by {deviations[i]:.3e}, tolerance {float(tol_norm):.1e}", i)
    block.setflags(write=False)
    states = [StateVector.__new__(StateVector) for _ in range(len(block))]
    for state, row, dev in zip(states, block, deviations.tolist()):
        state._amps, state._dev = row, dev
    return states


def inner(u: StateVector, v: StateVector) -> complex:
    """Inner product <u|v>, conjugate-linear in the first argument."""
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} != {v.dim}")
    return complex(np.vdot(u.amps, v.amps))


def certain_values(rows: np.ndarray, states: np.ndarray, tol: float = TOL_CHECK) -> np.ndarray:
    """Definite 0/1 outcomes of the projectors |v_i><v_i| on the states s_j.

    rows is an (n, dim) array of projector states and states an (m, dim)
    array.  Entry (i, j) of the (n, m) integer result is 0 when the
    projector annihilates s_j (|a| < tol for the overlap a = <v_i|s_j>),
    else 1 when s_j is an eigenvalue-1 eigenstate (the residual
    ||a v_i - s_j|| < tol), else -1 (undetermined); a tol is refused as
    :func:`_check_tol` says.  The residual is computed directly, by the ufuncs
    np.linalg.norm(axis=2) runs, so it is that norm to the bit: sqrt(1 - |a|^2)
    loses about half the digits to cancellation and would miss value 1 at tol 1e-9.
    """
    _check_tol(tol)
    a = rows.conj() @ states.T
    d = a[:, :, None] * rows[:, None, :] - states[None, :, :]
    residual = np.sqrt(np.add.reduce((d.conj() * d).real, axis=2))
    return np.where(np.abs(a) < tol, 0, np.where(residual < tol, 1, -1))


def context_deviations(stacks: np.ndarray) -> np.ndarray:
    """Spectral distances ||sum_i |v_i><v_i| - I||_2 of m contexts from the identity.

    stacks is an (m, k, dim) array holding the k member states of each
    context as rows, so every context in one call has k members.  The
    squares of the stack's singular values s are eigenvalues of
    sum_i |v_i><v_i|, beside dim - k zeros if k < dim, so a deviation is
    max|s^2 - 1|, at least 1 if k < dim: no dim x dim array is formed,
    and a context costs O(k dim min(k, dim)) time.  Each entry is a
    one-context call's, bit for bit.  For unit vectors a deviation
    eps < 1/dim forces k == dim and |<v_i|v_j>| <= eps for every pair.
    """
    k, dim = stacks.shape[1:]
    sv = np.linalg.svd(stacks, compute_uv=False)
    return np.maximum(np.abs(sv * sv - 1.0).max(axis=1), k < dim)
