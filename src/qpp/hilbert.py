"""Dense complex linear algebra for small Hilbert spaces.

States are immutable wrappers around complex128 numpy arrays.  Every
proposition in the package is a rank-1 projector |v><v|, so each
projector relation is computed from the unit vector v alone: certain
values from the overlap <v|s>, pair exclusivity from |<a|b>| (the
spectral norm of the product of the two projectors), and resolutions of
identity from the spectral norm of V V^† - I.  Every dimension used in
practice is at most 8, so all storage is dense.

There is no null-space solver: every state the package builds has a
closed form, e.g. (-conj(b), conj(a)) completes the qubit state (a, b).

Two tolerance regimes are used throughout the package:

* ``TOL_NORM`` (1e-12) guards objects the package constructs itself.
* ``TOL_CHECK`` (1e-9) is the default for data supplied by callers or
  loaded from files.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "TOL_NORM",
    "TOL_CHECK",
    "StateVector",
    "tensor",
    "inner",
    "certain_value",
    "context_deviation",
]

TOL_NORM = 1e-12
TOL_CHECK = 1e-9


class StateVector:
    """Unit vector in a finite-dimensional Hilbert space.

    Args:
        amps: flat sequence of complex amplitudes, length >= 2.
        tol_norm: maximum allowed deviation of the Euclidean norm from 1.

    Raises:
        ValueError: non-flat input, dimension < 2, non-finite entries,
            or a norm deviating from 1 by more than ``tol_norm``.
    """

    __slots__ = ("_amps",)

    def __init__(self, amps, tol_norm: float = TOL_NORM) -> None:
        arr = np.array(amps, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValueError(f"amplitudes must form a flat sequence, got shape {arr.shape}")
        if arr.size < 2:
            raise ValueError(f"dimension must be at least 2, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("amplitudes must be finite")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > tol_norm:
            raise ValueError(
                f"norm deviates from 1 by {abs(norm - 1.0):.3e}, tolerance {tol_norm:.1e}"
            )
        arr.setflags(write=False)
        self._amps = arr

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


def tensor(u: StateVector, v: StateVector) -> StateVector:
    """Tensor product of two states.

    The result lives in the product space with amplitude layout
    amps[i * v.dim + j] = u.amps[i] * v.amps[j], so the product basis of
    two qubits is ordered (00, 01, 10, 11).
    """
    return StateVector(np.kron(u.amps, v.amps), tol_norm=TOL_NORM)


def inner(u: StateVector, v: StateVector) -> complex:
    """Inner product <u|v>, conjugate-linear in the first argument."""
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} != {v.dim}")
    return complex(np.vdot(u.amps, v.amps))


def certain_value(v: StateVector, s: StateVector, tol: float = TOL_CHECK) -> int | None:
    """Definite 0/1 outcome of measuring the projector |v><v| on state s, if any.

    With the overlap a = <v|s>, returns 0 when |a| < tol (the projector
    annihilates s), 1 when the residual ||a v - s|| < tol (s is an
    eigenvalue-1 eigenstate), and None otherwise.  The residual is
    computed directly: sqrt(1 - |a|^2) loses about half the digits to
    cancellation and would miss value 1 at tol 1e-9.

    Raises:
        ValueError: dimension mismatch.
    """
    a = inner(v, s)
    if abs(a) < tol:
        return 0
    if float(np.linalg.norm(a * v.amps - s.amps)) < tol:
        return 1
    return None


def context_deviation(states: list[StateVector]) -> float:
    """Spectral distance ||sum_i |v_i><v_i| - I||_2 of a context from the identity.

    Zero exactly when the states form an orthonormal basis; a missing
    member reads as 1.  With V the matrix of column vectors, V V^† and
    V^† V share their nonzero eigenvalues, so for unit vectors a
    deviation eps < 1/dim forces len(states) == dim and
    |<v_i|v_j>| <= eps for every pair: no pairwise check is needed.

    Raises:
        ValueError: empty list or mixed dimensions.
    """
    if not states:
        raise ValueError("empty state list")
    dim = states[0].dim
    for s in states:
        if s.dim != dim:
            raise ValueError(f"dimension mismatch: {s.dim} != {dim}")
    v = np.array([s.amps for s in states]).T
    return float(np.linalg.norm(v @ v.conj().T - np.eye(dim), 2))
