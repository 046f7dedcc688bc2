"""Concrete scenario builders.

Three families are provided:

* :func:`cabello_scenario`: the fixed two-spin construction in which two
  unentangled particles, pre- and postselected in product states, carry
  seven propositions whose forced values contradict every noncontextual
  assignment.
* :func:`cabello_family`: a two-parameter deformation of the same
  construction, used to show the original sits at the optimum of its
  family.
* :func:`hardy_scenario` / :func:`hardy_probability`: the two-qubit
  Hardy construction parameterized by two polar angles and its
  selection probability in closed form, plus
  :func:`single_qubit_scenario` for random contradiction-free baselines.

All states are written in the product basis ordered A (x) B, A (x) B_perp,
A_perp (x) B, A_perp (x) B_perp.  Every state completing a basis is a
closed form: (sin, -cos) completes a real qubit (cos, sin), and
(-conj(b), conj(a)) a complex one (a, b); the Hardy preselection and the
family's gamma+/- and delta+/- are given in their builders.  Their norms
are positive over the open parameter ranges, so none can degenerate.
Each builder writes its states as plain amplitudes and checks all of
them, pre and post included, as one block in one
:func:`hilbert.unit_states` call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import hilbert
from .hilbert import TOL_CHECK
from .scenario import Context, LabeledProjector, PrePostScenario

__all__ = [
    "DegenerateConfigurationError",
    "CONTEXT_PLUS",
    "CONTEXT_MINUS",
    "DELTA_PAIR",
    "CandidateConstruction",
    "cabello_scenario",
    "cabello_family",
    "hardy_probability",
    "hardy_scenario",
    "single_qubit_scenario",
]

CONTEXT_PLUS = ("alpha", "beta+", "gamma+", "delta+")
CONTEXT_MINUS = ("alpha", "beta-", "gamma-", "delta-")
DELTA_PAIR = ("delta+", "delta-")

_LABEL_ORDER = ("alpha", "beta+", "beta-", "gamma+", "gamma-", "delta+", "delta-")


class DegenerateConfigurationError(ValueError):
    """Parameters for which the intended construction collapses."""


@dataclass(frozen=True)
class CandidateConstruction:
    """A family member together with its exclusivity defect.

    delta_overlap is |<delta+|delta->|; the pair of contexts only forms
    a valid scenario (with delta+ and delta- exclusive) when it vanishes.
    """

    scenario: PrePostScenario
    c: float
    p: float
    delta_overlap: float


def _two_spin_scenario(pre, post, states: dict, metadata: dict[str, str]) -> PrePostScenario:
    """The two-context scenario over plain amplitude lists, checked as one block.

    pre, post and the seven projector states (keyed by label) are
    stacked into one (9, 4) complex128 block, and one
    :func:`hilbert.unit_states` call checks every row.
    """
    block = np.array([pre, post, *(states[lab] for lab in _LABEL_ORDER)], dtype=np.complex128)
    pre_state, post_state, *rows = hilbert.unit_states(block)
    return PrePostScenario(
        dim=4,
        pre=pre_state,
        post=post_state,
        projectors=tuple(map(LabeledProjector, _LABEL_ORDER, rows)),
        contexts=(Context(CONTEXT_PLUS), Context(CONTEXT_MINUS)),
        exclusive_pairs=(DELTA_PAIR,),
        metadata=metadata,
    )


def cabello_scenario() -> PrePostScenario:
    """The fixed two-spin scenario with its seven standard propositions.

    Preselection is the product state along +z for both particles;
    postselection mixes the first particle's z eigenstates with weights
    1/3 and -sqrt(8)/3.  The seven projector states below make both
    contexts exact resolutions of identity, and the selection forces
    alpha, beta+/- to 0 by prediction and gamma+/- to 0 by retrodiction,
    while each context's sum rule then forces delta+ and delta- to 1,
    contradicting their exclusivity.
    """
    r3 = math.sqrt(3.0)
    pre = [1.0, 0.0, 0.0, 0.0]
    post = [1.0 / 3.0, 0.0, -math.sqrt(8.0) / 3.0, 0.0]
    states = {
        "alpha": [0.0, 0.0, 0.0, 1.0],
        "beta+": [0.0, 0.5, r3 / 2.0, 0.0],
        "beta-": [0.0, 0.5, -r3 / 2.0, 0.0],
        "gamma+": [math.sqrt(2.0 / 3.0), -0.5, 1.0 / (2.0 * r3), 0.0],
        "gamma-": [math.sqrt(2.0 / 3.0), 0.5, 1.0 / (2.0 * r3), 0.0],
        "delta+": [1.0 / r3, 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(6.0), 0.0],
        "delta-": [-1.0 / r3, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(6.0), 0.0],
    }
    metadata = {
        "name": "cabello",
        "description": "two unentangled spin-1/2 particles, product pre/postselection",
    }
    return _two_spin_scenario(pre, post, states, metadata)


def cabello_family(c: float, p: float) -> CandidateConstruction:
    """One member of the two-parameter deformation of the fixed scenario.

    c is the first postselection amplitude (the fixed scenario has 1/3)
    and p the first beta amplitude (fixed scenario 1/2); both must lie
    in [sys.float_info.min, 1), since below the smallest normal float
    hypot(c, s p) loses the digits that keep gamma+/- unit.  With
    s = sqrt(1 - c^2), q = sqrt(1 - p^2) and g = hypot(c, s p) > 0,
    gamma+/- = (s p, -/+c q, c p, 0) / g is orthogonal to the
    postselection and to beta+/-, and
    delta+/- = (c, +/-s p q, -s p^2, 0) / g completes each context.

    The returned construction is a valid scenario only when its
    delta_overlap vanishes; callers decide what tolerance to apply.
    """
    for name, val in (("c", c), ("p", p)):
        if not sys.float_info.min <= val < 1.0:
            raise ValueError(f"{name} must lie in [{sys.float_info.min!r}, 1), got {val!r}")

    s = math.sqrt(1.0 - c * c)
    q = math.sqrt(1.0 - p * p)
    g = math.hypot(c, s * p)
    states = {
        "alpha": [0.0, 0.0, 0.0, 1.0],
        "beta+": [0.0, p, q, 0.0],
        "beta-": [0.0, p, -q, 0.0],
        "gamma+": [s * p / g, -c * q / g, c * p / g, 0.0],
        "gamma-": [s * p / g, c * q / g, c * p / g, 0.0],
        "delta+": [c / g, s * p * q / g, -s * p * p / g, 0.0],
        "delta-": [c / g, -s * p * q / g, -s * p * p / g, 0.0],
    }
    metadata = {
        "name": "cabello-family",
        "description": f"c={c!r}, p={p!r}",
    }
    scenario = _two_spin_scenario([1.0, 0.0, 0.0, 0.0], [c, 0.0, -s, 0.0], states, metadata)
    delta_p, delta_m = (scenario.projectors[scenario.rows[lab]].state for lab in DELTA_PAIR)
    overlap = abs(hilbert.inner(delta_p, delta_m))
    return CandidateConstruction(scenario=scenario, c=c, p=p, delta_overlap=overlap)


def _check_hardy_angles(theta_a: float, theta_b: float) -> None:
    half_pi = math.pi / 2.0
    for name, val in (("theta_a", theta_a), ("theta_b", theta_b)):
        if not 0.0 < val < half_pi:
            raise DegenerateConfigurationError(
                f"degenerate configuration: {name}={val!r} outside (0, pi/2)"
            )


def hardy_probability(theta_a: float, theta_b: float) -> float:
    """The selection probability of :func:`hardy_scenario`, in closed form.

    |<a b|pre>|^2 = (c_a s_a c_b s_b)^2 / (s_a^2 c_b^2 + s_b^2 c_a^2 + c_a^2 c_b^2)
    with c = cos(theta), s = sin(theta); the square is n * n, so floats and
    broadcast arrays give the same bits.  Angles outside (0, pi/2) raise
    DegenerateConfigurationError.
    """
    _check_hardy_angles(theta_a, theta_b)
    return _hardy_ratio(math.cos(theta_a), math.sin(theta_a), math.cos(theta_b), math.sin(theta_b))


def _hardy_ratio(ca, sa, cb, sb):
    n = ca * sa * cb * sb
    return n * n / (sa * sa * cb * cb + sb * sb * ca * ca + ca * ca * cb * cb)


def hardy_scenario(theta_a: float, theta_b: float, tol: float = TOL_CHECK) -> PrePostScenario:
    """The two-qubit Hardy construction at polar angles (theta_a, theta_b).

    Single-qubit states a = cos(theta)|0> + sin(theta)|1> and
    a_perp = sin(theta)|0> - cos(theta)|1> on each side define seven
    product propositions.  The postselection is a (x) b, and the
    preselection (0, s_a c_b, c_a s_b, -c_a c_b) / N, with N the root of
    the denominator of :func:`hardy_probability`, is orthogonal to alpha
    and beta+/-.  Angles must lie strictly inside (0, pi/2), and a
    postselection overlap below tol is refused; both raise
    DegenerateConfigurationError.  tol must be a real number (else
    TypeError), positive and finite (else ValueError).
    """
    hilbert._check_tol(tol)
    _check_hardy_angles(theta_a, theta_b)
    ca, sa = math.cos(theta_a), math.sin(theta_a)
    cb, sb = math.cos(theta_b), math.sin(theta_b)

    # Rows 0, 1, a, a_perp, b, b_perp; each two-qubit row is the product
    # of one left and one right row, entry by entry as np.kron forms it.
    qubits = np.array(
        [[1.0, 0.0], [0.0, 1.0], [ca, sa], [sa, -ca], [cb, sb], [sb, -cb]], dtype=np.complex128
    )
    left, right = [2, 0, 2, 1, 3, 1, 1, 0], [4, 0, 1, 4, 1, 5, 0, 1]
    post, *rows = (qubits[left][:, :, None] * qubits[right][:, None, :]).reshape(8, 4)
    n = math.hypot(sa * cb, ca * sb, ca * cb)
    pre = [0.0, sa * cb / n, ca * sb / n, -ca * cb / n]
    metadata = {
        "name": "hardy",
        "description": f"theta_a={theta_a!r}, theta_b={theta_b!r}",
    }
    scenario = _two_spin_scenario(pre, post, dict(zip(_LABEL_ORDER, rows)), metadata)
    if abs(hilbert.inner(scenario.post, scenario.pre)) < tol:
        raise DegenerateConfigurationError(
            "degenerate configuration: postselection overlap vanishes"
        )
    return scenario


def single_qubit_scenario(n_contexts: int, seed: int) -> PrePostScenario:
    """A random single-qubit scenario; always noncontextually satisfiable.

    Each context is a pair (P, I - P) for a Haar-random qubit state, so
    no contradiction can arise.  Pre/post states are resampled until the
    selection overlap is comfortably nonzero.  n_contexts and seed must be
    integers (else TypeError) of at least 1 and 0 (else ValueError).
    """
    n_contexts = hilbert._check_int("n_contexts", n_contexts, 1)
    seed = hilbert._check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)

    def random_states(count: int) -> np.ndarray:
        raw = rng.standard_normal((count, 2, 2))
        z = raw[:, 0] + 1j * raw[:, 1]
        return z / hilbert.row_norms(z)[:, None]

    pre, post = random_states(2)
    while abs(np.vdot(post, pre)) < 1e-3:
        (post,) = random_states(1)
    base = random_states(n_contexts)
    perp = np.stack((-base[:, 1].conj(), base[:, 0].conj()), axis=1)
    pre_state, post_state, *rows = hilbert.unit_states(
        np.vstack((pre, post, np.stack((base, perp), axis=1).reshape(-1, 2)))
    )
    labels = [f"q{k}{suffix}" for k in range(n_contexts) for suffix in ("", "_perp")]
    metadata = {"name": "single-qubit", "description": f"n_contexts={n_contexts}, seed={seed}"}
    return PrePostScenario(
        dim=2,
        pre=pre_state,
        post=post_state,
        projectors=tuple(map(LabeledProjector, labels, rows)),
        contexts=tuple(Context(pair) for pair in zip(labels[::2], labels[1::2])),
        metadata=metadata,
    )
