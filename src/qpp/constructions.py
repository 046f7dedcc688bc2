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
A_perp (x) B, A_perp (x) B_perp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hilbert
from .hilbert import DegenerateSpanError, StateVector, TOL_CHECK
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


def _two_spin_scenario(
    pre: StateVector,
    post: StateVector,
    states: dict[str, StateVector],
    metadata: dict[str, str],
) -> PrePostScenario:
    projectors = tuple(LabeledProjector(lab, states[lab]) for lab in _LABEL_ORDER)
    return PrePostScenario(
        dim=4,
        pre=pre,
        post=post,
        projectors=projectors,
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
    pre = StateVector([1.0, 0.0, 0.0, 0.0])
    post = StateVector([1.0 / 3.0, 0.0, -math.sqrt(8.0) / 3.0, 0.0])
    states = {
        "alpha": StateVector([0.0, 0.0, 0.0, 1.0]),
        "beta+": StateVector([0.0, 0.5, r3 / 2.0, 0.0]),
        "beta-": StateVector([0.0, 0.5, -r3 / 2.0, 0.0]),
        "gamma+": StateVector([math.sqrt(2.0 / 3.0), -0.5, 1.0 / (2.0 * r3), 0.0]),
        "gamma-": StateVector([math.sqrt(2.0 / 3.0), 0.5, 1.0 / (2.0 * r3), 0.0]),
        "delta+": StateVector([1.0 / r3, 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(6.0), 0.0]),
        "delta-": StateVector([-1.0 / r3, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(6.0), 0.0]),
    }
    metadata = {
        "name": "cabello",
        "description": "two unentangled spin-1/2 particles, product pre/postselection",
    }
    return _two_spin_scenario(pre, post, states, metadata)


def cabello_family(c: float, p: float) -> CandidateConstruction:
    """One member of the two-parameter deformation of the fixed scenario.

    c is the first postselection amplitude (the fixed scenario has 1/3)
    and p the first beta amplitude (fixed scenario 1/2).  gamma+/- are
    chosen to stay orthogonal to the postselection and to beta-/+, and
    delta+/- complete the two contexts by orthocomplement.  Both
    parameters must lie strictly inside (0, 1).

    The returned construction is a valid scenario only when its
    delta_overlap vanishes; callers decide what tolerance to apply.
    """
    if not 0.0 < c < 1.0:
        raise ValueError(f"c must lie strictly inside (0, 1), got {c!r}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p!r}")

    s = math.sqrt(1.0 - c * c)
    q = math.sqrt(1.0 - p * p)
    pre = StateVector([1.0, 0.0, 0.0, 0.0])
    post = StateVector([c, 0.0, -s, 0.0])

    alpha = StateVector([0.0, 0.0, 0.0, 1.0])
    beta_p = StateVector([0.0, p, q, 0.0])
    beta_m = StateVector([0.0, p, -q, 0.0])

    def gamma(sign: float) -> StateVector:
        raw = np.array([s, -sign * c * q / p, c, 0.0], dtype=np.complex128)
        return StateVector(raw / np.linalg.norm(raw))

    gamma_p = gamma(+1.0)
    gamma_m = gamma(-1.0)
    try:
        delta_p = hilbert.orthocomplement_state([alpha, beta_p, gamma_p])
        delta_m = hilbert.orthocomplement_state([alpha, beta_m, gamma_m])
    except DegenerateSpanError as exc:
        raise DegenerateConfigurationError(f"degenerate configuration: {exc}") from exc

    states = {
        "alpha": alpha,
        "beta+": beta_p,
        "beta-": beta_m,
        "gamma+": gamma_p,
        "gamma-": gamma_m,
        "delta+": delta_p,
        "delta-": delta_m,
    }
    metadata = {
        "name": "cabello-family",
        "description": f"c={c!r}, p={p!r}",
    }
    scenario = _two_spin_scenario(pre, post, states, metadata)
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
    with c = cos(theta), s = sin(theta).  Angles outside (0, pi/2) raise
    DegenerateConfigurationError.
    """
    _check_hardy_angles(theta_a, theta_b)
    ca, sa = math.cos(theta_a), math.sin(theta_a)
    cb, sb = math.cos(theta_b), math.sin(theta_b)
    return (ca * sa * cb * sb) ** 2 / (sa * sa * cb * cb + sb * sb * ca * ca + ca * ca * cb * cb)


def hardy_scenario(theta_a: float, theta_b: float, tol: float = TOL_CHECK) -> PrePostScenario:
    """The two-qubit Hardy construction at polar angles (theta_a, theta_b).

    Single-qubit states a = cos(theta)|0> + sin(theta)|1> on each side
    define seven product propositions; the preselection is the state
    orthogonal to the first three and the postselection is a (x) b.
    Angles must lie strictly inside (0, pi/2); configurations where the
    construction collapses (rank-deficient span or vanishing selection
    overlap) raise DegenerateConfigurationError.
    """
    _check_hardy_angles(theta_a, theta_b)

    basis0 = StateVector([1.0, 0.0])
    basis1 = StateVector([0.0, 1.0])
    a = StateVector([math.cos(theta_a), math.sin(theta_a)])
    b = StateVector([math.cos(theta_b), math.sin(theta_b)])
    try:
        a_perp = hilbert.orthocomplement_state([a])
        b_perp = hilbert.orthocomplement_state([b])
    except DegenerateSpanError as exc:
        raise DegenerateConfigurationError(f"degenerate configuration: {exc}") from exc

    states = {
        "alpha": hilbert.tensor(basis0, basis0),
        "beta+": hilbert.tensor(a, basis1),
        "beta-": hilbert.tensor(basis1, b),
        "gamma+": hilbert.tensor(a_perp, basis1),
        "gamma-": hilbert.tensor(basis1, b_perp),
        "delta+": hilbert.tensor(basis1, basis0),
        "delta-": hilbert.tensor(basis0, basis1),
    }
    try:
        pre = hilbert.orthocomplement_state([states["alpha"], states["beta+"], states["beta-"]])
    except DegenerateSpanError as exc:
        raise DegenerateConfigurationError(f"degenerate configuration: {exc}") from exc
    post = hilbert.tensor(a, b)

    if abs(hilbert.inner(post, pre)) < tol:
        raise DegenerateConfigurationError(
            "degenerate configuration: postselection overlap vanishes"
        )

    metadata = {
        "name": "hardy",
        "description": f"theta_a={theta_a!r}, theta_b={theta_b!r}",
    }
    return _two_spin_scenario(pre, post, states, metadata)


def single_qubit_scenario(n_contexts: int, seed: int) -> PrePostScenario:
    """A random single-qubit scenario; always noncontextually satisfiable.

    Each context is a pair (P, I - P) for a Haar-random qubit state, so
    no contradiction can arise.  Pre/post states are resampled until the
    selection overlap is comfortably nonzero.
    """
    if n_contexts < 1:
        raise ValueError(f"n_contexts must be at least 1, got {n_contexts}")
    rng = np.random.default_rng(seed)

    def random_state() -> StateVector:
        raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        return StateVector(raw / np.linalg.norm(raw))

    pre = random_state()
    post = random_state()
    while abs(hilbert.inner(post, pre)) < 1e-3:
        post = random_state()

    projectors: list[LabeledProjector] = []
    contexts: list[Context] = []
    for k in range(n_contexts):
        base = random_state()
        perp = hilbert.orthocomplement_state([base])
        projectors.append(LabeledProjector(f"q{k}", base))
        projectors.append(LabeledProjector(f"q{k}_perp", perp))
        contexts.append(Context((f"q{k}", f"q{k}_perp")))

    metadata = {"name": "single-qubit", "description": f"n_contexts={n_contexts}, seed={seed}"}
    return PrePostScenario(
        dim=2,
        pre=pre,
        post=post,
        projectors=tuple(projectors),
        contexts=tuple(contexts),
        metadata=metadata,
    )
