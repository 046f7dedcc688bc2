"""Selection-based reasoning: forced values and the ABL probability.

A projector's value can be forced by the preselected state alone (the
outcome is certain in advance), or by the postselected state alone (the
outcome can be inferred backward with certainty).  forced_values()
collects both kinds.  abl_probability() gives the probability of finding
value 1 for an intermediate ideal measurement of a single projector,
conditioned on both selections.
"""

from __future__ import annotations

from . import hilbert
from .hilbert import TOL_CHECK
from .scenario import PREDICTION, RETRODICTION, ForcedValue, PrePostScenario

__all__ = [
    "SelectionInconsistencyError",
    "ABLUndefinedError",
    "selection_probability",
    "forced_values",
    "abl_probability",
]


class SelectionInconsistencyError(ValueError):
    """Prediction and retrodiction force different values on one projector."""


class ABLUndefinedError(ValueError):
    """Both conditional branches vanish; the ABL ratio is 0/0."""


def selection_probability(s: PrePostScenario) -> float:
    """|<post|pre>|^2, the success probability of the postselection."""
    return abs(hilbert.inner(s.post, s.pre)) ** 2


def forced_values(s: PrePostScenario, tol: float = TOL_CHECK) -> tuple[ForcedValue, ...]:
    """Values fixed by either selection, sorted by label.

    A projector with the preselected state as an eigenvector gets its
    eigenvalue by prediction; failing that, an eigenvector relation with
    the postselected state forces the value by retrodiction.  When both
    selections force values they must agree, otherwise the scenario has
    no consistent intermediate history.  Every value comes from one
    :func:`hilbert.certain_values` call over ``s.states`` and the two
    selections, the first two rows of the scenario's block, which refuses
    a tol that is not a positive, finite real number.
    """
    values = hilbert.certain_values(s.states, s._block[:2], tol).tolist()
    out: list[ForcedValue] = []
    for label in sorted(s.rows):
        vp, vr = values[s.rows[label]]
        if vp >= 0 and vr >= 0 and vp != vr:
            raise SelectionInconsistencyError(
                f"projector {label!r}: prediction gives {vp} but retrodiction gives {vr}"
            )
        if vp >= 0:
            out.append(ForcedValue(label, vp, PREDICTION))
        elif vr >= 0:
            out.append(ForcedValue(label, vr, RETRODICTION))
    return tuple(out)


def abl_probability(s: PrePostScenario, label: str, tol: float = TOL_CHECK) -> float:
    """Probability of outcome 1 for an intermediate measurement of one projector.

    Computed as N1 / (N1 + N0) with N1 = |<post|P|pre>|^2 and
    N0 = |<post|(I - P)|pre>|^2, where P = |v><v| gives
    <post|P|pre> = <post|v><v|pre>.

    Raises:
        TypeError: tol is not a real number.
        ValueError: unknown label, or tol not positive and finite.
        ABLUndefinedError: N1 + N0 is below tol; the conditional
            probability is not defined.
    """
    hilbert._check_tol(tol)
    if label not in s.rows:
        raise ValueError(f"unknown projector label {label!r}")
    v = s.projectors[s.rows[label]].state
    amp1 = hilbert.inner(s.post, v) * hilbert.inner(v, s.pre)
    amp_total = hilbert.inner(s.post, s.pre)
    n1 = abs(amp1) ** 2
    total = n1 + abs(amp_total - amp1) ** 2
    if not total >= tol:
        raise ABLUndefinedError(
            f"projector {label!r}: both branches vanish (N1 + N0 = {total:.3e})"
        )
    return n1 / total
