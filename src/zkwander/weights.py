"""Weight sequences for the weighted Hardy spaces under study.

A sequence assigns a strictly positive weight omega_t to each degree t >= 0;
the norm is  ||f||^2 = sum |a_t|^2 omega_t.  Every sequence is a Dirichlet
sequence with finitely many weights changed:

* ``dirichlet(alpha)`` -- omega_t = (t+1)^alpha.  alpha = -1, 0, 1 give the
  Bergman, Hardy and Dirichlet norms.
* ``perturbed(base, overrides)`` -- equal to ``base`` except at finitely many
  indices, whose exact rational values are stored explicitly.

Weights are exact rationals (integer alpha only) or outward rounded intervals.
"""

from __future__ import annotations

from bisect import bisect_left

from .record import Record, store
from .scalars import (INTERVAL, RATIONAL, power, rational_from_json,
                      to_rational, to_regime)

DIRICHLET = "dirichlet"
PERTURBED = "perturbed"


class WeightSequence(Record):
    """The Dirichlet weights (t+1)^alpha except at the overridden degrees;
    with no overrides, D_alpha itself."""

    __slots__ = ("alpha", "overrides")

    def __init__(self, alpha, overrides=()):
        store(self, "alpha", alpha)             # a Fraction
        store(self, "overrides", overrides)     # sorted ((t, Fraction), ...)


def dirichlet(alpha) -> WeightSequence:
    return WeightSequence(to_rational(alpha))


def perturbed(base: WeightSequence, overrides: dict) -> WeightSequence:
    """base with the given weights; they win over base's own overrides."""
    items = {}
    for t, v in overrides.items():
        if isinstance(t, bool) or not isinstance(t, int) or t < 0:
            raise ValueError(f"override index must be an int >= 0, got {t!r}")
        v = to_rational(v)
        if v <= 0:
            raise ValueError(f"override value at {t} must be positive")
        items[t] = v
    merged = {**dict(base.overrides), **items}
    return WeightSequence(base.alpha, tuple(sorted(merged.items())))


def weight(seq: WeightSequence, t: int, regime: str = RATIONAL):
    """omega_t of the sequence in the requested regime."""
    if t < 0:
        raise ValueError("degree must be >= 0")
    # (t,) sorts just before (t, v): a bisection that compares no values
    i = bisect_left(seq.overrides, (t,))
    if i < len(seq.overrides) and seq.overrides[i][0] == t:
        return to_regime(seq.overrides[i][1], regime)
    return power(t + 1, seq.alpha, regime)


def exact_regime(seq: WeightSequence, indices) -> str:
    """RATIONAL when every weight of seq at the indices is rational, that is
    when alpha is an integer or every index is overridden; INTERVAL
    otherwise: the regime that is exact, or encloses, there."""
    if seq.alpha.denominator == 1:
        return RATIONAL
    overridden = {t for t, _ in seq.overrides}
    return RATIONAL if all(t in overridden for t in indices) else INTERVAL


# ---------------------------------------------------------------------------
# serialization

def weights_to_dict(seq: WeightSequence) -> dict:
    """A Dirichlet object, or a perturbed one on a Dirichlet base."""
    obj = {"kind": DIRICHLET, "alpha": str(seq.alpha)}
    if not seq.overrides:
        return obj
    return {"kind": PERTURBED, "base": obj,
            "overrides": {str(t): str(v) for t, v in seq.overrides}}


def weights_from_dict(obj: dict) -> WeightSequence:
    """The inverse of weights_to_dict; any other base is refused."""
    overrides = {}
    if obj["kind"] == PERTURBED:
        overrides = {int(t): rational_from_json(v)
                     for t, v in obj["overrides"].items()}
        obj = obj["base"]
    if obj["kind"] != DIRICHLET:
        raise ValueError("weights must be dirichlet or perturbed on a "
                         f"dirichlet base, got kind {obj['kind']!r}")
    return perturbed(dirichlet(rational_from_json(obj["alpha"])), overrides)
