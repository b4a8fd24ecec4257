"""Extreme value copulas induced from a dependence function.

The copula is ``C(u, v) = exp((ln u + ln v) * A(ln v / (ln u + ln v)))``
with boundary values handled analytically.  Evaluation and the structural
checks (max-stability, 2-increasingness) accept scalars or numpy arrays.
The conditional distribution dC/du that sampling inverts is defined in
``montecarlo`` only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_pair, check_type
from .pickands import DependenceFunction
from .rng import make_rng


@dataclass(frozen=True)
class EvCopula:
    """Immutable extreme value copula ``C(u, v)`` of a dependence function."""

    dependence: DependenceFunction

    def __post_init__(self):
        check_type(self.dependence, DependenceFunction, "dependence")

    def __call__(self, u, v):
        """``C(u, v)``; u and v outside [0, 1] are clamped, NaN raises."""
        u, v = np.broadcast_arrays(*check_pair(u, v))
        out = np.minimum(u, v, out=np.empty(u.shape))
        np.clip(out, 0.0, 1.0, out=out)  # C off the open unit square; interior overwritten
        interior = (u > 0.0) & (u < 1.0) & (v > 0.0) & (v < 1.0)
        lu = np.log(u[interior])
        lv = np.log(v[interior])
        w = lu + lv
        t = np.clip(lv / w, 0.0, 1.0)
        out[interior] = np.exp(w * self.dependence.eval_fn(t))
        return float(out) if out.ndim == 0 else out


def copula_from_pickands(df: DependenceFunction) -> EvCopula:
    """Induce the extreme value copula of a dependence function."""
    return EvCopula(dependence=df)


def check_max_stability(copula: EvCopula, seed: int = 0) -> float:
    """Max of ``|C(u^s, v^s) - C(u, v)^s|`` over 10000 random (u, v, s), s in (0, 10]."""
    check_type(copula, EvCopula, "copula")
    rng = make_rng(seed, 0x5CA1E)
    u = rng.random(10000)
    v = rng.random(10000)
    s = 10.0 * (1.0 - rng.random(10000))
    return float(np.max(np.abs(copula(u**s, v**s) - copula(u, v) ** s)))


def check_two_increasing(copula: EvCopula) -> float:
    """Minimum rectangle volume of the copula over the 64 x 64 cells of a uniform grid."""
    pts = np.linspace(0.0, 1.0, 65)
    cm = check_type(copula, EvCopula, "copula")(pts[:, None], pts[None, :])
    vol = cm[1:, 1:] - cm[:-1, 1:] - cm[1:, :-1] + cm[:-1, :-1]
    return float(vol.min())
