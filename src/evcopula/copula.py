"""Extreme value copulas induced from a dependence function.

The copula is ``C(u, v) = exp((ln u + ln v) * A(ln v / (ln u + ln v)))``
with boundary values handled analytically.  Evaluation, the conditional
distribution dC/du, the survival transform, and structural checks
(max-stability, 2-increasingness) all accept scalars or numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParamOutOfRangeError, check_unit_interval
from .pickands import DependenceFunction
from .rng import make_rng


@dataclass(frozen=True)
class EvCopula:
    """Immutable extreme value copula with conditional-distribution access."""

    dependence: DependenceFunction

    @property
    def diag_exponent(self) -> float:
        """Exponent in the diagonal law ``C(u, u) = u**diag_exponent``."""
        return 2.0 * self.dependence(0.5)

    def __call__(self, u, v):
        """``C(u, v)``; u and v outside [0, 1] are clamped, NaN raises."""
        u, v, scalar = _uv(u, v)
        out = np.minimum(u, v, out=np.empty(u.shape))
        np.clip(out, 0.0, 1.0, out=out)  # C off the open unit square; interior overwritten
        interior = (u > 0.0) & (u < 1.0) & (v > 0.0) & (v < 1.0)
        lu = np.log(u[interior])
        lv = np.log(v[interior])
        w = lu + lv
        t = np.clip(lv / w, 0.0, 1.0)
        out[interior] = np.exp(w * self.dependence.eval_fn(t))
        return float(out) if scalar else out

    def partial_u(self, u, v):
        """Conditional distribution ``P(V <= v | U = u) = dC/du``.

        At kink-induced jump curves the right limit in v is returned, so
        ``v -> partial_u(u, v)`` is a right-continuous CDF.  Because t
        decreases in v, that corresponds to the left derivative of the
        dependence function.
        """
        u, v, scalar = _uv(u, v)
        if not np.all((u > 0.0) & (u <= 1.0)):
            raise ParamOutOfRangeError("partial_u requires u in (0, 1]")
        out = np.where(v >= 1.0, 1.0, 0.0)
        interior = (v > 0.0) & (v < 1.0)
        out[interior] = self._partial_u_interior(np.log(u[interior]), np.log(v[interior]))
        np.clip(out, 0.0, 1.0, out=out)
        return float(out) if scalar else out

    def _partial_u_interior(self, lu, lv):
        """Unclipped dC/du from ``ln u`` and ``ln v``, for u in (0, 1] and v in (0, 1).

        The shared kernel of :meth:`partial_u` and the conditional-inversion
        sampler; it does no validation.
        """
        w = lu + lv
        t = np.clip(lv / w, 0.0, 1.0)
        a = self.dependence.eval_fn(t)
        da = self.dependence.deriv_fn(t, "left")
        return np.exp(w * a - lu) * (a - t * da)


def _uv(u, v) -> tuple:
    """u and v as broadcast float arrays, and whether both were scalars.

    Bools, strings, NaN and shapes that do not broadcast raise ParamOutOfRangeError.
    """
    scalar = np.ndim(u) == 0 and np.ndim(v) == 0
    u, v = np.asarray(u), np.asarray(v)
    if u.dtype.kind not in "iuf" or v.dtype.kind not in "iuf":
        raise ParamOutOfRangeError(f"copula requires real u and v, got {u.dtype} and {v.dtype}")
    u, v = u.astype(float, copy=False), v.astype(float, copy=False)
    if np.isnan(u).any() or np.isnan(v).any():
        raise ParamOutOfRangeError("copula requires u and v to be numbers, got NaN")
    try:
        u, v = np.broadcast_arrays(u, v)
    except ValueError:
        raise ParamOutOfRangeError(
            f"u and v must broadcast together, got shapes {u.shape} and {v.shape}"
        ) from None
    return u, v, scalar


def copula_from_pickands(df: DependenceFunction) -> EvCopula:
    """Induce the extreme value copula of a dependence function."""
    return EvCopula(dependence=df)


def survival(copula, u, v):
    """Survival transform ``u + v - 1 + C(1 - u, 1 - v)``.

    ``copula`` may be any evaluator of two arguments; applying the
    transform twice recovers the original values.
    """
    u, v = check_unit_interval(u, "u"), check_unit_interval(v, "v")
    return u + v - 1.0 + copula(1.0 - u, 1.0 - v)


def check_max_stability(copula: EvCopula, seed: int = 0) -> float:
    """Max of ``|C(u^s, v^s) - C(u, v)^s|`` over 10000 random (u, v, s), s in (0, 10]."""
    rng = make_rng(seed, 0x5CA1E)
    u = rng.random(10000)
    v = rng.random(10000)
    s = 10.0 * (1.0 - rng.random(10000))
    return float(np.max(np.abs(copula(u**s, v**s) - copula(u, v) ** s)))


def check_two_increasing(copula: EvCopula) -> float:
    """Minimum rectangle volume of the copula over the 64 x 64 cells of a uniform grid."""
    pts = np.linspace(0.0, 1.0, 65)
    cm = copula(pts[:, None], pts[None, :])
    vol = cm[1:, 1:] - cm[:-1, 1:] - cm[1:, :-1] + cm[:-1, :-1]
    return float(vol.min())
