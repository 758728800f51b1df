"""Coefficient fields for the second-order part of the operator.

A coefficient field packages the diffusion matrix a2(t, x) (d x d, uniformly
elliptic on the first d coordinates), optional first- and zero-order terms
a1(t, x) and a0(t, x), the ellipticity constant mu, the declared space
Holder exponent alpha_bar and the horizon T.  All callables are vectorized:
they accept (t, x) with t of shape (M,) and x of shape (M, N) and return
(M, d, d), (M, d) and (M,) respectively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidData


@dataclass(frozen=True, eq=False)
class CoefficientField:
    d: int
    T: float
    mu: float
    alpha_bar: float
    a2: Callable
    a1: Optional[Callable] = None
    a0: Optional[Callable] = None
    t_breaks: tuple = ()
    constant_a2: Optional[np.ndarray] = None
    space_dependent_a2: bool = True
    name: str = "custom"

    def __post_init__(self):
        if not (0 < self.alpha_bar <= 1):
            raise InvalidData(f"alpha_bar must lie in (0, 1], got {self.alpha_bar}")
        if self.mu < 1:
            raise InvalidData(f"ellipticity constant mu must be >= 1, got {self.mu}")
        if not (self.T > 0):
            raise InvalidData(f"horizon T must be positive, got {self.T}")

    @property
    def levi_trivial(self) -> bool:
        """True when the frozen kernel is already exact (no correction series).

        Holds when a2 does not depend on space (the frozen coefficient then
        coincides with the true one along every flow line) and there are no
        lower-order terms.
        """
        return (not self.space_dependent_a2) and self.a1 is None and self.a0 is None


def _const_matrix(value, d: int) -> np.ndarray:
    A = np.asarray(value, dtype=float)
    if A.ndim == 0:
        A = float(A) * np.eye(d)
    if A.shape != (d, d):
        raise InvalidData(f"constant a2 must be scalar or ({d},{d})")
    if not np.allclose(A, A.T, atol=1e-12):
        raise InvalidData("constant a2 must be symmetric")
    if np.linalg.eigvalsh(A)[0] <= 0:
        raise InvalidData("constant a2 must be positive definite")
    return A


def _wrap_const_vec(vec, d):
    v = np.broadcast_to(np.asarray(vec, dtype=float), (d,)).copy()

    def a1(t, x):
        return np.broadcast_to(v, (np.shape(t)[0], d)).copy()

    return a1


def _wrap_const_scalar(c):
    c = float(c)

    def a0(t, x):
        return np.full(np.shape(t)[0], c)

    return a0


def make_coefficients(name: str, d: int = 1, T: float = 1.0, **params) -> CoefficientField:
    """Build one of the named coefficient families.

    constant:          a2 = sigma2 (scalar or matrix), optional a1, a0.
    space-sinusoidal:  a2 = (base + amplitude*sin(x[axis])) * I_d.
    time-piecewise:    a2 = values[k] * I_d on [breaks[k], breaks[k+1]).
    """
    a1 = params.pop("a1", None)
    a0 = params.pop("a0", None)
    a1_fn = _wrap_const_vec(a1, d) if a1 is not None else None
    a0_fn = _wrap_const_scalar(a0) if a0 is not None else None

    if name == "constant":
        A = _const_matrix(params.pop("sigma2", 1.0), d)
        ev = np.linalg.eigvalsh(A)
        mu = params.pop("mu", max(float(ev[-1]), 1.0 / float(ev[0]), 1.0))
        alpha_bar = params.pop("alpha_bar", 1.0)

        def a2(t, x):
            return np.broadcast_to(A, (np.shape(t)[0], d, d)).copy()

        cf = CoefficientField(
            d=d, T=T, mu=mu, alpha_bar=alpha_bar, a2=a2, a1=a1_fn, a0=a0_fn,
            constant_a2=A, space_dependent_a2=False, name=name,
        )
    elif name == "space-sinusoidal":
        base = float(params.pop("base", 1.0))
        amp = float(params.pop("amplitude", 0.3))
        axis = int(params.pop("axis", 1))
        if not 0 < amp < base:
            raise InvalidData("need 0 < amplitude < base for ellipticity")
        mu = params.pop("mu", max(base + amp, 1.0 / (base - amp)))
        alpha_bar = params.pop("alpha_bar", 1.0 / 3.0)

        def a2(t, x):
            s = base + amp * np.sin(np.asarray(x)[..., axis])
            return s[..., None, None] * np.eye(d)

        cf = CoefficientField(
            d=d, T=T, mu=mu, alpha_bar=alpha_bar, a2=a2, a1=a1_fn, a0=a0_fn,
            space_dependent_a2=True, name=name,
        )
    elif name == "time-piecewise":
        values = np.asarray(params.pop("values", (1.0, 2.0)), dtype=float)
        breaks = tuple(float(b) for b in params.pop("breaks", (0.5,)))
        if np.any(values <= 0):
            raise InvalidData("piecewise values must be positive")
        if list(breaks) != sorted(breaks):
            raise InvalidData("breaks must be increasing")
        if len(values) != len(breaks) + 1:
            raise InvalidData("need len(values) == len(breaks) + 1")
        mu = params.pop("mu", max(float(values.max()), 1.0 / float(values.min())))
        alpha_bar = params.pop("alpha_bar", 1.0)
        edges = np.asarray(breaks)

        def a2(t, x):
            idx = np.searchsorted(edges, np.asarray(t, dtype=float), side="right")
            return values[idx][:, None, None] * np.eye(d)

        cf = CoefficientField(
            d=d, T=T, mu=mu, alpha_bar=alpha_bar, a2=a2, a1=a1_fn, a0=a0_fn,
            t_breaks=breaks, space_dependent_a2=False, name=name,
        )
    else:
        raise InvalidData(f"unknown coefficient family '{name}'")
    if params:
        raise InvalidData(f"unused parameters for family '{name}': {sorted(params)}")
    return cf


def ellipticity_check(cf: CoefficientField, t, x) -> tuple[bool, float, float]:
    """Sample the two-sided ellipticity bounds of a2 at the given points.

    Returns (holds, worst lower eigenvalue, worst upper eigenvalue); the
    bounds demanded are 1/mu and mu.
    """
    A = cf.a2(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    ev = np.linalg.eigvalsh(0.5 * (A + np.swapaxes(A, -1, -2)))
    lo = float(ev[..., 0].min())
    hi = float(ev[..., -1].max())
    ok = lo >= 1.0 / cf.mu - 1e-12 and hi <= cf.mu + 1e-12
    return ok, lo, hi
