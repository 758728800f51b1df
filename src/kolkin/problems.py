"""Named terminal-value problems: datum and source families plus the
problem container consumed by the solver, the Monte Carlo oracle, and the
verification suites.

Data are callables on stacked points; each family declares the regularity
index it was designed to have (beta for terminal data, gamma and a spatial
exponent for sources), so blow-up fits can compare measured slopes against
declared smoothness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .coefficients import CoefficientField
from .errors import InvalidData
from .structure import DriftStructure


@dataclass
class Datum:
    """Terminal datum g with its declared regularity index beta."""

    fn: Callable
    beta: float
    name: str = "datum"

    def __call__(self, y):
        return np.asarray(self.fn(np.atleast_2d(np.asarray(y, dtype=float))))


@dataclass
class Source:
    """Source term f(tau, y) with its declared weight and spatial exponent."""

    fn: Callable
    gamma: float = 0.0
    alpha: float = 0.5
    name: str = "source"

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise InvalidData(f"source weight gamma must be in [0,1), got {self.gamma}")

    def __call__(self, tau, y):
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return np.asarray(self.fn(tau, y))


def make_datum(name: str, **params) -> Datum:
    """Named terminal-datum families.

    constant: g = c                                  (smooth)
    linear:   g = <c, y>                             (declared beta = 1)
    abs:      g = |y_axis|                           (beta = 1 kink at 0)
    kink-power: g = |sin y_axis|^beta, beta <= 1, or
                sign(sin y_axis)|sin y_axis|^beta, beta in (1,2]
    signed-square: g = y_axis |y_axis| / 2            (beta = 2: second
                derivative bounded with a jump, no oscillation)
    sine:     g = amplitude * sin(y_axis + phase)    (smooth)
    """
    p = dict(params)
    axis = int(p.pop("axis", 0))
    if name == "constant":
        c = float(p.pop("value", 1.0))
        _check_empty(name, p)
        return Datum(fn=lambda y: np.full(y.shape[0], c), beta=2.0, name=name)
    if name == "linear":
        cvec = p.pop("c", None)
        beta = float(p.pop("beta", 1.0))
        _check_empty(name, p)
        if cvec is None:
            raise InvalidData("linear datum needs coefficient vector c")
        c = np.asarray(cvec, dtype=float)
        return Datum(fn=lambda y: y @ c, beta=beta, name=name)
    if name == "abs":
        _check_empty(name, p)
        return Datum(
            fn=lambda y: np.abs(y[:, axis]),
            beta=1.0,
            name=name,
        )
    if name == "kink-power":
        beta = float(p.pop("beta", 1.0))
        _check_empty(name, p)
        if not 0.0 < beta <= 2.0:
            raise InvalidData(f"kink-power datum needs beta in (0,2], got {beta}")
        if beta <= 1.0:
            fn = lambda y: np.abs(np.sin(y[:, axis])) ** beta
        else:
            fn = lambda y: np.sign(np.sin(y[:, axis])) * np.abs(np.sin(y[:, axis])) ** beta
        return Datum(fn=fn, beta=beta, name=name)
    if name == "signed-square":
        _check_empty(name, p)
        return Datum(
            fn=lambda y: 0.5 * y[:, axis] * np.abs(y[:, axis]),
            beta=2.0,
            name=name,
        )
    if name == "sine":
        amp = float(p.pop("amplitude", 1.0))
        phase = float(p.pop("phase", 0.0))
        _check_empty(name, p)
        return Datum(
            fn=lambda y: amp * np.sin(y[:, axis] + phase),
            beta=2.0,
            name=name,
        )
    raise InvalidData(f"unknown datum family '{name}'")


def make_source(name: str, **params) -> Source:
    """Named source families.

    constant:      f = c
    coordinate:    f = y_axis
    sine:          f = amplitude * sin(y_axis)
    weighted-time: f = (T - tau)^(-gamma) * cos(y_axis); needs T and gamma
    """
    p = dict(params)
    axis = int(p.pop("axis", 0))
    alpha = float(p.pop("alpha", 0.5))
    if name == "constant":
        c = float(p.pop("value", 1.0))
        _check_empty(name, p)
        return Source(
            fn=lambda tau, y: np.full(tau.size, c),
            alpha=alpha,
            name=name,
        )
    if name == "coordinate":
        _check_empty(name, p)
        return Source(
            fn=lambda tau, y: y[:, axis].copy(),
            alpha=alpha,
            name=name,
        )
    if name == "sine":
        amp = float(p.pop("amplitude", 1.0))
        _check_empty(name, p)
        return Source(
            fn=lambda tau, y: amp * np.sin(y[:, axis]),
            alpha=alpha,
            name=name,
        )
    if name == "weighted-time":
        gamma = float(p.pop("gamma", 0.5))
        T = p.pop("T", None)
        _check_empty(name, p)
        if T is None:
            raise InvalidData("weighted-time source needs the horizon T")
        T = float(T)
        return Source(
            fn=lambda tau, y: (T - tau) ** (-gamma) * np.cos(y[:, axis]),
            gamma=gamma,
            alpha=alpha,
            name=name,
        )
    raise InvalidData(f"unknown source family '{name}'")


def _check_empty(name, leftover):
    if leftover:
        raise InvalidData(f"unused parameters for family '{name}': {sorted(leftover)}")


@dataclass
class CauchyProblem:
    """Terminal-value problem: find u with L u = f on (0,T) and u(T,.) = g.

    alpha is the working regularity exponent (strictly below the coefficient
    field's smoothness index); the terminal datum carries its own beta and
    the source its weight gamma.
    """

    cf: CoefficientField
    S: DriftStructure
    T: float
    g: Optional[Datum] = None
    f: Optional[Source] = None
    alpha: float = 0.5

    def __post_init__(self):
        if not self.T > 0:
            raise InvalidData(f"horizon T must be positive, got {self.T}")
        if self.T > self.cf.T + 1e-12:
            raise InvalidData(
                f"horizon {self.T} exceeds the coefficient field's {self.cf.T}"
            )
        if not 0.0 < self.alpha < self.cf.alpha_bar <= 1.0:
            raise InvalidData(
                f"need 0 < alpha < alpha_bar <= 1, got alpha={self.alpha}, "
                f"alpha_bar={self.cf.alpha_bar}"
            )
        if self.g is not None and not 0.0 <= self.g.beta <= 2.0 + self.alpha:
            raise InvalidData(
                f"datum regularity beta={self.g.beta} outside [0, 2+alpha]"
            )
        if self.f is not None and not 0.0 <= self.f.gamma < 1.0:
            raise InvalidData(f"source weight gamma={self.f.gamma} outside [0,1)")

    @property
    def beta(self) -> float:
        return self.g.beta if self.g is not None else 0.0

    @property
    def gamma(self) -> float:
        return self.f.gamma if self.f is not None else 0.0
