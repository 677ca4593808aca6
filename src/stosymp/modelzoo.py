"""The four benchmark systems, their invariants and coordinate transforms.

Each has one noise channel with H_1 = c * H_0, so each is a
``ScaledNoiseModel``: one gradient pair per field evaluation.

Entries are squared as ``v * v``: ``v ** 2`` on a numpy scalar (one path)
calls ``pow``, which may round differently from an array's square (a batch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from .core import (HamiltonianModel, LinearInvariant, PhaseState, QuadraticInvariant,
                   ScaledNoiseModel, eval_linear, eval_quadratic)


@dataclass(frozen=True)
class ExampleSpec:
    name: str
    model: HamiltonianModel
    z0: PhaseState
    invariants: Dict[str, Callable]           # name -> functional on PhaseState
    forward: Optional[Callable] = None        # phase space -> auxiliary y-space
    inverse: Optional[Callable] = None
    params: dict = field(default_factory=dict)
    linear: Optional[LinearInvariant] = None
    quadratic: Optional[QuadraticInvariant] = None


def make_example1(c: float = 0.5) -> ExampleSpec:
    """Nonseparable oscillator with H0 = (x^2+1)(y^2+1)/2 and H1 = c*H0."""

    def h0(x, y):
        return 0.5 * (x[0] * x[0] + 1.0) * (y[0] * y[0] + 1.0)

    def gx(x, y):
        return x * (y[0] * y[0] + 1.0)

    def gy(x, y):
        return (x[0] * x[0] + 1.0) * y

    model = ScaledNoiseModel.scaled(
        1, h0, gx, gy, c,
        hess_xx=lambda x, y: np.reshape(c * (y[0] * y[0] + 1.0), (1, 1) + np.shape(x[0])),
        hess_yy=lambda x, y: np.reshape(c * (x[0] * x[0] + 1.0), (1, 1) + np.shape(x[0])),
        hess_yx=lambda x, y: np.reshape(2.0 * c * x[0] * y[0], (1, 1) + np.shape(x[0])))
    z0 = PhaseState(np.array([0.0]), np.array([-3.0]))
    invariants = {
        "hamiltonian": lambda z: h0(z.x, z.y),
    }
    return ExampleSpec("ex1", model, z0, invariants, params={"c": c})


def make_example2(c: float = 0.5) -> ExampleSpec:
    """Planar reduction of a three-species Lotka-Volterra system."""
    a, b, v, omega, mu = -2.0, -1.0, -0.5, 1.0, 2.0
    y0 = np.array([1.0, 1.9, 0.5])   # initial populations
    cas = -np.log(y0[0]) / v - b * np.log(y0[1]) + np.log(y0[2])

    def e1(x, y):
        return np.exp(v * (x[0] - cas + b * y[0]))

    def h0(x, y):
        return (a * b * e1(x, y) + np.exp(-y[0]) - omega * y[0]
                - a * np.exp(x[0]) - mu * x[0])

    def gx(x, y):
        return (a * b * v * e1(x, y) - a * np.exp(x[0]) - mu)[None]

    def gy(x, y):
        return (a * b * b * v * e1(x, y) - np.exp(-y[0]) - omega)[None]

    model = ScaledNoiseModel.scaled(1, h0, gx, gy, c)

    # x = ln y3, y = -ln y2 (transform-consistent; y2 = exp(-Y) forces the sign)
    z0 = PhaseState(np.array([np.log(y0[2])]), np.array([-np.log(y0[1])]))

    def forward(z: PhaseState) -> np.ndarray:
        return np.stack([e1(z.x, z.y), np.exp(-z.y[0]), np.exp(z.x[0])])

    def inverse(w: np.ndarray) -> PhaseState:
        return PhaseState(np.atleast_1d(np.log(w[2])), np.atleast_1d(-np.log(w[1])))

    def casimir(w: np.ndarray):
        return -np.log(w[0]) / v - b * np.log(w[1]) + np.log(w[2])

    invariants = {
        "hamiltonian": lambda z: h0(z.x, z.y),
        "casimir": lambda z: casimir(forward(z)),
    }
    params = {"a": a, "b": b, "v": v, "omega": omega, "mu": mu, "c": c,
              "y0": y0, "casimir": cas}
    return ExampleSpec("ex2", model, z0, invariants, forward, inverse, params)


def make_example3(c: float = 0.5) -> ExampleSpec:
    """4-dimensional system with exp(f*sin(g)); f linear, g quadratic, both
    invariant."""

    def f(x, y):
        return 0.1 * (2.0 * x[0] - 3.0 * y[0])

    def g(x, y):
        return 0.25 * (x[1] * x[1] + 2.0 * y[1] * y[1])

    def h0(x, y):
        return np.exp(f(x, y) * np.sin(g(x, y)))

    def gx(x, y):
        h = h0(x, y)
        sg = np.sin(g(x, y))
        fcg = f(x, y) * np.cos(g(x, y))
        return np.stack([h * sg * 0.2, h * fcg * 0.5 * x[1]])

    def gy(x, y):
        h = h0(x, y)
        sg = np.sin(g(x, y))
        fcg = f(x, y) * np.cos(g(x, y))
        return np.stack([h * sg * (-0.3), h * fcg * y[1]])

    model = ScaledNoiseModel.scaled(2, h0, gx, gy, c)
    z0 = PhaseState(np.array([-1.0, 2.0]), np.array([1.0, -1.0]))
    linear = LinearInvariant(np.array([0.2, 0.0]), np.array([-0.3, 0.0]))
    quadratic = QuadraticInvariant(np.diag([0.0, 0.5]), np.zeros((2, 2)), np.diag([0.0, 1.0]))
    invariants = {
        "hamiltonian": lambda z: h0(z.x, z.y),
        "linear": lambda z: eval_linear(linear, z),
        "quadratic": lambda z: eval_quadratic(quadratic, z),
    }
    return ExampleSpec("ex3", model, z0, invariants, params={"c": c},
                       linear=linear, quadratic=quadratic)


_I1 = np.sqrt(2.0) + np.sqrt(2.0 / 1.51)
_I2 = np.sqrt(2.0) - 0.51 * np.sqrt(2.0 / 1.51)
_I3 = 1.0


def make_example4(c: float = 0.5) -> ExampleSpec:
    """Planar reduction of the free rigid body on the angular-momentum sphere."""
    y0 = np.array([1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0), 0.0])   # initial angular momentum
    c1 = 0.5 * float(y0 @ y0)

    def h0(x, y):
        r2 = 2.0 * c1 - x[0] * x[0]
        return (r2 * (np.cos(y[0]) * np.cos(y[0])) / (2.0 * _I1) + x[0] * x[0] / (2.0 * _I2)
                + r2 * (np.sin(y[0]) * np.sin(y[0])) / (2.0 * _I3))

    def gx(x, y):
        cy, sy = np.cos(y[0]), np.sin(y[0])
        return x * (-(cy * cy) / _I1 + 1.0 / _I2 - sy * sy / _I3)

    def gy(x, y):
        r2 = 2.0 * c1 - x[0] * x[0]
        return r2 * np.sin(y) * np.cos(y) * (1.0 / _I3 - 1.0 / _I1)

    model = ScaledNoiseModel.scaled(1, h0, gx, gy, c)

    z0 = PhaseState(np.array([y0[1]]), np.array([np.arctan2(y0[2], y0[0])]))

    def _radial(x):
        r2 = 2.0 * c1 - x ** 2
        if np.any(r2 < -1e-14 * max(2.0 * c1, 1.0)):
            raise ValueError("transform singularity: x^2 >= 2*C1")
        return np.sqrt(np.maximum(r2, 0.0))

    def forward(z: PhaseState) -> np.ndarray:
        rad = _radial(z.x[0])
        return np.stack([rad * np.cos(z.y[0]), z.x[0], rad * np.sin(z.y[0])])

    def inverse(w: np.ndarray) -> PhaseState:
        return PhaseState(np.atleast_1d(w[1]), np.atleast_1d(np.arctan2(w[2], w[0])))

    def kinetic(w: np.ndarray):
        return 0.5 * (w[0] ** 2 / _I1 + w[1] ** 2 / _I2 + w[2] ** 2 / _I3)

    invariants = {
        "hamiltonian": lambda z: h0(z.x, z.y),
        "casimir": lambda z: 0.5 * np.sum(forward(z) ** 2, axis=0),
        "kinetic": lambda z: kinetic(forward(z)),
    }
    params = {"c": c, "y0": y0, "c1": c1, "I1": _I1, "I2": _I2, "I3": _I3}
    return ExampleSpec("ex4", model, z0, invariants, forward, inverse, params)


EXAMPLES = {
    "ex1": make_example1,
    "ex2": make_example2,
    "ex3": make_example3,
    "ex4": make_example4,
}


def get_example(name: str, c: Optional[float] = None) -> ExampleSpec:
    """The example ``name`` at noise scale ``c``, or at its default scale."""
    if name not in EXAMPLES:
        raise KeyError(f"unknown example {name!r}; choose from {sorted(EXAMPLES)}")
    return EXAMPLES[name]() if c is None else EXAMPLES[name](c)
