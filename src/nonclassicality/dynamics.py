"""Time evolution: closed, Trotterized, and Lindblad with local environments.

Closed evolution goes through the Hermitian eigendecomposition. The split
two-interaction propagator alternates the two exponentials, which is how a
continuous mediated interaction is discretized into short two-body gates.
The master equation is linear with constant coefficients, so it is solved
exactly at the requested times: the Liouvillian superoperator is built once
and each nonzero time costs one matrix exponential applied to the initial
state. No step grid enters, so repeated runs are bit-identical and golden
tests stay meaningful.

hbar = 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from .core import (
    HERMITICITY_TOL,
    DensityMatrix,
    SystemDims,
    embed_local,
    hermitian_exp,
)


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian plus per-subsystem jump operators with rates.

    Each jump is a (subsystem label, operator on that subsystem, rate >= 0)
    triple. Operators act on a single labeled subsystem and are identity
    padded internally, so the locality of the environments is enforced by
    construction rather than checked at runtime.
    """

    hamiltonian: np.ndarray
    jumps: tuple[tuple[str, np.ndarray, float], ...]
    dims: SystemDims

    def __post_init__(self):
        h = np.array(self.hamiltonian, dtype=complex)
        if h.shape != (self.dims.total, self.dims.total):
            raise ValueError("hamiltonian dimension does not match dims")
        defect = float(np.max(np.abs(h - h.conj().T)))
        if defect > HERMITICITY_TOL:
            raise ValueError(f"hamiltonian not Hermitian: defect {defect:.3e}")
        h.setflags(write=False)
        object.__setattr__(self, "hamiltonian", h)
        cleaned = []
        for label, op, rate in self.jumps:
            rate = float(rate)
            if rate < 0:
                raise ValueError(f"negative rate {rate} on subsystem {label!r}")
            op = np.array(op, dtype=complex)
            d = self.dims.dim_of(label)  # raises on unknown label
            if op.shape != (d, d):
                raise ValueError(
                    f"jump operator on {label!r} has shape {op.shape}, "
                    f"subsystem dimension is {d}"
                )
            op.setflags(write=False)
            cleaned.append((str(label), op, rate))
        object.__setattr__(self, "jumps", tuple(cleaned))

    def embedded_jumps(self) -> list[np.ndarray]:
        """Full-space jump operators with the rate folded in as sqrt(rate)."""
        out = []
        for label, op, rate in self.jumps:
            if rate == 0.0:
                continue
            out.append(np.sqrt(rate) * embed_local(op, label, self.dims))
        return out

    def liouvillian(self) -> np.ndarray:
        """Superoperator L with vec(drho/dt) = L vec(rho), row-major vec.

        Row-major vectorization maps A X B to (A kron B^T) vec(X).
        """
        h = self.hamiltonian
        eye = np.eye(h.shape[0])
        out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for q in self.embedded_jumps():
            qdq = q.conj().T @ q
            out += np.kron(q, q.conj()) - 0.5 * (np.kron(qdq, eye) + np.kron(eye, qdq.T))
        return out


@dataclass(frozen=True)
class Trajectory:
    """Density matrices or covariance states at strictly increasing times."""

    times: tuple[float, ...]
    states: tuple

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if not times or len(times) != len(self.states):
            raise ValueError("times and states must align and be non-empty")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.states))

    @property
    def final(self):
        return self.states[-1]


def evolve_closed(rho0: DensityMatrix, h: np.ndarray, t: float) -> DensityMatrix:
    """U rho0 U^dag with U = exp(-i h t)."""
    h = np.asarray(h, dtype=complex)
    if h.shape != (rho0.dim, rho0.dim):
        raise ValueError(
            f"hamiltonian shape {h.shape} does not match state dimension {rho0.dim}"
        )
    u = hermitian_exp(h, t)
    return DensityMatrix(u @ rho0.data @ u.conj().T, rho0.dims)


def trotter_evolve(
    rho0: DensityMatrix,
    h_ac: np.ndarray,
    h_bc: np.ndarray,
    t: float,
    n: int,
) -> DensityMatrix:
    """First-order split evolution (exp(-i h_bc dt) exp(-i h_ac dt))^n, dt = t/n.

    For commuting interaction terms this is exact at any n; otherwise the
    error decays as O(1/n), which the tests pin by step-doubling ratios.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    h_ac = np.asarray(h_ac, dtype=complex)
    h_bc = np.asarray(h_bc, dtype=complex)
    if h_ac.shape != (rho0.dim, rho0.dim) or h_bc.shape != (rho0.dim, rho0.dim):
        raise ValueError("hamiltonian shapes must match the state dimension")
    dt = t / n
    step = hermitian_exp(h_bc, dt) @ hermitian_exp(h_ac, dt)
    u = np.linalg.matrix_power(step, n)
    return DensityMatrix(u @ rho0.data @ u.conj().T, rho0.dims)


def evolve_lindblad(
    rho0: DensityMatrix, model: LindbladModel, times: Sequence[float]
) -> Trajectory:
    """Exact solution of the master equation at the requested times.

    The state at time t is expm(L t) vec(rho0), with the Liouvillian L
    built once. Every nonzero time gets its own exponential applied to
    rho0, never a step from the previous sample, so each state carries
    only its own rounding; a time of 0 returns rho0 itself. Each state is
    validated as a DensityMatrix. Raises ValueError unless the times are
    non-empty, non-negative and strictly increasing and the dims of rho0
    match the model.
    """
    if rho0.dims.dims != model.dims.dims:
        raise ValueError("state and model dimensions do not match")
    times = tuple(float(t) for t in times)
    if min(times, default=0.0) < 0:
        raise ValueError("times must be non-negative")

    gen = model.liouvillian()
    d = rho0.dim
    vec = rho0.data.reshape(-1)
    states = []
    for t in times:
        if t == 0:
            states.append(rho0)
            continue
        rho = (expm(gen * t) @ vec).reshape(d, d)
        rho = 0.5 * (rho + rho.conj().T)  # remove rounding-level anti-Hermitian part
        states.append(DensityMatrix(rho, rho0.dims))
    return Trajectory(times, tuple(states))
