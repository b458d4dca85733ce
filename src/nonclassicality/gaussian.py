"""Linearized optomechanics: Gaussian dynamics of two driven cavities
coupled to a shared mechanical membrane.

Everything here lives at the level of second moments. A state is a 2N x 2N
covariance matrix over quadratures ordered (x_1, p_1, x_2, p_2, ...), one
pair per mode; for the three-mode membrane setup the mode order is
(cavity a, cavity b, membrane c). Dynamics is the linear matrix ODE

    dV/dt = K V + V K^T + D

with drift K and diffusion D assembled from the physical parameters.
Entanglement is Gaussian logarithmic negativity in nats (natural log); the
discrete-variable modules of this package use bits. Vacuum is V = I/2, so
physicality reads 2*nu_k >= 1 for every symplectic eigenvalue nu_k.

All inputs are SI (kg, K, m, W) and all rates are rad/s.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.constants import c as _C_LIGHT
from scipy.constants import hbar as _HBAR
from scipy.constants import k as _K_B
from scipy.linalg import expm

from .dynamics import Trajectory

SYMMETRY_TOL = 1e-10
PHYSICALITY_TOL = 1e-8        # slack on 2*nu >= 1 at construction
PAIRING_TOL = 1e-9            # relative tolerance for +/-nu dedup
LYAPUNOV_RESIDUAL_TOL = 1e-10
STABILITY_MARGIN = 1e-12
DERIVATION_RESIDUAL_TOL = 1e-10
STEADY_TOL = 1e-6             # fig4 tail spread that counts as settled


class UnstableDriftError(RuntimeError):
    """No steady state: the drift matrix has a non-decaying eigenvalue."""

    def __init__(self, max_real_part: float):
        self.max_real_part = float(max_real_part)
        super().__init__(
            "drift matrix is not strictly stable: "
            f"max Re eigenvalue = {max_real_part:.6e} (needs < -{STABILITY_MARGIN:g})"
        )


# ---------------------------------------------------------------------------
# parameters


_POSITIVE_FIELDS = (
    "mass", "temperature", "cavity_length_a", "cavity_length_b",
    "finesse_a", "finesse_b", "wavelength_a", "wavelength_b",
    "omega_c", "gamma_c",
)

# JSON key -> (field, scale applied when loading)
_JSON_FIELDS = {
    "mass_kg": ("mass", 1.0),
    "temperature_K": ("temperature", 1.0),
    "cavity_length_a_m": ("cavity_length_a", 1.0),
    "cavity_length_b_m": ("cavity_length_b", 1.0),
    "finesse_a": ("finesse_a", 1.0),
    "finesse_b": ("finesse_b", 1.0),
    "laser_wavelength_a_m": ("wavelength_a", 1.0),
    "laser_wavelength_b_m": ("wavelength_b", 1.0),
    "power_a_mW": ("power_a", 1e-3),
    "power_b_mW": ("power_b", 1e-3),
    "detuning_a_rad_s": ("detuning_a", 1.0),
    "detuning_b_rad_s": ("detuning_b", 1.0),
    "omega_c_rad_s": ("omega_c", 1.0),
    "gamma_c_rad_s": ("gamma_c", 1.0),
}


@dataclass(frozen=True)
class OptomechParams:
    """Physical inputs for the two-cavity, one-membrane setup.

    SI units: mass kg, temperature K, lengths and wavelengths m, powers W,
    detunings and frequencies rad/s. The detunings are the effective
    (shifted) ones, taken as direct inputs; the bare detunings are
    recovered in :class:`OptomechDerived` for the record.

    Laser powers may be zero (an undriven cavity decouples); everything
    else must be strictly positive except the detunings, which take any
    sign.
    """

    mass: float
    temperature: float
    cavity_length_a: float
    cavity_length_b: float
    finesse_a: float
    finesse_b: float
    wavelength_a: float
    wavelength_b: float
    power_a: float
    power_b: float
    detuning_a: float
    detuning_b: float
    omega_c: float
    gamma_c: float

    def __post_init__(self):
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be strictly positive, got {value!r}")
        for name in ("power_a", "power_b"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be non-negative, got {value!r}")
        for name in ("detuning_a", "detuning_b"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @classmethod
    def membrane_defaults(cls, power_b: float = 60e-3,
                          detuning_b: float | None = None) -> "OptomechParams":
        """Strongly driven membrane-in-the-middle workpoint.

        A 145 ng membrane at 2*pi*947 kHz and 0.3 K between two 25 mm
        cavities of finesse 1.4e4, both driven at 1064 nm. The left laser
        runs at 100 mW detuned to +omega_c; the right laser's power and
        detuning (default -omega_c) are the knobs swept in benchmarks.
        """
        omega_c = 2 * math.pi * 947e3
        return cls(
            mass=145e-12,
            temperature=0.3,
            cavity_length_a=25e-3,
            cavity_length_b=25e-3,
            finesse_a=1.4e4,
            finesse_b=1.4e4,
            wavelength_a=1064e-9,
            wavelength_b=1064e-9,
            power_a=100e-3,
            power_b=power_b,
            detuning_a=omega_c,
            detuning_b=-omega_c if detuning_b is None else detuning_b,
            omega_c=omega_c,
            gamma_c=2 * math.pi * 140,
        )

    def to_json_dict(self) -> dict:
        out = {}
        for key, (field_name, scale) in _JSON_FIELDS.items():
            out[key] = getattr(self, field_name) / scale
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "OptomechParams":
        unknown = sorted(set(data) - set(_JSON_FIELDS))
        if unknown:
            raise ValueError(f"unknown parameter keys: {unknown}")
        missing = sorted(set(_JSON_FIELDS) - set(data))
        if missing:
            raise ValueError(f"missing parameter keys: {missing}")
        kwargs = {}
        for key, (field_name, scale) in _JSON_FIELDS.items():
            value = data[key]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{key} must be a number, got {value!r}")
            kwargs[field_name] = float(value) * scale
        return cls(**kwargs)


def save_params(params: OptomechParams, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(params.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_params(path: str) -> OptomechParams:
    with open(path) as fh:
        return OptomechParams.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class OptomechDerived:
    """Rates and steady-state workpoint computed from :class:`OptomechParams`.

    kappa_*: cavity amplitude decay rates (rad/s). drive_*: laser drive
    strengths |E_j| (1/s). bare_coupling_*: single-photon optomechanical
    couplings (rad/s). field_amp_*: steady intracavity field amplitudes
    (real by the phase convention that absorbs the drive phase).
    membrane_shift: steady membrane displacement in zero-point units.
    coupling_*: field-enhanced couplings sqrt(2) * g0 * alpha (rad/s).
    bare_detuning_*: the unshifted detunings implied by the effective ones.
    """

    kappa_a: float
    kappa_b: float
    drive_a: float
    drive_b: float
    bare_coupling_a: float
    bare_coupling_b: float
    n_bar: float
    field_amp_a: float
    field_amp_b: float
    membrane_shift: float
    coupling_a: float
    coupling_b: float
    bare_detuning_a: float
    bare_detuning_b: float


def derive_params(params: OptomechParams) -> OptomechDerived:
    """Closed-form steady-state parameter derivation.

    Because the effective detunings are direct inputs, the usual
    self-consistency loop between the static membrane shift and the
    detunings disappears: field amplitudes follow immediately from
    |E_j| / sqrt(kappa_j^2 + detuning_j^2) and the shift from the
    radiation-pressure balance. Residuals of that fixed-point system are
    still checked, as a guard against edits to the algebra.
    """
    p = params
    kappa_a = math.pi * _C_LIGHT / (2 * p.finesse_a * p.cavity_length_a)
    kappa_b = math.pi * _C_LIGHT / (2 * p.finesse_b * p.cavity_length_b)
    omega_laser_a = 2 * math.pi * _C_LIGHT / p.wavelength_a
    omega_laser_b = 2 * math.pi * _C_LIGHT / p.wavelength_b
    drive_a = math.sqrt(2 * p.power_a * kappa_a / (_HBAR * omega_laser_a))
    drive_b = math.sqrt(2 * p.power_b * kappa_b / (_HBAR * omega_laser_b))
    zed = math.sqrt(_HBAR / (p.mass * p.omega_c))
    g0_a = (omega_laser_a / p.cavity_length_a) * zed
    g0_b = (omega_laser_b / p.cavity_length_b) * zed
    n_bar = 1.0 / math.expm1(_HBAR * p.omega_c / (_K_B * p.temperature))

    amp_a = drive_a / math.hypot(kappa_a, p.detuning_a)
    amp_b = drive_b / math.hypot(kappa_b, p.detuning_b)
    shift = (g0_a * amp_a ** 2 - g0_b * amp_b ** 2) / p.omega_c

    # fixed-point residuals; exact by construction, so any failure means
    # the formulas above were broken
    res_a = abs(amp_a * math.hypot(kappa_a, p.detuning_a) - drive_a)
    res_b = abs(amp_b * math.hypot(kappa_b, p.detuning_b) - drive_b)
    res_q = abs(p.omega_c * shift - (g0_a * amp_a ** 2 - g0_b * amp_b ** 2))
    scale = max(1.0, drive_a, drive_b, abs(p.omega_c * shift))
    if max(res_a, res_b, res_q) > DERIVATION_RESIDUAL_TOL * scale:
        raise RuntimeError(
            f"steady-state residuals too large: {res_a:.3e}, {res_b:.3e}, {res_q:.3e}"
        )

    return OptomechDerived(
        kappa_a=kappa_a,
        kappa_b=kappa_b,
        drive_a=drive_a,
        drive_b=drive_b,
        bare_coupling_a=g0_a,
        bare_coupling_b=g0_b,
        n_bar=n_bar,
        field_amp_a=amp_a,
        field_amp_b=amp_b,
        membrane_shift=shift,
        coupling_a=math.sqrt(2) * g0_a * amp_a,
        coupling_b=math.sqrt(2) * g0_b * amp_b,
        bare_detuning_a=p.detuning_a + g0_a * shift,
        bare_detuning_b=p.detuning_b - g0_b * shift,
    )


# ---------------------------------------------------------------------------
# covariance states


def _auto_labels(n_modes: int) -> tuple:
    if n_modes == 3:
        return ("a", "b", "c")
    return tuple(f"m{i + 1}" for i in range(n_modes))


@dataclass(frozen=True)
class CovarianceState:
    """Symmetric, physical covariance matrix with labeled modes.

    Quadratures are ordered (x_1, p_1, x_2, p_2, ...) following
    mode_labels. Physicality (2*nu >= 1 - PHYSICALITY_TOL for every
    symplectic eigenvalue) is enforced at construction, so a value of this
    type is always a valid Gaussian state.
    """

    v: np.ndarray
    mode_labels: tuple = ()

    def __post_init__(self):
        v = np.array(self.v, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"covariance matrix must be square, got shape {v.shape}")
        if v.shape[0] % 2 != 0 or v.shape[0] == 0:
            raise ValueError(f"covariance matrix needs an even dimension, got {v.shape[0]}")
        if not np.all(np.isfinite(v)):
            raise ValueError("covariance matrix has non-finite entries")
        asym = float(np.max(np.abs(v - v.T)))
        if asym > SYMMETRY_TOL:
            raise ValueError(f"covariance matrix is not symmetric: max asymmetry {asym:.3e}")
        v = 0.5 * (v + v.T)
        n_modes = v.shape[0] // 2
        labels = tuple(self.mode_labels) or _auto_labels(n_modes)
        if len(labels) != n_modes:
            raise ValueError(f"{len(labels)} labels for {n_modes} modes")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate mode labels: {labels}")
        nu_min = float(np.min(symplectic_eigenvalues(v)))
        if 2 * nu_min < 1 - PHYSICALITY_TOL:
            raise ValueError(f"unphysical covariance matrix: 2 nu_min = {2 * nu_min:.12f}")
        v.setflags(write=False)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "mode_labels", labels)

    @property
    def n_modes(self) -> int:
        return self.v.shape[0] // 2

    def mode_index(self, label) -> int:
        try:
            return self.mode_labels.index(label)
        except ValueError:
            raise KeyError(f"no mode {label!r} in {self.mode_labels}") from None

    def submatrix(self, labels: Sequence) -> "CovarianceState":
        """Reduced state of the listed modes, in the listed order."""
        labels = tuple(labels)
        rows = []
        for label in labels:
            m = self.mode_index(label)
            rows += [2 * m, 2 * m + 1]
        return CovarianceState(self.v[np.ix_(rows, rows)], labels)


def _symplectic_form(n_modes: int) -> np.ndarray:
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for i in range(n_modes):
        omega[2 * i, 2 * i + 1] = 1.0
        omega[2 * i + 1, 2 * i] = -1.0
    return omega


def symplectic_eigenvalues(v) -> np.ndarray:
    """Symplectic spectrum of a (not necessarily physical) symmetric matrix.

    Returns the N values nu_k ascending, computed as the moduli of the
    eigenvalues of i Omega V, which come in +/- pairs; the pairs are
    deduplicated by an adjacent-pair average after sorting and must agree
    to PAIRING_TOL relative.
    """
    m = v.v if isinstance(v, CovarianceState) else np.asarray(v, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 != 0:
        raise ValueError(f"need an even-dimensional square matrix, got shape {m.shape}")
    n_modes = m.shape[0] // 2
    mags = np.sort(np.abs(np.linalg.eigvals(1j * _symplectic_form(n_modes) @ m)))
    lo, hi = mags[0::2], mags[1::2]
    gap = np.max(np.abs(hi - lo) / np.maximum(1.0, hi))
    if gap > PAIRING_TOL:
        raise RuntimeError(f"symplectic spectrum failed to pair up: relative gap {gap:.3e}")
    return 0.5 * (lo + hi)


def log_negativity_gaussian(state: CovarianceState, transposed_mode) -> float:
    """Logarithmic negativity, in nats, across the (rest : one mode) cut.

    transposed_mode names the single mode whose momentum quadrature is
    sign-flipped (the covariance picture of partial transposition). Only
    1 vs (N-1) splits are accepted: there the smallest symplectic
    eigenvalue of the flipped matrix decides separability exactly. For a
    cut between two modes of a larger state, reduce with submatrix() first.
    """
    if isinstance(transposed_mode, int):
        if not 0 <= transposed_mode < state.n_modes:
            raise KeyError(f"mode index {transposed_mode} out of range")
        idx = transposed_mode
    else:
        idx = state.mode_index(transposed_mode)
    if state.n_modes < 2:
        raise ValueError("log negativity needs at least two modes")
    flip = np.eye(state.v.shape[0])
    flip[2 * idx + 1, 2 * idx + 1] = -1.0
    nu_min = float(np.min(symplectic_eigenvalues(flip @ state.v @ flip)))
    return max(0.0, -math.log(2 * nu_min))


# ---------------------------------------------------------------------------
# drift / diffusion and propagation


@dataclass(frozen=True)
class DriftDiffusion:
    """Coefficient matrices of dV/dt = K V + V K^T + D."""

    k: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        k = np.array(self.k, dtype=float)
        d = np.array(self.d, dtype=float)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValueError(f"drift matrix must be square, got shape {k.shape}")
        if d.shape != k.shape:
            raise ValueError(f"diffusion shape {d.shape} does not match drift {k.shape}")
        if not (np.all(np.isfinite(k)) and np.all(np.isfinite(d))):
            raise ValueError("drift/diffusion entries must be finite")
        if np.any(d != np.diag(np.diag(d))):
            raise ValueError("diffusion matrix must be diagonal")
        if np.any(np.diag(d) < 0):
            raise ValueError("diffusion matrix must be non-negative")
        k.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "d", d)

    @property
    def dim(self) -> int:
        return self.k.shape[0]

    def max_real_eigenvalue(self) -> float:
        return float(np.max(np.linalg.eigvals(self.k).real))

    def is_stable(self) -> bool:
        return self.max_real_eigenvalue() < -STABILITY_MARGIN


def build_drift_diffusion(derived: OptomechDerived,
                          params: OptomechParams) -> DriftDiffusion:
    """Drift and diffusion of the linearized three-mode dynamics.

    Quadrature order (x_a, y_a, x_b, y_b, q, p). Input vacuum noise feeds
    each cavity quadrature at rate kappa; the membrane position is
    noiseless and its momentum sees thermal Brownian noise at
    gamma_c * (2 n_bar + 1).
    """
    ka, kb = derived.kappa_a, derived.kappa_b
    da, db = params.detuning_a, params.detuning_b
    ga, gb = derived.coupling_a, derived.coupling_b
    wc, gc = params.omega_c, params.gamma_c
    k = np.array([
        [-ka,  da,  0.0, 0.0, 0.0, 0.0],
        [-da, -ka,  0.0, 0.0,  ga, 0.0],
        [0.0, 0.0, -kb,  db,  0.0, 0.0],
        [0.0, 0.0, -db, -kb, -gb,  0.0],
        [0.0, 0.0, 0.0, 0.0,  0.0,  wc],
        [ ga, 0.0, -gb, 0.0, -wc,  -gc],
    ])
    d = np.diag([ka, ka, kb, kb, 0.0, gc * (2 * derived.n_bar + 1)])
    return DriftDiffusion(k, d)


def initial_covariance(derived: OptomechDerived) -> CovarianceState:
    """Start-of-drive state: coherent (vacuum) fields, thermal membrane."""
    n_bar = derived.n_bar
    return CovarianceState(
        np.diag([1.0, 1.0, 1.0, 1.0, 2 * n_bar + 1, 2 * n_bar + 1]) / 2,
        ("a", "b", "c"),
    )


def _kron_sum(k: np.ndarray) -> np.ndarray:
    """K kron I + I kron K: vec(K V + V K^T) for row-major vec(V)."""
    eye = np.eye(k.shape[0])
    return np.kron(k, eye) + np.kron(eye, k)


def propagate_covariance(v0: CovarianceState, model: DriftDiffusion,
                         t_end: float, n_samples: int = 400) -> Trajectory:
    """Exact solution of dV/dt = K V + V K^T + D at n_samples uniform times.

    The equation is linear in vec(V): with the constant term appended as
    one more coordinate it reads x' = A x, A = [[K kron I + I kron K,
    vec(D)], [0, 0]] (Van Loan's augmented form). One matrix exponential
    expm(A h) for the spacing h = t_end / n_samples carries each sample to
    the next, so sample i sits exactly at t_end * i / n_samples. The same
    path serves stable and unstable drifts.

    Returns a dynamics.Trajectory: the initial state at t=0 plus n_samples
    states. Each sample is symmetrized and built as a CovarianceState with
    its full physicality check; an unphysical model (lossy drift with too
    little diffusion, for one) raises RuntimeError when a sample leaves
    the physical cone.
    """
    if v0.v.shape != model.k.shape:
        raise ValueError(f"state dim {v0.v.shape[0]} does not match drift {model.dim}")
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples!r}")
    n = model.dim
    gen = np.zeros((n * n + 1, n * n + 1))
    gen[:-1, :-1] = _kron_sum(model.k)
    gen[:-1, -1] = model.d.reshape(-1)
    step = expm(gen * (t_end / n_samples))

    x = np.append(v0.v.reshape(-1), 1.0)
    times = [0.0]
    states = [v0]
    for i in range(1, n_samples + 1):
        x = step @ x
        v = x[:-1].reshape(n, n)
        v = 0.5 * (v + v.T)
        x[:-1] = v.reshape(-1)
        t = t_end * i / n_samples
        try:
            state = CovarianceState(v, v0.mode_labels)
        except ValueError as exc:
            raise RuntimeError(
                f"propagation left the physical cone at t = {t:.6e}: {exc}"
            ) from None
        times.append(t)
        states.append(state)
    return Trajectory(tuple(times), tuple(states))


def lyapunov_steady(model: DriftDiffusion, mode_labels=()) -> CovarianceState:
    """Steady covariance from K V + V K^T = -D by Kronecker vectorization.

    Requires K strictly stable (every eigenvalue real part below
    -STABILITY_MARGIN); otherwise no steady state exists and
    UnstableDriftError is raised. The solved V is symmetrized and its
    residual checked against LYAPUNOV_RESIDUAL_TOL * |D|_max.
    """
    worst = model.max_real_eigenvalue()
    if worst >= -STABILITY_MARGIN:
        raise UnstableDriftError(worst)
    n = model.dim
    v = np.linalg.solve(_kron_sum(model.k), -model.d.reshape(-1)).reshape(n, n)
    v = 0.5 * (v + v.T)
    residual = float(np.max(np.abs(model.k @ v + v @ model.k.T + model.d)))
    d_scale = float(np.max(np.abs(model.d)))
    if residual > LYAPUNOV_RESIDUAL_TOL * max(d_scale, 1e-300):
        raise RuntimeError(
            f"Lyapunov solve residual {residual:.3e} exceeds "
            f"{LYAPUNOV_RESIDUAL_TOL:g} * |D|_max = {LYAPUNOV_RESIDUAL_TOL * d_scale:.3e}"
        )
    return CovarianceState(v, mode_labels)


# ---------------------------------------------------------------------------
# benchmark pipelines

FIG4_POWERS_B_W = (20e-3, 40e-3, 60e-3, 80e-3)


def _entanglement_pair(state: CovarianceState) -> tuple:
    """(E across a:b of the reduced field state, E across ab:c)."""
    e_ab = log_negativity_gaussian(state.submatrix(("a", "b")), "b")
    e_abc = log_negativity_gaussian(state, "c")
    return e_ab, e_abc


@dataclass(frozen=True)
class EntanglementSeries:
    """Entanglement time series for one drive power of the membrane setup."""

    power_b: float
    omega_c: float
    times: tuple          # seconds; times[0] == 0
    e_ab: tuple           # nats
    e_abc: tuple
    reached_steady: bool  # both series varied < STEADY_TOL over the last 10%


@dataclass(frozen=True)
class TransientBenchmark:
    series: tuple

    def to_csv(self) -> str:
        lines = ["P_b_mW,t_s,t_omega_c,E_ab,E_abc"]
        for s in self.series:
            for t, eab, eabc in zip(s.times, s.e_ab, s.e_abc):
                lines.append(
                    f"{s.power_b * 1e3:.12g},{t:.12g},{t * s.omega_c:.12g},"
                    f"{eab:.12g},{eabc:.12g}"
                )
        return "\n".join(lines) + "\n"


def reproduce_fig4(powers_b: Sequence = FIG4_POWERS_B_W, *,
                   params: OptomechParams | None = None,
                   t_max: float | None = None, n_samples: int = 400) -> TransientBenchmark:
    """Transient entanglement benchmark at the standard membrane workpoint.

    Runs the full pipeline (derive, build, propagate from the
    coherent-field/thermal-membrane start, log negativities per sample)
    for each right-laser power in powers_b. The horizon defaults to
    60/omega_c; whether the series settled is reported per power as
    reached_steady: both entanglement series spread by less than
    STEADY_TOL over the last tenth of the window.
    """
    base = OptomechParams.membrane_defaults() if params is None else params
    horizon = 60 / base.omega_c if t_max is None else t_max
    out = []
    for power in powers_b:
        p = replace(base, power_b=float(power))
        derived = derive_params(p)
        model = build_drift_diffusion(derived, p)
        traj = propagate_covariance(initial_covariance(derived), model,
                                    horizon, n_samples=n_samples)
        pairs = [_entanglement_pair(state) for state in traj.states]
        e_ab = tuple(pair[0] for pair in pairs)
        e_abc = tuple(pair[1] for pair in pairs)
        tail = [i for i, t in enumerate(traj.times) if t >= 0.9 * horizon]
        steady = False
        if len(tail) >= 2:
            spread_ab = max(e_ab[i] for i in tail) - min(e_ab[i] for i in tail)
            spread_abc = max(e_abc[i] for i in tail) - min(e_abc[i] for i in tail)
            steady = max(spread_ab, spread_abc) < STEADY_TOL
        out.append(EntanglementSeries(
            power_b=float(power), omega_c=base.omega_c, times=traj.times,
            e_ab=e_ab, e_abc=e_abc, reached_steady=steady,
        ))
    return TransientBenchmark(tuple(out))


# ---------------------------------------------------------------------------
# steady-state sweep


@dataclass(frozen=True)
class SweepPoint:
    power_b: float    # W
    detuning_b: float  # rad/s
    stable: bool
    e_ab: float       # nan when unstable
    e_abc: float


@dataclass(frozen=True)
class SweepTable:
    base: OptomechParams
    points: tuple

    def to_csv(self) -> str:
        lines = ["P_b_mW,Delta_b_over_omega_c,stable,E_ab,E_abc"]
        for pt in self.points:
            if pt.stable:
                tail = f"true,{pt.e_ab:.12g},{pt.e_abc:.12g}"
            else:
                tail = "false,,"
            lines.append(
                f"{pt.power_b * 1e3:.12g},{pt.detuning_b / self.base.omega_c:.12g},{tail}"
            )
        return "\n".join(lines) + "\n"


def _sweep_point(base: OptomechParams, power_b: float,
                 detuning_b: float) -> SweepPoint:
    p = replace(base, power_b=power_b, detuning_b=detuning_b)
    derived = derive_params(p)
    model = build_drift_diffusion(derived, p)
    try:
        steady = lyapunov_steady(model, ("a", "b", "c"))
    except UnstableDriftError:
        return SweepPoint(power_b, detuning_b, False, math.nan, math.nan)
    e_ab, e_abc = _entanglement_pair(steady)
    return SweepPoint(power_b, detuning_b, True, e_ab, e_abc)


def sweep_steady_state(params: OptomechParams | None = None,
                       powers_b: Sequence | None = None,
                       detunings_b: Sequence | None = None) -> SweepTable:
    """Stability and steady-state entanglement over a (P_b, detuning_b) grid.

    Defaults to the 40x40 grid P_b in (0, 100] mW by detuning_b in
    [-2, 2] * omega_c at the standard workpoint. Instability is data, not
    an error: unstable points carry NaN entanglement and stable=False.
    Points are independent and computed in one loop, in grid order
    (power-major).
    """
    base = OptomechParams.membrane_defaults() if params is None else params
    if powers_b is None:
        powers_b = np.linspace(2.5e-3, 100e-3, 40)
    if detunings_b is None:
        detunings_b = np.linspace(-2.0, 2.0, 40) * base.omega_c
    grid = [(float(pw), float(det)) for pw in powers_b for det in detunings_b]
    if not grid:
        raise ValueError("empty sweep grid")
    return SweepTable(base, tuple(_sweep_point(base, pw, det) for pw, det in grid))
