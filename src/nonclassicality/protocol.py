"""Detection pipeline: from a tripartite scenario to a verdict about C.

A scenario bundles an initial ABC state, the two probe-mediator
interactions, optional local dissipation, and an optional
entanglement-breaking step (an unread projective measurement on probe A,
which leaves the probes unentangled with everything). Running the pipeline
evolves the state, brackets the probe-probe and probe-rest entanglement at
the sample times, tracks the discord of the mediator, and reports a
verdict: probe-probe entanglement rising certifiably above its post-break
starting point means the mediator cannot have stayed classical.

Also here: the two named example scenarios (the entanglement-gain
interaction and the classical-mediator trajectory that defeats naive
mediator witnesses), a randomized property suite for the no-gain theorem
under classical-preserving dynamics, and a variant pipeline without the
breaking step that witnesses initial system-environment correlations.

All reports carry certified brackets; a verdict is only emitted when the
bracket edges, not point estimates, separate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DensityMatrix,
    MeasurementBasis,
    SystemDims,
    dephase,
    kron,
    partial_trace,
    wishart_state,
)
from .dynamics import LindbladModel, evolve_closed, evolve_lindblad
from .measures import (
    Bipartition,
    DiscordConfig,
    ReeConfig,
    ReeResult,
    discord_deficit,
    ree,
    ree_many,
)

DETECTION_THRESHOLD = 1e-3

# REE budget of the theorem suite: many small brackets, so leaner than the
# defaults; the CLI's override flags replace single fields of it
SUITE_REE_CONFIG = ReeConfig(max_iter=40, descent_iters=60)

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_I2 = np.eye(2, dtype=complex)


def _acts_as_identity_on(h: np.ndarray, dims: SystemDims, label: str, tol=1e-10) -> bool:
    """True when h = X (x) I on `label`, up to the subsystem order.

    Then X = tr_label(h) / d, so h must equal that partial trace divided by
    d and padded back with the identity, entry by entry within `tol`.
    """
    k = dims.index(label)
    d = dims.dims[k]
    pre = int(np.prod(dims.dims[:k], initial=1))
    post = int(np.prod(dims.dims[k + 1 :], initial=1))
    t = h.reshape(pre, d, post, pre, d, post)
    x = np.einsum("aibcid->abcd", t) / d
    return float(np.max(np.abs(t - np.einsum("abcd,ij->aibcjd", x, np.eye(d))))) <= tol


@dataclass(frozen=True)
class TripartiteScenario:
    """Named bundle of everything one detection run needs.

    Labels are fixed as A, B (probes) and C (mediator). h_ac must act
    trivially on B and h_bc trivially on A; that structure is what makes C
    the only channel through which the probes can talk.
    """

    name: str
    rho0: DensityMatrix
    h_ac: np.ndarray
    h_bc: np.ndarray
    jumps: tuple[tuple[str, np.ndarray, float], ...] = ()
    breaking_basis: MeasurementBasis | None = None
    sample_times: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        if self.rho0.dims.labels != ("A", "B", "C"):
            raise ValueError("scenario states carry labels ('A', 'B', 'C')")
        h_ac = np.array(self.h_ac, dtype=complex)
        h_bc = np.array(self.h_bc, dtype=complex)
        d = self.rho0.dims.total
        if h_ac.shape != (d, d) or h_bc.shape != (d, d):
            raise ValueError("interaction Hamiltonians must act on the full space")
        if not _acts_as_identity_on(h_ac, self.rho0.dims, "B"):
            raise ValueError("h_ac must act as identity on probe B")
        if not _acts_as_identity_on(h_bc, self.rho0.dims, "A"):
            raise ValueError("h_bc must act as identity on probe A")
        if self.breaking_basis is not None and self.breaking_basis.subsystem != "A":
            raise ValueError("the breaking measurement acts on probe A")
        times = tuple(float(t) for t in self.sample_times)
        if not times or any(t < 0 for t in times):
            raise ValueError("sample_times must be nonempty and nonnegative")
        h_ac.setflags(write=False)
        h_bc.setflags(write=False)
        object.__setattr__(self, "h_ac", h_ac)
        object.__setattr__(self, "h_bc", h_bc)
        object.__setattr__(self, "sample_times", tuple(sorted(set(times))))
        object.__setattr__(self, "jumps", tuple(self.jumps))

    @property
    def hamiltonian(self) -> np.ndarray:
        return self.h_ac + self.h_bc

    @property
    def is_open(self) -> bool:
        return len(self.jumps) > 0


@dataclass(frozen=True)
class DetectionReport:
    """Entanglement and discord along one run, with the gain verdict.

    Brackets are (lower, upper) pairs in bits. `gain` is the largest
    certified rise of probe-probe entanglement over its t=0 value:
    max over times of e_ab lower edge minus the e_ab upper edge at t=0.
    """

    scenario: str
    times: tuple[float, ...]
    e_ab: tuple[tuple[float, float], ...]
    e_abc: tuple[tuple[float, float], ...]
    d_ab_given_c: tuple[float, ...]
    gain: float
    verdict: str  # NONCLASSICAL_DETECTED | INCONCLUSIVE | CORRELATED
    diagnostics: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "times": list(self.times),
            "e_ab": [list(b) for b in self.e_ab],
            "e_abc": [list(b) for b in self.e_abc],
            "d_ab_given_c": list(self.d_ab_given_c),
            "gain": self.gain,
            "verdict": self.verdict,
            "diagnostics": list(self.diagnostics),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        lines = ["t,e_ab_lo,e_ab_hi,e_abc_lo,e_abc_hi,d_ab_c"]
        for t, ab, abc, d in zip(self.times, self.e_ab, self.e_abc, self.d_ab_given_c):
            lines.append(
                f"{t:.12g},{ab[0]:.12g},{ab[1]:.12g},"
                f"{abc[0]:.12g},{abc[1]:.12g},{d:.12g}"
            )
        return "\n".join(lines) + "\n"


def _states_at_times(
    scenario: TripartiteScenario, rho_start: DensityMatrix, times: Sequence[float]
) -> list[DensityMatrix]:
    h = scenario.hamiltonian
    if not scenario.is_open:
        return [evolve_closed(rho_start, h, t) for t in times]
    model = LindbladModel(h, scenario.jumps, rho_start.dims)
    return list(evolve_lindblad(rho_start, model, times).states)


def _wide_edge(r: ReeResult) -> str:
    """Which edge of an unconverged bracket holds its width.

    Where Frank-Wolfe ran, its gap bounds how far `value` lies above the
    REE (up to the local product search behind it): a gap as large as the
    width may account for all of it, and a smaller one leaves at least
    width - fw_gap to the lower edge. Where only the barrier ran, both edges
    come from one solve, whose duality gap is the width.
    """
    if r.fw_gap == 0.0:
        return "both edges"
    return "upper edge" if r.fw_gap >= r.value - r.lower_bound else "lower edge"


def _run_pipeline(
    scenario: TripartiteScenario,
    apply_breaking: bool,
    positive_verdict: str,
    ree_config: ReeConfig | None,
    discord_config: DiscordConfig | None,
) -> DetectionReport:
    rho_start = scenario.rho0
    if apply_breaking and scenario.breaking_basis is not None:
        rho_start = dephase(rho_start, scenario.breaking_basis)

    times = scenario.sample_times
    if times[0] != 0.0:
        times = (0.0,) + times  # the gain is measured against t = 0

    states = _states_at_times(scenario, rho_start, times)
    cfg = ree_config or ReeConfig()
    dcfg = discord_config or DiscordConfig()

    n = len(states)
    brackets = ree_many(
        [partial_trace(rho_t, ("A", "B")) for rho_t in states] + states,
        [Bipartition(("A",), ("B",))] * n + [Bipartition(("A",), ("B", "C"))] * n,
        cfg,
    )
    e_ab, e_abc, d_vals, diagnostics = [], [], [], []
    converged = True
    for t, rho_t, r_ab, r_abc in zip(times, states, brackets[:n], brackets[n:]):
        e_ab.append((r_ab.lower_bound, r_ab.value))
        e_abc.append((r_abc.lower_bound, r_abc.value))
        d_vals.append(discord_deficit(rho_t, "C", dcfg))
        for tag, r in (("e_ab", r_ab), ("e_abc", r_abc)):
            if not r.converged:
                converged = False
                diagnostics.append(
                    f"{tag} optimizer not converged at t={t:.6g}: bracket "
                    f"[{r.lower_bound:.6g}, {r.value:.6g}], width {r.value - r.lower_bound:.3e} "
                    f"(fw_gap={r.fw_gap:.3e} after {r.iterations} iterations; "
                    f"{r.path} path, {_wide_edge(r)} wide)"
                )

    gain = max(lo for lo, _ in e_ab) - e_ab[0][1]
    if not converged:
        verdict = "INCONCLUSIVE"
    elif gain > DETECTION_THRESHOLD:
        verdict = positive_verdict
    else:
        verdict = "INCONCLUSIVE"

    broke = apply_breaking and scenario.breaking_basis is not None
    if broke and gain > DETECTION_THRESHOLD and max(d_vals) <= 1e-9:
        # after the breaking step a certified gain must come with discord
        # somewhere along the run; C is fully accessible here, so check it
        diagnostics.append(
            "certified gain without any sampled discord: inconsistent run"
        )

    return DetectionReport(
        scenario=scenario.name,
        times=times,
        e_ab=tuple(e_ab),
        e_abc=tuple(e_abc),
        d_ab_given_c=tuple(d_vals),
        gain=float(gain),
        verdict=verdict,
        diagnostics=tuple(diagnostics),
    )


def run_detection(
    scenario: TripartiteScenario,
    ree_config: ReeConfig | None = None,
    discord_config: DiscordConfig | None = None,
) -> DetectionReport:
    """Full pipeline: break initial entanglement, evolve, bracket, decide.

    The breaking measurement (when the scenario carries one) guarantees the
    probes start unentangled, so any certified later rise of E(A:B) is
    evidence the mediator left the classical set. Without certified gain,
    or when any optimizer fails to converge, the verdict stays
    INCONCLUSIVE; the report still carries all brackets.
    """
    return _run_pipeline(
        scenario,
        apply_breaking=True,
        positive_verdict="NONCLASSICAL_DETECTED",
        ree_config=ree_config,
        discord_config=discord_config,
    )


def sec_detection(
    scenario: TripartiteScenario,
    ree_config: ReeConfig | None = None,
    discord_config: DiscordConfig | None = None,
) -> DetectionReport:
    """Pipeline without the breaking step: witnesses initial correlations.

    Skipping the initial measurement changes what a gain means: it signals
    either discord of C or preexisting correlation between the probes and
    C (verdict CORRELATED), not non-classicality by itself.
    """
    return _run_pipeline(
        scenario,
        apply_breaking=False,
        positive_verdict="CORRELATED",
        ree_config=ree_config,
        discord_config=discord_config,
    )


# --------------------------------------------------------------------------
# named example scenarios


def _qubit_scenario_dims() -> SystemDims:
    return SystemDims.qubits(("A", "B", "C"))


def scenario_gain_example(n_times: int = 5) -> TripartiteScenario:
    """Mediated entanglement gain with a classically correlated start.

    Both probes couple to the mediator through commuting x-type
    interactions. The probes never entangle with each other, but the
    A:(BC) entanglement grows from 0 to 1 over a quarter period while the
    mediator discord vanishes at both endpoints: the instrument that
    creates the entanglement is discord at intermediate times.
    """
    dims = _qubit_scenario_dims()
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[0b011, 0b011] = 0.5
    rho0[0b100, 0b100] = 0.5
    return TripartiteScenario(
        name="gain-example",
        rho0=DensityMatrix(rho0, dims),
        h_ac=kron(_SX, _I2, _SX),
        h_bc=kron(_I2, _SX, _SX),
        sample_times=tuple(np.linspace(0.0, np.pi / 4, n_times)),
    )


def scenario_counterexample(n_times: int = 20) -> TripartiteScenario:
    """Probe-probe entanglement oscillating while C stays exactly classical.

    The start mixes two Bell pairs on AB against orthogonal mediator
    states. Under the same interaction as the gain example the probes'
    entanglement swings between 0 and 1 although the mediator's discord is
    identically zero, so witnesses keyed to mediator entanglement alone
    are defeated. The two-probe state stays maximally-mixed-marginal at
    all times, where the closed-form oracle applies.

    Ships with a computational-basis breaking measurement on A: after
    dephasing the start is classical and stays that way, so run_detection
    sees no gain, while sec_detection (which skips the measurement)
    witnesses the preexisting correlation with C.
    """
    dims = _qubit_scenario_dims()
    psi_plus = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    phi_plus = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    rho0 = 0.5 * np.outer(np.kron(psi_plus, plus), np.kron(psi_plus, plus).conj())
    rho0 += 0.5 * np.outer(np.kron(phi_plus, minus), np.kron(phi_plus, minus).conj())
    return TripartiteScenario(
        name="counterexample",
        rho0=DensityMatrix(rho0, dims),
        h_ac=kron(_SX, _I2, _SX),
        h_bc=kron(_I2, _SX, _SX),
        breaking_basis=MeasurementBasis.computational("A", 2),
        sample_times=tuple(np.linspace(0.0, np.pi, n_times)),
    )


# --------------------------------------------------------------------------
# randomized property suite for the no-gain theorem


@dataclass(frozen=True)
class TheoremSuiteReport:
    """Outcome of the randomized classical-mediator property test."""

    passed: bool
    closed_trials: int
    open_trials: int
    max_discord_seen: float
    failures: tuple[dict, ...]

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "closed_trials": self.closed_trials,
            "open_trials": self.open_trials,
            "max_discord_seen": self.max_discord_seen,
            "failures": list(self.failures),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def _classical_trial(rng: np.random.Generator, with_jumps: bool) -> TripartiteScenario:
    """Random scenario certified classical-preserving by construction.

    Both interactions are (probe operator) x (mediator operator diagonal in
    the computational C basis) and the initial state is block diagonal in
    that basis, so the dephased-in-C structure is conserved; optional jumps
    act locally on the probes or diagonally on C for the same reason.
    """

    def herm(d):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return (g + g.conj().T) / 2

    dims = _qubit_scenario_dims()
    h_a, h_b = herm(2), herm(2)
    diag_1 = np.diag(rng.normal(size=2)).astype(complex)
    diag_2 = np.diag(rng.normal(size=2)).astype(complex)
    h_ac = kron(h_a, _I2, diag_1)
    h_bc = kron(_I2, h_b, diag_2)

    p = rng.dirichlet((1.0, 1.0))
    rho0 = np.zeros((8, 8), dtype=complex)
    proj = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    for c in range(2):
        rho0 += p[c] * kron(wishart_state(4, rng, rng.integers(1, 5)), proj[c])

    jumps: tuple = ()
    if with_jumps:
        ops = []
        ops.append(("A", rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
                    float(rng.uniform(0.02, 0.15))))
        ops.append(("B", rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
                    float(rng.uniform(0.02, 0.15))))
        ops.append(("C", np.diag(rng.normal(size=2)).astype(complex),
                    float(rng.uniform(0.02, 0.15))))
        jumps = tuple(ops)

    tau = float(rng.uniform(0.6, 1.8))
    return TripartiteScenario(
        name=f"classical-{'open' if with_jumps else 'closed'}",
        rho0=DensityMatrix(rho0, dims),
        h_ac=h_ac,
        h_bc=h_bc,
        jumps=jumps,
        sample_times=(0.0, tau / 2, tau),
    )


def theorem_property_suite(
    seed: int,
    trials: int,
    ree_config: ReeConfig | None = None,
    discord_config: DiscordConfig | None = None,
) -> TheoremSuiteReport:
    """Property-test the no-gain theorem on random classical scenarios.

    Runs `trials` closed and `trials` open scenarios. For each one it
    verifies, at every sample time, that the mediator discord stays below
    1e-6 (the hypothesis really holds), that A:(BC) entanglement brackets
    are constant (closed) or non-increasing (open) within certified
    bracket overlap plus a 1e-6 allowance on open runs, and that the chain
    e_ab(tau) <= e_abc(tau) <= e_abc(0) holds within summed bracket
    widths. Any violation is reported with the full scenario serialized
    for replay.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cfg = ree_config or SUITE_REE_CONFIG
    dcfg = discord_config or DiscordConfig()
    rng = np.random.default_rng(seed)
    failures: list[dict] = []
    max_discord = 0.0
    closed_n = open_n = 0

    runs = []
    for with_jumps in (False, True):
        for _ in range(trials):
            scenario = _classical_trial(rng, with_jumps)
            runs.append((with_jumps, scenario,
                         _states_at_times(scenario, scenario.rho0, scenario.sample_times)))
    # every trial's A:BC brackets in one lockstep call
    abc = [rho_t for *_, states in runs for rho_t in states]
    e_abc = iter(ree_many(abc, [Bipartition(("A",), ("B", "C"))] * len(abc), cfg))

    for with_jumps, scenario, states in runs:
        if with_jumps:
            open_n += 1
        else:
            closed_n += 1
        times = scenario.sample_times
        problems: list[str] = []
        brackets: list[tuple[float, float]] = []
        for t, rho_t in zip(times, states):
            d = discord_deficit(rho_t, "C", dcfg)
            max_discord = max(max_discord, d)
            if d >= 1e-6:
                problems.append(f"discord {d:.3e} at t={t:.6g}")
            r = next(e_abc)
            brackets.append((r.lower_bound, r.value))

        tol = 1e-9 if not with_jumps else 1e-6 + 1e-9
        for i in range(len(times)):
            for j in range(i + 1, len(times)):
                lo_i, hi_i = brackets[i]
                lo_j, hi_j = brackets[j]
                if lo_j > hi_i + tol:
                    problems.append(
                        f"entanglement rose: [{lo_j:.6f},{hi_j:.6f}] at "
                        f"t={times[j]:.6g} above [{lo_i:.6f},{hi_i:.6f}] "
                        f"at t={times[i]:.6g}"
                    )
                if not with_jumps and lo_i > hi_j + tol:
                    problems.append(
                        f"entanglement fell in closed run: t={times[i]:.6g} "
                        f"vs t={times[j]:.6g}"
                    )

        # chain inequality at the final time against the start. The A:B
        # marginal is a 2x2 problem, cheap on its own; its direct `ree` call
        # keeps a per-call REE span in the benchmark's layer trace
        # (bench/spans.py), which does not see inside `ree_many`.
        r_ab = ree(partial_trace(states[-1], ("A", "B")), Bipartition(("A",), ("B",)), cfg)
        w_ab = r_ab.value - r_ab.lower_bound
        w_tau = brackets[-1][1] - brackets[-1][0]
        w_0 = brackets[0][1] - brackets[0][0]
        if r_ab.value > brackets[-1][1] + w_ab + w_tau + 1e-9:
            problems.append(
                f"chain violated: e_ab(tau)={r_ab.value:.6f} above "
                f"e_abc(tau)={brackets[-1][1]:.6f} beyond slack"
            )
        if brackets[-1][1] > brackets[0][1] + w_tau + w_0 + tol:
            problems.append(
                f"chain violated: e_abc(tau)={brackets[-1][1]:.6f} above "
                f"e_abc(0)={brackets[0][1]:.6f} beyond slack"
            )

        if problems:
            failures.append(
                {
                    "problems": problems,
                    "scenario": scenario_to_dict(scenario),
                    "brackets": brackets,
                }
            )

    return TheoremSuiteReport(
        passed=not failures,
        closed_trials=closed_n,
        open_trials=open_n,
        max_discord_seen=float(max_discord),
        failures=tuple(failures),
    )


# --------------------------------------------------------------------------
# serialization (matrices as [re, im] pairs)


def _matrix_to_pairs(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _pairs_to_matrix(rows: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _vector_to_pairs(v: np.ndarray) -> list:
    return [[float(x.real), float(x.imag)] for x in np.asarray(v, dtype=complex)]


def _pairs_to_vector(pairs: list) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def scenario_to_dict(s: TripartiteScenario) -> dict:
    out = {
        "name": s.name,
        "dims": list(s.rho0.dims.dims),
        "rho0": _matrix_to_pairs(s.rho0.data),
        "h_ac": _matrix_to_pairs(s.h_ac),
        "h_bc": _matrix_to_pairs(s.h_bc),
        "jumps": [
            {"subsystem": lab, "matrix": _matrix_to_pairs(op), "rate": rate}
            for lab, op, rate in s.jumps
        ],
        "sample_times": list(s.sample_times),
    }
    if s.breaking_basis is not None:
        out["breaking_basis"] = {
            "subsystem": s.breaking_basis.subsystem,
            "vectors": [_vector_to_pairs(v) for v in s.breaking_basis.vectors],
        }
    return out


def scenario_from_dict(d: dict) -> TripartiteScenario:
    dims = SystemDims(tuple(int(x) for x in d["dims"]), ("A", "B", "C"))
    breaking = None
    if d.get("breaking_basis") is not None:
        bb = d["breaking_basis"]
        breaking = MeasurementBasis(
            bb["subsystem"], tuple(_pairs_to_vector(v) for v in bb["vectors"])
        )
    return TripartiteScenario(
        name=str(d["name"]),
        rho0=DensityMatrix(_pairs_to_matrix(d["rho0"]), dims),
        h_ac=_pairs_to_matrix(d["h_ac"]),
        h_bc=_pairs_to_matrix(d["h_bc"]),
        jumps=tuple(
            (j["subsystem"], _pairs_to_matrix(j["matrix"]), float(j["rate"]))
            for j in d.get("jumps", [])
        ),
        breaking_basis=breaking,
        sample_times=tuple(float(t) for t in d["sample_times"]),
    )


def save_scenario(s: TripartiteScenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(s), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario(path: str) -> TripartiteScenario:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))
