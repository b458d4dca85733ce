"""End-to-end acceptance gate.

One test per shipped claim, each printing a PASS line with its headline
numbers (run pytest -s to see them). Budgets are asserted in wall time, so
a slow box fails loudly rather than silently shipping a regression.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from nonclassicality.cli import main
from nonclassicality.core import (
    DensityMatrix,
    SystemDims,
    haar_vector,
    kron,
    partial_trace,
    trace_distance,
    von_neumann_entropy,
    wishart_state,
)
from nonclassicality.dynamics import evolve_closed, trotter_evolve
from nonclassicality.gaussian import (
    FIG4_POWERS_B_W,
    OptomechParams,
    build_drift_diffusion,
    derive_params,
    initial_covariance,
    log_negativity_gaussian,
    lyapunov_steady,
    propagate_covariance,
    reproduce_fig4,
    sweep_steady_state,
    symplectic_eigenvalues,
)
from nonclassicality.measures import (
    Bipartition,
    ReeConfig,
    check_relocation_bound,
    purity_criterion,
    ree,
    discord_deficit,
)
from nonclassicality import protocol
from nonclassicality.protocol import (
    run_detection,
    scenario_counterexample,
    scenario_gain_example,
    theorem_property_suite,
)

TRIPLE = SystemDims((2, 2, 2), ("A", "B", "C"))

# same budget the randomized property suite runs with
SUITE_CFG = ReeConfig(max_iter=40, descent_iters=60, dykstra_iters=30,
                      admm_iters=400)


def test_criterion_1_gain_example():
    started = time.monotonic()
    scenario = scenario_gain_example(2)  # endpoints t = 0 and tau = pi/4
    report = run_detection(scenario)

    lo0, hi0 = report.e_abc[0]
    assert lo0 <= 1e-9 <= hi0 + 1e-9          # bracket contains 0
    assert hi0 - lo0 <= 2e-2                   # and is tight
    lo_tau, hi_tau = report.e_abc[-1]
    assert lo_tau - 0.05 <= 1.0 <= hi_tau + 0.05

    # independent corroboration: coherent information lower-bounds the
    # A:(BC) entanglement of the evolved state
    rho_tau = evolve_closed(scenario.rho0, scenario.hamiltonian, np.pi / 4)
    coherent = (von_neumann_entropy(partial_trace(rho_tau, ("B", "C")))
                - von_neumann_entropy(rho_tau))
    assert coherent >= 0.9

    assert report.d_ab_given_c[0] < 1e-6
    assert report.d_ab_given_c[-1] < 1e-6

    instrumental = evolve_closed(scenario.rho0, scenario.h_ac, np.pi / 4)
    d_prime = discord_deficit(instrumental, "C")
    assert d_prime == pytest.approx(1.0, abs=0.02)

    elapsed = time.monotonic() - started
    assert elapsed < 30
    print(f"PASS criterion 1: gain example, e_abc(tau)=[{lo_tau:.4f},"
          f"{hi_tau:.4f}], coherent info {coherent:.4f}, "
          f"D'={d_prime:.4f} ({elapsed:.1f}s)")


def test_criterion_2_counterexample():
    started = time.monotonic()
    scenario = scenario_counterexample(20)
    cfg = ReeConfig()

    worst_value_gap = 0.0
    max_discord = 0.0
    for t in scenario.sample_times:
        rho_t = evolve_closed(scenario.rho0, scenario.hamiltonian, t)
        max_discord = max(max_discord, discord_deficit(rho_t, "C"))

        ab = partial_trace(rho_t, ("A", "B"))
        lam_max = float(np.linalg.eigvalsh(ab.data)[-1])
        closed = 1 - von_neumann_entropy(ab) if lam_max > 0.5 else 0.0
        r = ree(ab, Bipartition(("A",), ("B",)), cfg)
        worst_value_gap = max(worst_value_gap, abs(r.value - closed))
        assert abs(r.value - closed) <= 3e-2
        # the certified floor must never overshoot the exact value
        assert r.lower_bound <= closed + 1e-3

    assert max_discord < 1e-6

    r0 = ree(scenario.rho0, Bipartition(("A",), ("B", "C")), cfg)
    assert r0.lower_bound <= 1.0 + 1e-9
    assert r0.value >= 1.0 - 1e-9

    elapsed = time.monotonic() - started
    assert elapsed < 60
    print(f"PASS criterion 2: counterexample, max discord {max_discord:.2e},"
          f" worst closed-form gap {worst_value_gap:.2e}, "
          f"e_abc(0)=[{r0.lower_bound:.6f},{r0.value:.6f}] ({elapsed:.1f}s)")


def test_criterion_3_theorem_suite():
    started = time.monotonic()
    report = theorem_property_suite(seed=7, trials=50)
    assert report.passed
    assert report.closed_trials == 50
    assert report.open_trials == 50
    assert report.failures == ()
    assert report.max_discord_seen < 1e-6
    elapsed = time.monotonic() - started
    assert elapsed < 300
    print(f"PASS criterion 3: 50 closed + 50 open classical trials, zero "
          f"violations, max discord {report.max_discord_seen:.2e} "
          f"({elapsed:.1f}s)")


def test_criterion_4_relocation_bound():
    started = time.monotonic()
    rng = np.random.default_rng(42)
    converged = 0
    for _ in range(100):
        rank = int(rng.integers(1, 9))
        rho = DensityMatrix(wishart_state(8, rng, rank=rank), TRIPLE)
        report = check_relocation_bound(rho, config=SUITE_CFG)
        assert report.holds
        converged += report.converged
    elapsed = time.monotonic() - started
    assert elapsed < 600
    print(f"PASS criterion 4: relocation bound holds on 100/100 random "
          f"states ({converged} fully converged) ({elapsed:.1f}s)")


def test_criterion_5_purity_bound_on_classical_trials():
    # replays the criterion-3 generator so the trials are the same ones
    started = time.monotonic()
    rng = np.random.default_rng(7)
    checked = 0
    for with_jumps in (False, True):
        for _ in range(50):
            scenario = protocol._classical_trial(rng, with_jumps)
            states = protocol._states_at_times(
                scenario, scenario.rho0, scenario.sample_times)
            for rho_t in states:
                ab = partial_trace(rho_t, ("A", "B"))
                r = ree(ab, Bipartition(("A",), ("B",)), SUITE_CFG)
                report = purity_criterion(scenario.rho0, r.value)
                assert not report.detected
                checked += 1
    elapsed = time.monotonic() - started
    print(f"PASS criterion 5: probe-entropy bound held on {checked} samples "
          f"across 100 classical trials ({elapsed:.1f}s)")


def test_criterion_6_trotter_convergence():
    started = time.monotonic()
    i2 = np.eye(2)

    # the mediated-coupling pair commutes, so one step is already exact
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    h_ac = kron(sx, i2, sx)
    h_bc = kron(i2, sx, sx)
    m = np.zeros((8, 8), dtype=complex)
    m[0b011, 0b011] = 0.5
    m[0b100, 0b100] = 0.5
    rho0 = DensityMatrix(m, TRIPLE)
    exact = evolve_closed(rho0, h_ac + h_bc, 1.3)
    assert trace_distance(trotter_evolve(rho0, h_ac, h_bc, 1.3, 1),
                          exact) <= 1e-10

    def herm(rng):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        return (g + g.conj().T) / 2

    rng = np.random.default_rng(3)
    for _ in range(10):
        h_ac = kron(herm(rng), i2, herm(rng))
        h_bc = kron(i2, herm(rng), herm(rng))
        vec = haar_vector(8, rng)
        rho0 = DensityMatrix(np.outer(vec, vec.conj()), TRIPLE)
        exact = evolve_closed(rho0, h_ac + h_bc, 1.0)
        errs = [trace_distance(trotter_evolve(rho0, h_ac, h_bc, 1.0, n),
                               exact) for n in (8, 16, 32, 64)]
        for a, b in zip(errs, errs[1:]):
            assert 1.3 <= a / b <= 2.7

    elapsed = time.monotonic() - started
    print(f"PASS criterion 6: first-order convergence on 10 random pairs, "
          f"commuting pair exact at n=1 ({elapsed:.1f}s)")


def test_criterion_7_transient_structure_and_steady_state():
    started = time.monotonic()
    bench = reproduce_fig4()
    base = OptomechParams.membrane_defaults()

    min_purity_margin = np.inf
    for series, power in zip(bench.series, FIG4_POWERS_B_W):
        assert series.power_b == pytest.approx(power)
        # probe-probe entanglement never appears before mediator pairing
        for i, e_ab in enumerate(series.e_ab):
            if e_ab > 1e-4:
                assert any(e > 1e-4 for e in series.e_abc[:i + 1])

    # physicality of every sampled covariance, rechecked from scratch
    for power in FIG4_POWERS_B_W:
        p = replace(base, power_b=power)
        derived = derive_params(p)
        model = build_drift_diffusion(derived, p)
        traj = propagate_covariance(initial_covariance(derived), model,
                                    60 / p.omega_c, n_samples=400)
        for state in traj.states:
            margin = 2 * float(np.min(symplectic_eigenvalues(state)))
            min_purity_margin = min(min_purity_margin, margin)
        assert min_purity_margin >= 1 - 1e-8

        # where a steady state exists, the Lyapunov solution and the
        # long-time integration must be the same matrix
        if model.is_stable():
            steady = lyapunov_steady(model, ("a", "b", "c"))
            horizon = 30 / abs(model.max_real_eigenvalue())
            settle = propagate_covariance(initial_covariance(derived),
                                          model, horizon, n_samples=3)
            gap = np.max(np.abs(settle.final.v - steady.v))
            assert gap <= 1e-8 * np.max(np.abs(steady.v))

    elapsed = time.monotonic() - started
    assert elapsed < 480  # four powers, two minutes each
    print(f"PASS criterion 7: onset ordering at all four powers, "
          f"min 2nu = {min_purity_margin:.12f}, Lyapunov agreement at "
          f"stable powers ({elapsed:.1f}s)")


def test_criterion_8_stability_sweep():
    started = time.monotonic()
    table = sweep_steady_state()
    assert len(table.points) == 1600

    for pt in table.points:
        if pt.stable:
            assert pt.e_abc < 1e-6

    # contiguity of the unstable tongue: one 4-connected component
    grid = np.array([pt.stable for pt in table.points]).reshape(40, 40)
    unstable = ~grid
    seen = np.zeros_like(unstable)
    components = 0
    for i in range(40):
        for j in range(40):
            if unstable[i, j] and not seen[i, j]:
                components += 1
                stack = [(i, j)]
                seen[i, j] = True
                while stack:
                    a, b = stack.pop()
                    for x, y in ((a - 1, b), (a + 1, b), (a, b - 1), (a, b + 1)):
                        if 0 <= x < 40 and 0 <= y < 40 and unstable[x, y] \
                                and not seen[x, y]:
                            seen[x, y] = True
                            stack.append((x, y))
    assert components == 1

    n_unstable = int(unstable.sum())
    elapsed = time.monotonic() - started
    assert elapsed < 300
    print(f"PASS criterion 8: 40x40 sweep, {n_unstable} unstable points in "
          f"one contiguous region, stable E_abc all < 1e-6 ({elapsed:.1f}s)")


def test_criterion_9_determinism(tmp_path, capsys):
    started = time.monotonic()

    def run_twice(argv, name):
        out1 = tmp_path / f"{name}-1"
        out2 = tmp_path / f"{name}-2"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes(), name

    run_twice(["gain-example", "--times", "2", "--seed", "0"], "gain.json")
    run_twice(["theorem-suite", "--trials", "1", "--seed", "7"], "suite.json")
    run_twice(["fig4", "--pb-mw", "40", "--t-max-omega-c", "10",
               "--samples", "25"], "fig4.csv")

    sweep_args = ["optomech-sweep", "--pb-mw-min", "20", "--pb-mw-max", "60",
                  "--pb-steps", "3", "--delta-b-omega-c-min", "-1",
                  "--delta-b-omega-c-max", "1", "--delta-b-steps", "2"]
    run_twice(sweep_args, "sweep.csv")

    capsys.readouterr()
    elapsed = time.monotonic() - started
    print(f"PASS criterion 9: byte-identical reruns for detection, suite, "
          f"transient and sweep outputs ({elapsed:.1f}s)")
