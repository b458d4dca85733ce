"""Detection pipeline: scenario validation, verdicts, serialization."""

import json
import re

import numpy as np
import pytest
from scipy.linalg import expm

from nonclassicality.core import DensityMatrix, MeasurementBasis, SystemDims, kron
from nonclassicality.measures import ReeConfig
from nonclassicality.protocol import (
    SUITE_REE_CONFIG,
    TripartiteScenario,
    _states_at_times,
    load_scenario,
    run_detection,
    save_scenario,
    scenario_counterexample,
    scenario_gain_example,
    sec_detection,
    theorem_property_suite,
)

from helpers import I2, SX, SY, SZ, dm, pure

TRIPLE = SystemDims((2, 2, 2), ("A", "B", "C"))


def mixed_start() -> DensityMatrix:
    m = np.zeros((8, 8), dtype=complex)
    m[0b000, 0b000] = 0.5
    m[0b111, 0b111] = 0.5
    return DensityMatrix(m, TRIPLE)


def make(rho0=None, h_ac=None, h_bc=None, **kw) -> TripartiteScenario:
    return TripartiteScenario(
        name="unit",
        rho0=mixed_start() if rho0 is None else rho0,
        h_ac=kron(SX, I2, SX) if h_ac is None else h_ac,
        h_bc=kron(I2, SX, SX) if h_bc is None else h_bc,
        **kw,
    )


class TestScenarioValidation:
    def test_labels_must_be_abc(self):
        bad = DensityMatrix(np.eye(8) / 8, SystemDims((2, 2, 2), ("A", "B", "D")))
        with pytest.raises(ValueError, match="labels"):
            make(rho0=bad)

    def test_h_ac_touching_b_rejected(self):
        with pytest.raises(ValueError, match="identity on probe B"):
            make(h_ac=kron(SX, SZ, SX))

    def test_h_bc_touching_a_rejected(self):
        with pytest.raises(ValueError, match="identity on probe A"):
            make(h_bc=kron(SZ, I2, SX))

    def test_hamiltonian_shape_checked(self):
        with pytest.raises(ValueError, match="full space"):
            make(h_ac=np.kron(SX, SX))

    def test_breaking_basis_must_act_on_a(self):
        with pytest.raises(ValueError, match="probe A"):
            make(breaking_basis=MeasurementBasis.computational("B", 2))

    def test_sample_times_nonempty_and_nonnegative(self):
        with pytest.raises(ValueError, match="sample_times"):
            make(sample_times=())
        with pytest.raises(ValueError, match="sample_times"):
            make(sample_times=(0.0, -0.1))

    def test_sample_times_sorted_and_deduplicated(self):
        s = make(sample_times=(2.0, 1.0, 1.0, 0.0))
        assert s.sample_times == (0.0, 1.0, 2.0)

    def test_hamiltonian_property_sums_both_couplings(self):
        s = make()
        np.testing.assert_allclose(s.hamiltonian, s.h_ac + s.h_bc)

    def test_is_open_reflects_jump_list(self):
        assert not make().is_open
        assert make(jumps=(("C", SZ, 0.1),)).is_open


class TestLocalityCheck:
    """h_ac may act on B, and h_bc on A, only as a multiple of the identity."""

    @staticmethod
    def scenario(d_c, h_ac, h_bc):
        dims = SystemDims((2, 2, d_c), ("A", "B", "C"))
        return TripartiteScenario(
            name="locality",
            rho0=DensityMatrix(np.eye(4 * d_c) / (4 * d_c), dims),
            h_ac=h_ac,
            h_bc=h_bc,
        )

    @staticmethod
    def mediator_op(d_c):
        rng = np.random.default_rng(d_c)
        g = rng.normal(size=(d_c, d_c)) + 1j * rng.normal(size=(d_c, d_c))
        return g + g.conj().T

    @pytest.mark.parametrize("d_c", [2, 3])
    def test_sigma_z_on_b_in_h_ac_rejected(self, d_c):
        g = self.mediator_op(d_c)
        h_ac = kron(SX, I2, g) + 0.5 * kron(I2, SZ, g)
        with pytest.raises(ValueError, match="h_ac must act as identity on probe B"):
            self.scenario(d_c, h_ac, kron(I2, SX, g))

    @pytest.mark.parametrize("d_c", [2, 3])
    def test_term_on_a_in_h_bc_rejected(self, d_c):
        g = self.mediator_op(d_c)
        h_bc = kron(I2, SX, g) + 1e-6 * kron(SY, I2, np.eye(d_c))
        with pytest.raises(ValueError, match="h_bc must act as identity on probe A"):
            self.scenario(d_c, kron(SX, I2, g), h_bc)

    @pytest.mark.parametrize("d_c", [2, 3])
    def test_scalar_multiple_of_identity_accepted(self, d_c):
        g = self.mediator_op(d_c)
        s = self.scenario(d_c, kron(SX, 2.5 * I2, g), kron(-0.7 * I2, SZ, g))
        np.testing.assert_array_equal(s.h_ac, kron(SX, 2.5 * I2, g))


class TestNamedScenarios:
    def test_gain_example_layout(self):
        s = scenario_gain_example(5)
        assert len(s.sample_times) == 5
        assert s.sample_times[0] == 0.0
        assert s.sample_times[-1] == pytest.approx(np.pi / 4)
        # the start is already classical, no breaking step needed
        assert s.breaking_basis is None
        assert not s.is_open

    def test_counterexample_layout(self):
        s = scenario_counterexample(20)
        assert len(s.sample_times) == 20
        assert s.sample_times[-1] == pytest.approx(np.pi)
        assert s.breaking_basis is not None
        assert s.breaking_basis.subsystem == "A"
        np.testing.assert_allclose(s.breaking_basis.vectors[0], [1, 0])
        np.testing.assert_allclose(s.breaking_basis.vectors[1], [0, 1])
        assert not s.is_open

    def test_time_count_must_be_positive(self):
        with pytest.raises(ValueError):
            scenario_gain_example(0)
        with pytest.raises(ValueError):
            scenario_counterexample(0)


@pytest.fixture(scope="module")
def starved_report():
    # no slide: two bare Frank-Wolfe steps leave the A:BC upper edge wide
    tiny = ReeConfig(max_iter=2, weight_iters=0, descent_iters=5, gap_tol=1e-12,
                     bracket_tol=1e-12)
    return run_detection(scenario_gain_example(2), ree_config=tiny)


class TestRunDetection:
    def test_gain_example_brackets_and_verdict(self):
        # the breaking step removes any probe-probe entanglement, and the
        # mediated coupling never restores it; detection must stay modest
        rep = run_detection(scenario_gain_example(3), ree_config=SUITE_REE_CONFIG)
        assert rep.verdict == "INCONCLUSIVE"
        assert abs(rep.gain) < 1e-6
        assert rep.times[0] == 0.0
        assert len(rep.times) == 3
        # probes separable at every sampled time
        assert all(hi <= 2e-2 for _, hi in rep.e_ab)
        # A:(BC) entanglement starts at zero and climbs toward one ebit
        lo0, hi0 = rep.e_abc[0]
        assert lo0 <= 1e-9 and hi0 <= 2e-2
        lo_tau, hi_tau = rep.e_abc[-1]
        assert hi_tau >= 0.95
        assert lo_tau <= 1.0 + 1e-9
        # the mediator carries discord mid-run but none at the endpoints
        assert rep.d_ab_given_c[0] < 1e-6
        assert rep.d_ab_given_c[-1] < 1e-6
        assert max(rep.d_ab_given_c) > 0.5

    def test_counterexample_stays_inconclusive(self):
        rep = run_detection(scenario_counterexample(4), ree_config=SUITE_REE_CONFIG)
        assert rep.verdict == "INCONCLUSIVE"
        assert all(hi <= 2e-2 for _, hi in rep.e_ab)

    def test_time_zero_prepended_when_missing(self):
        s = make(sample_times=(0.5,))
        rep = run_detection(s, ree_config=SUITE_REE_CONFIG)
        assert rep.times[0] == 0.0
        assert rep.times[1] == 0.5
        assert len(rep.e_ab) == len(rep.times)
        assert len(rep.e_abc) == len(rep.times)
        assert len(rep.d_ab_given_c) == len(rep.times)

    def test_zero_hamiltonian_gives_constant_brackets(self):
        zero = np.zeros((8, 8))
        s = make(h_ac=zero, h_bc=zero, sample_times=(0.0, 0.3, 0.9))
        rep = run_detection(s, ree_config=SUITE_REE_CONFIG)
        assert rep.verdict == "INCONCLUSIVE"
        for series in (rep.e_ab, rep.e_abc):
            for lo, hi in series[1:]:
                assert lo == pytest.approx(series[0][0], abs=1e-9)
                assert hi == pytest.approx(series[0][1], abs=1e-9)

    def test_starved_optimizer_degrades_to_inconclusive(self, starved_report):
        assert starved_report.verdict == "INCONCLUSIVE"
        assert any("not converged" in d for d in starved_report.diagnostics)

    def test_not_converged_diagnostic_carries_the_bracket(self, starved_report):
        rep = starved_report
        pattern = re.compile(r"(e_abc?) optimizer not converged at t=(\S+): "
                             r"bracket \[(\S+), (\S+)\], width (\S+) \(fw_gap=(\S+) "
                             r"after \d+ iterations; (frank-wolfe|barrier|flags) path, "
                             r"(upper edge|lower edge|both edges) wide\)$")
        notes = [pattern.match(d) for d in rep.diagnostics if "not converged" in d]
        assert notes and all(notes)
        paths = set()
        for tag, t, lo, hi, width, gap, path, edge in (m.groups() for m in notes):
            paths.add((tag, path))
            # only a Frank-Wolfe search leaves a gap to compare the width with
            assert (edge == "both edges") == (float(gap) == 0.0)
            i = [f"{x:.6g}" for x in rep.times].index(t)
            want_lo, want_hi = getattr(rep, tag)[i]
            assert float(lo) == pytest.approx(want_lo, rel=1e-5, abs=1e-12)
            assert float(hi) == pytest.approx(want_hi, rel=1e-5, abs=1e-12)
            assert float(width) == pytest.approx(want_hi - want_lo, rel=1e-3, abs=1e-12)
            assert float(width) > 1e-12  # wider than the starved bracket_tol
        # the 2x2 marginals take the barrier, the later A:BC states Frank-Wolfe
        assert ("e_ab", "barrier") in paths and ("e_abc", "frank-wolfe") in paths


class TestOpenEvolution:
    def test_off_grid_sample_time_is_exact(self):
        # 0.3337 is off the t_end/2000 grid; the state must be the exact
        # solution there, not the one at the nearest grid point
        jumps = (("A", SX, 0.2), ("B", SZ, 0.1), ("C", SY, 0.15))
        scenario = make(h_ac=kron(SX, I2, SZ), h_bc=kron(I2, SY, SX), jumps=jumps,
                        sample_times=(0.0, 0.3337, 1.0))
        states = _states_at_times(scenario, scenario.rho0, scenario.sample_times)

        # column-major vec: vec(X A Y) = (Y^T kron X) vec(A)
        h = scenario.hamiltonian
        eye = np.eye(8)
        gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
        for label, op, rate in jumps:
            q = np.sqrt(rate) * {"A": kron(op, I2, I2), "B": kron(I2, op, I2),
                                 "C": kron(I2, I2, op)}[label]
            qdq = q.conj().T @ q
            gen += np.kron(q.conj(), q) - 0.5 * (np.kron(eye, qdq) + np.kron(qdq.T, eye))
        vec0 = scenario.rho0.data.reshape(-1, order="F")
        for t, state in zip(scenario.sample_times, states):
            exact = (expm(gen * t) @ vec0).reshape(8, 8, order="F")
            assert np.max(np.abs(state.data - exact)) < 1e-10


class TestSecDetection:
    def test_counterexample_flags_initial_correlation(self):
        # without the breaking step the same scenario shows a certified
        # entanglement rise, but it only witnesses correlation with C
        rep = sec_detection(scenario_counterexample(4))
        assert rep.verdict == "CORRELATED"
        assert rep.gain > 0.5
        assert rep.e_ab[0][1] < 1e-6
        assert rep.gain == pytest.approx(
            max(lo for lo, _ in rep.e_ab) - rep.e_ab[0][1]
        )

    def test_light_budget_degrades_honestly(self):
        # intermediate states need the full budget; starving it must not
        # flip the verdict to a false positive, only to INCONCLUSIVE
        rep = sec_detection(scenario_counterexample(4), ree_config=SUITE_REE_CONFIG)
        assert rep.verdict in ("CORRELATED", "INCONCLUSIVE")
        if rep.verdict == "INCONCLUSIVE":
            assert any("not converged" in d for d in rep.diagnostics)


class TestReportFormats:
    def test_csv_layout(self):
        rep = run_detection(make(sample_times=(0.0, 0.4)), ree_config=SUITE_REE_CONFIG)
        lines = rep.to_csv().splitlines()
        assert lines[0] == "t,e_ab_lo,e_ab_hi,e_abc_lo,e_abc_hi,d_ab_c"
        assert len(lines) == 1 + len(rep.times)
        first = lines[1].split(",")
        assert len(first) == 6
        assert first[0] == "%.12g" % rep.times[0]
        assert rep.to_csv().endswith("\n")

    def test_json_round_trips(self):
        rep = run_detection(make(sample_times=(0.0, 0.4)), ree_config=SUITE_REE_CONFIG)
        payload = json.loads(rep.to_json())
        assert payload["scenario"] == "unit"
        assert payload["verdict"] == rep.verdict
        assert payload["gain"] == rep.gain
        assert len(payload["times"]) == len(rep.times)
        assert payload["e_ab"] == [list(b) for b in rep.e_ab]
        assert payload["d_ab_given_c"] == list(rep.d_ab_given_c)


class TestSerialization:
    def test_scenario_roundtrip(self, tmp_path):
        rho0 = pure(np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2),
                    (2, 2, 2), ("A", "B", "C"))
        s = TripartiteScenario(
            name="roundtrip",
            rho0=rho0,
            h_ac=kron(SY, I2, SY),
            h_bc=kron(I2, SZ, SX),
            jumps=(("C", (SX + 1j * SY) / 2, 0.25), ("A", SZ, 0.1)),
            breaking_basis=MeasurementBasis.computational("A", 2),
            sample_times=(0.0, 0.5, 1.5),
        )
        path = tmp_path / "scenario.json"
        save_scenario(s, str(path))
        loaded = load_scenario(str(path))

        assert loaded.name == s.name
        assert loaded.rho0.dims == s.rho0.dims
        np.testing.assert_array_equal(loaded.rho0.data, s.rho0.data)
        np.testing.assert_array_equal(loaded.h_ac, s.h_ac)
        np.testing.assert_array_equal(loaded.h_bc, s.h_bc)
        assert loaded.sample_times == s.sample_times
        assert len(loaded.jumps) == 2
        for (la, ma, ra), (lb, mb, rb) in zip(loaded.jumps, s.jumps):
            assert la == lb
            assert ra == rb
            np.testing.assert_array_equal(ma, mb)
        assert loaded.breaking_basis.subsystem == "A"
        for va, vb in zip(loaded.breaking_basis.vectors,
                          s.breaking_basis.vectors):
            np.testing.assert_array_equal(va, vb)

    def test_scenario_without_optionals_roundtrip(self, tmp_path):
        s = make(sample_times=(0.0, 1.0))
        path = tmp_path / "bare.json"
        save_scenario(s, str(path))
        loaded = load_scenario(str(path))
        assert loaded.breaking_basis is None
        assert loaded.jumps == ()
        np.testing.assert_array_equal(loaded.h_ac, s.h_ac)

    def test_saved_file_is_stable_json(self, tmp_path):
        path = tmp_path / "s.json"
        save_scenario(scenario_counterexample(3), str(path))
        text = path.read_text()
        assert text.endswith("\n")
        payload = json.loads(text)
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"name": "x"}))
        with pytest.raises((KeyError, ValueError)):
            load_scenario(str(path))


class TestTheoremSuite:
    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError, match="trials"):
            theorem_property_suite(seed=0, trials=0)

    def test_single_trial_passes(self):
        rep = theorem_property_suite(seed=7, trials=1)
        assert rep.passed
        assert rep.closed_trials == 1
        assert rep.open_trials == 1
        assert rep.max_discord_seen < 1e-6
        assert rep.failures == ()

    def test_report_serializes(self):
        rep = theorem_property_suite(seed=7, trials=1)
        payload = json.loads(rep.to_json())
        assert payload["passed"] is True
        assert payload["closed_trials"] == 1
        assert payload["open_trials"] == 1
        assert payload["failures"] == []
