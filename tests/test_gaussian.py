"""Continuous-variable pipeline: derived rates, drift algebra, entanglement."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm, solve_continuous_lyapunov

import nonclassicality
from nonclassicality.gaussian import (
    FIG4_POWERS_B_W,
    CovarianceState,
    DriftDiffusion,
    OptomechParams,
    UnstableDriftError,
    build_drift_diffusion,
    derive_params,
    initial_covariance,
    load_params,
    log_negativity_gaussian,
    lyapunov_steady,
    propagate_covariance,
    reproduce_fig4,
    save_params,
    sweep_steady_state,
    symplectic_eigenvalues,
)

HBAR = 1.054571817e-34
C_LIGHT = 299792458.0


def vacuum(n_modes: int, labels=()) -> CovarianceState:
    return CovarianceState(np.eye(2 * n_modes) / 2, labels)


def two_mode_squeezed(r: float) -> CovarianceState:
    ch, sh = np.cosh(2 * r) / 2, np.sinh(2 * r) / 2
    z = np.diag([1.0, -1.0])
    v = np.block([[ch * np.eye(2), sh * z], [sh * z, ch * np.eye(2)]])
    return CovarianceState(v)


class TestParamsValidation:
    def test_defaults_are_accepted(self):
        p = OptomechParams.membrane_defaults()
        assert p.power_b == pytest.approx(60e-3)
        assert p.detuning_a == pytest.approx(p.omega_c)
        assert p.detuning_b == pytest.approx(-p.omega_c)

    @pytest.mark.parametrize("field", [
        "mass", "temperature", "cavity_length_a", "cavity_length_b",
        "finesse_a", "finesse_b", "wavelength_a", "wavelength_b",
        "omega_c", "gamma_c",
    ])
    def test_positive_fields_rejected_at_zero(self, field):
        with pytest.raises(ValueError, match=field):
            replace(OptomechParams.membrane_defaults(), **{field: 0.0})

    def test_negative_power_rejected_but_zero_allowed(self):
        with pytest.raises(ValueError, match="power_b"):
            replace(OptomechParams.membrane_defaults(), power_b=-1e-3)
        p = replace(OptomechParams.membrane_defaults(), power_b=0.0)
        assert p.power_b == 0.0

    def test_detunings_any_sign_but_finite(self):
        p = replace(OptomechParams.membrane_defaults(), detuning_a=-3e6,
                    detuning_b=0.0)
        assert p.detuning_b == 0.0
        with pytest.raises(ValueError, match="detuning_a"):
            replace(OptomechParams.membrane_defaults(),
                    detuning_a=float("nan"))


class TestDeriveParams:
    def test_membrane_workpoint_rates(self):
        p = OptomechParams.membrane_defaults()
        d = derive_params(p)
        # closed-form linewidth: pi c / (2 F l)
        kappa = math.pi * C_LIGHT / (2 * p.finesse_a * p.cavity_length_a)
        assert d.kappa_a == pytest.approx(kappa, rel=1e-12)
        assert d.kappa_a == pytest.approx(1345465.405, rel=1e-8)
        assert d.kappa_b == pytest.approx(d.kappa_a, rel=1e-12)
        # thermal occupation at 0.3 K against a 947 kHz mode
        assert d.n_bar == pytest.approx(6600.33, rel=1e-4)
        assert d.bare_coupling_a == pytest.approx(24.76, rel=1e-3)
        assert d.field_amp_a == pytest.approx(196800, rel=1e-3)
        assert d.membrane_shift == pytest.approx(64460, rel=1e-3)
        assert d.coupling_a == pytest.approx(6.8905e6, rel=1e-3)
        assert d.coupling_b == pytest.approx(5.3373e6, rel=1e-3)
        assert d.bare_detuning_a == pytest.approx(7.546045e6, rel=1e-4)
        assert d.bare_detuning_b == pytest.approx(-7.546045e6, rel=1e-4)

    def test_coupling_scales_with_sqrt_power(self):
        p = OptomechParams.membrane_defaults()
        d1 = derive_params(p)
        d4 = derive_params(replace(p, power_b=4 * p.power_b))
        assert d4.coupling_b == pytest.approx(2 * d1.coupling_b, rel=1e-9)
        assert d4.coupling_a == pytest.approx(d1.coupling_a, rel=1e-9)

    def test_zero_power_kills_one_arm(self):
        p = replace(OptomechParams.membrane_defaults(), power_b=0.0)
        d = derive_params(p)
        assert d.drive_b == 0.0
        assert d.field_amp_b == 0.0
        assert d.coupling_b == 0.0
        # the static shift then comes from the a-arm alone
        expected = d.bare_coupling_a * d.field_amp_a ** 2 / p.omega_c
        assert d.membrane_shift == pytest.approx(expected, rel=1e-9)

    def test_symmetric_drives_cancel_the_shift(self):
        p = replace(OptomechParams.membrane_defaults(), power_b=100e-3)
        d = derive_params(p)
        assert abs(d.membrane_shift) < 1e-6 * abs(derive_params(
            OptomechParams.membrane_defaults()).membrane_shift)


class TestParamsJson:
    def test_roundtrip_preserves_every_field(self):
        p = replace(OptomechParams.membrane_defaults(),
                    power_b=37e-3, detuning_b=-1.3e6)
        q = OptomechParams.from_json_dict(p.to_json_dict())
        assert q == p

    def test_wire_format_uses_milliwatts(self):
        data = OptomechParams.membrane_defaults().to_json_dict()
        assert data["power_a_mW"] == pytest.approx(100.0)
        assert data["power_b_mW"] == pytest.approx(60.0)
        assert data["mass_kg"] == pytest.approx(145e-12)

    def test_unknown_key_rejected(self):
        data = OptomechParams.membrane_defaults().to_json_dict()
        data["finesse_c"] = 1.0
        with pytest.raises(ValueError, match="finesse_c"):
            OptomechParams.from_json_dict(data)

    def test_missing_key_rejected(self):
        data = OptomechParams.membrane_defaults().to_json_dict()
        del data["temperature_K"]
        with pytest.raises(ValueError, match="temperature_K"):
            OptomechParams.from_json_dict(data)

    def test_non_number_rejected(self):
        data = OptomechParams.membrane_defaults().to_json_dict()
        data["mass_kg"] = "heavy"
        with pytest.raises(ValueError, match="mass_kg"):
            OptomechParams.from_json_dict(data)

    def test_file_roundtrip(self, tmp_path):
        p = replace(OptomechParams.membrane_defaults(), power_b=42e-3)
        path = tmp_path / "params.json"
        save_params(p, str(path))
        assert load_params(str(path)) == p
        text = path.read_text()
        assert text.endswith("\n")
        json.loads(text)


class TestBuildDriftDiffusion:
    def setup_method(self):
        self.p = OptomechParams.membrane_defaults()
        self.d = derive_params(self.p)
        self.model = build_drift_diffusion(self.d, self.p)

    def test_shapes_and_trace(self):
        k = self.model.k
        assert k.shape == (6, 6)
        expected = -2 * self.d.kappa_a - 2 * self.d.kappa_b - self.p.gamma_c
        assert np.trace(k) == pytest.approx(expected, rel=1e-12)

    def test_coupling_entries(self):
        k = self.model.k
        assert k[1, 4] == pytest.approx(self.d.coupling_a)
        assert k[3, 4] == pytest.approx(-self.d.coupling_b)
        assert k[5, 0] == pytest.approx(self.d.coupling_a)
        assert k[5, 2] == pytest.approx(-self.d.coupling_b)
        assert k[4, 5] == pytest.approx(self.p.omega_c)
        assert k[5, 4] == pytest.approx(-self.p.omega_c)
        assert k[0, 1] == pytest.approx(self.p.detuning_a)
        assert k[2, 3] == pytest.approx(self.p.detuning_b)

    def test_diffusion_matrix(self):
        d = self.model.d
        heat = self.p.gamma_c * (2 * self.d.n_bar + 1)
        np.testing.assert_allclose(
            np.diag(d),
            [self.d.kappa_a, self.d.kappa_a, self.d.kappa_b, self.d.kappa_b,
             0.0, heat])
        assert np.count_nonzero(d - np.diag(np.diag(d))) == 0

    def test_undriven_cavities_decouple(self):
        p = replace(self.p, power_a=0.0, power_b=0.0)
        model = build_drift_diffusion(derive_params(p), p)
        for i, j in ((1, 4), (3, 4), (5, 0), (5, 2)):
            assert model.k[i, j] == 0.0
        assert model.is_stable()

    def test_stability_flips_with_power(self):
        # the 20 mW point lies inside the unstable tongue, the rest outside
        flags = {}
        for power in FIG4_POWERS_B_W:
            p = replace(self.p, power_b=power)
            model = build_drift_diffusion(derive_params(p), p)
            flags[round(power * 1e3)] = model.is_stable()
        assert flags == {20: False, 40: True, 60: True, 80: True}

    def test_unstable_rate_magnitude(self):
        p = replace(self.p, power_b=20e-3)
        model = build_drift_diffusion(derive_params(p), p)
        assert model.max_real_eigenvalue() == pytest.approx(2.407e5, rel=2e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftDiffusion(np.zeros((4, 4)), np.zeros((6, 6)))  # shape clash
        with pytest.raises(ValueError):
            DriftDiffusion(np.zeros((4, 4)), np.diag([1.0, -1.0, 0, 0]))
        with pytest.raises(ValueError):
            DriftDiffusion(np.zeros((4, 4)), np.ones((4, 4)))  # not diagonal


class TestCovarianceState:
    def test_vacuum_and_default_labels(self):
        assert vacuum(3).mode_labels == ("a", "b", "c")
        assert vacuum(2).mode_labels == ("m1", "m2")

    def test_rejections(self):
        with pytest.raises(ValueError, match="symmetric"):
            CovarianceState(np.array([[0.5, 0.1], [0.0, 0.5]]))
        with pytest.raises(ValueError):
            CovarianceState(np.eye(3) / 2)  # odd dimension
        with pytest.raises(ValueError, match="nu"):
            CovarianceState(np.eye(2) / 4)  # below the vacuum floor
        with pytest.raises(ValueError, match="duplicate"):
            CovarianceState(np.eye(4) / 2, ("a", "a"))
        with pytest.raises(ValueError, match="labels"):
            CovarianceState(np.eye(4) / 2, ("a", "b", "c"))

    def test_matrix_is_write_protected(self):
        state = vacuum(2)
        with pytest.raises(ValueError):
            state.v[0, 0] = 9.0

    def test_submatrix_order_follows_labels(self):
        v = np.diag([1.0, 1.0, 3.0, 3.0, 5.0, 5.0]) / 2
        state = CovarianceState(v, ("a", "b", "c"))
        assert [state.mode_index(label) for label in ("c", "a")] == [2, 0]
        with pytest.raises(KeyError):
            state.mode_index("d")


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        np.testing.assert_allclose(symplectic_eigenvalues(vacuum(3)), 0.5)

    def test_thermal(self):
        n_bar = 3.0
        v = np.eye(2) * (2 * n_bar + 1) / 2
        np.testing.assert_allclose(symplectic_eigenvalues(v), [3.5])

    def test_sorted_ascending(self):
        v = np.diag([3.4, 3.4, 1.2, 1.2]) / 2
        np.testing.assert_allclose(symplectic_eigenvalues(v), [0.6, 1.7])

    def test_invariant_under_symplectic_congruence(self):
        rng = np.random.default_rng(11)
        v = np.diag([1.2, 1.2, 3.4, 3.4]) / 2
        h = rng.normal(size=(4, 4))
        h = h + h.T
        omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        s = expm(omega @ h)
        transformed = s @ v @ s.T
        np.testing.assert_allclose(
            symplectic_eigenvalues(0.5 * (transformed + transformed.T)),
            [0.6, 1.7], rtol=1e-9)

    def test_stack_matches_per_matrix_calls(self):
        rng = np.random.default_rng(5)
        omega = np.kron(np.eye(3), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        stack = []
        for _ in range(7):
            h = rng.normal(size=(6, 6))
            s = expm(omega @ (h + h.T) / 4)
            v = s @ np.diag(rng.uniform(1.0, 4.0, 3).repeat(2)) @ s.T / 2
            stack.append(0.5 * (v + v.T))
        stack = np.array(stack)
        got = symplectic_eigenvalues(stack)
        assert got.shape == (7, 3)
        assert np.array_equal(got, np.array([symplectic_eigenvalues(v) for v in stack]))

    def test_unpairable_matrix_in_stack_raises(self):
        bad = np.eye(4) / 2
        bad[:2, :2] = [[0.0, -2.0], [1.0, 0.0]]  # i Omega V has moduli 1 and 2
        with pytest.raises(RuntimeError, match="pair"):
            symplectic_eigenvalues(np.array([np.eye(4) / 2, bad, np.eye(4) / 2]))


class TestLogNegativityGaussian:
    def test_vacuum_has_none(self):
        assert log_negativity_gaussian(vacuum(2), 0) == 0.0
        assert log_negativity_gaussian(vacuum(2), "m2") == 0.0

    def test_two_mode_squeezed_gives_two_r(self):
        state = two_mode_squeezed(0.7)
        assert log_negativity_gaussian(state, 1) == pytest.approx(1.4, rel=1e-9)
        # either side of the cut gives the same value
        assert log_negativity_gaussian(state, 0) == pytest.approx(1.4, rel=1e-9)

    def test_thermal_product_has_none(self):
        v = np.diag([3.0, 3.0, 7.0, 7.0]) / 2
        assert log_negativity_gaussian(CovarianceState(v), 0) == 0.0

    def test_label_and_index_agree(self):
        state = two_mode_squeezed(0.3)
        assert (log_negativity_gaussian(state, "m2")
                == log_negativity_gaussian(state, 1))

    def test_single_mode_rejected(self):
        with pytest.raises(ValueError):
            log_negativity_gaussian(vacuum(1), 0)

    def test_stack_matches_per_state_calls(self):
        rs = (0.0, 0.1, 0.35, 0.7, 1.2)
        states = [two_mode_squeezed(r) for r in rs] + [vacuum(2)]
        stack = np.array([state.v for state in states])
        for mode in (0, 1):
            got = log_negativity_gaussian(stack, mode)
            assert got.shape == (len(states),)
            assert np.array_equal(got, [log_negativity_gaussian(s, mode) for s in states])
            np.testing.assert_allclose(got[:-1], 2 * np.array(rs), rtol=1e-9, atol=1e-12)


class TestPropagate:
    def test_frozen_dynamics_holds_state(self):
        v0 = CovarianceState(np.diag([1.0, 1.0, 3.0, 3.0]) / 2)
        model = DriftDiffusion(np.zeros((4, 4)), np.zeros((4, 4)))
        traj = propagate_covariance(v0, model, 1.0, n_samples=5)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0)
        np.testing.assert_allclose(traj.final.v, v0.v, atol=1e-13)

    def test_pure_relaxation_reaches_vacuum(self):
        # dV/dt = -2V + I settles on I/2 regardless of the start
        model = DriftDiffusion(-np.eye(2), np.eye(2))
        traj = propagate_covariance(vacuum(1), model, 10.0, n_samples=10)
        np.testing.assert_allclose(traj.final.v, np.eye(2) / 2, atol=1e-8)

    def test_lossy_drift_without_noise_aborts(self):
        model = DriftDiffusion(-np.eye(2), np.zeros((2, 2)))
        with pytest.raises(RuntimeError, match="physical cone"):
            propagate_covariance(vacuum(1), model, 10.0)

    def test_argument_validation(self):
        model = DriftDiffusion(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="t_end"):
            propagate_covariance(vacuum(1), model, 0.0)
        with pytest.raises(ValueError, match="dim"):
            propagate_covariance(vacuum(2), model, 1.0)
        for n_samples in (0, -4):
            with pytest.raises(ValueError, match="n_samples"):
                propagate_covariance(vacuum(1), model, 1.0, n_samples=n_samples)

    def test_matches_closed_form_on_stable_drifts(self):
        # V(t) = V_s + e^{Kt} (V0 - V_s) e^{K^T t} on random strictly
        # stable drifts, at every sampled time
        rng = np.random.default_rng(17)
        for _ in range(4):
            a = 0.5 * rng.normal(size=(4, 4))
            k = a - (max(np.linalg.eigvals(a).real) + 1.0) * np.eye(4)
            d0 = np.diag(rng.uniform(0.5, 2.0, size=4))
            raw = solve_continuous_lyapunov(k, -d0)
            floor = min(np.linalg.eigvalsh(0.5 * (raw + raw.T)))
            model = DriftDiffusion(k, (1.2 / floor) * d0)
            v_s = solve_continuous_lyapunov(k, -model.d)
            v0 = CovarianceState(v_s + np.eye(4))
            traj = propagate_covariance(v0, model, 3.0, n_samples=7)
            assert len(traj) == 8
            for t, state in traj:
                phi = expm(k * t)
                exact = v_s + phi @ (v0.v - v_s) @ phi.T
                err = np.max(np.abs(state.v - exact))
                assert err <= 1e-10 * np.max(np.abs(exact))

    def test_sample_times_are_exact_fractions(self):
        p = OptomechParams.membrane_defaults()
        t_max = 3 / p.omega_c
        bench = reproduce_fig4((60e-3,), t_max=t_max, n_samples=25)
        assert bench.series[0].times == tuple(t_max * i / 25 for i in range(26))


class TestLyapunovSteady:
    def test_relaxation_fixed_point(self):
        model = DriftDiffusion(-np.eye(2), np.eye(2))
        steady = lyapunov_steady(model, ("x",))
        np.testing.assert_allclose(steady.v, np.eye(2) / 2, atol=1e-12)
        assert steady.mode_labels == ("x",)

    def test_unstable_drift_raises(self):
        model = DriftDiffusion(np.eye(2), np.eye(2))
        with pytest.raises(UnstableDriftError) as err:
            lyapunov_steady(model)
        assert err.value.max_real_part == pytest.approx(1.0)

    def test_matches_long_time_integration(self):
        # random strictly stable drifts, diffusion scaled so the steady
        # state sits above the vacuum floor and the whole decay path
        # (V_s plus a positive-definite transient) stays physical
        rng = np.random.default_rng(5)
        for _ in range(4):
            a = 0.5 * rng.normal(size=(4, 4))
            shift = max(np.linalg.eigvals(a).real) + 2.0
            k = a - shift * np.eye(4)
            d0 = np.diag(rng.uniform(0.5, 2.0, size=4))
            # probe the unscaled fixed point directly; it may sit below the
            # vacuum floor, which lyapunov_steady would refuse to return
            raw = solve_continuous_lyapunov(k, -d0)
            floor = min(np.linalg.eigvalsh(0.5 * (raw + raw.T)))
            model = DriftDiffusion(k, (1.2 / floor) * d0)
            steady = lyapunov_steady(model)
            v0 = CovarianceState(steady.v + np.eye(4), steady.mode_labels)
            traj = propagate_covariance(v0, model, 12.0, n_samples=3)
            gap = np.max(np.abs(traj.final.v - steady.v))
            assert gap <= 1e-8 * np.max(np.abs(steady.v))

    def test_membrane_workpoint_steady_entanglement(self):
        base = OptomechParams.membrane_defaults()
        expected_e_ab = {40e-3: 0.08396, 60e-3: 0.12109, 80e-3: 0.11890}
        for power, target in expected_e_ab.items():
            p = replace(base, power_b=power)
            model = build_drift_diffusion(derive_params(p), p)
            steady = lyapunov_steady(model, ("a", "b", "c"))
            residual = np.max(np.abs(model.k @ steady.v
                                     + steady.v @ model.k.T + model.d))
            assert residual <= 1e-10 * np.max(np.abs(model.d))
            e_ab = log_negativity_gaussian(steady.v[:4, :4], 1)
            e_abc = log_negativity_gaussian(steady, "c")
            assert e_ab == pytest.approx(target, abs=1e-4)
            assert e_abc == 0.0


class TestReproduceFig4:
    def test_short_window_shows_mediator_first(self):
        p = OptomechParams.membrane_defaults()
        bench = reproduce_fig4((60e-3,), t_max=3 / p.omega_c, n_samples=25)
        assert len(bench.series) == 1
        s = bench.series[0]
        assert s.times[0] == 0.0
        assert s.e_ab[0] == 0.0 and s.e_abc[0] == 0.0
        # field-membrane entanglement builds before any probe-probe pair
        assert max(s.e_abc) > 0.05
        assert max(s.e_ab) < 1e-4
        assert not s.reached_steady

    def test_series_matches_per_sample_calls(self):
        p = replace(OptomechParams.membrane_defaults(), power_b=40e-3)
        series = reproduce_fig4((40e-3,), t_max=10 / p.omega_c, n_samples=25).series[0]
        derived = derive_params(p)
        traj = propagate_covariance(initial_covariance(derived),
                                    build_drift_diffusion(derived, p),
                                    10 / p.omega_c, n_samples=25)
        assert series.times == traj.times
        assert series.e_ab == tuple(
            log_negativity_gaussian(CovarianceState(state.v[:4, :4]), 1)
            for state in traj.states)
        assert series.e_abc == tuple(
            log_negativity_gaussian(state, "c") for state in traj.states)
        assert all(type(e) is float for e in series.e_ab + series.e_abc)
        # a clamped zero is +0.0, never -0.0
        assert math.copysign(1.0, series.e_ab[0]) == 1.0
        assert math.copysign(1.0, series.e_abc[0]) == 1.0

    def test_csv_layout(self):
        p = OptomechParams.membrane_defaults()
        bench = reproduce_fig4((60e-3,), t_max=1 / p.omega_c, n_samples=5)
        lines = bench.to_csv().splitlines()
        assert lines[0] == "P_b_mW,t_s,t_omega_c,E_ab,E_abc"
        assert len(lines) == 1 + len(bench.series[0].times)
        assert lines[1].startswith("60,0,0,")

    def test_does_not_import_scipy_optimize(self):
        # only the sliding Frank-Wolfe needs it; the CV commands start without it
        code = (
            "import sys\n"
            "from nonclassicality import OptomechParams, reproduce_fig4\n"
            "reproduce_fig4((60e-3,), t_max=1 / OptomechParams.membrane_defaults().omega_c,"
            " n_samples=5)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))\n"
        )
        src = os.path.dirname(os.path.dirname(nonclassicality.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"


class TestSweep:
    def test_grid_order_and_fields(self):
        p = OptomechParams.membrane_defaults()
        table = sweep_steady_state(
            powers_b=(20e-3, 60e-3),
            detunings_b=(-p.omega_c, p.omega_c))
        assert len(table.points) == 4
        # power-major layout
        assert [pt.power_b for pt in table.points] == pytest.approx(
            [20e-3, 20e-3, 60e-3, 60e-3])
        for pt in table.points:
            if pt.stable:
                assert pt.e_ab >= 0.0
                assert pt.e_abc < 1e-6
            else:
                assert math.isnan(pt.e_ab) and math.isnan(pt.e_abc)
        # the red-detuned 20 mW point is the known unstable one
        assert not table.points[0].stable
        assert table.points[2].stable

    def test_undriven_point_is_separable(self):
        base = replace(OptomechParams.membrane_defaults(), power_a=0.0)
        table = sweep_steady_state(params=base, powers_b=(0.0,),
                                   detunings_b=(-base.omega_c,))
        (pt,) = table.points
        assert pt.stable
        assert pt.e_ab == 0.0
        assert pt.e_abc == 0.0

    def test_csv_marks_unstable_rows_empty(self):
        p = OptomechParams.membrane_defaults()
        table = sweep_steady_state(powers_b=(20e-3,),
                                   detunings_b=(-p.omega_c,))
        lines = table.to_csv().splitlines()
        assert lines[0] == "P_b_mW,Delta_b_over_omega_c,stable,E_ab,E_abc"
        assert lines[1] == "20,-1,false,,"

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sweep_steady_state(powers_b=(), detunings_b=(1.0,))


class TestInitialCovariance:
    def test_fields_vacuum_membrane_thermal(self):
        d = derive_params(OptomechParams.membrane_defaults())
        v0 = initial_covariance(d)
        assert v0.mode_labels == ("a", "b", "c")
        np.testing.assert_allclose(v0.v[:4, :4], np.eye(4) / 2)
        assert v0.v[4, 4] == pytest.approx((2 * d.n_bar + 1) / 2)
        nus = symplectic_eigenvalues(v0)
        assert nus[0] == pytest.approx(0.5)
        assert nus[-1] == pytest.approx(d.n_bar + 0.5, rel=1e-12)
