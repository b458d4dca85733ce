"""Closed, Trotterized, and open-system evolution."""

import numpy as np
import pytest

from nonclassicality.core import DensityMatrix, SystemDims, kron, partial_trace
from nonclassicality.dynamics import (
    LindbladModel,
    evolve_closed,
    evolve_lindblad,
    trotter_evolve,
)

from helpers import I2, KET0, KET1, KET_PLUS, SX, SY, SZ, pure, random_state

QUBIT = SystemDims((2,), ("A",))
PAIR = SystemDims((2, 2), ("A", "B"))
TRIPLE = SystemDims((2, 2, 2), ("A", "B", "C"))


def qubit_plus() -> DensityMatrix:
    return pure(KET_PLUS, (2,), ("A",))


class TestEvolveClosed:
    def test_zero_hamiltonian_is_identity_channel(self):
        out = evolve_closed(qubit_plus(), np.zeros((2, 2)), 1.7)
        assert np.allclose(out.data, qubit_plus().data)

    def test_larmor_precession_oracle(self):
        # H = sz/2 rotates <sx> as cos(t); frozen against the analytic solution
        for t in (0.0, 0.4, 1.1, np.pi):
            out = evolve_closed(qubit_plus(), SZ / 2, t)
            assert np.real(np.trace(out.data @ SX)) == pytest.approx(np.cos(t), abs=1e-12)

    def test_purity_preserved(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        rho = DensityMatrix(random_state(4, rng, rank=1), PAIR)
        out = evolve_closed(rho, h, 0.9)
        assert np.trace(out.data @ out.data).real == pytest.approx(1.0, abs=1e-10)

    def test_negative_time_reverses(self):
        rho = DensityMatrix(random_state(4, np.random.default_rng(7), rank=3), PAIR)
        h = np.kron(SX, SZ).astype(complex)
        back = evolve_closed(evolve_closed(rho, h, 0.8), h, -0.8)
        assert np.allclose(back.data, rho.data, atol=1e-12)


class TestTrotter:
    def test_commuting_pair_exact_at_n_1(self):
        h_ac = kron(SX, I2, SX)
        h_bc = kron(I2, SX, SX)
        assert np.allclose(h_ac @ h_bc, h_bc @ h_ac)
        rho = DensityMatrix(random_state(8, np.random.default_rng(11), rank=2), TRIPLE)
        exact = evolve_closed(rho, h_ac + h_bc, 0.6)
        split = trotter_evolve(rho, h_ac, h_bc, 0.6, 1)
        assert np.max(np.abs(split.data - exact.data)) < 1e-10

    def test_first_order_error_scaling(self):
        h_ac = kron(SX, I2, SZ)
        h_bc = kron(I2, SY, SX)
        rho = DensityMatrix(random_state(8, np.random.default_rng(12), rank=1), TRIPLE)
        exact = evolve_closed(rho, h_ac + h_bc, 1.0)
        errs = []
        for n in (8, 16, 32, 64):
            approx = trotter_evolve(rho, h_ac, h_bc, 1.0, n)
            errs.append(np.max(np.abs(approx.data - exact.data)))
        for e_n, e_2n in zip(errs, errs[1:]):
            assert 1.3 < e_n / e_2n < 2.7

    def test_rejects_non_positive_steps(self):
        rho = DensityMatrix(random_state(8, np.random.default_rng(13), rank=1), TRIPLE)
        with pytest.raises(ValueError):
            trotter_evolve(rho, kron(SX, I2, I2), kron(I2, SX, I2), 1.0, 0)


class TestLindbladModel:
    def test_rejects_non_hermitian_hamiltonian(self):
        with pytest.raises(ValueError):
            LindbladModel(np.array([[0, 1], [0, 0]]), (), QUBIT)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            LindbladModel(SZ, (("A", SX, -0.1),), QUBIT)

    def test_rejects_unknown_subsystem(self):
        with pytest.raises((ValueError, KeyError)):
            LindbladModel(SZ, (("Q", SX, 0.1),), QUBIT)


class TestEvolveLindblad:
    def test_no_jumps_matches_closed_evolution(self):
        h = np.kron(SX, SX) + 0.3 * np.kron(SZ, I2)
        rho = DensityMatrix(random_state(4, np.random.default_rng(21), rank=2), PAIR)
        traj = evolve_lindblad(rho, LindbladModel(h, (), PAIR), 1.2)
        exact = evolve_closed(rho, h, 1.2)
        assert np.max(np.abs(traj.final.data - exact.data)) < 1e-8

    def test_dephasing_decay_oracle(self):
        # jump sz at rate g kills coherence as exp(-2 g t); frozen analytically
        g, t = 0.3, 0.7
        model = LindbladModel(np.zeros((2, 2)), (("A", SZ, g),), QUBIT)
        out = evolve_lindblad(qubit_plus(), model, t).final
        assert out.data[0, 1].real == pytest.approx(0.5 * np.exp(-2 * g * t), abs=1e-7)
        assert abs(out.data[0, 1].imag) < 1e-9

    def test_amplitude_damping_population(self):
        # jump sigma_minus at rate g empties the excited level as exp(-g t)
        rho = pure(KET1, (2,), ("A",))
        lower = np.array([[0, 1], [0, 0]], dtype=complex)
        g, t = 0.45, 1.3
        model = LindbladModel(np.zeros((2, 2)), (("A", lower, g),), QUBIT)
        out = evolve_lindblad(rho, model, t).final
        assert out.data[1, 1].real == pytest.approx(np.exp(-g * t), abs=1e-7)

    def test_trace_and_positivity_along_trajectory(self):
        h = np.kron(SX, SZ)
        model = LindbladModel(h, (("A", SZ, 0.2), ("B", SX, 0.1)), PAIR)
        rho = DensityMatrix(random_state(4, np.random.default_rng(22)), PAIR)
        traj = evolve_lindblad(rho, model, 2.0, dt=2.0 / 400)
        assert len(traj) == 401
        for _, state in traj:
            assert np.trace(state.data).real == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.eigvalsh(state.data).min() > -1e-9

    def test_local_jump_leaves_other_marginal_alone(self):
        rho = DensityMatrix(np.kron(pure(KET_PLUS, (2,), ("A",)).data,
                                    pure(KET0, (2,), ("B",)).data), PAIR)
        model = LindbladModel(np.zeros((4, 4)), (("A", SZ, 0.8),), PAIR)
        out = evolve_lindblad(rho, model, 1.0).final
        marginal_b = partial_trace(out, ("B",)).data
        assert np.allclose(marginal_b, np.outer(KET0, KET0.conj()), atol=1e-9)

    def test_step_size_does_not_change_final_state(self):
        # exact propagation: dt sets the sample grid, not the accuracy
        rho = pure(KET1, (2,), ("A",))
        model = LindbladModel(40.0 * SZ, (("A", SX, 30.0),), QUBIT)
        coarse = evolve_lindblad(rho, model, 5.0, dt=2.5)
        fine = evolve_lindblad(rho, model, 5.0, dt=5.0 / 2000)
        assert len(coarse) == 3 and len(fine) == 2001
        assert np.max(np.abs(coarse.final.data - fine.final.data)) < 1e-10

    def test_shortened_last_step_lands_on_t_end(self):
        g = 0.3
        model = LindbladModel(np.zeros((2, 2)), (("A", SZ, g),), QUBIT)
        traj = evolve_lindblad(qubit_plus(), model, 1.0, dt=0.3)
        assert traj.times == pytest.approx((0.0, 0.3, 0.6, 0.9, 1.0), abs=1e-15)
        for t, state in traj:
            assert state.data[0, 1].real == pytest.approx(0.5 * np.exp(-2 * g * t), abs=1e-12)

    def test_rejects_bad_times(self):
        rho = pure(KET0, (2,), ("A",))
        model = LindbladModel(SZ, (), QUBIT)
        with pytest.raises(ValueError):
            evolve_lindblad(rho, model, -1.0)
        with pytest.raises(ValueError):
            evolve_lindblad(rho, model, 1.0, dt=2.0)
