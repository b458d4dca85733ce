"""State construction, reductions, entropies, channels."""

import math

import numpy as np
import pytest

from nonclassicality.core import (
    DensityMatrix,
    MeasurementBasis,
    SystemDims,
    dephase,
    embed_local,
    haar_vector,
    hermitian_exp,
    kron,
    partial_trace,
    partial_transpose,
    relative_entropy,
    trace_distance,
    von_neumann_entropy,
    wishart_state,
)

from helpers import (
    I2,
    KET0,
    KET1,
    KET_MINUS,
    KET_PLUS,
    PHI_PLUS,
    SX,
    SZ,
    dm,
    pure,
    random_herm,
    random_state,
    random_unitary,
)


class TestSystemDims:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            SystemDims((2, 2), ("A", "A"))

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            SystemDims((2, 0), ("A", "B"))

    def test_total_and_lookup(self):
        d = SystemDims((2, 3, 2), ("A", "B", "C"))
        assert d.total == 12
        assert d.dim_of("B") == 3
        with pytest.raises(KeyError):
            d.index("X")

    def test_restricted_keeps_original_order(self):
        d = SystemDims((2, 3, 4), ("A", "B", "C"))
        r = d.restricted(("C", "A"))
        assert r.labels == ("A", "C")
        assert r.dims == (2, 4)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            dm(m, (2,), ("A",))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            dm(np.eye(2), (2,), ("A",))

    def test_rejects_negative_spectrum(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            dm(m, (2,), ("A",))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            dm(np.eye(4) / 4, (2,), ("A",))

    def test_data_is_write_protected(self):
        rho = dm(np.eye(2) / 2, (2,), ("A",))
        with pytest.raises(ValueError):
            rho.data[0, 0] = 7.0

    def test_random_states_validate(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            rho = random_state(6, rng)
            out = dm(rho, (2, 3), ("A", "B"))
            assert out.dim == 6


class TestKron:
    def test_identity_case(self):
        assert np.allclose(kron(I2, I2), np.eye(4))

    def test_pauli_x_pair_is_antidiagonal(self):
        expect = np.zeros((4, 4))
        expect[0, 3] = expect[1, 2] = expect[2, 1] = expect[3, 0] = 1.0
        assert np.allclose(kron(SX, SX), expect)

    def test_three_factor_matches_chained(self):
        a = kron(kron(SX, I2), SX)
        b = kron(SX, I2, SX)
        assert np.allclose(a, b)


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        rho = pure(PHI_PLUS, (2, 2), ("A", "B"))
        red = partial_trace(rho, ("A",))
        assert np.allclose(red.data, I2 / 2, atol=1e-12)

    def test_product_state_factor_recovery(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            ra = random_state(2, rng)
            rb = random_state(3, rng)
            rho = dm(kron(ra, rb), (2, 3), ("A", "B"))
            assert np.max(np.abs(partial_trace(rho, ("A",)).data - ra)) < 1e-12
            assert np.max(np.abs(partial_trace(rho, ("B",)).data - rb)) < 1e-12

    def test_classically_correlated_start_two_probe_marginal(self):
        # 1/2 |011><011| + 1/2 |100><100| reduced to the two probes
        v1 = kron(KET0.reshape(2, 1), KET1.reshape(2, 1), KET1.reshape(2, 1)).ravel()
        v2 = kron(KET1.reshape(2, 1), KET0.reshape(2, 1), KET0.reshape(2, 1)).ravel()
        rho = dm(
            0.5 * np.outer(v1, v1.conj()) + 0.5 * np.outer(v2, v2.conj()),
            (2, 2, 2),
            ("A", "B", "C"),
        )
        red = partial_trace(rho, ("A", "B"))
        expect = np.zeros((4, 4))
        expect[1, 1] = expect[2, 2] = 0.5
        assert np.allclose(red.data, expect, atol=1e-12)

    def test_unknown_label_rejected(self):
        rho = pure(PHI_PLUS, (2, 2), ("A", "B"))
        with pytest.raises(KeyError):
            partial_trace(rho, ("Q",))

    def test_middle_subsystem_kept(self):
        for seed in range(4):
            rng = np.random.default_rng(100 + seed)
            ra, rb, rc = (random_state(2, rng) for _ in range(3))
            rho = dm(kron(ra, rb, rc), (2, 2, 2), ("A", "B", "C"))
            assert np.max(np.abs(partial_trace(rho, ("B",)).data - rb)) < 1e-12


class TestPartialTranspose:
    def test_product_state_stays_positive(self):
        rng = np.random.default_rng(3)
        rho = dm(kron(random_state(2, rng), random_state(2, rng)), (2, 2), ("A", "B"))
        assert np.linalg.eigvalsh(partial_transpose(rho, "B"))[0] > -1e-12

    def test_bell_state_minimum_eigenvalue(self):
        # frozen oracle: eigendecomposition of the partially transposed
        # maximally entangled state gives spectrum {1/2, 1/2, 1/2, -1/2}
        rho = pure(PHI_PLUS, (2, 2), ("A", "B"))
        lam = np.linalg.eigvalsh(partial_transpose(rho, "B"))
        assert abs(lam[0] - (-0.5)) < 1e-12
        assert np.allclose(lam[1:], 0.5, atol=1e-12)

    def test_involution(self):
        # transpose the middle index again by hand; the intermediate matrix
        # may be non-positive and so is not a DensityMatrix
        for seed in range(5):
            rng = np.random.default_rng(seed)
            rho = dm(random_state(8, rng), (2, 2, 2), ("A", "B", "C"))
            once = partial_transpose(rho, "B")
            t = once.reshape(2, 2, 2, 2, 2, 2)
            twice = np.swapaxes(t, 1, 4).reshape(8, 8)
            assert np.max(np.abs(twice - rho.data)) < 1e-12


class TestEntropies:
    def test_pure_state_entropy_zero(self):
        rng = np.random.default_rng(0)
        rho = pure(haar_vector(4, rng), (4,), ("A",))
        assert von_neumann_entropy(rho) < 1e-10

    def test_maximally_mixed_values(self):
        assert abs(von_neumann_entropy(dm(I2 / 2, (2,), ("A",))) - 1.0) < 1e-12
        assert abs(von_neumann_entropy(dm(np.eye(4) / 4, (2, 2), ("A", "B"))) - 2.0) < 1e-12

    def test_unitary_invariance(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            rho = random_state(5, rng)
            u = random_unitary(5, rng)
            s1 = von_neumann_entropy(dm(rho, (5,), ("A",)))
            s2 = von_neumann_entropy(dm(u @ rho @ u.conj().T, (5,), ("A",)))
            assert abs(s1 - s2) < 1e-10

    def test_relative_entropy_self_is_zero(self):
        rng = np.random.default_rng(1)
        rho = dm(random_state(4, rng), (2, 2), ("A", "B"))
        assert relative_entropy(rho, rho) < 1e-10

    def test_relative_entropy_pure_vs_mixed(self):
        r0 = pure(KET0, (2,), ("A",))
        half = dm(I2 / 2, (2,), ("A",))
        assert abs(relative_entropy(r0, half) - 1.0) < 1e-12

    def test_support_violation_gives_infinity(self):
        r0 = pure(KET0, (2,), ("A",))
        half = dm(I2 / 2, (2,), ("A",))
        assert relative_entropy(half, r0) == math.inf

    def test_nonnegative_and_faithful(self):
        for seed in range(6):
            rng = np.random.default_rng(40 + seed)
            a = dm(random_state(4, rng), (2, 2), ("A", "B"))
            b = dm(random_state(4, rng), (2, 2), ("A", "B"))
            val = relative_entropy(a, b)
            assert val >= 0.0
            if val < 1e-12:
                assert np.max(np.abs(a.data - b.data)) < 1e-8


class TestDephase:
    def test_plus_state_to_maximally_mixed(self):
        rho = pure(KET_PLUS, (2,), ("A",))
        z = MeasurementBasis.computational("A", 2)
        assert np.allclose(dephase(rho, z).data, I2 / 2, atol=1e-12)

    def test_classical_state_is_fixed_point(self):
        # sum_c p_c rho_AB^c x |c><c| is invariant under dephasing on C
        rng = np.random.default_rng(7)
        blocks = [random_state(4, rng), random_state(4, rng)]
        probs = [0.3, 0.7]
        m = sum(
            p * kron(b, np.outer(e, e.conj()))
            for p, b, e in zip(probs, blocks, [KET0, KET1])
        )
        rho = dm(m, (2, 2, 2), ("A", "B", "C"))
        z = MeasurementBasis.computational("C", 2)
        assert np.max(np.abs(dephase(rho, z).data - rho.data)) < 1e-12

    def test_idempotent_on_random_states(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            rho = dm(random_state(4, rng), (2, 2), ("A", "B"))
            basis = MeasurementBasis(
                "B", tuple(random_unitary(2, rng).T)
            )
            once = dephase(rho, basis)
            twice = dephase(once, basis)
            assert np.max(np.abs(twice.data - once.data)) < 1e-12

    def test_never_decreases_entropy(self):
        for seed in range(5):
            rng = np.random.default_rng(20 + seed)
            rho = dm(random_state(4, rng), (2, 2), ("A", "B"))
            z = MeasurementBasis.computational("A", 2)
            assert von_neumann_entropy(dephase(rho, z)) >= von_neumann_entropy(rho) - 1e-10

    def test_incomplete_basis_rejected(self):
        rho = dm(np.eye(4) / 4, (2, 2), ("A", "B"))
        partial = MeasurementBasis("B", (KET0,))
        with pytest.raises(ValueError, match="span"):
            dephase(rho, partial)


class TestDephaseOracle:
    """`dephase` against the projector sum written out on the full space."""

    @staticmethod
    def projector_sum(rho, basis):
        dims = rho.dims.dims
        k = rho.dims.index(basis.subsystem)
        left = np.eye(int(np.prod(dims[:k])))
        right = np.eye(int(np.prod(dims[k + 1:])))
        out = np.zeros_like(rho.data)
        for v in basis.vectors:
            proj = np.kron(np.kron(left, np.outer(v, v.conj())), right)
            out += proj @ rho.data @ proj
        return out

    def test_random_bases_on_a_qutrit_mediator_state(self):
        rng = np.random.default_rng(11)
        rho = dm(wishart_state(12, rng), (2, 2, 3), ("A", "B", "C"))
        for _ in range(3):
            for label, d in zip("ABC", (2, 2, 3)):
                basis = MeasurementBasis(label, tuple(random_unitary(d, rng).T))
                got = dephase(rho, basis).data
                assert np.max(np.abs(got - self.projector_sum(rho, basis))) < 1e-14

    def test_computational_bases_are_bit_equal(self):
        rng = np.random.default_rng(12)
        for rank in (1, 2, 12):
            rho = dm(wishart_state(12, rng, rank), (2, 2, 3), ("A", "B", "C"))
            for label, d in zip("ABC", (2, 2, 3)):
                basis = MeasurementBasis.computational(label, d)
                assert np.array_equal(dephase(rho, basis).data, self.projector_sum(rho, basis))


class TestHermitianExp:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(2)
        h = random_herm(4, rng)
        assert np.allclose(hermitian_exp(h, 0.0), np.eye(4), atol=1e-12)

    def test_pauli_x_quarter_turn(self):
        # frozen oracle: exp(-i sx pi/4) = (I - i sx)/sqrt(2)
        u = hermitian_exp(SX, np.pi / 4)
        expect = (I2 - 1j * SX) / np.sqrt(2)
        assert np.max(np.abs(u - expect)) < 1e-12

    def test_group_property_and_unitarity(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            h = random_herm(5, rng)
            t1, t2 = rng.uniform(0.1, 2.0, size=2)
            a = hermitian_exp(h, t1) @ hermitian_exp(h, t2)
            b = hermitian_exp(h, t1 + t2)
            assert np.max(np.abs(a - b)) < 1e-10
            u = hermitian_exp(h, t1)
            assert np.max(np.abs(u @ u.conj().T - np.eye(5))) < 1e-10

    def test_non_hermitian_rejected(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_exp(bad, 1.0)


class TestUtilities:
    def test_embed_local_matches_manual_kron(self):
        dims = SystemDims((2, 2, 2), ("A", "B", "C"))
        assert np.allclose(embed_local(SZ, "B", dims), kron(I2, SZ, I2))

    def test_embed_local_shape_check(self):
        dims = SystemDims((2, 3), ("A", "B"))
        with pytest.raises(ValueError):
            embed_local(SZ, "B", dims)

    def test_trace_distance_orthogonal_pure_states(self):
        a = pure(KET0, (2,), ("A",))
        b = pure(KET1, (2,), ("A",))
        assert abs(trace_distance(a, b) - 1.0) < 1e-12

    def test_wishart_state_is_valid(self):
        rng = np.random.default_rng(11)
        w = wishart_state(6, rng)
        assert abs(np.trace(w) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(w)[0] > 0

    def test_haar_vector_normalized(self):
        rng = np.random.default_rng(12)
        v = haar_vector(7, rng)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
