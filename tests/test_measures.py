"""Entanglement and discord measures: golden values and certified brackets."""

import numpy as np
import pytest

from nonclassicality.core import DensityMatrix, SystemDims, kron, partial_transpose, von_neumann_entropy
from nonclassicality.dynamics import evolve_closed
from nonclassicality.measures import (
    Bipartition,
    DiscordConfig,
    ReeConfig,
    check_relocation_bound,
    discord_deficit,
    log_negativity,
    purity_criterion,
    ree,
    ree_bell_diagonal,
)
from nonclassicality.protocol import SUITE_REE_CONFIG

from helpers import I2, KET0, KET1, KET_PLUS, KET_MINUS, PHI_PLUS, PSI_PLUS, SX, SZ, dm, pure, random_state, random_unitary

PAIR = SystemDims((2, 2), ("A", "B"))
TRIPLE = SystemDims((2, 2, 2), ("A", "B", "C"))


def bell_pair(vec=PHI_PLUS) -> DensityMatrix:
    return pure(vec, (2, 2), ("A", "B"))


def classical_seed_state() -> DensityMatrix:
    # half |011><011| + half |100><100|: classical in every subsystem
    m = np.zeros((8, 8), dtype=complex)
    m[0b011, 0b011] = 0.5
    m[0b100, 0b100] = 0.5
    return DensityMatrix(m, TRIPLE)


def coupling_pair():
    return kron(SX, I2, SX), kron(I2, SX, SX)


class TestLogNegativity:
    def test_bell_pair_is_one(self):
        assert log_negativity(bell_pair(), Bipartition(("A",), ("B",))) == pytest.approx(1.0, abs=1e-10)

    def test_classical_state_is_zero(self):
        val = log_negativity(classical_seed_state(), Bipartition(("A",), ("B", "C")))
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_random_product_is_zero(self):
        rng = np.random.default_rng(3)
        m = np.kron(random_state(2, rng), random_state(2, rng))
        assert log_negativity(DensityMatrix(m, PAIR), Bipartition(("A",), ("B",))) == pytest.approx(0.0, abs=1e-10)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(4)
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        rho = bell_pair(PSI_PLUS)
        rotated = DensityMatrix(u @ rho.data @ u.conj().T, PAIR)
        a = log_negativity(rho, Bipartition(("A",), ("B",)))
        b = log_negativity(rotated, Bipartition(("A",), ("B",)))
        assert a == pytest.approx(b, abs=1e-9)

    def test_bipartition_must_cover_state(self):
        with pytest.raises(ValueError):
            log_negativity(bell_pair(), Bipartition(("A",), ("A",)))


class TestRee:
    def test_pure_state_matches_entanglement_entropy(self):
        rng = np.random.default_rng(8)
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = pure(vec, (2, 2), ("A", "B"))
        reduced = np.einsum("ijkj->ik", rho.data.reshape(2, 2, 2, 2))
        target = von_neumann_entropy(DensityMatrix(reduced, SystemDims((2,), ("A",))))
        res = ree(rho, Bipartition(("A",), ("B",)))
        assert res.value == pytest.approx(target, abs=2e-2)
        assert res.lower_bound == pytest.approx(target, abs=2e-2)
        assert res.lower_bound <= res.value + 1e-12

    def test_separable_mixture_is_near_zero(self):
        rng = np.random.default_rng(9)
        m = np.zeros((4, 4), dtype=complex)
        for _ in range(4):
            m += 0.25 * np.kron(random_state(2, rng, rank=1), random_state(2, rng, rank=1))
        res = ree(DensityMatrix(m, PAIR), Bipartition(("A",), ("B",)))
        assert res.value < 2e-2

    def test_driven_classical_state_reaches_unit_entanglement(self):
        h_ac, h_bc = coupling_pair()
        rho_tau = evolve_closed(classical_seed_state(), h_ac + h_bc, np.pi / 4)
        res = ree(rho_tau, Bipartition(("A",), ("B", "C")))
        assert 0.95 <= res.value <= 1.05
        assert res.lower_bound <= 1.0 + 1e-9

    def test_bracket_orders_and_closest_state_is_valid(self):
        rng = np.random.default_rng(10)
        rho = DensityMatrix(random_state(4, rng, rank=2), PAIR)
        res = ree(rho, Bipartition(("A",), ("B",)), SUITE_REE_CONFIG)
        assert 0.0 <= res.lower_bound <= res.value + 1e-12
        sigma = res.closest_state
        assert np.trace(sigma.data).real == pytest.approx(1.0, abs=1e-9)
        # separable ansatz stays PPT
        flipped = partial_transpose(sigma, "B")
        assert np.linalg.eigvalsh(flipped).min() > -1e-9

    def test_dimension_cap(self):
        dims = SystemDims((2, 2, 2, 2, 2), tuple("ABCDE"))
        m = np.eye(32) / 32
        with pytest.raises(ValueError):
            ree(DensityMatrix(m, dims), Bipartition(("A",), ("B", "C", "D", "E")))

    def test_trivial_partition_gives_zero(self):
        rho = bell_pair()
        res = ree(rho, Bipartition((), ("A", "B")))
        assert res.value == 0.0 and res.lower_bound == 0.0 and res.converged


class TestReeBellDiagonal:
    def test_pure_bell_is_one(self):
        assert ree_bell_diagonal(bell_pair(PSI_PLUS)) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_is_zero(self):
        rho = DensityMatrix(np.eye(4) / 4, PAIR)
        assert ree_bell_diagonal(rho) == 0.0

    def test_even_bell_mixture_is_zero(self):
        m = 0.5 * np.outer(PSI_PLUS, PSI_PLUS.conj()) + 0.5 * np.outer(PHI_PLUS, PHI_PLUS.conj())
        assert ree_bell_diagonal(DensityMatrix(m, PAIR)) == 0.0

    def test_unbalanced_mixture_matches_entropy_formula(self):
        p = 0.8
        m = p * np.outer(PSI_PLUS, PSI_PLUS.conj()) + (1 - p) * np.outer(PHI_PLUS, PHI_PLUS.conj())
        rho = DensityMatrix(m, PAIR)
        expected = 1.0 - von_neumann_entropy(rho)
        assert ree_bell_diagonal(rho) == pytest.approx(expected, abs=1e-12)

    def test_agrees_with_optimizer_bracket(self):
        p = 0.75
        m = p * np.outer(PHI_PLUS, PHI_PLUS.conj()) + (1 - p) * np.outer(PSI_PLUS, PSI_PLUS.conj())
        rho = DensityMatrix(m, PAIR)
        exact = ree_bell_diagonal(rho)
        res = ree(rho, Bipartition(("A",), ("B",)))
        assert res.lower_bound - 3e-2 <= exact <= res.value + 3e-2

    def test_rejects_biased_marginals(self):
        m = np.kron(np.diag([0.9, 0.1]), I2 / 2).astype(complex)
        with pytest.raises(ValueError):
            ree_bell_diagonal(DensityMatrix(m, PAIR))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            ree_bell_diagonal(classical_seed_state())


class TestDiscordDeficit:
    def test_classical_state_has_no_discord(self):
        assert discord_deficit(classical_seed_state(), "C") < 1e-6

    def test_instrumental_state_discord_is_one(self):
        h_ac, _ = coupling_pair()
        instrumental = evolve_closed(classical_seed_state(), h_ac, np.pi / 4)
        assert discord_deficit(instrumental, "C") == pytest.approx(1.0, abs=2e-2)

    def test_bell_with_bystander_gives_one(self):
        # Bell pair between A and C, B parked in |0>: measuring C costs one bit
        vec = np.zeros(8, dtype=complex)
        vec[0b000] = 1 / np.sqrt(2)
        vec[0b101] = 1 / np.sqrt(2)
        rho = pure(vec, (2, 2, 2), ("A", "B", "C"))
        assert discord_deficit(rho, "C") == pytest.approx(1.0, abs=1e-6)

    def test_product_state_is_zero(self):
        rng = np.random.default_rng(14)
        m = np.kron(random_state(4, rng), random_state(2, rng))
        rho = DensityMatrix(m, SystemDims((2, 2, 2), ("A", "B", "C")))
        assert discord_deficit(rho, "C") < 1e-7

    def test_plus_basis_classical_state(self):
        # classical in the x basis: the grid must find the rotated axis
        m = 0.5 * np.kron(np.diag([1.0, 0.0]), np.outer(KET_PLUS, KET_PLUS.conj())) \
            + 0.5 * np.kron(np.diag([0.0, 1.0]), np.outer(KET_MINUS, KET_MINUS.conj()))
        rho = DensityMatrix(m.astype(complex), SystemDims((2, 2), ("A", "C")))
        assert discord_deficit(rho, "C") < 1e-9

    def test_unknown_label_rejected(self):
        with pytest.raises((KeyError, ValueError)):
            discord_deficit(bell_pair(), "Q")


class TestQuditDiscord:
    # measured qutrit: the multi-start search over unitary generators
    SMALL = DiscordConfig(unitary_starts=1, refine_maxiter=30)

    def test_classical_qutrit_mediator_is_zero(self):
        rng = np.random.default_rng(21)
        p = rng.dirichlet(np.ones(3))
        m = sum(p[c] * np.kron(random_state(4, rng), np.diag(np.eye(3)[c]))
                for c in range(3))
        rho = DensityMatrix(m, SystemDims((2, 2, 3), ("A", "B", "C")))
        assert discord_deficit(rho, "C", self.SMALL) < 1e-9

    @pytest.mark.parametrize("seed", [0, 1])
    def test_maximal_correlation_with_a_subspace_is_log2_3(self, seed):
        # C maximally entangled with a 3-dimensional subspace of AB: every
        # measurement basis of C leaves a state of entropy log2 3, so the
        # value does not depend on where the search ends; a random unitary
        # on C (identity for seed 0) changes nothing
        rng = np.random.default_rng(seed)
        ab = np.linalg.qr(rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)))[0]
        u_c = np.eye(3) if seed == 0 else random_unitary(3, rng)
        vec = sum(np.kron(ab[:, c], u_c[:, c]) for c in range(3)) / np.sqrt(3)
        rho = pure(vec, (2, 2, 3), ("A", "B", "C"))
        assert discord_deficit(rho, "C", self.SMALL) == pytest.approx(np.log2(3), abs=1e-9)

    def test_measured_dimension_five_is_rejected(self):
        rho = DensityMatrix(np.eye(15) / 15, SystemDims((3, 5), ("A", "C")))
        with pytest.raises(ValueError, match="measured dimension 5"):
            discord_deficit(rho, "C", self.SMALL)


class TestConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("max_iter", -1), ("product_starts", -2), ("weight_iters", -1),
        ("descent_iters", -1), ("dykstra_iters", -1), ("admm_iters", -1),
        ("seed", -1), ("max_iter", 2.5), ("product_rounds", 0),
        ("gap_tol", 0.0), ("gap_tol", -1e-3), ("gap_tol", float("nan")),
        ("bracket_tol", float("inf")), ("bracket_tol", "0.02"),
    ])
    def test_ree_config_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            ReeConfig(**{field: value})

    @pytest.mark.parametrize("field", ["grid", "seed", "refine_maxiter", "unitary_starts"])
    def test_discord_config_rejects_negative_counts(self, field):
        with pytest.raises(ValueError, match=field):
            DiscordConfig(**{field: -1})

    def test_zero_budgets_are_allowed(self):
        res = ree(bell_pair(), Bipartition(("A",), ("B",)),
                  ReeConfig(max_iter=0, weight_iters=0, descent_iters=0, admm_iters=0))
        assert res.iterations == 0 and 0.0 <= res.lower_bound <= res.value
        assert DiscordConfig(grid=0, refine_maxiter=0).grid == 0


class TestRelocationBound:
    def test_classical_state_holds_with_zero_sides(self):
        rep = check_relocation_bound(classical_seed_state(), SUITE_REE_CONFIG)
        assert rep.holds
        assert rep.discord < 1e-6
        assert rep.gap <= rep.slack + 1e-9

    def test_random_pure_states_hold(self):
        rng = np.random.default_rng(15)
        for _ in range(3):
            vec = rng.normal(size=8) + 1j * rng.normal(size=8)
            rho = pure(vec, (2, 2, 2), ("A", "B", "C"))
            rep = check_relocation_bound(rho, SUITE_REE_CONFIG)
            assert rep.holds

    def test_needs_three_subsystems(self):
        with pytest.raises(ValueError):
            check_relocation_bound(bell_pair(), SUITE_REE_CONFIG)


class TestPurityCriterion:
    def test_mixed_probes_never_flag_below_two_bits(self):
        # both probe marginals maximally mixed: bound is 2 full bits
        m = 0.5 * np.kron(np.outer(PSI_PLUS, PSI_PLUS.conj()), np.outer(KET_PLUS, KET_PLUS.conj())) \
            + 0.5 * np.kron(np.outer(PHI_PLUS, PHI_PLUS.conj()), np.outer(KET_MINUS, KET_MINUS.conj()))
        rho0 = DensityMatrix(m, TRIPLE)
        rep = purity_criterion(rho0, e_ab_tau=1.0)
        assert rep.bound == pytest.approx(2.0, abs=1e-9)
        assert not rep.detected
        assert rep.verdict == "NO_DETECTION"

    def test_pure_probes_flag_any_entanglement(self):
        vec = np.zeros(8, dtype=complex)
        vec[0] = 1.0
        rho0 = pure(vec, (2, 2, 2), ("A", "B", "C"))
        rep = purity_criterion(rho0, e_ab_tau=0.5)
        assert rep.bound == pytest.approx(0.0, abs=1e-9)
        assert rep.detected
        assert rep.verdict == "NONCLASSICAL_DETECTED"

    def test_zero_entanglement_never_detects(self):
        rng = np.random.default_rng(16)
        rho0 = DensityMatrix(random_state(8, rng), TRIPLE)
        assert not purity_criterion(rho0, e_ab_tau=0.0).detected
