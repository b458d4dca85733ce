"""Entanglement and discord measures: golden values and certified brackets."""

import functools
import time

import numpy as np
import pytest

from nonclassicality.core import (
    DensityMatrix,
    SystemDims,
    dephase_axis,
    entropy_bits,
    hermitian_exp,
    kron,
    partial_trace,
    partial_transpose,
    von_neumann_entropy,
    wishart_state,
)
from nonclassicality.dynamics import evolve_closed
from nonclassicality.measures import (
    Bipartition,
    _entropy_and_gradient,
    _mediator_blocks,
    DiscordConfig,
    ReeConfig,
    check_relocation_bound,
    discord_deficit,
    log_negativity,
    purity_criterion,
    ree,
    ree_bell_diagonal,
    ree_many,
)
from nonclassicality.protocol import SUITE_REE_CONFIG

from helpers import (
    I2, KET0, KET1, KET_PLUS, KET_MINUS, PHI_PLUS, PSI_PLUS, SX, SZ, binary_entropy, dm,
    isotropic_state, pure, random_state, random_unitary, werner_state,
)

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


# small budgets: the brackets need not be tight, only sound
ORACLE_BUDGET = ReeConfig(max_iter=8, product_starts=6, product_rounds=8, weight_iters=10,
                          descent_iters=10)


def flagged_pure_state(p, rng, rotate=True) -> tuple[DensityMatrix, float]:
    """sum_c p_c |psi_c><psi_c|_AB (x) |c><c|_C, then a Haar unitary on C
    unless `rotate` is False, with its exact A:BC REE sum_c p_c S(tr_B psi_c)
    in bits.

    The flags sit on the BC side and are orthogonal: measuring them is a
    local operation there, so REE is the average over the flagged pure
    states, whose REE is the entropy of either marginal. Unrotated, C is a
    flag in the computational basis and `ree` takes the flag path; the
    rotation hides it and keeps the general 2x4 to 2x8 path under test.
    """
    dc = len(p)
    m = np.zeros((4 * dc, 4 * dc), dtype=complex)
    exact = 0.0
    for c in range(dc):
        psi = pure(rng.normal(size=4) + 1j * rng.normal(size=4), (2, 2), ("A", "B"))
        flag = np.zeros((dc, dc))
        flag[c, c] = 1.0
        m += p[c] * np.kron(psi.data, flag)
        exact += p[c] * von_neumann_entropy(partial_trace(psi, ("A",)))
    u = np.kron(np.eye(4), random_unitary(dc, rng) if rotate else np.eye(dc))
    return DensityMatrix(u @ m @ u.conj().T, SystemDims((2, 2, dc), ("A", "B", "C"))), exact


class TestReeFlaggedPureOracle:
    # distinct weights make the flagged states the eigenvectors, which the
    # upper search starts from; equal weights leave it a degenerate
    # eigenspace, so it starts elsewhere
    @pytest.mark.parametrize("equal", (False, True))
    @pytest.mark.parametrize("dc", (2, 3, 4))  # 2x4, 2x6 and 2x8 cuts
    def test_bracket_contains_exact_value(self, dc, equal):
        rng = np.random.default_rng(100 * dc + equal)
        p = np.full(dc, 1.0 / dc) if equal else rng.dirichlet(np.ones(dc))
        rho, exact = flagged_pure_state(p, rng)
        res = ree(rho, Bipartition(("A",), ("B", "C")), ORACLE_BUDGET)
        assert res.path == "frank-wolfe"
        assert res.lower_bound - 1e-9 <= exact <= res.value + 1e-9

    @pytest.mark.parametrize("equal", (False, True))
    @pytest.mark.parametrize("dc", (2, 3, 4))
    def test_unrotated_flags_give_a_tight_bracket(self, dc, equal):
        rng = np.random.default_rng(100 * dc + equal)
        p = np.full(dc, 1.0 / dc) if equal else rng.dirichlet(np.ones(dc))
        rho, exact = flagged_pure_state(p, rng, rotate=False)
        # default budgets: the flag blocks are 2x2, so no Frank-Wolfe runs
        res = ree(rho, Bipartition(("A",), ("B", "C")))
        assert res.path == "flags" and res.fw_gap == 0.0
        assert res.lower_bound - 1e-9 <= exact <= res.value + 1e-9
        assert res.value - res.lower_bound <= 1e-5

    def test_flag_over_rotated_blocks_runs_frank_wolfe_per_block(self):
        # a qubit flag D over two rotated flagged-pure 2x4 blocks: the blocks
        # hide their own flags, so each takes the Frank-Wolfe path
        rng = np.random.default_rng(5)
        blocks = [flagged_pure_state(rng.dirichlet(np.ones(2)), rng) for _ in range(2)]
        p = (0.35, 0.65)
        m = sum(p[c] * np.kron(b.data, np.diag(np.eye(2)[c])) for c, (b, _) in enumerate(blocks))
        rho = DensityMatrix(m, SystemDims((2, 2, 2, 2), ("A", "B", "C", "D")))
        exact = sum(p[c] * e for c, (_, e) in enumerate(blocks))
        res = ree(rho, Bipartition(("A",), ("B", "C", "D")), ORACLE_BUDGET)
        assert res.path == "flags" and res.iterations > 0
        assert res.lower_bound - 1e-9 <= exact <= res.value + 1e-9

    def test_coherence_above_the_flag_tolerance_takes_the_general_path(self):
        # 1e-9 between the flag values is far above FLAG_TOL: C is no flag
        rng = np.random.default_rng(7)
        rho, _ = flagged_pure_state(np.array([0.6, 0.4]), rng, rotate=False)
        psi = [np.linalg.eigh(rho.data)[1][:, k] for k in (-1, -2)]
        coherence = 1e-9 * np.outer(psi[0], psi[1].conj())
        rho = DensityMatrix(rho.data + coherence + coherence.conj().T, rho.dims)
        res = ree(rho, Bipartition(("A",), ("B", "C")), ORACLE_BUDGET)
        assert res.path == "frank-wolfe"
        assert 0.0 <= res.lower_bound <= res.value


# Frank-Wolfe kept short, the lower edge's Newton budget at its default:
# the upper edge is valid at any budget, and the oracle tests below pin
# how close the lower edge gets
OPEN_FW_BUDGET = ReeConfig(max_iter=5, product_starts=6, product_rounds=8, weight_iters=10)


def bell_diagonal(weights) -> DensityMatrix:
    """sum_k w_k |B_k><B_k| over the four Bell states, the first weight on Phi+."""
    phi_minus = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
    psi_minus = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    m = sum(w * np.outer(b, b.conj())
            for w, b in zip(weights, (PHI_PLUS, phi_minus, PSI_PLUS, psi_minus)))
    return DensityMatrix(m, PAIR)


class TestReeIsotropicWernerOracle:
    # PPT = separable on both families, so the lower edge's PPT solve has
    # the exact REE as its optimum
    @pytest.mark.parametrize("weight", (0.6, 0.9))
    @pytest.mark.parametrize("d", (2, 3, 4))
    @pytest.mark.parametrize("family", (isotropic_state, werner_state))
    def test_bracket_contains_and_lower_edge_reaches_exact(self, family, d, weight):
        rho, exact = family(d, weight)
        res = ree(rho, Bipartition(("A",), ("B",)), OPEN_FW_BUDGET)
        assert res.lower_bound - 1e-9 <= exact <= res.value + 1e-9
        assert exact - res.lower_bound <= 1e-5


def bell_block(weight):
    """A rank-4 Bell-diagonal state with top weight `weight`, and its REE."""
    rest = (1.0 - weight) / 3
    return bell_diagonal((weight, rest, rest, rest)), 1.0 - binary_entropy(weight)


def flag_blocks(blocks, p, flag_at):
    """sum_c p_c rho_c (x) |c><c| with the flag either last ("C", on the
    BC side of an A:BC cut) or first ("A", on the AB side of an AB:C cut),
    and the exact REE sum_c p_c E(rho_c) across that cut."""
    dc = len(blocks)
    m = sum(p[c] * (np.kron(b.data, np.diag(np.eye(dc)[c])) if flag_at == "C"
                    else np.kron(np.diag(np.eye(dc)[c]), b.data))
            for c, (b, _) in enumerate(blocks))
    if flag_at == "C":
        dims, part = SystemDims((2, 2, dc), ("A", "B", "C")), Bipartition(("A",), ("B", "C"))
    else:
        dims, part = SystemDims((dc, 2, 2), ("A", "B", "C")), Bipartition(("A", "B"), ("C",))
    return DensityMatrix(m, dims), part, float(sum(p[c] * e for c, (_, e) in enumerate(blocks)))


class TestReeFlagBlocksOracle:
    # two-qubit blocks behind a qubit flag on either side of the cut, and
    # three behind a qutrit flag: the flag path brackets each block with
    # the barrier, so both edges reach the exact value
    FAMILIES = {
        "bell": bell_block,
        "isotropic": functools.partial(isotropic_state, 2),
        "werner": functools.partial(werner_state, 2),
    }

    @pytest.mark.parametrize("flag_at, dc", [("C", 2), ("A", 2), ("C", 3)])
    @pytest.mark.parametrize("family", ("bell", "isotropic", "werner"))
    def test_bracket_contains_exact_value_and_is_tight(self, family, flag_at, dc):
        blocks = [self.FAMILIES[family](w) for w in (0.9, 0.6, 0.75)[:dc]]
        p = np.random.default_rng(dc).dirichlet(np.ones(dc))
        rho, part, exact = flag_blocks(blocks, p, flag_at)
        res = ree(rho, part, OPEN_FW_BUDGET)
        assert res.path == "flags"
        assert res.lower_bound - 1e-9 <= exact <= res.value + 1e-9
        assert res.value - res.lower_bound <= 1e-5


class TestReeBarrierPath:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize("dims", ((2, 3), (3, 2)))
    def test_pure_2x3_state_matches_marginal_entropy(self, dims, seed):
        rng = np.random.default_rng(seed)
        rho = pure(rng.normal(size=6) + 1j * rng.normal(size=6), dims, ("A", "B"))
        exact = von_neumann_entropy(partial_trace(rho, ("A",)))
        res = ree(rho, Bipartition(("A",), ("B",)), OPEN_FW_BUDGET)
        assert res.path == "barrier" and res.fw_gap == 0.0 and res.iterations > 0
        assert res.lower_bound - 1e-9 <= exact <= res.value + 1e-9
        assert res.value - res.lower_bound <= 1e-5

    @pytest.mark.parametrize("case", ("2x2", "2x3", "flags"))
    def test_closest_state_is_ppt_and_gives_the_value(self, case):
        rng = np.random.default_rng(31)
        if case == "flags":
            blocks = [isotropic_state(2, 0.8), werner_state(2, 0.7)]
            rho, part, _ = flag_blocks(blocks, (0.3, 0.7), "C")
            flipped_label = "C"
        else:
            dims = (2, 2) if case == "2x2" else (2, 3)
            rho = dm(random_state(int(np.prod(dims)), rng, rank=2), dims, ("A", "B"))
            part, flipped_label = Bipartition(("A",), ("B",)), "B"
        res = ree(rho, part)
        assert res.path == ("flags" if case == "flags" else "barrier")
        sigma = res.closest_state.data
        assert np.linalg.eigvalsh(sigma).min() > 0.0
        assert np.linalg.eigvalsh(partial_transpose(res.closest_state, flipped_label)).min() > 0.0
        # S(rho||sigma) from eigendecompositions, in bits
        w, v = np.linalg.eigh(rho.data)
        w = w[w > 1e-14]
        s_rho = float(np.sum(w * np.log2(w)))
        ls, vs = np.linalg.eigh(sigma)
        log_sigma = (vs * np.log2(ls)) @ vs.conj().T
        exact = s_rho - float(np.trace(rho.data @ log_sigma).real)
        assert res.value == pytest.approx(exact, abs=1e-10)
        assert 0.0 <= res.lower_bound <= res.value


class TestReeFrankWolfeNoStall:
    def test_mixed_2x4_and_2x6_brackets_close_at_the_suite_budget(self):
        # generic mixed states, where plain Frank-Wolfe ran out of
        # iterations with gaps of 1e-2 and more; the rank-2 2x6 state
        # bracketed at [0.5650, 0.6451] before the atoms could slide
        rng = np.random.default_rng(8)
        states, parts = [], []
        for rank in (2, 3, 5, 8):
            rho = DensityMatrix(wishart_state(8, rng, rank=rank), TRIPLE)
            states += [rho, rho]
            parts += [Bipartition(("A",), ("B", "C")), Bipartition(("A", "C"), ("B",))]
        qutrit_c = SystemDims((2, 2, 3), ("A", "B", "C"))
        states.append(DensityMatrix(wishart_state(12, np.random.default_rng(3), rank=2),
                                    qutrit_c))
        parts.append(Bipartition(("A",), ("B", "C")))
        results = ree_many(states, parts, SUITE_REE_CONFIG)
        for res in results:
            assert res.path == "frank-wolfe"
            assert 0.0 <= res.lower_bound <= res.value <= res.lower_bound + 2e-3
        for res in results[:-1]:  # the 2x4 searches end stationary
            assert res.fw_gap < SUITE_REE_CONFIG.gap_tol


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
        assert res.lower_bound - 1e-9 <= exact <= res.value + 1e-9
        assert exact - res.lower_bound <= 1e-5

    # above rank 2, 1 - H2(lam_max) and 1 - S(rho) differ: at (0.7, 0.1,
    # 0.1, 0.1) the latter is negative
    @pytest.mark.parametrize("weights", [(0.6, 0.3, 0.1, 0.0), (0.7, 0.2, 0.1, 0.0),
                                         (0.7, 0.1, 0.1, 0.1), (0.55, 0.25, 0.15, 0.05)])
    def test_higher_rank_mixture_is_one_minus_binary_entropy(self, weights):
        rho = bell_diagonal(weights)
        exact = 1.0 - binary_entropy(weights[0])
        # a local unitary leaves both the closed form and REE unchanged
        rng = np.random.default_rng(17)
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        turned = DensityMatrix(u @ rho.data @ u.conj().T, PAIR)
        for state in (rho, turned):
            assert ree_bell_diagonal(state) == pytest.approx(exact, abs=1e-12)
        res = ree(rho, Bipartition(("A",), ("B",)), OPEN_FW_BUDGET)
        assert res.lower_bound - 1e-9 <= exact <= res.value + 1e-9
        assert exact - res.lower_bound <= 1e-5

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

    @pytest.mark.parametrize("seed", range(10))
    def test_qubit_search_matches_a_dense_reference(self, seed):
        rng = np.random.default_rng(300 + seed)
        rho = DensityMatrix(wishart_state(8, rng, rank=1 + seed % 8), TRIPLE)
        assert discord_deficit(rho, "C") == pytest.approx(reference_qubit_discord(rho), abs=1e-12)


def reference_qubit_discord(rho: DensityMatrix) -> float:
    """Deficit of measuring the last qubit by the seed's method, with more
    effort: a 60x60 half-angle grid on the full dephased matrix, then
    Nelder-Mead from its best point."""
    from scipy.optimize import minimize

    mat, dims = rho.data, rho.dims.dims
    k = len(dims) - 1

    def bases(angles):
        theta, phi = np.asarray(angles).T
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        e = np.exp(1j * phi)
        return np.stack([np.stack([c, -e.conj() * s], -1), np.stack([e * s, c], -1)], -2)

    def deficit(angles):
        return entropy_bits(dephase_axis(mat, dims, k, bases(angles))) - entropy_bits(mat[None])[0]

    grid = np.array([(theta, phi) for theta in np.linspace(0.0, np.pi / 2, 60)
                     for phi in np.linspace(0.0, 2 * np.pi, 60, endpoint=False)])
    values = deficit(grid)
    res = minimize(lambda x: deficit(x[None])[0], grid[np.argmin(values)], method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-15, "maxiter": 2000})
    return max(0.0, min(values.min(), res.fun))


class TestQuditDiscord:
    # measured qutrit and ququart: the stacked descent on U(d)
    SMALL = DiscordConfig(unitary_starts=1, refine_maxiter=30)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_classical_mediator_in_a_random_basis_is_zero(self, d):
        # sum_c p_c rho_c (x) U|c><c|U^H: the identity start misses U
        rng = np.random.default_rng(40 + d)
        p = rng.dirichlet(np.ones(d))
        u = random_unitary(d, rng)
        m = sum(p[c] * np.kron(random_state(4, rng), np.outer(u[:, c], u[:, c].conj()))
                for c in range(d))
        rho = DensityMatrix(m, SystemDims((2, 2, d), ("A", "B", "C")))
        assert discord_deficit(rho, "C") < 1e-9

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_gradient_matches_central_differences(self, d):
        rng = np.random.default_rng(50 + d)
        mat = wishart_state(4 * d, rng, rank=3)
        r = _mediator_blocks(mat, (2, 2, d), 2)
        u = random_unitary(d, rng)
        h = random_unitary(d, rng)
        h = h + h.conj().T
        _, g = _entropy_and_gradient(r, u[None])
        eps = 1e-5
        ends = np.stack([hermitian_exp(h, eps) @ u, hermitian_exp(h, -eps) @ u])
        f_plus, f_minus = _entropy_and_gradient(r, ends)[0]
        assert np.trace(h @ g[0]).real == pytest.approx((f_plus - f_minus) / (2 * eps), abs=1e-8)

    def test_ququart_call_at_default_budget_is_fast(self):
        rng = np.random.default_rng(4)
        rho = DensityMatrix(wishart_state(16, rng, rank=2), SystemDims((2, 2, 4), ("A", "B", "C")))
        started = time.monotonic()
        value = discord_deficit(rho, "C")
        assert time.monotonic() - started < 2.0
        assert 0.0 < value <= 2.0

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
        ("descent_iters", -1),
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
                  ReeConfig(max_iter=0, weight_iters=0, descent_iters=0))
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
