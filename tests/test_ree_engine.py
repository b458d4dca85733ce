"""The REE engine against the single-state engine it replaced.

`reference_ree` is that engine, verbatim. Both edges are different
algorithms now: the upper edge slides every atom of its product mixture
after each Frank-Wolfe step (in place of the reference's weight-only
corrective step), and the lower edge is a barrier-Newton solve over PPT
states (in place of the reference's projected descent). Both edges of
either engine are sound, so on every path the bracket must lie in
[0, value] and overlap the reference's, since both contain the exact
value. At the default budget the upper edge may not be above the
reference's, the lower edge must reach the reference's certificate to
within 1e-6 bits, and a bracket the reference calls converged stays
converged. Within the engine, batched and single calls agree on every
field.

The lower edge of a Frank-Wolfe problem starts warm, next to the separable
state the upper edge found; its certificate must stay sound from there at
any budget, and reach as high as a cold start does. Its Newton step must
match the complex step it replaced, kept in `reference_ree`.
"""

import numpy as np
import pytest

import reference_ree
from helpers import isotropic_state, random_unitary, werner_state
from nonclassicality import measures
from nonclassicality.core import DensityMatrix, SystemDims, _dag, wishart_state
from nonclassicality.measures import (
    LOWER_GAP_TOL,
    Bipartition,
    ReeConfig,
    check_relocation_bound,
    ree,
    ree_many,
)
from nonclassicality.protocol import SUITE_REE_CONFIG

PAIR = SystemDims((2, 2), ("A", "B"))
QUBIT_QUTRIT = SystemDims((2, 3), ("A", "B"))
TRIPLE = SystemDims((2, 2, 2), ("A", "B", "C"))
QUTRIT_C = SystemDims((2, 2, 3), ("A", "B", "C"))

# enough of every stage to take its data-dependent branches, small enough
# to run each problem in a fraction of a second
SMALL = ReeConfig(max_iter=6, product_starts=5, product_rounds=6, weight_iters=8,
                  descent_iters=8)
# the reference's lower-edge budgets that went with SMALL
SMALL_REFERENCE_LOWER = {"dykstra_iters": 6, "admm_iters": 40}

A_B = Bipartition(("A",), ("B",))
A_BC = Bipartition(("A",), ("B", "C"))
AC_B = Bipartition(("A", "C"), ("B",))


def problems():
    """(state, cut) pairs: 2x2, 2x3, 2x4, 4x2 and 2x6 splits; pure, rank-2
    and full-rank states; a product state; a state flagged on C; a
    one-sided cut."""
    rng = np.random.default_rng(2024)
    out = []
    for rank in (1, 2, 4):
        out.append((DensityMatrix(wishart_state(4, rng, rank=rank), PAIR), A_B))
    for rank in (1, 2, 8):
        rho = DensityMatrix(wishart_state(8, rng, rank=rank), TRIPLE)
        out += [(rho, A_BC), (rho, AC_B)]
    for rank in (1, 2):
        out.append((DensityMatrix(wishart_state(12, rng, rank=rank), QUTRIT_C), A_BC))
    product = np.zeros((4, 4), dtype=complex)
    product[1, 1] = 1.0
    out.append((DensityMatrix(product, PAIR), A_B))
    out.append((out[0][0], Bipartition(("A", "B"), ())))
    flagged = sum(np.kron(wishart_state(4, rng, rank=2), np.diag(flag)) * w
                  for flag, w in (((1.0, 0.0), 0.3), ((0.0, 1.0), 0.7)))
    out.append((DensityMatrix(flagged, TRIPLE), A_BC))
    out.append((DensityMatrix(wishart_state(6, rng, rank=3), QUBIT_QUTRIT), A_B))
    return out


# the path each problem takes: the 2x2 and 2x3 cuts take the barrier, the
# product state is flagged on both sides, a one-sided cut needs no solve
PATHS = ["barrier"] * 3 + ["frank-wolfe"] * 8 + ["flags", "barrier", "flags", "barrier"]


def assert_same(got, want):
    """Every field equal: a batch against single calls of this engine."""
    assert got.value == want.value
    assert got.lower_bound == want.lower_bound
    assert got.converged == want.converged
    assert got.iterations == want.iterations
    assert got.fw_gap == want.fw_gap
    assert got.path == want.path
    assert got.closest_state.dims == want.closest_state.dims
    assert np.array_equal(got.closest_state.data, want.closest_state.data)


def assert_overlaps_reference(got, ref):
    """A bracket in [0, value] that is not disjoint from the reference's."""
    assert 0.0 <= got.lower_bound <= got.value
    assert got.lower_bound <= ref.value + 1e-9 and ref.lower_bound <= got.value + 1e-9


@pytest.fixture(scope="module")
def reference():
    return [reference_ree.ree(rho, part, SMALL, **SMALL_REFERENCE_LOWER)
            for rho, part in problems()]


@pytest.fixture(scope="module")
def singles():
    return [ree(rho, part, SMALL) for rho, part in problems()]


def test_single_calls_match_reference(reference, singles):
    for path, got, want in zip(PATHS, singles, reference, strict=True):
        assert got.path == path
        assert_overlaps_reference(got, want)


def test_shuffled_mixed_batch_matches_single_calls(singles):
    cases = problems()
    order = np.random.default_rng(5).permutation(len(cases))
    got = ree_many([cases[i][0] for i in order], [cases[i][1] for i in order], SMALL)
    for i, result in zip(order, got):
        assert_same(result, singles[i])


def test_default_budget_matches_reference():
    rho = DensityMatrix(wishart_state(8, np.random.default_rng(11), rank=3), TRIPLE)
    want = [reference_ree.ree(rho, part, ReeConfig(seed=4)) for part in (A_BC, AC_B)]
    got = ree_many([rho, rho], [A_BC, AC_B], ReeConfig(seed=4))
    for result, ref in zip(got, want):
        assert result.path == "frank-wolfe"
        assert_overlaps_reference(result, ref)
        assert result.value <= ref.value + 1e-9
        assert ref.lower_bound - 1e-6 <= result.lower_bound
        assert result.converged or not ref.converged
    for result, part in zip(got, (A_BC, AC_B)):
        assert_same(result, ree(rho, part, ReeConfig(seed=4)))


def test_argument_checks():
    rho = DensityMatrix(wishart_state(4, np.random.default_rng(3), rank=2), PAIR)
    assert ree_many([], []) == []
    with pytest.raises(ValueError, match="bipartitions"):
        ree_many([rho, rho], [A_B], SMALL)
    big = SystemDims((2, 3, 3), ("A", "B", "C"))
    with pytest.raises(ValueError, match="exceeds"):
        ree_many([DensityMatrix(np.eye(18) / 18, big)], [A_BC])
    with pytest.raises(ValueError, match="exceeds"):
        check_relocation_bound(
            DensityMatrix(np.eye(20) / 20, SystemDims((2, 2, 5), ("A", "B", "C"))))


# --------------------------------------------------------------------------
# the warm-started lower edge

# Frank-Wolfe kept short: only the lower edge's start and budget matter here
WARM_FW = dict(max_iter=4, product_starts=4, product_rounds=6, weight_iters=6)


@pytest.mark.parametrize("descent_iters", (0, 1))
@pytest.mark.parametrize("d", (3, 4))
@pytest.mark.parametrize("family", (isotropic_state, werner_state))
def test_warm_lower_edge_is_sound_at_tiny_budgets(family, d, descent_iters):
    rho, exact = family(d, 0.8)
    res = ree(rho, A_B, ReeConfig(descent_iters=descent_iters, **WARM_FW))
    assert res.path == "frank-wolfe"
    assert 0.0 <= res.lower_bound <= exact + 1e-9 <= res.value + 2e-9


def test_warm_lower_edge_reaches_the_cold_one(monkeypatch):
    warm_calls = []
    cold = measures._ree_lower

    def record(rho, pt, t1, upper, cfg, start=None):
        out = cold(rho, pt, t1, upper, cfg, start=start)
        if start is not None:
            warm_calls.append((out[0], cold(rho, pt, t1, upper, cfg)[0]))
        return out

    monkeypatch.setattr(measures, "_ree_lower", record)
    rng = np.random.default_rng(42)  # the first draws of criterion 4
    for _ in range(12):
        rank = int(rng.integers(1, 9))
        check_relocation_bound(DensityMatrix(wishart_state(8, rng, rank=rank), TRIPLE),
                               config=SUITE_REE_CONFIG)
    assert len(warm_calls) == 12
    for warm, cold_lower in warm_calls:
        assert np.all(warm >= cold_lower - LOWER_GAP_TOL)


@pytest.mark.parametrize("descent_iters", (0, 60))
def test_pure_product_start_is_blended_to_a_strictly_ppt_point(descent_iters):
    rho, exact = isotropic_state(3, 0.7)
    m = rho.data[None]
    start = np.zeros((1, 9, 9), dtype=complex)
    start[0, 0, 0] = 1.0  # |00><00|: it and its partial transpose are singular
    pt = measures._pt_index(3, 3)[None]
    t1 = measures._neg_entropy_nat(m)
    lower, sigma, steps = measures._ree_lower(m, pt, t1, np.array([np.inf]),
                                              ReeConfig(descent_iters=descent_iters), start=start)
    assert steps[0] <= descent_iters
    assert np.linalg.eigvalsh(sigma)[0, 0] > 0
    assert np.linalg.eigvalsh(measures._ptrans(sigma, measures._pt_gather(pt)))[0, 0] > 0
    assert 0.0 <= lower[0] <= exact + 1e-9


# --------------------------------------------------------------------------
# the real-coordinate Newton step against the complex one


def newton_inputs(splits, t, rng):
    """`_newton_step` arguments for one stack of strictly PPT states: a
    random product mixture with a third of I/d, against random states."""
    d = splits[0][0] * splits[0][1]
    sigma, rho = [], []
    for dl, dr in splits:
        a = [random_unitary(dl, rng)[:, 0] for _ in range(6)]
        b = [random_unitary(dr, rng)[:, 0] for _ in range(6)]
        w = rng.dirichlet(np.ones(6))
        v = [np.kron(ak, bk) for ak, bk in zip(a, b)]
        mix = sum(wk * np.outer(vk, vk.conj()) for wk, vk in zip(w, v))
        sigma.append(2 / 3 * mix + np.eye(d) / (3 * d))
        rho.append(wishart_state(d, rng))
    sigma, rho = np.array(sigma), np.array(rho)
    pt = np.stack([measures._pt_index(dl, dr) for dl, dr in splits])
    lam, u = np.linalg.eigh(sigma)
    mu, v = np.linalg.eigh(measures._ptrans(sigma, measures._pt_gather(pt)))
    r_inv = (v / mu[:, None, :]) @ _dag(v)
    g = measures._grad_log_term(lam, u, rho)
    return lam, u, rho, g, r_inv, pt, np.full(len(splits), t)


@pytest.mark.parametrize("t", (1.0, 1e4))
@pytest.mark.parametrize("splits", (
    [(2, 2)] * 3, [(2, 3), (3, 2), (2, 3)], [(2, 4), (4, 2)], [(2, 6), (3, 4), (6, 2)]))
def test_newton_step_matches_the_complex_reference(splits, t):
    d = splits[0][0] * splits[0][1]
    lam, u, rho, g, r_inv, pt, tw = newton_inputs(splits, t, np.random.default_rng(d))
    want, want_slope = reference_ree._newton_step(lam, u, rho, g, r_inv, pt, tw)
    r_pt = measures._ptrans(r_inv, measures._pt_gather(pt))
    hess_pt = measures._pt_hessian_index(pt)
    got, slope = measures._newton_step(lam, u, rho, g, r_inv, r_pt, hess_pt, tw)
    assert np.array_equal(got, _dag(got))
    assert np.abs(np.trace(got, axis1=1, axis2=2)).max() <= 1e-12 * np.abs(got).max()
    scale = np.abs(want).max(axis=(1, 2))
    assert np.all(np.abs(got - want).max(axis=(1, 2)) <= 1e-8 * scale)
    assert np.all(np.abs(slope - want_slope) <= 1e-8 * np.abs(want_slope))
