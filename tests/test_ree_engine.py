"""The lockstep REE engine against the single-state engine it replaced.

`reference_ree` is that engine, verbatim. On the Frank-Wolfe path the
upper search must give equal results, not close ones: the engine's output
is chaotic in the last bits (reassociating one einsum of the product
search moved 28 of the 32 benchmark relocation brackets, one of them
wider by 0.12 bits), so only a bit-identical engine keeps every bracket
where it was. The lower edge is a different algorithm now (a
barrier-Newton solve over PPT states in place of the reference's projected
descent): at any budget it must lie in [0, value]; at the default budget
it must reach the reference's certificate to within 1e-6 bits, and a
bracket the reference calls converged stays converged. The 2x2 and 2x3
problems and the flagged ones take the barrier and flag paths, which run
no Frank-Wolfe: their brackets must lie in [0, value] and overlap the
reference's, since both contain the exact value. Within the engine,
batched and single calls agree on every field.
"""

import numpy as np
import pytest

import reference_ree
from nonclassicality.core import DensityMatrix, SystemDims, wishart_state
from nonclassicality.measures import (
    Bipartition,
    ReeConfig,
    _simplex_proj,
    ree,
    ree_many,
)

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


def assert_matches_reference(got, ref):
    """The reference's upper search bit for bit, and a lower bound in
    [0, value]."""
    assert got.path == "frank-wolfe"
    assert got.value == ref.value
    assert got.iterations == ref.iterations
    assert got.fw_gap == ref.fw_gap
    assert got.closest_state.dims == ref.closest_state.dims
    assert np.array_equal(got.closest_state.data, ref.closest_state.data)
    assert 0.0 <= got.lower_bound <= got.value


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
        if path == "frank-wolfe":
            assert_matches_reference(got, want)
        else:
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
        assert_matches_reference(result, ref)
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


def test_padded_simplex_rows_project_like_unpadded_rows():
    # the weight re-optimization pads short rows with -inf
    rng = np.random.default_rng(9)
    for k in (1, 2, 5, 17):
        row = rng.normal(size=k) * rng.uniform(0.1, 3.0)
        padded = np.concatenate([row, np.full(4, -np.inf)])
        got = _simplex_proj(np.stack([padded, np.zeros(k + 4)]))
        assert np.array_equal(got[0, :k], reference_ree._simplex_proj(row))
        assert np.array_equal(got[0, k:], np.zeros(4))
