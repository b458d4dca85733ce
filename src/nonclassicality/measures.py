"""Correlation quantifiers and the inequality checks built on them.

Three measures live here. Logarithmic negativity is cheap and exact.
Relative entropy of entanglement (REE) has no closed form, so it is
reported as a certified bracket. Its lower edge comes from the PPT
relaxation, min S(rho||sigma) over PPT states, solved by a log-barrier
Newton method, with each Newton system solved in real coordinates on
Hermitian matrices; the eigenvalue dual certificate is valid at any
positive definite point, so the lower edge is sound however far the
solve got and wherever it started, and at the default budgets it closes
the PPT problem to about 1e-7 bits. Its upper edge is S(rho||sigma) at a
separable sigma: on 2x2 and 2x3 cuts, where PPT = separable, the
barrier's own final sigma, from a cold start at I/d; on larger cuts an
explicit product mixture found by sliding Frank-Wolfe, which moves every
atom and weight by L-BFGS after each step, and the barrier then starts
warm, next to that mixture. A state with a classical flag, rho = sum_c
p_c rho_c (x) |c><c|, is bracketed block by block (REE is additive over
flags), so the theorem suite's classical-mediator states become 2x2
barrier solves. The relative entropy of discord (one-way deficit) is
minimized over von Neumann bases on the measured subsystem, each scored
through the spectra of the dephased state's diagonal blocks: a grid and
finite-difference Newton for a measured qubit, a stacked gradient
descent on U(d) for a qutrit or ququart. Its value is the best basis
found, an upper estimate of the true deficit.

There is one REE engine, `ree_many`. The barrier solve runs on (n, d, d)
stacks, and a state that has finished leaves the stack or is masked out;
stacked numpy linear algebra returns the same bits per matrix as a single
call. Frank-Wolfe runs problem by problem, each with its own random
generator. So a state's bracket is bit-identical whatever else is in the
batch; `ree` is the one-state call.

On top of those sit two checkers: the entanglement-relocation inequality
|E(A:BC) - E(AC:B)| <= D(AB|C), and the initial-purity bound
E(A:B) <= S_A(0) + S_B(0).

All values are in bits. Brackets are always valid bounds even when the
optimizers stop early; early stopping only widens them.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DensityMatrix,
    SystemDims,
    ENTROPY_CUTOFF,
    _dag,
    entropy_bits,
    hermitian_exp,
    partial_trace,
    spectrum_entropy_bits,
    von_neumann_entropy,
)

LN2 = math.log(2.0)

MAX_REE_DIM = 16
MAX_MEASURED_DIM = 4


# --------------------------------------------------------------------------
# bipartitions and permutation plumbing


@dataclass(frozen=True)
class Bipartition:
    """Two disjoint label sets covering all subsystems of a state."""

    left: tuple[str, ...]
    right: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "left", tuple(self.left))
        object.__setattr__(self, "right", tuple(self.right))
        overlap = set(self.left) & set(self.right)
        if overlap:
            raise ValueError(f"sides overlap on {sorted(overlap)}")

    def indices(self, dims: SystemDims) -> tuple[list[int], list[int]]:
        """Subsystem indices per side, each in the state's own order."""
        if set(self.left) | set(self.right) != set(dims.labels):
            raise ValueError(
                f"bipartition {self.left}|{self.right} does not cover "
                f"labels {dims.labels}"
            )
        li = sorted(dims.index(s) for s in self.left)
        ri = sorted(dims.index(s) for s in self.right)
        return li, ri


def _permute_bipartite(rho: DensityMatrix, part: Bipartition):
    """Reorder subsystems to (left..., right...) and flatten to a matrix.

    Returns (matrix, d_left, d_right, perm) where perm maps new positions
    to original subsystem indices.
    """
    li, ri = part.indices(rho.dims)
    perm = li + ri
    n = len(rho.dims.dims)
    t = rho.data.reshape(rho.dims.dims + rho.dims.dims)
    t = np.transpose(t, perm + [p + n for p in perm])
    dl = int(np.prod([rho.dims.dims[i] for i in li]))
    dr = int(np.prod([rho.dims.dims[i] for i in ri]))
    return np.ascontiguousarray(t.reshape(dl * dr, dl * dr)), dl, dr, perm


def _unpermute(mat: np.ndarray, dims: SystemDims, perm: list[int]) -> np.ndarray:
    """Undo _permute_bipartite on a same-shaped matrix."""
    n = len(dims.dims)
    permuted_dims = tuple(dims.dims[p] for p in perm)
    inv = [0] * n
    for new_pos, orig in enumerate(perm):
        inv[orig] = new_pos
    t = mat.reshape(permuted_dims + permuted_dims)
    t = np.transpose(t, inv + [i + n for i in inv])
    return np.ascontiguousarray(t.reshape(dims.total, dims.total))


@functools.lru_cache(maxsize=None)
def _pt_index(dl: int, dr: int) -> np.ndarray:
    """Flat gather index of the partial transpose on the right factor
    (read-only: every caller shares it)."""
    d = dl * dr
    idx = np.swapaxes(np.arange(d * d).reshape(dl, dr, dl, dr), 1, 3).reshape(-1)
    idx.setflags(write=False)
    return idx


def _pt_gather(rows: np.ndarray) -> np.ndarray:
    """Flat gather index that partially transposes each matrix of an
    (n, d, d) stack, given one `_pt_index` row per matrix; one stack may
    so mix 2x4 and 4x2 splits."""
    return rows + rows.shape[1] * np.arange(len(rows))[:, None]


def _ptrans(m: np.ndarray, gather: np.ndarray) -> np.ndarray:
    """Partial transpose of each matrix of a stack (see `_pt_gather`)."""
    return m.reshape(-1)[gather].reshape(m.shape)


# --------------------------------------------------------------------------
# logarithmic negativity


def log_negativity(rho: DensityMatrix, part: Bipartition) -> float:
    """log2 of the trace norm of the partial transpose; 0 for PPT states."""
    m, dl, dr, _ = _permute_bipartite(rho, part)
    lam = np.linalg.eigvalsh(_ptrans(m, _pt_index(dl, dr)))
    return float(max(0.0, np.log2(np.sum(np.abs(lam)))))


# --------------------------------------------------------------------------
# relative entropy machinery (natural-log internals, converted at the edges)
#
# Everything below works on (n, d, d) stacks, one matrix per problem, and
# takes sigma through its eigenpairs (lam, u) so that a spectrum computed
# once serves both the objective and the next gradient. Stacked eigh,
# matmul and einsum give the same bits per matrix as single calls; only
# entropies of rho, whose supports differ in size, run per matrix.


def _neg_entropy_nat(rho: np.ndarray) -> np.ndarray:
    """Tr rho ln rho over the support, per matrix."""
    out = []
    for w in np.linalg.eigvalsh(rho):
        w = w[w > 1e-12]
        out.append(np.sum(w * np.log(w)))
    return np.array(out)


def _rel_ent_bits(t1, rho, lam, u, floor=1e-15) -> np.ndarray:
    """S(rho||sigma) in bits given t1 = Tr rho ln rho and sigma = u lam u^H."""
    lam = np.maximum(lam, floor)
    diag = np.einsum("nij,nji->ni", _dag(u) @ rho, u).real
    return (t1 - (diag[:, None, :] @ np.log(lam)[:, :, None])[:, 0, 0]) / LN2


def _grad_log_term(lam, u, rho, floor=1e-14) -> np.ndarray:
    """Divided-difference (Daleckii-Krein) gradient of Tr[rho ln sigma].

    Returns G >= 0 with Tr(sigma G) = Tr(rho); the descent directions of
    S(rho||sigma) in sigma are -G up to the log-base constant. The floor
    keeps every divided difference finite: equal eigenvalues take the
    `near` branch.
    """
    lam = np.maximum(lam, floor)
    uh = _dag(u)
    a = uh @ rho @ u
    li, lj = lam[:, :, None], lam[:, None, :]
    dl = li - lj
    ll = np.log(lam)
    mid = 2.0 / (li + lj)
    near = np.abs(dl) < 1e-12 * np.maximum(li, lj)
    phi = np.where(near, mid, (ll[:, :, None] - ll[:, None, :]) / np.where(near, 1.0, dl))
    g = u @ (a * phi) @ uh
    return 0.5 * (g + _dag(g))


def _positive(x: np.ndarray) -> np.ndarray:
    """max(0.0, x) per entry, with Python's tie rule (a zero stays +0.0)."""
    return np.where(x > 0.0, x, 0.0)


# --------------------------------------------------------------------------
# REE upper bound: Frank-Wolfe over explicit product mixtures


@dataclass
class ReeConfig:
    """Optimizer budgets for the REE bracket.

    `max_iter`, `product_starts`, `product_rounds` and `weight_iters` bound
    the Frank-Wolfe upper edge of cuts larger than 2x3: `weight_iters` is
    the L-BFGS iteration budget of the slide that moves every atom and
    weight after the start and after each Frank-Wolfe step (0 turns the
    slide off). `descent_iters` is the number of Newton steps per problem
    of the barrier solve behind the lower edge, and behind both edges on
    2x2 and 2x3 cuts. At the defaults a generic 2x4 bracket takes about
    0.1 s on one core (at most about 0.4 s), of which the warm-started
    lower edge takes about 15 ms, and closes to about 1e-5 bits, 2e-3 at
    worst. Shrinking any budget loosens the bracket but never invalidates
    it.
    Budgets are checked at construction: counts are non-negative integers,
    `product_rounds` is at least 1, tolerances are finite and positive.
    """

    seed: int = 0
    max_iter: int = 60
    gap_tol: float = 1e-3
    bracket_tol: float = 2e-2
    product_starts: int = 16
    product_rounds: int = 30
    weight_iters: int = 40
    descent_iters: int = 120

    def __post_init__(self):
        _check_counts(self, ("seed", "max_iter", "product_starts", "product_rounds",
                             "weight_iters", "descent_iters"))
        if self.product_rounds < 1:
            raise ValueError(f"product_rounds must be at least 1, got {self.product_rounds}")
        for name in ("gap_tol", "bracket_tol"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_counts(cfg, names) -> None:
    for name in names:
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


@dataclass(frozen=True)
class ReeResult:
    """Certified bracket [lower_bound, value] for the REE of one state.

    `closest_state` is the separable state achieving `value`, so `value` is
    a true upper bound regardless of convergence. It is separable by
    construction on every path: an explicit mixture of product states from
    sliding Frank-Wolfe ("frank-wolfe"), a strictly PPT state on a 2x2 or
    2x3 cut, separable there by the PPT = SEP theorem ("barrier"), or a
    flag mixture sum_c p_c sigma_c (x) |c><c| of such states ("flags").
    `lower_bound` is the best weak-duality certificate over the PPT states
    met by the barrier-Newton solve (p-weighted over flag blocks), capped at
    `value`; it is a true lower bound at any budget.
    `path` names the route the state took (see `ree_many`). `iterations`
    counts Frank-Wolfe iterations on the "frank-wolfe" path and Newton steps
    on the "barrier" path; on the "flags" path it is the sum over the blocks.
    `fw_gap` is the final Frank-Wolfe stationarity gap of the upper search,
    p-weighted over flag blocks, and 0.0 where no Frank-Wolfe ran.
    `converged` means a bracket within `bracket_tol`, or on the
    "frank-wolfe" path a stationary upper search, or on the "flags" path
    every block converged. A one-sided cut needs no solve: it reports
    [0, 0], "barrier" and no iterations.
    """

    value: float
    lower_bound: float
    closest_state: DensityMatrix
    converged: bool
    iterations: int
    fw_gap: float
    path: str


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows a_k (x) b_k, one per atom (a_k, b_k)."""
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)


def _mixture(a, b, w) -> np.ndarray:
    """sum_k w_k |a_k b_k><a_k b_k| as a stack of one."""
    v = _products(a, b)
    return ((v.T * w) @ v.conj())[None]


def _slide(a, b, w, rho, t1, iters):
    """Move every atom and weight at once by one L-BFGS descent (sliding
    Frank-Wolfe, Denoyelle, Duval, Peyre & Soubies, arXiv:1811.06416).

    sigma = sum_k v_k v_k^H / tau with v_k = a_k (x) b_k unnormalised and
    tau = sum_k |v_k|^2, so atom k weighs |a_k|^2 |b_k|^2 / tau. With G from
    `_grad_log_term` and Tr(sigma G) = 1, the gradient of S(rho||sigma) in
    conj(a_k) is -(I (x) b_k^H)(G - I) v_k / (tau ln 2), and likewise in
    conj(b_k). Runs at most `iters` iterations and returns unit atoms and
    their weights; atoms of weight at most 1e-11 are dropped before their
    norms are divided out.
    """
    if not iters:
        return a, b, w
    # imported here: scipy.optimize costs about 0.1 s at import
    from scipy.optimize import minimize

    k, dl, dr = len(w), a.shape[1], b.shape[1]
    eye = np.eye(dl * dr)

    def unpack(x):
        z = x[:x.size // 2] + 1j * x[x.size // 2:]
        return z[:k * dl].reshape(k, dl), z[k * dl:].reshape(k, dr)

    def objective(x):
        a, b = unpack(x)
        v = _products(a, b)
        tau = np.vdot(v, v).real
        lam, u = np.linalg.eigh((v.T @ v.conj() / tau)[None])
        gv = (v @ (_grad_log_term(lam, u, rho)[0] - eye).T).reshape(k, dl, dr)
        z = np.concatenate([np.einsum("kij,kj->ki", gv, b.conj()).ravel(),
                            np.einsum("kij,ki->kj", gv, a.conj()).ravel()])
        z *= -2.0 / (tau * LN2)  # real gradient: twice the conjugate one
        return _rel_ent_bits(t1, rho, lam, u)[0], np.concatenate([z.real, z.imag])

    z = np.concatenate([(a * np.sqrt(w)[:, None]).ravel(), b.ravel()])
    res = minimize(objective, np.concatenate([z.real, z.imag]), jac=True, method="L-BFGS-B",
                   options={"maxiter": iters, "gtol": 1e-12, "ftol": 1e-15})
    if not res.nit:  # a stationary start stays as it was, bit for bit
        return a, b, w
    a, b = unpack(res.x)
    na, nb = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
    w = (na * nb) ** 2
    keep = w > 1e-11 * w.sum()
    return a[keep] / na[keep, None], b[keep] / nb[keep, None], w[keep] / w[keep].sum()


def _schmidt_split(vec: np.ndarray, dl: int, dr: int):
    """(left vector, right vector, squared coefficient) per Schmidt term."""
    ua, s, vb = np.linalg.svd(vec.reshape(dl, dr))
    return [(ua[:, i], vb[i, :], s[i] ** 2) for i in range(len(s)) if s[i] > 1e-8]


def _best_product(g, a0, b0, rng, n_starts, rounds):
    """max <a x b| g |a x b> over unit a, b, by alternating top-eigenvector
    sweeps from `n_starts` random starts and from the atoms (a0, b0).

    Local search; used both to grow the ensemble and to estimate the FW
    stationarity gap. Starting from the heaviest atoms lets a converged
    ensemble reproduce its own atoms instead of oscillating. Returns the
    value and the maximizing a and b.
    """
    dl, dr = a0.shape[1], b0.shape[1]
    gt = g.reshape(dl, dr, dl, dr)
    a = rng.normal(size=(n_starts, dl)) + 1j * rng.normal(size=(n_starts, dl))
    b = rng.normal(size=(n_starts, dr)) + 1j * rng.normal(size=(n_starts, dr))
    a, b = np.concatenate([a, a0]), np.concatenate([b, b0])
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    for _ in range(rounds):
        a = np.linalg.eigh(np.einsum("ijkl,sj,sl->sik", gt, b.conj(), b))[1][:, :, -1]
        wb, vb = np.linalg.eigh(np.einsum("ijkl,si,sk->sjl", gt, a.conj(), a))
        b = vb[:, :, -1]
    top = np.argmax(wb[:, -1])
    return wb[top, -1], a[top], b[top]


def _line_search(t1, rho, sig, pi):
    """Step t of the FW update (1 - t) sigma + t pi, per problem.

    A coarse geometric sweep, then ternary refinement; every sweep and
    every ternary pair is one stacked evaluation. Returns (t, value at t).
    """
    n, d = sig.shape[0], sig.shape[1]

    def values(ts):  # ts: (n, k) -> objective at each step, (n, k)
        k = ts.shape[1]
        t = ts[:, :, None, None]
        cand = ((1 - t) * sig[:, None] + t * pi[:, None]).reshape(n * k, d, d)
        lam, u = np.linalg.eigh(cand)
        return _rel_ent_bits(np.repeat(t1, k), np.repeat(rho, k, axis=0), lam, u).reshape(n, k)

    ts = np.geomspace(1e-3, 0.9, 10)
    jb = np.argmin(values(np.broadcast_to(ts, (n, ts.size))), axis=1)
    lo = np.where(jb > 0, ts[jb - 1], 0.0)
    hi = np.where(jb + 1 < ts.size, ts[np.minimum(jb + 1, ts.size - 1)], 0.95)
    for _ in range(14):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        f12 = values(np.stack([m1, m2], axis=1))
        left = f12[:, 0] < f12[:, 1]
        hi, lo = np.where(left, m2, hi), np.where(left, lo, m1)
    tb = 0.5 * (lo + hi)
    return tb, values(tb[:, None])[:, 0]


def _ree_upper(rho, dl, dr, t1, cfg: ReeConfig):
    """Sliding Frank-Wolfe minimization of S(rho||sigma) over product
    mixtures, for one problem.

    `rho` and `t1` are stacks of one. The initial ensemble dephases every
    eigenvector of rho in its Schmidt basis, which already solves pure
    inputs exactly. After that start and after every FW step, `_slide`
    moves all atoms and weights for up to `cfg.weight_iters` iterations.
    The search stops once the FW gap is below `cfg.gap_tol`, or after
    `cfg.max_iter` iterations; its random product starts come from a
    generator seeded with `cfg.seed`. Returns the final FW gap in bits,
    the iteration count and the separable sigma.
    """
    rng = np.random.default_rng(cfg.seed)
    wr, vr = np.linalg.eigh(rho[0])
    atoms = [(a, b, wr[i] * s2) for i in range(len(wr)) if wr[i] > 1e-10
             for a, b, s2 in _schmidt_split(vr[:, i], dl, dr)]
    a, b, w = (np.array(x) for x in zip(*atoms))
    a, b, w = _slide(a, b, w / w.sum(), rho, t1, cfg.weight_iters)
    gap, it = math.inf, 0
    for it in range(1, cfg.max_iter + 1):
        sig = _mixture(a, b, w)
        lam, u = np.linalg.eigh(sig)
        heavy = np.argsort(w)[-2:]
        val, pa, pb = _best_product(_grad_log_term(lam, u, rho)[0], a[heavy], b[heavy], rng,
                                    cfg.product_starts, cfg.product_rounds)
        gap = max(val - 1.0, 0.0) / LN2  # Tr(sigma G) = 1 exactly
        if gap < cfg.gap_tol:
            break
        v = np.kron(pa, pb)
        tb, f_new = _line_search(t1, rho, sig, np.outer(v, v.conj())[None])
        if f_new[0] < _rel_ent_bits(t1, rho, lam, u)[0]:
            a, b, w = np.vstack([a, pa]), np.vstack([b, pb]), np.append(w * (1 - tb[0]), tb[0])
        a, b, w = _slide(a, b, w, rho, t1, cfg.weight_iters)
    return gap, it, _mixture(a, b, w)[0]


# --------------------------------------------------------------------------
# REE lower bound: a log-barrier Newton solve over PPT states

# growth of the barrier weight per centering stage, and the stopping rules
# of `_ree_lower`: gap closed (bits), and stage gain over gap (stall)
BARRIER_GROWTH = 16.0
LOWER_GAP_TOL = 1e-7
STALL_SHARE = 0.01
# share of I/d in the warm start of `_ree_lower`, which also sets its
# barrier weight: on the relocation pools 1e-3 took a quarter more Newton
# steps, and 1e-6 left Newton crawling near the PPT boundary, with brackets
# 0.15 bits wide at the step budget
WARM_BLEND = 1e-4


def _log_second_dd(lam, tol=1e-6) -> np.ndarray:
    """Second divided differences of ln at the eigenvalues, per matrix.

    Entry [n, m, i, j] is ln[lam_i, lam_m, lam_j]. Pairs closer than `tol`
    (relative) take derivative branches, so every division is by a safe
    operand; the values feed a Newton Hessian, which need not be exact.
    """
    li, lj = lam[:, :, None], lam[:, None, :]
    dl = li - lj
    far = np.abs(dl) > tol * np.maximum(li, lj)
    safe = np.where(far, dl, 1.0)
    ll = np.log(lam)
    f1 = np.where(far, (ll[:, :, None] - ll[:, None, :]) / safe, 2.0 / (li + lj))
    dx = np.where(far, (1.0 / li - f1) / safe, -0.5 / (li * lj))  # d/dx of f1(x, y)
    f1, dx = f1.swapaxes(1, 2)[:, :, :, None], dx.swapaxes(1, 2)  # indexed [m, i]
    return np.where(far[:, None], (f1 - f1.swapaxes(2, 3)) / safe[:, None],
                    0.5 * (dx[:, :, :, None] + dx[:, :, None, :]))


def _pt_hessian_index(pt: np.ndarray) -> np.ndarray:
    """Flat gather index, per problem, of the sandwich X -> (r X^Gamma r)^Gamma
    in the layout Q[p, q, a, b] = H[(a, p), (b, q)] of `_real_coordinates`,
    taken from outer(vec conj(r), vec r) with `_pt_gather`; `pt` holds each
    problem's `_pt_index`."""
    n, d = pt.shape[0], math.isqrt(pt.shape[1])
    x, y = np.divmod(pt.reshape(n, d, d).swapaxes(1, 2), d)  # [n, p, a]
    idx = ((y[:, :, None, :, None] * d + y[:, None, :, None, :]) * d * d
           + x[:, :, None, :, None] * d + x[:, None, :, None, :])
    return idx.reshape(n, -1)


@functools.lru_cache(maxsize=None)
def _real_coordinates(d: int):
    """Index tables of real orthonormal coordinates on Hermitian d x d
    matrices (read-only: every caller shares them).

    Coordinate p = a d + b is X[a, a] on the diagonal, sqrt2 Re X[a, b]
    above it and sqrt2 Im X[b, a] below it. Returns (re, im, lo, hi,
    back_re, back_im, j1, j2, c1, c2), with vec row-major:
    - x = re * Re vec(X) + im * Im vec(X);
    - vec(X) = back_re * x[lo] + 1j * back_im * x[hi];
    - an operator held as Q[p, q, a, b] = H[(a, p), (b, q)] has the real
      matrix c1 * F[j1] + c2 * F[j2], F the float view of Q. (With basis
      matrix B, B^H H B = Re(w (H + s HT)) entrywise, HT the columns of H
      at the transposed index and s = -1 below the diagonal; each w is
      real or imaginary, so each term reads Re or Im of Q.)
    """
    dd = d * d
    a, b = np.divmod(np.arange(dd), d)
    tp = b * d + a
    below = a > b
    norm = np.where(a == b, 1.0, math.sqrt(2.0))
    re, im = np.where(below, 0.0, norm), np.where(below, -norm, 0.0)
    lo, hi = np.minimum(np.arange(dd), tp), np.maximum(np.arange(dd), tp)
    back_re, back_im = 1.0 / norm, np.sign(b - a) / norm
    theta = np.where(a == b, math.sqrt(0.5), np.where(below, -1j, 1.0))
    w = np.outer(theta.conj(), theta).reshape(-1)
    imag = w.imag != 0
    c1 = np.where(imag, -w.imag, w.real)
    c2 = c1 * np.tile(np.where(below, -1.0, 1.0), dd)
    q = np.arange(dd * dd).reshape(d, d, d, d)
    j1 = 2 * q.transpose(2, 0, 3, 1).reshape(-1) + imag  # H[(a, p), (b, q)]
    j2 = 2 * q.transpose(2, 0, 1, 3).reshape(-1) + imag  # H[(a, p), (q, b)]
    tables = (re, im, lo, hi, back_re, back_im, j1, j2, c1, c2)
    for arr in tables:
        arr.setflags(write=False)
    return tables


def _newton_step(lam, u, rho, g, r_inv, r_pt, hess_pt, t):
    """Newton step of t (-Tr rho ln sigma) - ln det sigma - ln det sigma^Gamma
    over trace-one sigma = u lam u^H, and its slope, per problem.

    `g` is `_grad_log_term` at sigma, `r_inv` = (sigma^Gamma)^-1, `r_pt` its
    partial transpose, and `hess_pt` holds each problem's
    `_pt_hessian_index` row. The Hessian is the Daleckii-Krein operator
    X -> sum_m (c_m X P_m + P_m X c_m), with P_m the eigenprojectors of
    sigma, plus the sandwiches X -> s X s, s = sigma^-1, and
    X -> (r X^Gamma r)^Gamma, r = r_inv. It is summed in the layout Q of
    `_real_coordinates`, where the first part is one matmul, the second an
    outer product and the third a gather of one, and then taken into real
    coordinates in one pass; one batched real solve with two right-hand
    sides keeps the step trace-free.
    """
    n, d = lam.shape[0], lam.shape[1]
    dd = d * d
    uh = _dag(u)
    # c_m = u (A o L_m) u^H, A = -t u^H rho u, L_m the second divided
    # differences of ln; Q[p, q, a, b] = sum_m conj(u_pm) u_qm c_m[a, b]
    c = u[:, None] @ ((-t[:, None, None, None] * (uh @ rho @ u)[:, None])
                      * _log_second_dd(lam)) @ uh[:, None]
    y = (u.conj()[:, :, None, :] * u[:, None, :, :]).reshape(n, dd, d)
    q = y @ c.reshape(n, d, dd)
    q += _dag(q)  # the P_m X c_m half
    s_inv = (u / lam[:, None, :]) @ uh
    sv, rv = s_inv.reshape(n, dd), r_inv.reshape(n, dd)
    q += sv.conj()[:, :, None] * sv[:, None, :]
    q = q.reshape(n, -1)
    q += (rv.conj()[:, :, None] * rv[:, None, :]).reshape(-1)[_pt_gather(hess_pt)]
    re, im, lo, hi, back_re, back_im, j1, j2, c1, c2 = _real_coordinates(d)
    flat = q.view(np.float64)
    h = np.take(flat, j1, axis=1)
    h *= c1
    h += np.take(flat, j2, axis=1) * c2
    h = h.reshape(n, dd, dd)
    grad = (-t[:, None, None] * g - s_inv - r_pt).reshape(n, dd)
    grad = grad.real * re + grad.imag * im
    # dropping the trace part changes no step and keeps the solve well scaled
    grad[:, ::d + 1] -= grad[:, ::d + 1].mean(1)[:, None]
    scale = 1.0 / np.sqrt(np.diagonal(h, axis1=1, axis2=2))
    h *= scale[:, :, None]
    h *= scale[:, None, :]
    rhs = np.zeros((n, dd, 2))
    rhs[:, :, 0] = grad * scale
    rhs[:, ::d + 1, 1] = scale[:, ::d + 1]  # the real coordinates of I
    sol = np.linalg.solve(h, rhs) * scale[:, :, None]
    tr = sol[:, ::d + 1].sum(1)
    x = (tr[:, 0] / tr[:, 1])[:, None] * sol[:, :, 1] - sol[:, :, 0]
    step = (back_re * x[:, lo] + 1j * back_im * x[:, hi]).reshape(n, d, d)
    return step, np.einsum("ni,ni->n", grad, x)


def _ree_lower(rho, pt, t1, upper, cfg: ReeConfig, start=None):
    """Certified lower bound on REE through the PPT relaxation, per problem.

    min S(rho||sigma) over PPT states (Rains 2001) is smooth and convex; a
    log-barrier method (Boyd & Vandenberghe, ch. 11) takes damped Newton
    steps and raises t once sigma is centered (certificate within 1.5 times
    the barrier's 2d/t of f). Without `start` it starts cold, at sigma = I/d
    and t = 1. A `start` stack of separable states (the Frank-Wolfe closest
    states) starts it warm, at (1 - WARM_BLEND) start + WARM_BLEND I/d and
    t = d / WARM_BLEND: the blend keeps sigma and sigma^Gamma at least
    WARM_BLEND/d above 0, and the barrier's pull on an eigenvalue that
    small, its inverse, then matches t times the objective's, so the start
    lies near the central path. At every point,
    REE >= f(sigma) - <W, sigma> + lambda_min(W - Q^Gamma), W = grad f, for
    any sigma > 0 and Q >= 0 (weak duality); Q = (sigma^Gamma)^-1 / (t ln 2)
    is the barrier's dual estimate, so the bound is sound whether or not
    Newton converged. A problem keeps its best bound and stops once f or
    `upper` is within LOWER_GAP_TOL of it, once a stage raised it by less
    than STALL_SHARE of that gap, or after `cfg.descent_iters` Newton steps.
    `pt` holds each problem's `_pt_index`.

    Returns the bounds, the final sigma of each problem (positive definite
    with a positive definite partial transpose) and its Newton step count.
    """
    n, d = rho.shape[0], rho.shape[1]
    sigma = np.broadcast_to(np.eye(d, dtype=complex) / d, (n, d, d)).copy()
    u, lam = sigma * d, np.full((n, d), 1.0 / d)
    v, mu = u.copy(), lam.copy()
    t = np.ones(n)  # barrier weight
    if start is not None:
        sigma = (1.0 - WARM_BLEND) * start + WARM_BLEND * sigma
        lam, u = np.linalg.eigh(sigma)
        mu, v = np.linalg.eigh(_ptrans(sigma, _pt_gather(pt)))
        t *= d / WARM_BLEND
    f = _rel_ent_bits(t1, rho, lam, u)
    logdet = np.log(lam).sum(1) + np.log(mu).sum(1)  # ln det sigma + ln det sigma^Gamma
    hess_pt = _pt_hessian_index(pt)
    best = np.full(n, -np.inf)
    stage_start = best.copy()
    steps = np.zeros(n, dtype=int)
    active = np.arange(n)
    for it in range(cfg.descent_iters + 1):
        ix = active
        g = _grad_log_term(lam[ix], u[ix], rho[ix])
        r_inv = (v[ix] / mu[ix][:, None, :]) @ _dag(v[ix])
        r_pt = _ptrans(r_inv, _pt_gather(pt[ix]))
        w = -g / LN2
        cert = (f[ix] - np.einsum("nij,nji->n", w, sigma[ix]).real
                + np.linalg.eigvalsh(w - r_pt / (t[ix] * LN2)[:, None, None])[:, 0])
        best[ix] = np.fmax(best[ix], cert)
        going = (f[ix] - best[ix] > LOWER_GAP_TOL) & (upper[ix] - best[ix] > LOWER_GAP_TOL)
        if it == cfg.descent_iters or not going.any():
            break
        ix = active = ix[going]
        steps[ix] += 1
        g, r_inv, r_pt, cert = g[going], r_inv[going], r_pt[going], cert[going]
        step, slope = _newton_step(lam[ix], u[ix], rho[ix], g, r_inv, r_pt, hess_pt[ix], t[ix])
        centered = f[ix] - cert <= 3 * d / (t[ix] * LN2)
        # damped Newton: halve until feasible with an Armijo decrease of the
        # barrier objective, allowing for its rounding at large t
        pending = np.flatnonzero(~centered & (slope < 0) & np.isfinite(slope))
        moved = np.zeros(ix.size, dtype=bool)
        s = np.ones(ix.size)
        for _ in range(40):
            if not pending.size:
                break
            jx = ix[pending]
            cand = sigma[jx] + s[pending, None, None] * step[pending]
            lam2, u2 = np.linalg.eigh(cand)
            mu2, v2 = np.linalg.eigh(_ptrans(cand, _pt_gather(pt[jx])))
            ok = (lam2[:, 0] > 1e-13) & (mu2[:, 0] > 0)  # 1e-13: above the floors of f, W
            f2 = _rel_ent_bits(t1[jx], rho[jx], lam2, u2)
            ld2 = np.log(np.where(ok[:, None], np.concatenate([lam2, mu2], 1), 1.0)).sum(1)
            obj, obj2 = t[jx] * f[jx] * LN2 - logdet[jx], t[jx] * f2 * LN2 - ld2
            ok &= obj2 <= obj + 0.25 * s[pending] * slope[pending] + 1e-13 * (1 + np.abs(obj))
            a = jx[ok]
            sigma[a], lam[a], u[a], mu[a], v[a] = cand[ok], lam2[ok], u2[ok], mu2[ok], v2[ok]
            f[a], logdet[a] = f2[ok], ld2[ok]
            moved[pending[ok]] = True
            pending = pending[~ok]
            s[pending] *= 0.5
        # a centered point, or one Newton cannot improve, ends the stage
        ends = ix[~moved]
        stalled = best[ends] - stage_start[ends] < STALL_SHARE * (f[ends] - best[ends])
        stage_start[ends] = best[ends]
        t[ends[~stalled]] *= BARRIER_GROWTH
        active = np.setdiff1d(active, ends[stalled])
    return _positive(best), sigma, steps


# --------------------------------------------------------------------------
# the engine: classical flags first, then the barrier on 2x2 and 2x3 cuts,
# and Frank-Wolfe with the barrier's lower edge on every larger cut

# a subsystem whose off-diagonal blocks in the computational basis are all
# at most this large is split off as a classical flag
FLAG_TOL = 1e-12
# largest cut dimension (2x2, 2x3 and 3x2) where PPT = separable
BARRIER_MAX_DIM = 6


def _full_support(sigma: np.ndarray) -> np.ndarray:
    """A tiny maximally mixed admixture: it keeps the support full without
    disturbing separability, and the value is recomputed on the result."""
    d = sigma.shape[-1]
    return (1.0 - 1e-9) * sigma + 1e-9 * np.eye(d) / d


def _flag_axis(m: np.ndarray, dims: tuple) -> int | None:
    """First subsystem whose off-diagonal blocks are all within FLAG_TOL."""
    n = len(dims)
    t = m.reshape(dims + dims)
    for k, dk in enumerate(dims):
        off = np.moveaxis(t, (k, n + k), (0, 1))[~np.eye(dk, dtype=bool)]
        if off.size and np.abs(off).max() <= FLAG_TOL:
            return k
    return None


def _flag_tree(m: np.ndarray, dims: tuple, n_left: int, leaves: list):
    """Split `m` at its classical flags, recursively.

    `dims` are the subsystem dimensions of `m`, the first `n_left` of them
    on the left of the cut. A problem without a flag is appended to
    `leaves` as (matrix, dl, dr) and its index returned. Otherwise the node
    is (k, dims, blocks) for a flag on subsystem k, with one entry
    (c, p_c, rho_c, child) per flag value of weight p_c > FLAG_TOL; the
    child is None when the block's cut is one-sided, and rho_c is then its
    own closest separable state.
    """
    k = _flag_axis(m, dims)
    if k is None:
        leaves.append((m, math.prod(dims[:n_left]), math.prod(dims[n_left:])))
        return len(leaves) - 1
    n = len(dims)
    rest = dims[:k] + dims[k + 1:]
    n_left -= k < n_left
    one_sided = min(math.prod(rest[:n_left]), math.prod(rest[n_left:])) == 1
    t = np.moveaxis(m.reshape(dims + dims), (k, n + k), (0, 1))
    blocks = []
    for c in range(dims[k]):
        block = t[c, c].reshape(math.prod(rest), -1)
        p = float(np.trace(block).real)
        if p > FLAG_TOL:
            block = block / p
            child = None if one_sided else _flag_tree(block, rest, n_left, leaves)
            blocks.append((c, p, block, child))
    return k, dims, blocks


def _flag_bracket(node, solved: list):
    """(lower, sigma, iterations, fw_gap, converged) of a flag subtree.

    The lower edge is sum_c p_c lower_c: pinching the flag is a local
    channel, under which REE cannot rise, and REE is additive over flag
    blocks. sigma = sum_c p_c sigma_c (x) |c><c| is separable. Iterations
    add up over the blocks, FW gaps are p-weighted, and the subtree is
    converged when every block is.
    """
    if not isinstance(node, tuple):
        lower, _, sigma, iters, gap, converged = solved[node]
        return lower, sigma, iters, gap, converged
    k, dims, blocks = node
    n, rest = len(dims), dims[:k] + dims[k + 1:]
    sigma = np.zeros((dims[k], dims[k]) + rest + rest, dtype=complex)
    lower = gap = 0.0
    iters, converged = 0, True
    for c, p, block, child in blocks:
        if child is not None:
            lo, block, it, g, ok = _flag_bracket(child, solved)
            lower, gap = lower + p * lo, gap + p * g
            iters, converged = iters + it, converged and ok
        sigma[c, c] = p * block.reshape(rest + rest)
    d = math.prod(dims)
    return lower, np.moveaxis(sigma, (0, 1), (k, n + k)).reshape(d, d), iters, gap, converged


def _solve_leaves(leaves: list, cfg: ReeConfig) -> list:
    """(lower, upper, sigma, iterations, fw_gap, converged) per (matrix, dl,
    dr) problem, on the "barrier" or "frank-wolfe" path of `ree_many`;
    problems of equal dimension run in one stack.

    On 2x2 and 2x3 cuts PPT = separable (Horodecki, Horodecki & Horodecki,
    PLA 223, 1, 1996), so the barrier solve's final sigma, strictly PPT, is
    separable and S(rho||sigma) is the upper edge.
    """
    out: list = [None] * len(leaves)
    by_dim: dict[int, list] = {}
    for j, (_, dl, dr) in enumerate(leaves):
        by_dim.setdefault(dl * dr, []).append(j)
    for d, js in by_dim.items():
        rho = np.stack([leaves[j][0] for j in js])
        split = [leaves[j][1:] for j in js]
        t1 = _neg_entropy_nat(rho)
        pt = np.stack([_pt_index(*s) for s in split])
        if d <= BARRIER_MAX_DIM:
            lower, sigma, iters = _ree_lower(rho, pt, t1, np.full(len(js), np.inf), cfg)
            gap = np.zeros(len(js))
            upper = _positive(_rel_ent_bits(t1, rho, *np.linalg.eigh(sigma)))
        else:
            fw = [_ree_upper(rho[j:j + 1], dl, dr, t1[j:j + 1], cfg)
                  for j, (dl, dr) in enumerate(split)]
            gap, iters, sigma = (np.array(x) for x in zip(*fw))
            sigma = _full_support(sigma)
            upper = _positive(_rel_ent_bits(t1, rho, *np.linalg.eigh(sigma)))
            lower = _ree_lower(rho, pt, t1, upper, cfg, start=sigma)[0]
        lower = np.where(upper < lower, upper, lower)
        # either stationarity of the upper search or a bracket already
        # tighter than the advertised resolution counts as converged;
        # wide brackets on a stalled search are reported, never hidden
        converged = ((gap < cfg.gap_tol) & (d > BARRIER_MAX_DIM)) | (upper - lower <= cfg.bracket_tol)
        for j, row in enumerate(zip(lower, upper, sigma, iters, gap, converged)):
            out[js[j]] = row
    return out


def ree_many(
    states: Sequence[DensityMatrix],
    parts: Sequence[Bipartition],
    config: ReeConfig | None = None,
) -> list[ReeResult]:
    """Certified REE brackets for many states, in bits, in one call.

    This is the only REE engine. Each state takes one of three paths,
    named in `ReeResult.path`:

    - "flags": some subsystem is a classical flag (its off-diagonal blocks
      in the computational basis are within `FLAG_TOL`). The state is
      split into its flag blocks p_c rho_c, recursively, and each block is
      bracketed on its own; a block whose cut is one-sided scores 0. The
      lower edge is sum_c p_c lower_c, the upper edge S(rho||sigma_flag)
      on the whole state with sigma_flag = sum_c p_c sigma_c (x) |c><c|.
      Both edges are sound for any input; the tolerance only decides
      whether the bracket is tight.
    - "barrier": a 2x2 or 2x3 cut. One barrier-Newton solve over PPT
      states gives both edges, because PPT = separable there.
    - "frank-wolfe": every larger cut. Sliding Frank-Wolfe over product
      mixtures gives the upper edge, the barrier solve the lower one.

    Barrier problems of equal dimension, flag blocks included, run
    together on (n, d, d) stacks, and a problem that has finished drops
    out of the stack or is masked out; stacked linear algebra gives the
    same bits per matrix as single calls. Frank-Wolfe runs one problem at
    a time, with a generator seeded with `config.seed`. So every result is
    bit-identical to a call with that state alone, whatever else is in the
    batch.

    Parameters
    ----------
    states : sequence of DensityMatrix
        Each of total dimension at most 16; dimensions may be mixed.
    parts : sequence of Bipartition
        The cut of each state.
    config : ReeConfig, optional
        Optimizer budgets and seed, shared by all states.

    Returns
    -------
    list of ReeResult, in the order of `states`.
    """
    states, parts = list(states), list(parts)
    if len(parts) != len(states):
        raise ValueError(f"{len(parts)} bipartitions for {len(states)} states")
    for rho in states:
        if rho.dims.total > MAX_REE_DIM:
            raise ValueError(f"total dimension {rho.dims.total} exceeds {MAX_REE_DIM}")
    cfg = config or ReeConfig()
    results: list = [None] * len(states)
    leaves: list = []
    trees = []
    for i, (rho, part) in enumerate(zip(states, parts)):
        m, dl, dr, perm = _permute_bipartite(rho, part)
        if min(dl, dr) == 1:
            # one-sided partition: nothing to entangle, nothing to solve
            results[i] = ReeResult(0.0, 0.0, rho, True, 0, 0.0, "barrier")
        else:
            dims = tuple(rho.dims.dims[p] for p in perm)
            trees.append((i, m, perm, _flag_tree(m, dims, len(part.left), leaves)))

    solved = _solve_leaves(leaves, cfg)
    for i, m, perm, tree in trees:
        if isinstance(tree, tuple):
            lower, sigma, iters, gap, converged = _flag_bracket(tree, solved)
            sigma = _full_support(sigma)
            upper = _positive(_rel_ent_bits(_neg_entropy_nat(m[None]), m[None],
                                            *np.linalg.eigh(sigma[None])))[0]
            lower = min(lower, upper)
            converged = converged or upper - lower <= cfg.bracket_tol
            path = "flags"
        else:
            lower, upper, sigma, iters, gap, converged = solved[tree]
            path = "barrier" if len(m) <= BARRIER_MAX_DIM else "frank-wolfe"
        dims = states[i].dims
        results[i] = ReeResult(
            value=float(upper),
            lower_bound=float(lower),
            closest_state=DensityMatrix(_unpermute(sigma, dims, perm), dims),
            converged=bool(converged),
            iterations=int(iters),
            fw_gap=float(gap),
            path=path,
        )
    return results


def ree(rho: DensityMatrix, part: Bipartition, config: ReeConfig | None = None) -> ReeResult:
    """Certified REE bracket for `rho` (total dimension at most 16) across
    `part`, in bits; `ReeResult` describes the fields. A one-state call of
    `ree_many`: callers holding several states should pass them together.
    """
    return ree_many([rho], [part], config)[0]


# --------------------------------------------------------------------------
# Bell-diagonal closed form, the independent oracle for ree()


def ree_bell_diagonal(rho: DensityMatrix) -> float:
    """Closed-form REE for two-qubit states with maximally mixed marginals.

    Such states are local-unitary equivalent to Bell-diagonal states, for
    which REE = 1 - H2(lam_max) when the largest eigenvalue lam_max exceeds
    1/2 and 0 otherwise (Vedral-Plenio 1998: the closest separable state
    puts weight 1/2 on the top Bell state). H2 is the binary entropy; at
    rank 2 this equals 1 - S(rho). The spectrum and REE are local-unitary
    invariants, so checking the marginals is enough.
    """
    if rho.dims.dims != (2, 2):
        raise ValueError("need a two-qubit state")
    for label in rho.dims.labels:
        marg = partial_trace(rho, (label,)).data
        if np.max(np.abs(marg - np.eye(2) / 2)) > 1e-8:
            raise ValueError(
                f"marginal of {label!r} is not maximally mixed: "
                "state is not Bell-diagonal up to local unitaries"
            )
    lam_max = float(np.linalg.eigvalsh(rho.data)[-1])
    if lam_max <= 0.5:
        return 0.0
    q = 1.0 - lam_max
    return 1.0 + lam_max * math.log2(lam_max) + (q * math.log2(q) if q > 0 else 0.0)


# --------------------------------------------------------------------------
# discord as the one-way deficit


@dataclass
class DiscordConfig:
    """Budgets for the measurement-basis search; all non-negative integers,
    checked at construction.

    `grid` is the side of the (theta, phi) grid a measured qubit starts
    from, and `refine_maxiter` bounds the rounds of its finite-difference
    Newton refinement. A measured qutrit or ququart runs a gradient descent
    on U(d) from the identity and `unitary_starts` Haar-random bases, and
    `refine_maxiter` bounds its steps. `seed` seeds those random bases.
    """

    grid: int = 12
    seed: int = 0
    refine_maxiter: int = 400
    unitary_starts: int = 24  # only used for measured dimension > 2

    def __post_init__(self):
        _check_counts(self, ("grid", "seed", "refine_maxiter", "unitary_starts"))


# qubit search: half-width of the finite-difference stencil and longest
# step, in radians
STENCIL_H = 1e-4
MAX_ANGLE_STEP = 0.5
# either search stops a start whose step is shorter than this (radians, or
# norm of the U(d) generator)
ANGLE_TOL = 1e-10
# qudit search: Armijo constant, and the QUDIT_KEEP best starts go on after
# QUDIT_KEEP_AFTER steps
ARMIJO = 1e-4
QUDIT_KEEP = 4
QUDIT_KEEP_AFTER = 20


def _mediator_blocks(mat: np.ndarray, dims: tuple, k: int) -> np.ndarray:
    """The blocks <a|rho|b> on the other subsystems, shape (d, d, m, m), for
    measured subsystem k of dimension d."""
    n, d = len(dims), dims[k]
    m = mat.shape[0] // d
    return np.moveaxis(mat.reshape(dims + dims), (k, n + k), (0, 1)).reshape(d, d, m, m)


def _rotated_blocks(r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Blocks <u_c|rho|u_c'>, shape (n, d, d, m, m), for each basis of a
    stack u (n, d, d) whose columns are the basis vectors; r comes from
    `_mediator_blocks`. The c = c' blocks make up the dephased state."""
    n, d = u.shape[0], u.shape[1]
    ut = u.transpose(0, 2, 1)
    w = ut.conj()[:, :, None, :, None] * ut[:, None, :, None, :]
    return (w.reshape(n * d * d, d * d) @ r.reshape(d * d, -1)).reshape(n, d, d, *r.shape[2:])


def _qubit_bases(angles: np.ndarray) -> np.ndarray:
    """Stack of Bloch bases, one per row (theta, phi) of `angles`; columns
    are the basis vectors."""
    c, s = np.cos(angles[:, 0] / 2), np.sin(angles[:, 0] / 2)
    e = np.exp(1j * angles[:, 1])
    return np.stack([np.stack([c, -e.conj() * s], 1), np.stack([e * s, c], 1)], 1)


def _qubit_search(r: np.ndarray, cfg: DiscordConfig) -> float:
    """Least entropy of the dephased state over Bloch bases, in bits.

    A half-angle grid (which contains the z and x bases exactly) in one
    stacked spectrum, then finite-difference Newton from its best point:
    each round evaluates a 3x3 stencil of half-width STENCIL_H around a
    trial point. A trial that lowers the value is taken, and its stencil
    gives the next step: Newton where the stencil Hessian is positive
    definite, a gradient step elsewhere, either no longer than
    MAX_ANGLE_STEP. A trial that does not lower it halves the step. Returns
    the least value met.
    """

    def values(angles):
        blocks = _rotated_blocks(r, _qubit_bases(angles))[:, [0, 1], [0, 1]]
        return spectrum_entropy_bits(np.linalg.eigvalsh(blocks).reshape(len(angles), -1))

    theta = np.linspace(0.0, np.pi / 2, cfg.grid)[1:]
    phi = np.linspace(0.0, 2 * np.pi, cfg.grid, endpoint=False)
    # every phi gives the z basis at theta = 0, so it is scored once, first
    grid = np.concatenate([np.zeros((1, 2)),
                           np.stack(np.meshgrid(theta, phi, indexing="ij"), -1).reshape(-1, 2)])
    f = values(grid)
    x, fx = grid[np.argmin(f)], f.min()
    best = fx
    stencil = STENCIL_H * np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)], float)
    step = np.zeros(2)
    for _ in range(cfg.refine_maxiter):
        trial = x + step
        fs = values(trial + stencil).reshape(3, 3)
        best = min(best, fs.min())
        if fs[1, 1] < fx or not step.any():  # the first round takes the start
            x, fx = trial, fs[1, 1]
            g = np.array([fs[2, 1] - fs[0, 1], fs[1, 2] - fs[1, 0]]) / (2 * STENCIL_H)
            hxy = (fs[2, 2] - fs[2, 0] - fs[0, 2] + fs[0, 0]) / 4
            hess = np.array([[fs[2, 1] - 2 * fs[1, 1] + fs[0, 1], hxy],
                             [hxy, fs[1, 2] - 2 * fs[1, 1] + fs[1, 0]]]) / STENCIL_H**2
            if hess[0, 0] > 0 and np.linalg.det(hess) > 0:
                step = -np.linalg.solve(hess, g)
            else:
                step = -g / max(np.abs(hess).max(), 1e-300)
            step *= min(1.0, MAX_ANGLE_STEP / max(np.linalg.norm(step), 1e-300))
        else:
            step = step / 2
        if np.linalg.norm(step) < ANGLE_TOL:
            break
    return best


def _entropy_and_gradient(r: np.ndarray, u: np.ndarray):
    """S(D_U(rho)) in bits and its gradient G on U(d), for each basis of a
    stack u (n, d, d): moving U to exp(-i eps H) U changes the entropy at
    the rate Tr(H G), with G = Tr_rest(i[ln D_U(rho), rho]) / ln 2 (D_U(rho)
    commutes with its log, and ln 0 counts as 0, as in the entropy)."""
    d = u.shape[1]
    rot = _rotated_blocks(r, u)
    w, v = np.linalg.eigh(rot[:, np.arange(d), np.arange(d)])
    logs = (v * np.log(np.where(w > ENTROPY_CUTOFF, w, 1.0))[:, :, None, :]) @ _dag(v)
    # entry (c, c') is Tr(ln B_c R_cc') - Tr(R_cc' ln B_c'), in the basis U
    comm = np.einsum("ncij,ncdji->ncd", logs, rot) - np.einsum("ncdij,ndji->ncd", rot, logs)
    g = u @ (1j * comm / LN2) @ _dag(u)
    return spectrum_entropy_bits(w.reshape(len(u), -1)), 0.5 * (g + _dag(g))


def _qudit_search(r: np.ndarray, d: int, cfg: DiscordConfig) -> float:
    """Least entropy of the dephased state over bases of a measured qudit,
    in bits, by Riemannian gradient descent on U(d).

    Every start steps along exp(i eps G) U, with G from
    `_entropy_and_gradient`. The starts, the identity and
    `cfg.unitary_starts` Haar-random bases, move in one stack. Each start
    halves its own eps until the Armijo test passes; after a step that did,
    the next eps is the Barzilai-Borwein length <s, s>/<s, y> of the step
    s = eps G and the gradient change y. After QUDIT_KEEP_AFTER steps the
    QUDIT_KEEP best starts go on, for at most `cfg.refine_maxiter` steps in
    all; a start stops once eps |G| is below ANGLE_TOL. Returns the least
    value met.
    """
    rng = np.random.default_rng(cfg.seed)
    z = rng.normal(size=(cfg.unitary_starts, d, d)) + 1j * rng.normal(size=(cfg.unitary_starts, d, d))
    q, tri = np.linalg.qr(z)
    phases = np.diagonal(tri, axis1=1, axis2=2)
    u = np.concatenate([np.eye(d, dtype=complex)[None], q * (phases / np.abs(phases))[:, None, :]])
    f, g = _entropy_and_gradient(r, u)
    best = f.min()
    eps = np.ones(len(f))
    live = np.arange(len(f))
    for it in range(cfg.refine_maxiter):
        if it == QUDIT_KEEP_AFTER:
            live = live[np.argsort(f[live], kind="stable")[:QUDIT_KEEP]]
        slope = np.einsum("nij,nji->n", g[live], g[live]).real
        go = eps[live] * np.sqrt(slope) > ANGLE_TOL
        live, slope = live[go], slope[go]
        if not live.size:
            break
        cand = hermitian_exp(-eps[live, None, None] * g[live], 1.0) @ u[live]
        fc, gc = _entropy_and_gradient(r, cand)
        best = min(best, fc.min())
        ok = fc <= f[live] - ARMIJO * eps[live] * slope
        a = live[ok]
        sy = eps[a] * np.einsum("nij,nji->n", g[a], g[a] - gc[ok]).real
        bb = eps[a] ** 2 * slope[ok] / np.where(sy > 0, sy, 1.0)
        eps[live[~ok]] *= 0.5
        eps[a] = np.where(sy > 0, bb, 2.0 * eps[a])
        u[a], f[a], g[a] = cand[ok], fc[ok], gc[ok]
    return best


def discord_deficit(
    rho: DensityMatrix, measured: str, config: DiscordConfig | None = None
) -> float:
    """One-way deficit: minimal entropy cost of dephasing `measured`.

    min over von Neumann bases of S(dephased rho) - S(rho), in bits,
    clamped to be nonnegative. A basis {u_c} is scored through the d
    diagonal blocks <u_c|rho|u_c> of the dephased state, whose spectra
    together are its spectrum, so a stack of bases costs one stacked
    eigensolve of (m, m) blocks, m = dim(rho) / d. A measured qubit starts
    from a (theta, phi) grid and refines its best point by finite-difference
    Newton; a measured qutrit or ququart runs a stacked gradient descent on
    U(d) from many starts (see `DiscordConfig` for the budgets).

    The value is the best basis found, so it is an upper estimate of the
    true minimum: a missed basis can only raise it. `check_relocation_bound`
    uses it on the side of its inequality that needs a lower bound.
    """
    cfg = config or DiscordConfig()
    k = rho.dims.index(measured)
    d = rho.dims.dims[k]
    if d > MAX_MEASURED_DIM:
        raise ValueError(f"measured dimension {d} exceeds {MAX_MEASURED_DIM}")
    r = _mediator_blocks(rho.data, rho.dims.dims, k)
    s = _qubit_search(r, cfg) if d == 2 else _qudit_search(r, d, cfg)
    return float(max(0.0, s - entropy_bits(rho.data[None])[0]))


# --------------------------------------------------------------------------
# inequality checkers


@dataclass(frozen=True)
class RelocationReport:
    """Both sides of the relocation inequality with optimizer uncertainty.

    `gap` is |E(probe1:rest) - E(probe2:rest)| from the bracket upper
    values; validity of the check uses `slack`, the summed bracket widths.
    `discord` is `discord_deficit`, the best basis found: an upper estimate
    on the side of the inequality that needs a lower bound, so `holds` is
    not certified there.
    """

    ree_first: ReeResult
    ree_second: ReeResult
    discord: float
    gap: float
    slack: float
    holds: bool
    converged: bool


def check_relocation_bound(
    rho: DensityMatrix,
    config: ReeConfig | None = None,
    discord_config: DiscordConfig | None = None,
) -> RelocationReport:
    """Check |E(A:BC) - E(AC:B)| <= D(AB|C) + slack on a tripartite state.

    The first two labels are the probes, the last one the mediator whose
    discord with the rest bounds how much entanglement a single interaction
    sweep can relocate between the two splits.

    Both REE sides are certified brackets, but the discord is the upper
    estimate of `discord_deficit`, used where a lower bound is needed: a
    missed basis makes the check easier to pass.
    """
    if len(rho.dims.labels) != 3:
        raise ValueError("need exactly three subsystems")
    a, b, c = rho.dims.labels
    cfg = config or ReeConfig()
    r1, r2 = ree_many([rho, rho], [Bipartition((a,), (b, c)), Bipartition((a, c), (b,))], cfg)
    disc = discord_deficit(rho, c, discord_config)
    gap = abs(r1.value - r2.value)
    slack = (r1.value - r1.lower_bound) + (r2.value - r2.lower_bound)
    return RelocationReport(
        ree_first=r1,
        ree_second=r2,
        discord=disc,
        gap=gap,
        slack=slack,
        holds=bool(gap <= disc + slack + 1e-9),
        converged=bool(r1.converged and r2.converged),
    )


@dataclass(frozen=True)
class PurityReport:
    """Initial-purity witness: entanglement above S_A(0)+S_B(0) needs a
    non-classical mediator."""

    bound: float
    e_ab_tau: float
    detected: bool

    @property
    def verdict(self) -> str:
        return "NONCLASSICAL_DETECTED" if self.detected else "NO_DETECTION"


def purity_criterion(rho0: DensityMatrix, e_ab_tau: float) -> PurityReport:
    """Compare achieved probe-probe entanglement against the purity bound.

    The bound S_A(0) + S_B(0) is computed from the marginals of the given
    initial state; detection requires exceeding it by more than 1e-6.
    """
    s_a = von_neumann_entropy(partial_trace(rho0, ("A",)))
    s_b = von_neumann_entropy(partial_trace(rho0, ("B",)))
    bound = s_a + s_b
    return PurityReport(
        bound=float(bound),
        e_ab_tau=float(e_ab_tau),
        detected=bool(e_ab_tau > bound + 1e-6),
    )
