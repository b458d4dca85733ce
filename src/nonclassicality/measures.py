"""Correlation quantifiers and the inequality checks built on them.

Three measures live here. Logarithmic negativity is cheap and exact.
Relative entropy of entanglement (REE) has no closed form, so it is
reported as a certified bracket: an upper bound from an explicit separable
mixture found by Frank-Wolfe over product ensembles, and a lower bound
from the PPT relaxation, min S(rho||sigma) over PPT states, solved by a
log-barrier Newton method. Its eigenvalue dual certificate is valid at any
positive definite point, so the lower edge is sound however far the solve
got; at the default budgets it closes the PPT problem to about 1e-7 bits.
The relative entropy of discord (one-way deficit) is minimized over von
Neumann bases on the measured subsystem.

There is one REE engine, `ree_many`. It brackets many states in lockstep:
every optimizer stage runs on (n, d, d) stacks, and a state that has
finished a stage leaves the stack or is masked out. Each state keeps its
own random generator, and stacked numpy linear algebra returns the same
bits per matrix as a single call, so a state's bracket is bit-identical
whatever else is in the batch; `ree` is the one-state call. There is no
option to turn the stacking off.

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
    _dag,
    dephase_axis,
    entropy_bits,
    hermitian_exp,
    partial_trace,
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


def _simplex_proj(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of `v` onto {w >= 0, sum w = 1}.

    Entries of -inf get weight 0 and leave the other entries' projection
    untouched.
    """
    n, k = v.shape
    desc = np.sort(v, axis=1)[:, ::-1]
    # threshold (cumsum - 1) / j at the last j where desc_j exceeds it
    q = (np.add.accumulate(desc, axis=1) - 1.0) / np.arange(1.0, k + 1)
    last = (k - 1) - (desc > q)[:, ::-1].argmax(axis=1)
    return np.maximum(v - q[np.arange(n), last][:, None], 0.0)


def _positive(x: np.ndarray) -> np.ndarray:
    """max(0.0, x) per entry, with Python's tie rule (a zero stays +0.0)."""
    return np.where(x > 0.0, x, 0.0)


# --------------------------------------------------------------------------
# REE upper bound: Frank-Wolfe over explicit product mixtures


@dataclass
class ReeConfig:
    """Optimizer budgets for the REE bracket.

    `max_iter`, `product_starts`, `product_rounds` and `weight_iters` bound
    the Frank-Wolfe upper edge; `descent_iters` is the number of Newton
    steps per problem of the barrier solve behind the lower edge. The
    defaults finish a dimension-8 bracket in about a second. Shrinking any
    budget loosens the bracket but never invalidates it.
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

    `closest_state` is the separable mixture achieving `value`; it is
    separable by construction (an explicit convex combination of product
    states), so `value` is a true upper bound regardless of convergence.
    `lower_bound` is the best weak-duality certificate over the PPT states
    met by the barrier-Newton solve, capped at `value`; it is a true lower
    bound at any budget.
    `fw_gap` is the final Frank-Wolfe stationarity gap of the upper search.
    """

    value: float
    lower_bound: float
    closest_state: DensityMatrix
    converged: bool
    iterations: int
    fw_gap: float


class _ProductEnsemble:
    """sigma = sum_k w_k |a_k b_k><a_k b_k| with columnwise product vectors."""

    def __init__(self, dl: int, dr: int):
        self.dl, self.dr = dl, dr
        self.vecs = np.zeros((dl * dr, 0), dtype=complex)
        self.w = np.zeros(0)

    def add(self, a: np.ndarray, b: np.ndarray, weight: float):
        v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        self.vecs = np.concatenate([self.vecs, v[:, None]], axis=1)
        self.w = np.append(self.w, weight)

    def prune(self, tol: float = 1e-11) -> bool:
        keep = self.w > tol
        if not keep.all():
            self.vecs = self.vecs[:, keep]
            self.w = self.w[keep] / self.w[keep].sum()
            return True
        return False

    def cap(self, kmax: int) -> bool:
        if self.vecs.shape[1] > kmax:
            order = np.argsort(self.w)[::-1][:kmax]
            self.vecs = self.vecs[:, order]
            self.w = self.w[order] / self.w[order].sum()
            return True
        return False


def _atom_groups(vecs: list):
    """Problems sorted by atom count, for products over atoms.

    Returns (order, sizes, groups): the i-th problem in sorted order is
    order[i] and has sizes[i] atoms; each group (lo, hi, k, v, vh) covers
    the sorted positions lo..hi-1, which share k atoms, with their atom
    vectors stacked in v and their adjoints in vh. Products are stacked
    only within a group, because a zero-padded product is not bit-equal.
    """
    sizes = np.array([v.shape[1] for v in vecs])
    order = np.argsort(sizes, kind="stable")
    sizes = sizes[order]
    cuts = [0, *(np.flatnonzero(np.diff(sizes)) + 1), len(vecs)]
    groups = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        v = np.stack([vecs[order[i]] for i in range(lo, hi)])
        groups.append((lo, hi, sizes[lo], v, _dag(v)))
    return order, sizes, groups


def _padded(rows: list, order: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The rows in sorted order, zero-padded into one array."""
    out = np.zeros((len(rows), sizes[-1]))
    out[np.arange(sizes[-1]) < sizes[:, None]] = np.concatenate([rows[i] for i in order])
    return out


def _group_mixtures(groups, w) -> np.ndarray:
    """sum_k w_k |v_k><v_k| per problem, stacked in sorted order; `w` holds
    one padded weight row per problem."""
    return np.concatenate([(v * w[lo:hi, None, :k]) @ vh for lo, hi, k, v, vh in groups])


def _select_groups(groups, rows) -> list:
    """The atom groups of the problems at sorted positions `rows`
    (ascending), renumbered 0..len(rows)-1 in that order."""
    out = []
    for lo, hi, k, v, vh in groups:
        a, b = rows.searchsorted((lo, hi))
        if a < b:
            sel = rows[a:b] - lo
            out.append((a, b, k, v[sel], vh[sel]))
    return out


def _mixtures(ens: list) -> np.ndarray:
    """(n, d, d) stack of the ensembles' mixtures, in the given order."""
    order, sizes, groups = _atom_groups([e.vecs for e in ens])
    sig = _group_mixtures(groups, _padded([e.w for e in ens], order, sizes))
    return sig[np.argsort(order)]


def _reoptimize_weights(ens, rho, t1, f0, eig, iters):
    """Fully corrective step: projected gradient on the simplex with Armijo.

    Runs every problem of the stack in lockstep until it stops improving.
    Steps are measured against the gradient's sup norm; near-singular
    ensembles make the raw gradient arbitrarily large and absolute steps
    would backtrack forever without moving. `eig` holds the eigenpairs of
    the current mixtures. Sets each ensemble's weights and returns the
    values and eigenpairs of the final mixtures.

    Each Armijo trial is evaluated for every row under trial, and a mask
    picks the rows that take it. A line search starts on the whole stack,
    problems that stopped improving masked out; once some rows have taken
    a step it goes on with the rows still backtracking only, so rows are
    gathered only when that set changes.

    Problems are sorted by atom count. Products over atoms run per count,
    because a zero-padded product is not bit-equal. The weight rows share
    one array; its padding has gradient +inf, so every trial point is -inf
    there and stays out of the simplex projection.
    """
    n = len(ens)
    order, sizes, groups = _atom_groups([e.vecs for e in ens])
    w = _padded([e.w for e in ens], order, sizes)
    rho, t1, f = rho[order], t1[order], f0[order]
    lam, u = eig[0][order], eig[1][order]
    x = np.full(w.shape, np.inf)
    step = np.ones((n, 1))
    going = np.ones(n, dtype=bool)  # not yet stopped improving
    for _ in range(iters):
        if not going.any():
            break
        g = _grad_log_term(lam, u, rho)
        for lo, hi, k, v, vh in groups:
            xg = -np.einsum("ndk,ndk->nk", vh.swapaxes(1, 2), g[lo:hi] @ v).real / LN2
            x[lo:hi, :k] = xg / np.maximum(1.0, np.abs(xg).max(axis=1, keepdims=True))
        rows, pending, sub = np.arange(n), going.copy(), groups
        wr, xr, sr, tr, rr, fr = w, x, step.copy(), t1, rho, f
        for _ in range(25):
            w2 = _simplex_proj(wr - sr * xr)
            lam2, u2 = np.linalg.eigh(_group_mixtures(sub, w2))
            f2 = _rel_ent_bits(tr, rr, lam2, u2)
            ok = pending & (f2 < fr - 1e-13)
            acc = rows[ok]
            w[acc], f[acc], lam[acc], u[acc] = w2[ok], f2[ok], lam2[ok], u2[ok]
            step[acc] = np.minimum(sr[ok] * 1.5, 20.0)
            pending &= ~ok
            if not pending.any():
                break
            if ok.any():  # go on with the rows still backtracking
                rows, sub = rows[pending], _select_groups(groups, rows[pending])
                wr, xr, sr, tr, rr, fr = (a[pending] for a in (wr, xr, sr, tr, rr, fr))
                pending = np.ones(rows.size, dtype=bool)
            sr = sr * 0.4
        going[rows[pending]] = False
    for i, size, row in zip(order, sizes, w):
        ens[i].w = row[:size]
    back = np.argsort(order)
    return f[back], (lam[back], u[back])


def _schmidt_split(vec: np.ndarray, dl: int, dr: int):
    """(left vector, right vector, squared coefficient) per Schmidt term."""
    ua, s, vb = np.linalg.svd(vec.reshape(dl, dr))
    return [(ua[:, i], vb[i, :], s[i] ** 2) for i in range(len(s)) if s[i] > 1e-8]


def _best_product(g, ens, rngs, n_starts, rounds):
    """max <a x b| g |a x b> per problem, by alternating top-eigenvector sweeps.

    Local search; used both to grow the ensemble and to estimate the FW
    stationarity gap. Each problem draws its random starts from its own
    generator and adds its two heaviest atoms as starts, so a converged
    ensemble reproduces its own atoms instead of oscillating. Problems
    sharing (dl, dr) and their number of starts sweep in one stack.
    Returns the values and the maximizing (a, b) per problem.
    """
    starts, kinds = [], {}
    for j, (e, rng) in enumerate(zip(ens, rngs)):
        a = rng.normal(size=(n_starts, e.dl)) + 1j * rng.normal(size=(n_starts, e.dl))
        b = rng.normal(size=(n_starts, e.dr)) + 1j * rng.normal(size=(n_starts, e.dr))
        for k in np.argsort(e.w)[-2:]:
            ua, _, vb = np.linalg.svd(e.vecs[:, k].reshape(e.dl, e.dr))
            a = np.concatenate([a, ua[:, 0][None, :]])
            b = np.concatenate([b, vb[0, :].conj()[None, :]])
        starts.append((a, b))
        kinds.setdefault((e.dl, e.dr, len(a)), []).append(j)
    val, found = np.empty(len(ens)), [None] * len(ens)
    for (dl, dr, _), js in kinds.items():
        gt = g[js].reshape(len(js), dl, dr, dl, dr)
        a = np.stack([starts[j][0] for j in js])
        b = np.stack([starts[j][1] for j in js])
        a /= np.linalg.norm(a, axis=2, keepdims=True)
        b /= np.linalg.norm(b, axis=2, keepdims=True)
        for _ in range(rounds):
            ma = np.einsum("nijkl,nsj,nsl->nsik", gt, b.conj(), b)
            a = np.linalg.eigh(ma)[1][:, :, :, -1]
            mb = np.einsum("nijkl,nsi,nsk->nsjl", gt, a.conj(), a)
            wb, vb = np.linalg.eigh(mb)
            b = vb[:, :, :, -1]
        top = np.argmax(wb[:, :, -1], axis=1)
        for j, t, wj, aj, bj in zip(js, top, wb, a, b):
            val[j], found[j] = wj[t, -1], (aj[t], bj[t])
    return val, found


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


def _ree_upper(rho, split, t1, cfg: ReeConfig):
    """Frank-Wolfe minimization of S(rho||sigma) over product mixtures.

    `rho` is an (n, d, d) stack and `split` its (dl, dr) per problem; each
    problem draws from its own generator seeded with `cfg.seed`. Returns
    the final FW gap in bits, the iteration count and the separable sigma
    of each problem. The initial ensemble dephases every eigenvector of
    rho in its Schmidt basis, which already solves pure inputs exactly.
    """
    n = rho.shape[0]
    rngs = [np.random.default_rng(cfg.seed) for _ in range(n)]
    ens = [_ProductEnsemble(dl, dr) for dl, dr in split]
    for e, wr, vr in zip(ens, *np.linalg.eigh(rho)):
        for i in range(len(wr)):
            if wr[i] > 1e-10:
                for a, b, s2 in _schmidt_split(vr[:, i], e.dl, e.dr):
                    e.add(a, b, wr[i] * s2)
        e.w = e.w / e.w.sum()
    eig = np.linalg.eigh(_mixtures(ens))
    f, (lam, u) = _reoptimize_weights(ens, rho, t1, _rel_ent_bits(t1, rho, *eig), eig,
                                      cfg.weight_iters)

    gap = np.full(n, math.inf)
    iters = np.zeros(n, dtype=int)
    stale = np.zeros(n, dtype=bool)  # (lam, u) no longer that of the ensemble
    active = np.arange(n)
    for it in range(1, cfg.max_iter + 1):
        iters[active] = it
        sig = _mixtures([ens[i] for i in active])
        redo = stale[active]
        if redo.any():
            lam[active[redo]], u[active[redo]] = np.linalg.eigh(sig[redo])
            stale[active] = False
        val, found = _best_product(_grad_log_term(lam[active], u[active], rho[active]),
                                   [ens[i] for i in active], [rngs[i] for i in active],
                                   cfg.product_starts, cfg.product_rounds)
        gap[active] = np.maximum(val - 1.0, 0.0) / LN2  # Tr(sigma G) = 1 exactly
        going = ~(gap[active] < cfg.gap_tol)
        active, sig = active[going], sig[going]
        if not active.size:
            break
        found = [ab for ab, keep in zip(found, going) if keep]
        pi = np.stack([np.outer(v, v.conj()) for v in (np.kron(a, b) for a, b in found)])
        tb, f_new = _line_search(t1[active], rho[active], sig, pi)
        better = f_new < f[active]
        for j in np.flatnonzero(better):
            e = ens[active[j]]
            e.w = e.w * (1 - tb[j])
            e.add(*found[j], tb[j])
        grown = active[better]
        if grown.size:
            f[grown] = f_new[better]
            lam[grown], u[grown] = np.linalg.eigh(_mixtures([ens[i] for i in grown]))
        f[active], (lam[active], u[active]) = _reoptimize_weights(
            [ens[i] for i in active], rho[active], t1[active], f[active],
            (lam[active], u[active]), cfg.weight_iters)
        for i in active:
            e = ens[i]
            stale[i] = e.prune() | e.cap((e.dl * e.dr) ** 2)
    return gap, iters, _mixtures(ens)


# --------------------------------------------------------------------------
# REE lower bound: a log-barrier Newton solve over PPT states

# growth of the barrier weight per centering stage, and the stopping rules
# of `_ree_lower`: gap closed (bits), and stage gain over gap (stall)
BARRIER_GROWTH = 16.0
LOWER_GAP_TOL = 1e-7
STALL_SHARE = 0.01


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


def _sandwich(a) -> np.ndarray:
    """Matrix of X -> a X a on row-major vec(X), for each Hermitian a."""
    n, d = a.shape[0], a.shape[1]
    return (a[:, :, None, :, None] * a.conj()[:, None, :, None, :]).reshape(n, d * d, d * d)


def _newton_step(lam, u, rho, g, r_inv, pt, t):
    """Newton step of t (-Tr rho ln sigma) - ln det sigma - ln det sigma^Gamma
    over trace-one sigma = u lam u^H, and its slope, per problem.

    `g` is `_grad_log_term` at sigma, `r_inv` = (sigma^Gamma)^-1. The Hessian
    on row-major vec(sigma) has a Daleckii-Krein part and two sandwiches; one
    batched solve with two right-hand sides keeps the step trace-free.
    """
    n, d = lam.shape[0], lam.shape[1]
    uh = _dag(u)
    # relative-entropy Hessian: column blocks in the eigenbasis of sigma,
    # rotated back, plus the adjoint-transposed half
    c = u[:, None] @ (-(uh @ rho @ u)[:, None] * _log_second_dd(lam)) @ uh[:, None]
    y = (u.conj()[:, :, None, :] * u[:, None, :, :]).reshape(n, d * d, d)
    h = (y @ c.reshape(n, d, d * d)).reshape(n, d, d, d, d).transpose(0, 3, 1, 4, 2)
    h = h.reshape(n, d * d, d * d)
    tp = np.arange(d * d).reshape(d, d).T.reshape(-1)
    s_inv = (u / lam[:, None, :]) @ uh
    rows = np.arange(n)[:, None, None]
    h = (t[:, None, None] * (h + h[:, tp][:, :, tp].conj()) + _sandwich(s_inv)
         + _sandwich(r_inv)[rows, pt[:, :, None], pt[:, None, :]])
    grad = -t[:, None, None] * g - s_inv - _ptrans(r_inv, _pt_gather(pt))
    # dropping the trace part changes no step and keeps the solve well scaled
    grad = grad - (np.trace(grad, axis1=1, axis2=2).real / d)[:, None, None] * np.eye(d)
    scale = np.sqrt(np.diagonal(h, axis1=1, axis2=2).real)[:, :, None]
    rhs = np.stack([grad.reshape(n, d * d), np.broadcast_to(np.eye(d).ravel(), (n, d * d))], 2)
    sol = np.linalg.solve(h / scale / scale.swapaxes(1, 2), rhs / scale) / scale
    tr = sol.reshape(n, d, d, 2).trace(axis1=1, axis2=2).real
    step = -(sol[:, :, 0] - (tr[:, 0] / tr[:, 1])[:, None] * sol[:, :, 1]).reshape(n, d, d)
    step = 0.5 * (step + _dag(step))
    return step, np.einsum("nij,nji->n", grad, step).real


def _ree_lower(rho, pt, t1, upper, cfg: ReeConfig):
    """Certified lower bound on REE through the PPT relaxation, per problem.

    min S(rho||sigma) over PPT states (Rains 2001) is smooth and convex; a
    log-barrier method (Boyd & Vandenberghe, ch. 11) takes damped Newton
    steps from sigma = I/d and raises t once sigma is centered (certificate
    within 1.5 times the barrier's 2d/t of f). At every point,
    REE >= f(sigma) - <W, sigma> + lambda_min(W - Q^Gamma), W = grad f, for
    any sigma > 0 and Q >= 0 (weak duality); Q = (sigma^Gamma)^-1 / (t ln 2)
    is the barrier's dual estimate, so the bound is sound whether or not
    Newton converged. A problem keeps its best bound and stops once f or
    `upper` is within LOWER_GAP_TOL of it, once a stage raised it by less
    than STALL_SHARE of that gap, or after `cfg.descent_iters` Newton steps.
    `pt` holds each problem's `_pt_index`.
    """
    n, d = rho.shape[0], rho.shape[1]
    sigma = np.broadcast_to(np.eye(d, dtype=complex) / d, (n, d, d)).copy()
    u, lam = sigma * d, np.full((n, d), 1.0 / d)
    v, mu = u.copy(), lam.copy()
    f = _rel_ent_bits(t1, rho, lam, u)
    logdet = 2 * d * np.log(lam[:, 0])  # ln det sigma + ln det sigma^Gamma
    t = np.ones(n)  # barrier weight
    best = np.full(n, -np.inf)
    stage_start = best.copy()
    active = np.arange(n)
    for it in range(cfg.descent_iters + 1):
        ix = active
        g = _grad_log_term(lam[ix], u[ix], rho[ix])
        r_inv = (v[ix] / mu[ix][:, None, :]) @ _dag(v[ix])
        w = -g / LN2
        q_pt = _ptrans(r_inv, _pt_gather(pt[ix])) / (t[ix] * LN2)[:, None, None]
        cert = (f[ix] - np.einsum("nij,nji->n", w, sigma[ix]).real
                + np.linalg.eigvalsh(w - q_pt)[:, 0])
        best[ix] = np.fmax(best[ix], cert)
        going = (f[ix] - best[ix] > LOWER_GAP_TOL) & (upper[ix] - best[ix] > LOWER_GAP_TOL)
        if it == cfg.descent_iters or not going.any():
            break
        ix = active = ix[going]
        g, r_inv, cert = g[going], r_inv[going], cert[going]
        step, slope = _newton_step(lam[ix], u[ix], rho[ix], g, r_inv, pt[ix], t[ix])
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
    return _positive(best)


def ree_many(
    states: Sequence[DensityMatrix],
    parts: Sequence[Bipartition],
    config: ReeConfig | None = None,
) -> list[ReeResult]:
    """Certified REE brackets for many states, in bits, in one lockstep run.

    This is the only REE engine. Problems of equal total dimension run
    each optimizer stage together on (n, d, d) stacks, and a problem that
    has finished a stage drops out of the stack or is masked out. Each
    problem keeps its own generator seeded with `config.seed` and its own
    order of draws, and stacked linear algebra gives the same bits per
    matrix as single calls, so every result is bit-identical to a call
    with that state alone, whatever else is in the batch.

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
    by_dim: dict[int, list] = {}
    for i, (rho, part) in enumerate(zip(states, parts)):
        m, dl, dr, perm = _permute_bipartite(rho, part)
        if min(dl, dr) == 1:
            # one-sided partition: nothing to entangle
            results[i] = ReeResult(0.0, 0.0, rho, True, 0, 0.0)
        else:
            by_dim.setdefault(dl * dr, []).append((i, m, (dl, dr), perm))

    for d, group in by_dim.items():
        index, ms, split, perms = zip(*group)
        rho = np.stack(ms)
        t1 = _neg_entropy_nat(rho)
        gap, iters, sigma = _ree_upper(rho, split, t1, cfg)
        # tiny maximally mixed admixture keeps the support full without
        # disturbing separability; value is recomputed on the blended state
        sigma = (1.0 - 1e-9) * sigma + 1e-9 * np.eye(d) / d
        upper = _positive(_rel_ent_bits(t1, rho, *np.linalg.eigh(sigma)))
        lower = _ree_lower(rho, np.stack([_pt_index(*s) for s in split]), t1, upper, cfg)
        lower = np.where(upper < lower, upper, lower)
        for j, i in enumerate(index):
            dims = states[i].dims
            # either stationarity of the upper search or a bracket already
            # tighter than the advertised resolution counts as converged;
            # wide brackets on a stalled search are reported, never hidden
            converged = gap[j] < cfg.gap_tol or (upper[j] - lower[j]) <= cfg.bracket_tol
            results[i] = ReeResult(
                value=float(upper[j]),
                lower_bound=float(lower[j]),
                closest_state=DensityMatrix(_unpermute(sigma[j], dims, perms[j]), dims),
                converged=bool(converged),
                iterations=int(iters[j]),
                fw_gap=float(gap[j]),
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
    checked at construction."""

    grid: int = 12
    seed: int = 0
    refine_maxiter: int = 400
    unitary_starts: int = 24  # only used for measured dimension > 2

    def __post_init__(self):
        _check_counts(self, ("grid", "seed", "refine_maxiter", "unitary_starts"))


def _qubit_basis(theta: float, phi: float) -> np.ndarray:
    """Columns are the Bloch basis at polar angle theta, azimuth phi."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array(
        [[c, -np.exp(-1j * phi) * s], [np.exp(1j * phi) * s, c]], dtype=complex
    )


def _unitary_from_params(params: np.ndarray, d: int) -> np.ndarray:
    """d^2 real parameters -> unitary, via a Hermitian generator."""
    h = np.zeros((d, d), dtype=complex)
    h[np.diag_indices(d)] = params[:d]
    k = d
    for i in range(d):
        for j in range(i + 1, d):
            h[i, j] = params[k] + 1j * params[k + 1]
            h[j, i] = params[k] - 1j * params[k + 1]
            k += 2
    return hermitian_exp(h, 1.0)


def discord_deficit(
    rho: DensityMatrix, measured: str, config: DiscordConfig | None = None
) -> float:
    """One-way deficit: minimal entropy cost of dephasing `measured`.

    min over von Neumann bases of S(dephased rho) - S(rho), in bits,
    clamped to be nonnegative. For a measured qubit the basis is a point
    on the Bloch sphere: a half-angle grid (which contains the z and x
    bases exactly) followed by Nelder-Mead refinement. Larger measured
    dimensions (up to 4) use multi-start refinement over a Hermitian
    generator parameterization.
    """
    # imported here: scipy.optimize costs about 0.1 s, and only discord needs it
    from scipy.optimize import minimize

    cfg = config or DiscordConfig()
    k = rho.dims.index(measured)
    d = rho.dims.dims[k]
    if d > MAX_MEASURED_DIM:
        raise ValueError(f"measured dimension {d} exceeds {MAX_MEASURED_DIM}")
    dims = rho.dims.dims
    mat = rho.data
    s0 = entropy_bits(mat[None])[0]

    def deficit_qubit(angles) -> float:
        theta, phi = angles
        return entropy_bits(dephase_axis(mat, dims, k, _qubit_basis(theta, phi))[None])[0] - s0

    if d == 2:
        best, best_angles = math.inf, (0.0, 0.0)
        grid = [(theta, phi) for theta in np.linspace(0.0, np.pi / 2, cfg.grid)
                for phi in np.linspace(0.0, 2 * np.pi, cfg.grid, endpoint=False)]
        if grid:  # the whole grid in one stacked eigvalsh
            bases = np.array([_qubit_basis(theta, phi) for theta, phi in grid])
            for angles, s in zip(grid, entropy_bits(dephase_axis(mat, dims, k, bases))):
                if s - s0 < best:
                    best, best_angles = s - s0, angles
        res = minimize(
            deficit_qubit,
            np.asarray(best_angles),
            method="Nelder-Mead",
            options={
                "xatol": 1e-9,
                "fatol": 1e-12,
                "maxiter": cfg.refine_maxiter,
            },
        )
        best = min(best, float(res.fun))
        return float(max(0.0, best))

    # measured qutrit/ququart: multi-start over unitary generators
    rng = np.random.default_rng(cfg.seed)
    n_par = d * d

    def deficit_unitary(params) -> float:
        u = _unitary_from_params(np.asarray(params), d)
        return entropy_bits(dephase_axis(mat, dims, k, u)[None])[0] - s0

    best = math.inf
    starts = [np.zeros(n_par)]  # identity start: computational basis
    starts += [rng.uniform(-np.pi, np.pi, size=n_par) for _ in range(cfg.unitary_starts)]
    for x0 in starts:
        res = minimize(
            deficit_unitary,
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-7, "fatol": 1e-10, "maxiter": 6 * cfg.refine_maxiter},
        )
        best = min(best, float(res.fun))
    return float(max(0.0, best))


# --------------------------------------------------------------------------
# inequality checkers


@dataclass(frozen=True)
class RelocationReport:
    """Both sides of the relocation inequality with optimizer uncertainty.

    `gap` is |E(probe1:rest) - E(probe2:rest)| from the bracket upper
    values; validity of the check uses `slack`, the summed bracket widths.
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
    """
    if len(rho.dims.labels) != 3:
        raise ValueError("need exactly three subsystems")
    if rho.dims.total > MAX_REE_DIM:
        raise ValueError(f"total dimension {rho.dims.total} exceeds {MAX_REE_DIM}")
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
