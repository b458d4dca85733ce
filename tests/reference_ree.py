"""The single-state REE engine as it was before the lockstep engine.

A verbatim copy, kept as the reference that the Frank-Wolfe upper edge of
`ree` and `ree_many` must match bit for bit: value, iteration count, gap
and closest state. Its lower edge is the projected PPT descent with a
Dykstra projection and an ADMM witness that the package has since
replaced; their budgets, no longer `ReeConfig` fields, are arguments of
`ree` here. Only the imports, those two arguments and the result's
`path` field (this engine always runs Frank-Wolfe) differ; the
configuration and result types are the package's own.
"""

from __future__ import annotations

import math

import numpy as np

from nonclassicality.core import DensityMatrix, SystemDims
from nonclassicality.measures import Bipartition, ReeConfig, ReeResult

LN2 = math.log(2.0)

MAX_REE_DIM = 16


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


def _ptrans(m: np.ndarray, dl: int, dr: int) -> np.ndarray:
    """Partial transpose of the right factor of a dl x dr bipartite matrix."""
    return np.swapaxes(m.reshape(dl, dr, dl, dr), 1, 3).reshape(dl * dr, dl * dr)



# --------------------------------------------------------------------------
# relative entropy machinery (natural-log internals, converted at the edges)


def _neg_entropy_nat(rho: np.ndarray) -> float:
    """Tr rho ln rho over the support."""
    w = np.linalg.eigvalsh(rho)
    w = w[w > 1e-12]
    return float(np.sum(w * np.log(w)))


def _rel_ent_bits(t1: float, rho: np.ndarray, sigma: np.ndarray, floor=1e-15) -> float:
    """S(rho||sigma) in bits given t1 = Tr rho ln rho, sigma floored PD."""
    lam, u = np.linalg.eigh(sigma)
    lam = np.maximum(lam, floor)
    diag = np.real(np.einsum("ij,ji->i", u.conj().T @ rho, u))
    return (t1 - float(diag @ np.log(lam))) / LN2


def _grad_log_term(sigma: np.ndarray, rho: np.ndarray, floor=1e-14) -> np.ndarray:
    """Divided-difference (Daleckii-Krein) gradient of Tr[rho ln sigma].

    Returns G >= 0 with Tr(sigma G) = Tr(rho); the descent directions of
    S(rho||sigma) in sigma are -G up to the log-base constant.
    """
    lam, u = np.linalg.eigh(sigma)
    lam = np.maximum(lam, floor)
    a = u.conj().T @ rho @ u
    dl = lam[:, None] - lam[None, :]
    ll = np.log(lam)
    mid = 2.0 / (lam[:, None] + lam[None, :])
    near = np.abs(dl) < 1e-12 * np.maximum(lam[:, None], lam[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(near, mid, (ll[:, None] - ll[None, :]) / np.where(near, 1.0, dl))
    g = u @ (a * phi) @ u.conj().T
    return 0.5 * (g + g.conj().T)


def _simplex_proj(v: np.ndarray, total: float = 1.0) -> np.ndarray:
    """Euclidean projection onto {w >= 0, sum w = total}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    idx = np.arange(1, len(v) + 1)
    k = idx[u - css / idx > 0][-1]
    return np.maximum(v - css[k - 1] / k, 0.0)


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

    def sigma(self, w: np.ndarray | None = None) -> np.ndarray:
        w = self.w if w is None else w
        return (self.vecs * w) @ self.vecs.conj().T

    def overlaps(self, g: np.ndarray) -> np.ndarray:
        return np.real(np.einsum("dk,dk->k", self.vecs.conj(), g @ self.vecs))

    def prune(self, tol: float = 1e-11):
        keep = self.w > tol
        if not keep.all():
            self.vecs = self.vecs[:, keep]
            self.w = self.w[keep] / self.w[keep].sum()

    def cap(self, kmax: int):
        if self.vecs.shape[1] > kmax:
            order = np.argsort(self.w)[::-1][:kmax]
            self.vecs = self.vecs[:, order]
            self.w = self.w[order] / self.w[order].sum()


def _reoptimize_weights(ens, rho, t1, f0, iters):
    """Fully corrective step: projected gradient on the simplex with Armijo.

    Steps are measured against the gradient's sup norm; near-singular
    ensembles make the raw gradient arbitrarily large and absolute steps
    would backtrack forever without moving.
    """
    w, f, step = ens.w.copy(), f0, 1.0
    for _ in range(iters):
        g = -ens.overlaps(_grad_log_term(ens.sigma(w), rho)) / LN2
        g = g / max(1.0, float(np.max(np.abs(g))))
        s, improved = step, False
        for _ in range(25):
            w2 = _simplex_proj(w - s * g)
            f2 = _rel_ent_bits(t1, rho, ens.sigma(w2))
            if f2 < f - 1e-13:
                w, f, step, improved = w2, f2, min(s * 1.5, 20.0), True
                break
            s *= 0.4
        if not improved:
            break
    return w, f


def _schmidt_split(vec: np.ndarray, dl: int, dr: int):
    """(left vector, right vector, squared coefficient) per Schmidt term."""
    ua, s, vb = np.linalg.svd(vec.reshape(dl, dr))
    return [(ua[:, i], vb[i, :], s[i] ** 2) for i in range(len(s)) if s[i] > 1e-8]


def _best_product(g, dl, dr, rng, n_starts, rounds, seed_pairs=()):
    """max <a x b| g |a x b> by batched alternating top-eigenvector sweeps.

    Local search; used both to grow the ensemble and to estimate the FW
    stationarity gap. Seeded with the current heaviest atoms so a converged
    ensemble reproduces its own atoms instead of oscillating.
    """
    gt = g.reshape(dl, dr, dl, dr)
    a = rng.normal(size=(n_starts, dl)) + 1j * rng.normal(size=(n_starts, dl))
    b = rng.normal(size=(n_starts, dr)) + 1j * rng.normal(size=(n_starts, dr))
    for sa, sb in seed_pairs:
        a = np.concatenate([a, sa[None, :]])
        b = np.concatenate([b, sb[None, :]])
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    wb = None
    for _ in range(rounds):
        ma = np.einsum("ijkl,sj,sl->sik", gt, b.conj(), b)
        _, va = np.linalg.eigh(ma)
        a = va[:, :, -1]
        mb = np.einsum("ijkl,si,sk->sjl", gt, a.conj(), a)
        wb, vb = np.linalg.eigh(mb)
        b = vb[:, :, -1]
    j = int(np.argmax(wb[:, -1]))
    return float(wb[j, -1]), a[j], b[j]


def _ree_upper(rho, dl, dr, cfg: ReeConfig):
    """Frank-Wolfe minimization of S(rho||sigma) over product mixtures.

    Returns (value_bits, fw_gap_bits, iterations, sigma). The initial
    ensemble dephases every eigenvector of rho in its Schmidt basis, which
    already solves pure inputs exactly.
    """
    rng = np.random.default_rng(cfg.seed)
    t1 = _neg_entropy_nat(rho)
    ens = _ProductEnsemble(dl, dr)
    wr, vr = np.linalg.eigh(rho)
    for i in range(len(wr)):
        if wr[i] > 1e-10:
            for a, b, s2 in _schmidt_split(vr[:, i], dl, dr):
                ens.add(a, b, wr[i] * s2)
    ens.w = ens.w / ens.w.sum()
    f = _rel_ent_bits(t1, rho, ens.sigma())
    ens.w, f = _reoptimize_weights(ens, rho, t1, f, cfg.weight_iters)

    gap = math.inf
    it = 0
    for it in range(1, cfg.max_iter + 1):
        g = _grad_log_term(ens.sigma(), rho)
        heavy = np.argsort(ens.w)[-2:]
        seeds = []
        for k in heavy:
            m = ens.vecs[:, k].reshape(dl, dr)
            ua, _, vb = np.linalg.svd(m)
            seeds.append((ua[:, 0], vb[0, :].conj()))
        val, a, b = _best_product(
            g, dl, dr, rng, cfg.product_starts, cfg.product_rounds, seeds
        )
        gap = max(val - 1.0, 0.0) / LN2  # Tr(sigma G) = 1 exactly
        if gap < cfg.gap_tol:
            break
        v = np.kron(a, b)
        pi = np.outer(v, v.conj())
        sig = ens.sigma()
        # coarse geometric sweep then ternary refinement of the FW step
        ts = np.geomspace(1e-3, 0.9, 10)
        fs = [_rel_ent_bits(t1, rho, (1 - t) * sig + t * pi) for t in ts]
        jb = int(np.argmin(fs))
        lo = ts[jb - 1] if jb > 0 else 0.0
        hi = ts[jb + 1] if jb + 1 < len(ts) else 0.95
        for _ in range(14):
            m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
            f1 = _rel_ent_bits(t1, rho, (1 - m1) * sig + m1 * pi)
            f2 = _rel_ent_bits(t1, rho, (1 - m2) * sig + m2 * pi)
            if f1 < f2:
                hi = m2
            else:
                lo = m1
        tb = 0.5 * (lo + hi)
        f_new = _rel_ent_bits(t1, rho, (1 - tb) * sig + tb * pi)
        if f_new < f:
            ens.w = ens.w * (1 - tb)
            ens.add(a, b, tb)
            f = f_new
        ens.w, f = _reoptimize_weights(ens, rho, t1, f, cfg.weight_iters)
        ens.prune()
        ens.cap((dl * dr) ** 2)
    return f, gap, it, ens.sigma()


# --------------------------------------------------------------------------
# REE lower bound: PPT relaxation with a dual eigenvalue certificate


def _proj_psd(m):
    w, v = np.linalg.eigh(m)
    return (v * np.maximum(w, 0.0)) @ v.conj().T


def _proj_density(m):
    """Nearest trace-one PSD matrix (spectral simplex projection)."""
    w, v = np.linalg.eigh(m)
    return (v * _simplex_proj(w)) @ v.conj().T


def _proj_ppt_cone(m, dl, dr):
    return _ptrans(_proj_psd(_ptrans(m, dl, dr)), dl, dr)


def _dykstra_ppt_density(m, dl, dr, iters):
    """Alternating projections with corrections onto PPT density matrices."""
    x = m.copy()
    p = np.zeros_like(m)
    q = np.zeros_like(m)
    for _ in range(iters):
        y = _proj_density(x + p)
        p = x + p - y
        x = _proj_ppt_cone(y + q, dl, dr)
        q = y + q - x
    return 0.5 * (x + x.conj().T)


def _admm_linear_ppt(w_mat, dl, dr, iters):
    """min <W, tau> over PPT states, exporting a dual witness.

    The scaled dual variable u recovers Q = proj_psd(-(t u)^Gamma); then
    lambda_min(W - Q^Gamma) lower-bounds the optimum over all PPT states,
    for any Q >= 0, by weak duality. Soundness does not depend on ADMM
    having converged.
    """
    d = dl * dr
    t_pen = float(np.max(np.abs(np.linalg.eigvalsh(w_mat)))) / 4 + 1e-12
    z = np.eye(d, dtype=complex) / d
    u = np.zeros_like(z)
    for _ in range(iters):
        x = _proj_density(z - u - w_mat / t_pen)
        z = _proj_ppt_cone(x + u, dl, dr)
        u = u + x - z
    return _proj_psd(-_ptrans(t_pen * u, dl, dr))


def _ree_lower(rho, dl, dr, cfg: ReeConfig, warm: np.ndarray | None, dykstra_iters, admm_iters):
    """Certified lower bound on REE through the PPT relaxation.

    Projected gradient minimizes S(rho||sigma) over PPT density matrices
    (warm-started from the upper bound's separable optimum), then the
    affine under-estimator at sigma is minimized over PPT exactly enough
    to extract Q, giving REE >= f(sigma) + lambda_min(W - Q^Gamma) - <W, sigma>.
    Valid for any positive definite sigma, feasible or not.
    """
    d = dl * dr
    t1 = _neg_entropy_nat(rho)
    sigma = np.eye(d, dtype=complex) / d
    if warm is not None:
        sigma = 0.98 * warm + 0.02 * sigma
    f = _rel_ent_bits(t1, rho, sigma)
    alpha = 0.5
    for _ in range(cfg.descent_iters):
        w_dir = -_grad_log_term(sigma, rho) / LN2
        scale = float(np.max(np.abs(w_dir)))
        if scale > 10.0:  # keep backtracking meaningful near singular sigma
            w_dir = w_dir * (10.0 / scale)
        s, moved = alpha, False
        for _ in range(25):
            cand = _dykstra_ppt_density(sigma - s * w_dir, dl, dr, dykstra_iters)
            fc = _rel_ent_bits(t1, rho, cand)
            if fc < f - 1e-13:
                sigma, f, alpha, moved = cand, fc, min(s * 1.5, 10.0), True
                break
            s *= 0.4
        if not moved:
            break
    # strictly positive sigma keeps the affine model finite
    sigma = 0.999999 * sigma + 1e-6 * np.eye(d) / d
    f = _rel_ent_bits(t1, rho, sigma)
    w_mat = -_grad_log_term(sigma, rho) / LN2
    inner = float(np.real(np.trace(w_mat @ sigma)))
    q = _admm_linear_ppt(w_mat, dl, dr, admm_iters)
    q_pt = _ptrans(q, dl, dr)
    cert = max(
        float(np.linalg.eigvalsh(w_mat - sc * q_pt)[0])
        for sc in (0.0, 0.5, 0.9, 1.0, 1.1, 2.0)
    )
    return max(0.0, f + cert - inner)


def ree(rho: DensityMatrix, part: Bipartition, config: ReeConfig | None = None,
        dykstra_iters: int = 40, admm_iters: int = 600) -> ReeResult:
    """Certified REE bracket for `rho` across `part`, in bits.

    Parameters
    ----------
    rho : DensityMatrix
        Total dimension at most 16.
    part : Bipartition
        Labels for the two sides; must cover all subsystems.
    config : ReeConfig, optional
        Optimizer budgets and seed.
    dykstra_iters, admm_iters : int
        Budgets of the lower edge's projections and witness (the package's
        former defaults).

    Returns
    -------
    ReeResult
        value (ansatz upper bound), lower_bound (PPT dual certificate),
        the achieving separable state, a convergence flag for the upper
        search, and the Frank-Wolfe iteration count.
    """
    if rho.dims.total > MAX_REE_DIM:
        raise ValueError(f"total dimension {rho.dims.total} exceeds {MAX_REE_DIM}")
    cfg = config or ReeConfig()
    m, dl, dr, perm = _permute_bipartite(rho, part)
    if min(dl, dr) == 1:
        # one-sided partition: nothing to entangle
        return ReeResult(0.0, 0.0, rho, True, 0, 0.0, "barrier")
    upper, gap, iters, sigma = _ree_upper(m, dl, dr, cfg)
    # tiny maximally mixed admixture keeps the support full without
    # disturbing separability; value is recomputed on the blended state
    sigma = (1.0 - 1e-9) * sigma + 1e-9 * np.eye(dl * dr) / (dl * dr)
    upper = max(0.0, _rel_ent_bits(_neg_entropy_nat(m), m, sigma))
    lower = _ree_lower(m, dl, dr, cfg, sigma, dykstra_iters, admm_iters)
    lower = min(lower, upper)
    closest = DensityMatrix(_unpermute(sigma, rho.dims, perm), rho.dims)
    # either stationarity of the upper search or a bracket already tighter
    # than the advertised resolution counts as converged; wide brackets on
    # a stalled search are reported, never hidden
    converged = gap < cfg.gap_tol or (upper - lower) <= cfg.bracket_tol
    return ReeResult(
        value=float(upper),
        lower_bound=float(lower),
        closest_state=closest,
        converged=bool(converged),
        iterations=int(iters),
        fw_gap=float(gap),
        path="frank-wolfe",
    )
