"""Finite-dimensional multipartite states and the linear algebra they need.

Everything downstream (dynamics, entanglement measures, the detection
protocol) works through the types and functions here: labeled subsystem
dimensions, validated density matrices, projective measurement bases, and
the usual primitives (Kronecker products, partial trace and transpose,
entropies, dephasing channels, Hermitian exponentials).

Entropic quantities in this module are in bits (log base 2). All types are
immutable after construction and every operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# Construction and validation tolerances. Anything worse than these is a
# caller bug, not roundoff, so constructors reject rather than repair.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-10
ORTHONORMALITY_TOL = 1e-10

# Spectral cutoff for 0 * log 0 in entropies.
ENTROPY_CUTOFF = 1e-12


@dataclass(frozen=True)
class SystemDims:
    """Ordered subsystem dimensions with unique labels.

    The order fixes the tensor-product convention for every state carrying
    this object; no operation ever reorders subsystems implicitly.
    """

    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        if len(self.dims) != len(self.labels):
            raise ValueError("dims and labels must have equal length")
        if any(d < 1 for d in self.dims):
            raise ValueError("subsystem dimensions must be >= 1")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("subsystem labels must be unique")

    @classmethod
    def qubits(cls, labels: Iterable[str]) -> "SystemDims":
        labels = tuple(labels)
        return cls((2,) * len(labels), labels)

    @property
    def total(self) -> int:
        return int(np.prod(self.dims))

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown subsystem label {label!r}") from None

    def dim_of(self, label: str) -> int:
        return self.dims[self.index(label)]

    def restricted(self, keep: Sequence[str]) -> "SystemDims":
        """Sub-collection in original order; `keep` order is ignored."""
        keep_set = set(keep)
        for s in keep_set:
            self.index(s)  # raises on unknown label
        pairs = [(d, s) for d, s in zip(self.dims, self.labels) if s in keep_set]
        return SystemDims(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density operator over labeled subsystems.

    Invariants enforced at construction: Hermitian within 1e-10, unit trace
    within 1e-10, eigenvalues >= -1e-10. The data array is copied and
    write-protected.
    """

    data: np.ndarray
    dims: SystemDims

    def __post_init__(self):
        m = np.array(self.data, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if m.shape[0] != self.dims.total:
            raise ValueError(
                f"matrix dimension {m.shape[0]} does not match "
                f"product of subsystem dims {self.dims.total}"
            )
        herm_defect = float(np.max(np.abs(m - m.conj().T)))
        if herm_defect > HERMITICITY_TOL:
            raise ValueError(f"not Hermitian: max |rho - rho^dag| = {herm_defect:.3e}")
        tr = m.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} is not 1 within {TRACE_TOL}")
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < -EIGENVALUE_TOL:
            raise ValueError(f"negative eigenvalue {lo:.3e} below tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "data", m)

    @property
    def dim(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class MeasurementBasis:
    """Orthonormal vectors on one labeled subsystem.

    Used as the basis of a projective (von Neumann) measurement whose
    outcomes are discarded, i.e. a dephasing channel. Vectors need not span
    the subsystem for construction, but `dephase` requires a complete set.
    """

    subsystem: str
    vectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        vecs = tuple(np.array(v, dtype=complex).ravel() for v in self.vectors)
        if not vecs:
            raise ValueError("basis needs at least one vector")
        d = vecs[0].size
        if any(v.size != d for v in vecs):
            raise ValueError("basis vectors must share one dimension")
        gram = np.array([[vi.conj() @ vj for vj in vecs] for vi in vecs])
        defect = float(np.max(np.abs(gram - np.eye(len(vecs)))))
        if defect > ORTHONORMALITY_TOL:
            raise ValueError(f"basis not orthonormal: defect {defect:.3e}")
        for v in vecs:
            v.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)

    @property
    def local_dim(self) -> int:
        return self.vectors[0].size

    @classmethod
    def computational(cls, subsystem: str, dim: int) -> "MeasurementBasis":
        return cls(subsystem, tuple(np.eye(dim)[i] for i in range(dim)))


def kron(a: np.ndarray, b: np.ndarray, *rest: np.ndarray) -> np.ndarray:
    """Kronecker product, left-to-right, matching SystemDims order."""
    out = np.kron(np.asarray(a), np.asarray(b))
    for m in rest:
        out = np.kron(out, np.asarray(m))
    return out


def _as_tensor(m: np.ndarray, dims: Sequence[int]) -> np.ndarray:
    return np.asarray(m).reshape(tuple(dims) + tuple(dims))


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Reduced state over the `keep` subsystems, in original order.

    Parameters
    ----------
    rho : DensityMatrix
    keep : iterable of subsystem labels, nonempty subset of rho.dims.labels

    Returns
    -------
    DensityMatrix over the kept subsystems.
    """
    keep = tuple(keep)
    if not keep:
        raise ValueError("keep must be nonempty")
    keep_idx = sorted(rho.dims.index(s) for s in keep)
    n = len(rho.dims.dims)
    t = _as_tensor(rho.data, rho.dims.dims)
    # einsum indices: traced subsystems share a row/column letter
    row = list(range(n))
    col = [i + n if i in keep_idx else i for i in range(n)]
    out_axes = [i for i in keep_idx] + [i + n for i in keep_idx]
    reduced = np.einsum(t, row + col, out_axes)
    d = int(np.prod([rho.dims.dims[i] for i in keep_idx]))
    return DensityMatrix(reduced.reshape(d, d), rho.dims.restricted(keep))


def partial_transpose(rho: DensityMatrix, subsystem: str) -> np.ndarray:
    """Transpose the indices of one subsystem; result may be non-positive."""
    k = rho.dims.index(subsystem)
    n = len(rho.dims.dims)
    t = _as_tensor(rho.data, rho.dims.dims)
    t = np.swapaxes(t, k, k + n)
    return t.reshape(rho.dims.total, rho.dims.total)


def spectrum_entropy_bits(w: np.ndarray) -> np.ndarray:
    """Entropy in bits of each spectrum along the last axis of w, over
    eigenvalues above 1e-12."""
    w = np.where(w > ENTROPY_CUTOFF, w, 1.0)
    return -np.sum(w * np.log2(w), axis=-1)


def entropy_bits(mats: np.ndarray) -> np.ndarray:
    """von Neumann entropy in bits of each matrix of an (n, d, d) stack,
    over eigenvalues above 1e-12."""
    return spectrum_entropy_bits(np.linalg.eigvalsh(mats))


def von_neumann_entropy(rho: DensityMatrix | np.ndarray) -> float:
    """S(rho) = -sum lam log2 lam, in bits, over eigenvalues above 1e-12."""
    m = rho.data if isinstance(rho, DensityMatrix) else np.asarray(rho)
    return max(0.0, float(entropy_bits(m[None])[0]))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Quantum relative entropy S(rho || sigma) in bits.

    Returns +inf when the support of rho is not contained in the support of
    sigma (the divergence is infinite there; the caller gets the sentinel
    rather than an exception so scans over states stay loop-friendly).
    """
    if rho.dims.dims != sigma.dims.dims:
        raise ValueError("states must share subsystem dimensions")
    lam_r, u_r = np.linalg.eigh(rho.data)
    lam_s, u_s = np.linalg.eigh(sigma.data)
    # weight of rho on the kernel of sigma decides the support condition
    kernel = lam_s <= ENTROPY_CUTOFF
    if np.any(kernel):
        k = u_s[:, kernel]
        leak = float(np.real(np.trace(k.conj().T @ rho.data @ k)))
        if leak > 1e-10:
            return math.inf
    supp_r = lam_r > ENTROPY_CUTOFF
    term_r = float(np.dot(lam_r[supp_r], np.log2(lam_r[supp_r])))
    # Tr rho log sigma evaluated in sigma's eigenbasis
    lam_s_clip = np.where(kernel, 1.0, lam_s)  # kernel weight already checked
    overlap = np.real(np.einsum("ij,ji->i", u_s.conj().T @ rho.data, u_s))
    term_s = float(np.dot(overlap, np.log2(lam_s_clip)))
    return max(0.0, term_r - term_s)


def _dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def dephase_axis(mat: np.ndarray, dims: tuple[int, ...], k: int, basis: np.ndarray) -> np.ndarray:
    """Dephase subsystem k of a raw matrix in the basis given by `basis` columns.

    A stack of bases gives the stack of dephased matrices. No checks: the
    caller passes a unitary of the subsystem's dimension.
    """
    pre = int(np.prod(dims[:k], initial=1))
    d = dims[k]
    post = int(np.prod(dims[k + 1 :], initial=1))
    rot = np.kron(np.kron(np.eye(pre), _dag(basis)), np.eye(post))
    t = (rot @ mat @ _dag(rot)).reshape(*rot.shape[:-2], pre, d, post, pre, d, post)
    out = np.zeros_like(t)
    for c in range(d):
        out[..., c, :, :, c, :] = t[..., c, :, :, c, :]
    out = out.reshape(rot.shape)
    rot_back = np.kron(np.kron(np.eye(pre), basis), np.eye(post))
    return rot_back @ out @ _dag(rot_back)


def dephase(rho: DensityMatrix, basis: MeasurementBasis) -> DensityMatrix:
    """Projective measurement with unread outcomes on one subsystem.

    Applies sum_c (I x |c><c| x I) rho (I x |c><c| x I). Idempotent; never
    decreases entropy. The basis must span its subsystem.
    """
    k = rho.dims.index(basis.subsystem)
    d_k = rho.dims.dims[k]
    if basis.local_dim != d_k:
        raise ValueError(
            f"basis dimension {basis.local_dim} does not match subsystem "
            f"{basis.subsystem!r} dimension {d_k}"
        )
    if len(basis.vectors) != d_k:
        raise ValueError("basis must span the subsystem to define a channel")
    columns = np.array(basis.vectors).T
    return DensityMatrix(dephase_axis(rho.data, rho.dims.dims, k, columns), rho.dims)


def hermitian_exp(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) through the eigendecomposition of Hermitian h, or of
    each matrix of an (n, d, d) stack.

    Exactly unitary up to roundoff, unlike a truncated series. Rejects
    non-Hermitian input instead of silently symmetrizing.
    """
    h = np.asarray(h, dtype=complex)
    defect = float(np.max(np.abs(h - _dag(h))))
    if defect > HERMITICITY_TOL:
        raise ValueError(f"generator not Hermitian: defect {defect:.3e}")
    lam, u = np.linalg.eigh(h)
    return (u * np.exp(-1j * lam * t)[..., None, :]) @ _dag(u)


def embed_local(op: np.ndarray, subsystem: str, dims: SystemDims) -> np.ndarray:
    """Pad a single-subsystem operator with identities on the rest."""
    k = dims.index(subsystem)
    op = np.asarray(op, dtype=complex)
    if op.shape != (dims.dims[k], dims.dims[k]):
        raise ValueError(
            f"operator shape {op.shape} does not match subsystem "
            f"{subsystem!r} dimension {dims.dims[k]}"
        )
    d_left = int(np.prod(dims.dims[:k], initial=1))
    d_right = int(np.prod(dims.dims[k + 1 :], initial=1))
    return kron(np.eye(d_left), op, np.eye(d_right))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of a - b."""
    diff = a.data - b.data
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def haar_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state vector."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def wishart_state(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Trace-normalized Wishart matrix: a generic full-rank mixed state."""
    r = dim if rank is None else rank
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    w = g @ g.conj().T
    return w / np.real(w.trace())
