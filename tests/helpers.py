"""Shared fixtures-by-hand for the test suite: Paulis, named states, RNG."""

import numpy as np

from nonclassicality.core import DensityMatrix, SystemDims, kron

I2 = np.eye(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
KET_MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)

# Two-qubit maximally entangled pairs
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)


def dm(mat, dims, labels):
    return DensityMatrix(np.asarray(mat, dtype=complex), SystemDims(tuple(dims), tuple(labels)))


def pure(vec, dims, labels):
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return dm(np.outer(v, v.conj()), dims, labels)


def random_herm(dim, rng, scale=1.0):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (g + g.conj().T) / 2


def random_unitary(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(dim, rng, rank=None):
    r = dim if rank is None else rank
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    w = g @ g.conj().T
    return w / np.real(np.trace(w))


def two_body(op_first, op_second, where, dims=(2, 2, 2)):
    """Embed a two-site operator into a chain of qubits; `where` picks sites."""
    facs = [np.eye(d) for d in dims]
    facs[where[0]] = op_first
    facs[where[1]] = op_second
    return kron(*facs)


def binary_entropy(p):
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


def isotropic_state(d, f):
    """f |Phi+><Phi+| + (1 - f)(I - |Phi+><Phi+|)/(d^2 - 1) on d x d, with
    its exact REE (Rains): log2 d + f log2 f + (1 - f) log2((1 - f)/(d - 1))
    for fidelity f > 1/d, else 0."""
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    proj = np.outer(phi, phi)
    m = f * proj + (1 - f) * (np.eye(d * d) - proj) / (d * d - 1)
    exact = np.log2(d) + f * np.log2(f) + (1 - f) * np.log2((1 - f) / (d - 1)) if f > 1 / d else 0.0
    return dm(m, (d, d), ("A", "B")), float(exact)


def werner_state(d, p):
    """Werner state on d x d with weight p on the antisymmetric subspace,
    with its exact REE (Vollbrecht-Werner): 1 - H2(p) for p > 1/2, else 0."""
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)
    anti, sym = (np.eye(d * d) - swap) / 2, (np.eye(d * d) + swap) / 2
    m = p * anti / (d * (d - 1) / 2) + (1 - p) * sym / (d * (d + 1) / 2)
    exact = 1.0 - binary_entropy(p) if p > 0.5 else 0.0
    return dm(m, (d, d), ("A", "B")), float(exact)
