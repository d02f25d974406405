"""Reference computations for the benchmark's checks, written apart from ququat.

Density matrices are simulated directly: Pauli strings by Kronecker
products, local operators embedded by a Kronecker product with the
identity followed by a permutation of qubit axes, channels as Kraus sums,
measurements as projectors, and Lindblad evolution as the exponential of
the Liouvillian acting on the row-major vectorised density matrix.  The
unary part of a clone is found by its own fixpoint.  Nothing here imports
the package under test.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
from scipy.linalg import expm

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (I2, X, Y, Z)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


@functools.lru_cache(maxsize=None)
def pauli_strings(n: int) -> np.ndarray:
    """All 4**n Pauli strings, qubit 0 as the most significant digit."""
    out = []
    for digits in itertools.product(range(4), repeat=n):
        m = np.ones((1, 1), dtype=complex)
        for d in digits:
            m = np.kron(m, PAULI[d])
        out.append(m)
    return np.array(out)


def pvec(rho: np.ndarray) -> np.ndarray:
    """P[mu] = Tr(sigma_mu rho) of a 2**n x 2**n operator."""
    n = int(np.log2(rho.shape[0]))
    return np.einsum("mij,ji->m", pauli_strings(n), rho).real


def density(p: np.ndarray) -> np.ndarray:
    """rho = 2**-n sum_mu P[mu] sigma_mu."""
    n = int(round(np.log(len(p)) / np.log(4)))
    return np.tensordot(np.asarray(p, dtype=complex), pauli_strings(n), axes=1) / 2**n


def embed(op: np.ndarray, targets, n: int) -> np.ndarray:
    """Operator acting as ``op`` on qubits ``targets`` (in order) of n qubits."""
    targets = list(targets)
    k = len(targets)
    rest = [q for q in range(n) if q not in targets]
    full = np.kron(op, np.eye(2 ** (n - k)))
    # axis i of the tensor belongs to qubit order[i]; move qubit q to axis q
    inv = list(np.argsort(targets + rest))
    t = full.reshape([2] * (2 * n)).transpose(inv + [n + i for i in inv])
    return t.reshape(2**n, 2**n)


def liouvillian(h: np.ndarray, jumps) -> np.ndarray:
    """L with d vec(rho)/dt = L vec(rho) for the row-major vectorisation."""
    d = h.shape[0]
    eye = np.eye(d)
    out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for v in jumps:
        vdv = v.conj().T @ v
        out += np.kron(v, v.conj()) - 0.5 * np.kron(vdv, eye) - 0.5 * np.kron(eye, vdv.T)
    return out


def rotation(axis, angle: float) -> np.ndarray:
    """exp(-i angle/2 n.sigma) for a unit axis n."""
    gen = sum(a * s for a, s in zip(axis, (X, Y, Z)))
    return expm(-0.5j * angle * gen)


# Unitaries behind the completely positive named gates; the transfer
# matrices of ququat.decompositions are their Pauli-basis actions.
def named_unitary(name: str, param=None) -> np.ndarray:
    if name == "rot1":
        return rotation((0, 0, 1), float(param))
    if name == "rot2":
        return rotation((0, 1, 0), float(param))
    if name == "pauli_k":
        return PAULI[int(param)]
    if name == "hadamard":
        return HADAMARD
    if name == "not":
        return X
    raise ValueError(f"no unitary for named gate {name!r}")


# A unary table that permutes the states |1], |2], |3] cyclically maps the
# Bloch axes x -> y -> z (or back) and is realised by a 120 degree rotation
# about (1, 1, 1).
ROTATION_TABLES = {
    (0, 2, 3, 1): rotation(np.ones(3) / np.sqrt(3), 2 * np.pi / 3),
    (0, 3, 1, 2): rotation(np.ones(3) / np.sqrt(3), -2 * np.pi / 3),
}


class Step:
    """One circuit step on the full register.

    ``kind`` is ``kraus`` (ops), ``superop`` (matrix on vec(rho)) or
    ``measure`` (projectors, optional post-selection index).
    """

    def __init__(self, kind: str, ops=(), superop=None, post_select=None):
        self.kind = kind
        self.ops = list(ops)
        self.superop = superop
        self.post_select = post_select


def kraus_step(local_ops, targets, n: int) -> Step:
    return Step("kraus", [embed(a, targets, n) for a in local_ops])


def lindblad_step(h, jumps, t: float, targets, n: int) -> Step:
    full = liouvillian(embed(h, targets, n), [embed(v, targets, n) for v in jumps])
    return Step("superop", superop=expm(t * full))


def measure_step(local_projectors, targets, n: int, post_select=None) -> Step:
    return Step("measure", [embed(p, targets, n) for p in local_projectors], post_select=post_select)


def simulate(steps, rho: np.ndarray):
    """Run steps on a density matrix; one (rho, probabilities or None) per step."""
    out = []
    for step in steps:
        probs = None
        if step.kind == "kraus":
            rho = sum(a @ rho @ a.conj().T for a in step.ops)
        elif step.kind == "superop":
            d = rho.shape[0]
            rho = (step.superop @ rho.reshape(-1)).reshape(d, d)
        else:
            probs = [float(np.trace(p @ rho).real) for p in step.ops]
            if step.post_select is None:
                rho = sum(p @ rho @ p for p in step.ops)
            else:
                p = step.ops[step.post_select]
                rho = p @ rho @ p / probs[step.post_select]
        out.append((rho, probs))
    return out


def unary_clone(generators) -> set[tuple[int, ...]]:
    """Unary functions of the clone generated by tables over {0,1,2,3}.

    ``generators`` are (arity, outputs) pairs with big-endian inputs.  The
    fixpoint starts from the identity and applies every generator to all
    tuples of members, pointwise.
    """
    members = {(0, 1, 2, 3)}
    while True:
        mat = np.array(sorted(members), dtype=np.int64)
        found = set(members)
        for arity, outputs in generators:
            idx = np.zeros(4, dtype=np.int64)
            for _ in range(arity):
                idx = 4 * idx[..., None, :] + mat
            rows = np.asarray(outputs, dtype=np.int64)[idx].reshape(-1, 4)
            found.update(map(tuple, np.unique(rows, axis=0).tolist()))
        if found == members:
            return members
        members = found
