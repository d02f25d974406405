"""Shared random generators and fixtures for the test suite."""

import numpy as np
from scipy.linalg import sqrtm

from ququat import DensityMatrix, GateMatrix, KrausSet, PauliVector
from ququat.gates import TRACE_PRESERVING


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary via QR of a complex Gaussian (deterministic per seed)."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(rng: np.random.Generator, n: int) -> DensityMatrix:
    d = 2**n
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    return DensityMatrix(n, rho)


def random_pvec(rng: np.random.Generator, n: int) -> PauliVector:
    from ququat import density_to_pvec

    return density_to_pvec(random_density(rng, n))


def random_tp_kraus(rng: np.random.Generator, n: int, m: int = 3) -> KrausSet:
    """Trace-preserving Kraus set: Gaussian blocks whitened by sum A^dag A."""
    d = 2**n
    blocks = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(m)]
    s = sum(b.conj().T @ b for b in blocks)
    w = np.linalg.inv(sqrtm(s))
    return KrausSet(tuple(b @ w for b in blocks))


def random_tp_gate(rng: np.random.Generator, n: int, scale: float = 1.0) -> GateMatrix:
    """Random trace-preserving gate matrix (not necessarily CP)."""
    size = 4**n
    entries = np.zeros((size, size))
    entries[0, 0] = 1.0
    entries[1:, 0] = scale * rng.normal(size=size - 1)
    entries[1:, 1:] = scale * rng.normal(size=(size - 1, size - 1))
    return GateMatrix(n, n, entries, TRACE_PRESERVING)


def depolarizing_kraus(p: float) -> KrausSet:
    from ququat import SIGMA

    return KrausSet(
        (
            np.sqrt(1 - p) * SIGMA[0],
            np.sqrt(p / 3) * SIGMA[1],
            np.sqrt(p / 3) * SIGMA[2],
            np.sqrt(p / 3) * SIGMA[3],
        )
    )


def spy_shapes(monkeypatch, module, *names) -> dict[str, list]:
    """Wrap each function ``names`` of ``module`` so that every call first
    appends the shape of its first argument to that name's list."""
    shapes = {name: [] for name in names}

    def recording(func, calls):
        def spy(a, *args, **kwargs):
            calls.append(np.shape(a))
            return func(a, *args, **kwargs)

        return spy

    for name, calls in shapes.items():
        monkeypatch.setattr(module, name, recording(getattr(module, name), calls))
    return shapes


def spy_arguments(monkeypatch, module, name) -> list:
    """Wrap the function ``name`` of ``module`` so that every call first
    appends its first argument, the object itself, to the returned list."""
    seen = []
    func = getattr(module, name)

    def spy(a, *args, **kwargs):
        seen.append(a)
        return func(a, *args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return seen


def odd_parity(n_out: int, n_in: int) -> np.ndarray:
    """Where sigma_mu kron sigma_nu^T carries an odd number of Y factors: the
    (4**n_out, 4**n_in) mask of the gate entries that make a Choi matrix complex."""
    ys = []
    for n in (n_out, n_in):
        y = np.zeros(1, int)
        for _ in range(n):
            y = (y[:, None] + (np.arange(4) == 2)).reshape(-1)
        ys.append(y)
    return (ys[0][:, None] + ys[1]) % 2 == 1


P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def entangler_generators() -> list[np.ndarray]:
    """Side-16 pseudo-gates of the 2x2 units on each of two ququats, plus |0,1)(1,0|.

    Their Lie closure is gl(16, C), of real dimension 512.
    """
    from ququat import left_mult_superop, right_mult_superop

    eye4 = np.eye(4)
    gens = []
    for a in range(2):
        for b in range(2):
            x = np.zeros((2, 2), dtype=complex)
            x[a, b] = 1.0
            lmat = left_mult_superop(x).matrix
            rmat = right_mult_superop(x).matrix
            gens += [np.kron(lmat, eye4), np.kron(eye4, lmat),
                     np.kron(rmat, eye4), np.kron(eye4, rmat)]
    entangler = np.zeros((16, 16), dtype=complex)
    entangler[1, 4] = 1.0
    return gens + [entangler]
