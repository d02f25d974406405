"""Basis, inner product and state conversion tests."""

import contextlib
import dataclasses

import numpy as np
import pytest

from ququat import (
    DensityMatrix,
    NumericContractError,
    PauliIndex,
    PauliVector,
    computational_state,
    density_to_pvec,
    hs_inner,
    pauli_basis,
    pauli_tensor,
    pvec_to_density,
    validate_density,
)
from ququat.config import set_tolerances, tolerances
from ququat.liouville import (
    SIGMA,
    _STACK_ENTRIES,
    LiouvilleVector,
    NonPositiveStateWarning,
    ValidationReport,
    _eigvalsh,
    _exponent,
    _pauli_combine,
    _scale,
    _validate_pvecs,
    _validate_stack,
)

from helpers import random_density, spy_arguments, spy_shapes

RNG = np.random.default_rng(7)


class TestPauliIndex:
    def test_roundtrip(self):
        for n in (1, 2, 3):
            for scalar in range(4**n):
                idx = PauliIndex.from_scalar(scalar, n)
                assert idx.scalar == scalar
                assert PauliIndex(idx.digits).scalar == scalar

    def test_big_endian(self):
        assert PauliIndex((3, 1)).scalar == 13
        assert PauliIndex.from_scalar(13, 2).digits == (3, 1)

    def test_invalid(self):
        with pytest.raises(NumericContractError):
            PauliIndex((4,))
        with pytest.raises(NumericContractError):
            PauliIndex.from_scalar(16, 1)


class TestPauliTensor:
    def test_sigma0_is_identity(self):
        assert np.array_equal(pauli_tensor(PauliIndex((0,))), np.eye(2))

    def test_sigma1(self):
        assert np.array_equal(pauli_tensor(PauliIndex((1,))), [[0, 1], [1, 0]])

    def test_kron_order(self):
        m = pauli_tensor(PauliIndex((3, 1)))
        assert np.array_equal(m, np.kron(SIGMA[3], SIGMA[1]))
        assert abs(np.trace(m)) == 0
        assert hs_inner(m, m) == 4

    def test_orthogonality_exact(self):
        # (sigma_mu | sigma_nu) = 2**n delta, exactly, up to n = 3
        for n in (1, 2, 3):
            basis = pauli_basis(n)
            gram = np.einsum("mji,nji->mn", basis.conj(), basis)
            assert np.array_equal(gram, 2**n * np.eye(4**n))

    def test_hermitian_traceless(self):
        for scalar in range(1, 16):
            m = pauli_tensor(PauliIndex.from_scalar(scalar, 2))
            assert np.array_equal(m, m.conj().T)
            assert np.trace(m) == 0


class TestHSInner:
    def test_pauli_values(self):
        assert hs_inner(SIGMA[1], SIGMA[1]) == 2
        assert hs_inner(SIGMA[1], SIGMA[2]) == 0

    def test_unit_trace(self):
        rho = random_density(RNG, 1)
        assert hs_inner(np.eye(2), rho.entries) == pytest.approx(1.0, abs=1e-12)

    def test_conjugate_symmetry(self):
        a = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        b = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(NumericContractError):
            hs_inner(np.eye(2), np.eye(4))


class TestConversions:
    def test_maximally_mixed(self):
        p = density_to_pvec(DensityMatrix(1, np.eye(2) / 2))
        assert np.array_equal(p.P, [1, 0, 0, 0])

    def test_pure_zero_state(self):
        p = density_to_pvec(DensityMatrix(1, [[1, 0], [0, 0]]))
        assert np.allclose(p.P, [1, 0, 0, 1], atol=1e-15)

    def test_bloch_coefficients(self):
        rho = (SIGMA[0] + 0.3 * SIGMA[1] + 0.4 * SIGMA[2]) / 2
        p = density_to_pvec(DensityMatrix(1, rho))
        assert np.allclose(p.P, [1, 0.3, 0.4, 0], atol=1e-15)

    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 0.4], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NumericContractError):
            density_to_pvec(DensityMatrix(1, m))

    def test_pvec_to_density_examples(self):
        assert np.allclose(pvec_to_density(PauliVector(1, [1, 0, 0, 0])).entries, np.eye(2) / 2)
        assert np.allclose(
            pvec_to_density(PauliVector(1, [1, 0, 0, 1])).entries, [[1, 0], [0, 0]]
        )

    def test_pvec_normalization_error(self):
        with pytest.raises(NumericContractError):
            pvec_to_density(PauliVector(1, [0.5, 0, 0, 0]))

    @pytest.mark.parametrize("n,at", [(1, 2), (1, 0), (2, 5)])
    def test_pvec_to_density_refuses_nan(self, n, at):
        # n = 1 returned an all-NaN density with no warning; n = 2 raised LinAlgError
        p = np.eye(1, 4**n).ravel()
        p[at] = np.nan
        with pytest.raises(NumericContractError, match="^P has non-finite entries$"):
            pvec_to_density(PauliVector(n, p))

    def test_non_psd_warns_not_raises(self):
        with pytest.warns(NonPositiveStateWarning):
            rho = pvec_to_density(PauliVector(1, [1, 1, 1, 1]))
        assert np.linalg.eigvalsh(rho.entries)[0] < 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_roundtrip_random(self, n):
        for _ in range(20):
            rho = random_density(RNG, n)
            back = pvec_to_density(density_to_pvec(rho))
            assert np.max(np.abs(back.entries - rho.entries)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_purity_window(self, n):
        for _ in range(50):
            p = density_to_pvec(random_density(RNG, n))
            assert 1.0 - 1e-9 <= p.norm_sq() <= 2**n + 1e-9


class TestComputationalStates:
    def test_single_ququat(self):
        assert np.array_equal(computational_state(PauliIndex((0,))).P, [1, 0, 0, 0])
        assert np.array_equal(computational_state(PauliIndex((3,))).P, [1, 0, 0, 1])

    def test_two_ququat(self):
        p = computational_state(PauliIndex((1, 2)))
        expected = np.zeros(16)
        expected[0] = 1.0
        expected[6] = 1.0
        assert np.array_equal(p.P, expected)

    def test_purity_single_ququat(self):
        # |mu != 0] is pure for one ququat; |0] is maximally mixed.
        for mu in (1, 2, 3):
            state = computational_state(PauliIndex((mu,)))
            assert abs(pvec_to_density(state).purity() - 1.0) < 1e-12
        assert pvec_to_density(computational_state(PauliIndex((0,)))).purity() == 0.5

    def test_purity_multi_ququat(self):
        # The two-term definition gives purity 2**(1-n) for mu != 0, n >= 2
        # (the published all-pure claim only holds for n = 1).
        state = computational_state(PauliIndex((1, 2)))
        assert pvec_to_density(state).purity() == pytest.approx(0.5, abs=1e-12)
        assert validate_density(state).valid


class TestLiouvilleVector:
    def test_coefficients_are_matrix_elements(self):
        a = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        vec = LiouvilleVector.from_operator(a)
        for k in range(4):
            for l in range(4):
                assert vec.coeffs[4 * k + l] == a[k, l]
        assert np.array_equal(vec.to_operator(), a)


class TestValidation:
    def test_maximally_mixed(self):
        rep = validate_density(DensityMatrix(1, np.eye(2) / 2))
        assert rep.valid
        assert rep.purity == pytest.approx(0.5, abs=1e-12)

    def test_pure(self):
        rep = validate_density(DensityMatrix(1, [[1, 0], [0, 0]]))
        assert rep.valid
        assert rep.purity == pytest.approx(1.0, abs=1e-12)

    def test_bloch_violation(self):
        rep = validate_density(PauliVector(1, [1, 0.9, 0.9, 0.9]))
        assert not rep.psd
        assert not rep.purity_in_bounds

    def test_never_raises(self):
        rep = validate_density(DensityMatrix(1, [[2, 1j], [5, -1]]))
        assert not rep.valid

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_state_is_invalid(self, bad):
        for n in (1, 3):
            p = np.zeros(4**n)
            p[0] = 1.0
            p[-1] = bad
            with np.errstate(all="ignore"):
                rep = validate_density(PauliVector(n, p))
            assert not rep.valid and not rep.psd and np.isnan(rep.min_eigenvalue)


def _oracle_validate(state) -> ValidationReport:
    """One state at a time, as validate_density did before the stacked pass."""
    n = state.n
    if isinstance(state, PauliVector):
        rho = _combine(state)
    else:
        rho = state.entries
    herm = float(np.max(np.abs(rho - rho.conj().T))) <= tolerances.algebra
    trace = complex(np.trace(rho))
    unit_trace = bool(abs(trace - 1.0) <= tolerances.algebra)
    if herm:
        eigs = np.linalg.eigvalsh(rho)
    else:
        eigs = np.linalg.eigvals((rho + rho.conj().T) / 2).real
    min_eig = float(np.min(eigs))
    psd = min_eig >= -tolerances.psd
    purity = float(np.trace(rho @ rho).real)
    purity_ok = (2.0**-n - tolerances.psd) <= purity <= 1.0 + tolerances.psd
    return ValidationReport(
        hermitian=herm,
        unit_trace=unit_trace,
        psd=psd,
        purity_in_bounds=purity_ok,
        trace=float(trace.real),
        min_eigenvalue=min_eig,
        purity=purity,
    )


def _combine(pvec: PauliVector) -> np.ndarray:
    """2**-n sum_mu P[mu] sigma_mu, for any P[0], without the basis kernel."""
    return np.tensordot(pvec.P, pauli_basis(pvec.n), axes=1) / 2**pvec.n


_FLAGS = ("hermitian", "unit_trace", "psd", "purity_in_bounds", "valid")
_VALUES = ("trace", "min_eigenvalue", "purity")


def _assert_reports_match(got, want):
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        for flag in _FLAGS:
            assert getattr(g, flag) == getattr(w, flag), (i, flag)
        for name in _VALUES:
            assert abs(getattr(g, name) - getattr(w, name)) <= 1e-12, (i, name)


def _edge_densities(rng, n):
    """Hermitian operators: PSD, not PSD, trace != 1 and at both purity edges."""
    d = 2**n
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    psd = g @ g.conj().T
    psd /= np.trace(psd)
    h = g + g.conj().T
    indefinite = h / np.trace(h) if abs(np.trace(h)) > 0.1 else h / d + np.eye(d) / d
    v = g[:, 0] / np.linalg.norm(g[:, 0])
    pure = np.outer(v, v.conj())
    return [
        psd,
        indefinite,
        1.5 * psd,  # trace 1.5
        0.5 * pure,  # trace 0.5
        pure,  # purity 1
        np.eye(d) / d,  # purity 2**-n
        0.5 * (psd + pure),
        pure + 1e-3 * indefinite,
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_stacked_validation_matches_the_per_state_oracle(n):
    rng = np.random.default_rng([43, n])
    d = 2**n
    dens = _edge_densities(rng, n)
    # non-Hermitian inputs, mixed in among Hermitian ones
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    stack = dens[:3] + [g / np.trace(g), dens[4] + 1e-3j * np.triu(np.ones((d, d)))] + dens[3:]
    states = [DensityMatrix(n, r) for r in stack]
    _assert_reports_match(_validate_stack(np.array(stack), n), [_oracle_validate(s) for s in states])
    _assert_reports_match([validate_density(s) for s in states], [_oracle_validate(s) for s in states])
    # Pauli vectors of the Hermitian ones: the stacked route through _basis_product
    pvecs = [PauliVector(n, np.real(np.tensordot(pauli_basis(n), r.T, axes=2))) for r in dens]
    _assert_reports_match(_validate_pvecs([p.P for p in pvecs], n), [_oracle_validate(p) for p in pvecs])


def test_all_non_hermitian_stack_matches_the_oracle():
    rng = np.random.default_rng(47)
    stack = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    want = [_oracle_validate(DensityMatrix(2, r)) for r in stack]
    assert not any(w.hermitian for w in want)
    _assert_reports_match(_validate_stack(stack, 2), want)


@pytest.mark.parametrize("size,base,n", [
    (1, 2, 0), (2, 2, 1), (8, 2, 3), (2**40, 2, 40), (1, 4, 0), (16, 4, 2), (4**20, 4, 20),
    (0, 2, None), (-4, 2, None), (3, 2, None), (12, 2, None), (2, 4, None), (8, 4, None),
    (np.int64(64), 4, 3),
])
def test_exponent(size, base, n):
    assert _exponent(size, base) == n


@pytest.mark.parametrize("a,want", [
    ([[0.5, -1.0]], 1.0), ([[3.0, -4.0]], 4.0), ([[0.0, 3j - 4]], 5.0), ([[1e300, 0]], 1e300),
    ([[np.nan, 1e6]], 1.0), ([[np.inf, 1e6]], 1.0), ([[-np.inf, 0.5]], 1.0), ([[0.0]], 1.0),
])
def test_scale_is_max_abs_above_1_and_finite(a, want):
    assert _scale(np.array(a)) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [0, 30, 60, 300])
def test_density_expansion_is_exact_under_power_of_two_scaling(n, k):
    # the imaginary rounding of the coefficients grows with rho, and so does its bound
    rng = np.random.default_rng([79, n])
    for _ in range(10):
        rho = random_density(rng, n).entries
        rho = (rho + rho.conj().T) / 2  # Hermitian entry for entry
        want = density_to_pvec(DensityMatrix(n, rho)).P
        assert np.array_equal(density_to_pvec(DensityMatrix(n, 2.0**k * rho)).P, 2.0**k * want)


@pytest.mark.parametrize("s", [1.0, 1e6, 1e100])
def test_an_imaginary_diagonal_is_refused_at_any_size(s):
    rho = np.eye(2, dtype=complex) / 2
    rho[0, 0] += 1j * s
    with pytest.raises(NumericContractError, match="^input is not Hermitian"):
        density_to_pvec(DensityMatrix(1, rho))


# -- the factored state check against the eigvalsh route -------------------------


def _eigvalsh_route(ps, n, stacked=False):
    """The reports of _validate_stack, the route that takes every spectrum and
    the oracle of the factored one: of each Pauli vector on its own, or
    stacked as _validate_pvecs stacks them."""
    size = max(1, _STACK_ENTRIES // 4**n) if stacked else 1
    chunks = [np.stack(ps[i : i + size], axis=1) for i in range(0, len(ps), size)]
    return [rep for p in chunks for rep in _validate_stack(_pauli_combine(p, n), n)]


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _assert_same_reports(got, want, n):
    """Flags and min eigenvalues bit for bit; trace and purity to the rounding of rho."""
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        for flag in _FLAGS:
            assert getattr(g, flag) == getattr(w, flag), (i, flag)
        assert _bits(g.min_eigenvalue) == _bits(w.min_eigenvalue), i
        for name in ("trace", "purity"):
            a, b = getattr(g, name), getattr(w, name)
            rounding = 2**n * np.finfo(float).eps * abs(b)
            assert _bits(a) == _bits(b) or abs(a - b) <= rounding, (i, name)


@pytest.fixture
def linalg_calls(monkeypatch):
    """The shapes passed to ``cholesky`` and to ``eigvalsh``, call by call."""
    return spy_shapes(monkeypatch, np.linalg, "cholesky", "eigvalsh")


def _forget(calls) -> None:
    for shapes in calls.values():
        shapes.clear()


def _pure_pvec(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    rho = np.outer(v, v.conj()) / (v.conj() @ v)
    return density_to_pvec(DensityMatrix(n, (rho + rho.conj().T) / 2)).P


def _seeded_pvecs(rng, n):
    """PSD states of full rank, rank 1 and with zero eigenvalues, then invalid ones."""
    mixed = [density_to_pvec(random_density(rng, n)).P for _ in range(3 if n == 8 else 6)]
    picks = rng.integers(4**n, size=2)
    basis = [computational_state(PauliIndex.from_scalar(int(k), n)).P for k in picks]
    pure = _pure_pvec(rng, n)
    flat = computational_state(PauliIndex((0,) * n)).P  # I / 2**n
    valid = mixed + [pure, flat] + basis
    # trace 1.5, then two indefinite ones of unit trace
    return valid, [1.5 * mixed[0], 2.0 * mixed[1] - flat, np.r_[1.0, 3.0 * pure[1:]]]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_factored_route_matches_the_eigvalsh_route(n, linalg_calls):
    valid, invalid = _seeded_pvecs(np.random.default_rng([83, n]), n)
    want = _eigvalsh_route(valid + invalid, n)
    assert [w.psd for w in want] == [True] * len(valid) + [True, False, False]
    _forget(linalg_calls)
    got = [_validate_pvecs([p], n)[0] for p in valid]
    # no spectrum until a min eigenvalue is read
    assert linalg_calls == {"cholesky": [(1, 2**n, 2**n)] * len(valid), "eigvalsh": []}
    _assert_same_reports(got, want[: len(valid)], n)
    # a chunk holding an indefinite state takes the spectrum of each
    stacked = _eigvalsh_route(valid + invalid, n, stacked=True)
    _assert_same_reports(_validate_pvecs(valid + invalid, n), stacked, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("depth,factored,psd", [
    (0.99 / 2, True, True),  # just inside tol_psd / 2
    (1.01 / 2, False, True),  # just outside it
    (0.99, False, True),  # just inside tol_psd
    (1.01, False, False),  # just outside it
])
def test_states_at_the_psd_slack_edges(n, depth, factored, psd, linalg_calls):
    rng = np.random.default_rng([89, n])
    d = 2**n
    low = -depth * tolerances.psd
    eigs = np.concatenate([[low], rng.uniform(0.5, 1.0, size=d - 1)])
    eigs[1:] *= (1 - low) / eigs[1:].sum()
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    rho = (u * eigs) @ u.conj().T
    p = density_to_pvec(DensityMatrix(n, (rho + rho.conj().T) / 2)).P
    want = _eigvalsh_route([p], n)
    assert want[0].psd is psd
    _forget(linalg_calls)
    got = _validate_pvecs([p], n)
    assert linalg_calls == {"cholesky": [(1, d, d)], "eigvalsh": [] if factored else [(1, d, d)]}
    _assert_same_reports(got, want, n)


@pytest.mark.parametrize("slack", [{"psd": 1e-16}, {"algebra": 1e-17}])
def test_a_slack_too_small_for_the_factorization_takes_the_spectrum(slack, linalg_calls):
    states = {n: sum(_seeded_pvecs(np.random.default_rng([97, n]), n), []) for n in (1, 3)}
    saved = tolerances.algebra, tolerances.psd
    set_tolerances(**slack)
    try:
        for n, ps in states.items():
            want = _eigvalsh_route(ps, n, stacked=True)
            _forget(linalg_calls)
            got = _validate_pvecs(ps, n)
            assert linalg_calls == {"cholesky": [], "eigvalsh": [(len(ps), 2**n, 2**n)]}
            _assert_same_reports(got, want, n)
    finally:
        set_tolerances(*saved)


@pytest.mark.parametrize("p", [
    [1.7e308, 0.2, 0.1, 0.3],  # the two overflow cases of `state validate`
    [1.7e308, 0.0, 0.0, 1.7e308],
    [1.0, 1e200, 0.0, 0.0],  # finite, far from PSD
    [1.0, 0.0, np.nan, 0.0],
    [1.0, np.inf, 0.0, 0.0],
    [-np.inf, 0.0, 0.0, 0.0],
])
def test_non_finite_and_overflowing_states_keep_the_eigvalsh_route(p):
    with np.errstate(all="ignore"):
        got = _validate_pvecs([np.array(p)], 1)[0]
        want = _eigvalsh_route([np.array(p)], 1)[0]
    assert not got.valid
    for name in (*_FLAGS, *_VALUES):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name


def test_a_non_hermitian_density_is_never_factored(linalg_calls):
    rng = np.random.default_rng(101)
    for n in (1, 3):
        g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        rep = validate_density(DensityMatrix(n, g / np.trace(g)))
        _assert_reports_match([rep], [_oracle_validate(DensityMatrix(n, g / np.trace(g)))])
        assert not rep.hermitian
    assert linalg_calls["cholesky"] == []


def test_a_min_eigenvalue_is_computed_once_when_first_read():
    calls = []

    def spectrum():
        calls.append(1)
        return -0.25

    flags = dict(hermitian=True, unit_trace=True, psd=False, purity_in_bounds=True)
    rep = ValidationReport(**flags, trace=1.0, min_eigenvalue=spectrum, purity=0.5)
    assert calls == []
    assert rep.min_eigenvalue == -0.25 and rep.min_eigenvalue == -0.25
    assert calls == [1]
    eager = ValidationReport(**flags, trace=1.0, min_eigenvalue=-0.25, purity=0.5)
    assert rep == eager and hash(rep) == hash(eager)
    assert list(dataclasses.asdict(eager)) == [
        "hermitian", "unit_trace", "psd", "purity_in_bounds", "trace", "min_eigenvalue", "purity"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.min_eigenvalue = 0.0


# -- the real route of Hermitian spectra -----------------------------------------


def _real_symmetric(rng, d):
    g = rng.normal(size=(d, d))
    return (g + g.T).astype(complex)


@pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 32, 64, 128, 256])
def test_a_real_symmetric_matrix_in_complex_dtype_takes_the_real_solver(d, monkeypatch):
    a = _real_symmetric(np.random.default_rng([109, d]), d)
    want = np.linalg.eigvalsh(a)  # the complex solver, the oracle
    seen = spy_arguments(monkeypatch, np.linalg, "eigvalsh")
    got = _eigvalsh(a)
    assert [x.dtype for x in seen] == [np.float64]
    assert np.all(np.diff(got) >= 0)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.linalg.norm(a, 2))


def test_only_an_exactly_zero_imaginary_part_takes_the_real_solver(monkeypatch):
    a = _real_symmetric(np.random.default_rng(113), 4)
    negative_zero = a.copy()
    negative_zero.imag = -0.0
    assert np.signbit(negative_zero.imag).all()
    tiny = a.copy()
    tiny[0, 1] += 1e-300j
    tiny[1, 0] -= 1e-300j
    nan = a.copy()
    nan[2, 1] = complex(nan[2, 1].real, np.nan)  # the solver reads the lower triangle
    real = a.real.copy()
    seen = spy_arguments(monkeypatch, np.linalg, "eigvalsh")
    for m in (a, negative_zero, tiny, nan, real):
        with contextlib.suppress(np.linalg.LinAlgError):  # the NaN may stop the solver
            _eigvalsh(m)
    assert [x.dtype for x in seen] == [np.float64, np.float64, complex, complex, np.float64]
    assert seen[-1] is real

