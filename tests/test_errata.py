"""Regression tests pinning the resolutions of source-text inconsistencies.

Each test documents one divergence between a published statement and the
behavior this package implements, asserting both that the implemented
form holds and that the published variant fails.  These are deliberate,
recorded decisions; see the repository notes for the rationale.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from ququat import (
    GKSModel,
    PauliIndex,
    PauliVector,
    apply_nonlinear,
    builtin,
    compose,
    computational_state,
    gate_from_unitary,
    gks_matrix,
    gks_propagator,
    left_mult_superop,
    liouvillian_superop,
    measurement_gates,
    named_gate,
    pvec_to_density,
    right_mult_superop,
    synthesize_quantum,
    unital_realizable,
    verify_realization,
)
from ququat.liouville import SIGMA
from ququat.mvlogic import TruthTable, compose_classical

from helpers import P0, P1


def _unit16(a, b):
    e = np.zeros((16, 16))
    e[a, b] = 1.0
    return e


class TestUnitaryGateIndexOrder:
    """The stated unitary-gate formula swaps mu and nu relative to its own
    derivation; the derivation's form is implemented (it reproduces the
    displayed rotation matrices, the stated form gives their transposes)."""

    def test_proof_form_matches_displayed_rotation(self):
        alpha = 0.9
        u1 = np.diag([np.exp(-1j * alpha / 2), np.exp(1j * alpha / 2)])
        ours = gate_from_unitary(u1).entries
        assert np.max(np.abs(ours - named_gate("rot1", alpha).entries)) < 1e-12

    def test_stated_form_is_the_transpose(self):
        alpha = 0.9
        u1 = np.diag([np.exp(-1j * alpha / 2), np.exp(1j * alpha / 2)])
        # stated: E[mu, nu] = Tr(sigma_nu U sigma_mu U^dag) / 2
        stated = np.array(
            [
                [np.trace(SIGMA[nu] @ u1 @ SIGMA[mu] @ u1.conj().T).real / 2 for nu in range(4)]
                for mu in range(4)
            ]
        )
        ours = gate_from_unitary(u1).entries
        assert np.max(np.abs(stated - ours.T)) < 1e-12
        # the two differ (they are inverse rotations), so the order matters
        assert np.max(np.abs(stated - ours)) > 0.5
        assert np.max(np.abs(stated - named_gate("rot1", -alpha).entries)) < 1e-12


class TestMeasurementProbabilitySign:
    """The published branch probabilities print p(1) with the same sign as
    p(0); the matrix row gives p(1) = (1 - P3)/2, so the branches differ
    on polarized states and still sum to one."""

    def test_opposite_branch_vanishes(self):
        g0, g1 = measurement_gates([P0, P1])
        pure0 = PauliVector(1, [1, 0, 0, 1])
        p0 = float(g0.entries[0] @ pure0.P)
        p1 = float(g1.entries[0] @ pure0.P)
        assert p0 == pytest.approx(1.0, abs=1e-12)
        assert p1 == pytest.approx(0.0, abs=1e-12)  # published formula would give 1

    def test_branch_probabilities_complementary(self):
        g0, g1 = measurement_gates([P0, P1])
        for p3 in (-1.0, -0.25, 0.0, 0.6, 1.0):
            state = PauliVector(1, [1, 0, 0, p3])
            p0 = float(g0.entries[0] @ state.P)
            p1 = float(g1.entries[0] @ state.P)
            assert p0 == pytest.approx((1 + p3) / 2, abs=1e-12)
            assert p1 == pytest.approx((1 - p3) / 2, abs=1e-12)


class TestPropagatorSeriesIndex:
    """The published series for the translation block starts at n = 0,
    which carries an ill-formed 1/(tau A) term.  The implementation uses
    the integral of expm(s A), equal to the series started at n = 1 and
    finite for singular A."""

    def test_matches_series_from_one_for_invertible_a(self):
        rng = np.random.default_rng(3)
        c = 2 * 0.7 * np.array([[1, -1j, 0], [1j, 1, 0], [0, 0, 0]])
        gen = gks_matrix(GKSModel(rng.normal(size=3), c))
        tau = 0.8
        a, b = gen.a, gen.b
        series = np.zeros(3)
        term = tau * np.eye(3)  # tau^n A^(n-1) / n! at n = 1
        for n in range(1, 40):
            series = series + term @ b
            term = term @ a * (tau / (n + 1))
        gate = gks_propagator(gen, tau)
        assert np.max(np.abs(gate.entries[1:, 0] - series)) < 1e-12

    def test_singular_a_is_finite(self):
        # B != 0 with a singular A block: the n = 0 term 1/(tau A) does not
        # exist, the integral form does.
        matrix = np.zeros((4, 4))
        matrix[1:, 1:] = np.diag([0.0, -1.0, -1.0])
        matrix[3, 0] = 0.5
        from ququat.lindblad import GeneratorMatrix

        gen = GeneratorMatrix(matrix)
        assert np.linalg.det(gen.a) == 0.0
        gate = gks_propagator(gen, 1.3)
        assert np.all(np.isfinite(gate.entries))
        assert np.array_equal(gate.entries[0], [1, 0, 0, 0])


class TestShefferTermList:
    """The published two-ququat Sheffer expansion does not cover all
    input columns (it breaks trace preservation); the synthesized gate
    realizes the pair table, the transcription does not."""

    @staticmethod
    def published_sf():
        idx = lambda a, b: 4 * a + b
        e = np.zeros((16, 16))
        e[idx(0, 0), idx(0, 0)] = 1.0
        e[idx(1, 2), idx(0, 0)] += 1.0
        for mu in range(4):
            for nu in range(1, 4):
                e[idx(1, 2), idx(mu, nu)] -= 1.0
        for src in ((1, 0), (1, 1)):
            e[idx(2, 1), idx(*src)] += 1.0
        for src in ((0, 2), (2, 0), (1, 2), (2, 1), (2, 2)):
            e[idx(3, 0), idx(*src)] += 1.0
        for src in ((0, 3), (1, 3), (2, 3)):
            e[idx(0, 3), idx(*src)] += 1.0
        for mu in range(4):
            e[idx(0, 3), idx(3, mu)] += 1.0
        return e

    def pair_tables(self):
        v4 = builtin("v4")
        neg_v4 = compose_classical(builtin("luk_neg"), [v4])
        return [v4, neg_v4]

    def test_published_terms_fail_verification(self):
        from ququat import gate_from_matrix

        gate = gate_from_matrix(self.published_sf())
        assert not verify_realization(gate, self.pair_tables())

    def test_published_terms_miss_columns(self):
        # the term list omits the compensating -|12)(mu 0| entries and the
        # |21)(01| term; exactly those columns differ from the synthesis
        ours = synthesize_quantum(self.pair_tables()).entries
        published = self.published_sf()
        diff_cols = sorted(int(c) for c in np.nonzero(np.any(published != ours, axis=0))[0])
        assert diff_cols == [1, 4, 8, 12]  # inputs (0,1), (1,0), (2,0), (3,0)

    def test_published_three_ququat_variant_not_trace_preserving(self):
        # the unital three-ququat construction sends |000)(mu1 mu2 0| for
        # every (mu1, mu2), so row zero has sixteen ones instead of delta
        e = np.zeros((64, 64))
        v4 = builtin("v4")
        for m1 in range(4):
            for m2 in range(4):
                e[0, 16 * m1 + 4 * m2] += 1.0
                for m3 in range(1, 4):
                    out = 16 * v4(m1, m2) + 4 * (3 - v4(m1, m2)) + m3
                    e[out, 16 * m1 + 4 * m2 + m3] += 1.0
        assert float(e[0] @ e[0]) == 16.0

    def test_synthesis_realizes_pair_table(self):
        gate = synthesize_quantum(self.pair_tables())
        assert verify_realization(gate, self.pair_tables())
        assert np.array_equal(gate.entries[0], np.eye(16)[0])


class TestWeylCommutatorIndex:
    """The printed commutator identity has the second term's indices
    transposed; at (mu,nu,alpha,beta) = (2,1,3,2) the printed form fails
    and the corrected one holds."""

    def test_corrected_identity_holds(self):
        lhs = _unit16(2, 1) @ _unit16(3, 2) - _unit16(3, 2) @ _unit16(2, 1)
        corrected = -_unit16(3, 1)  # delta(1,3) E_22 - delta(2,2) E_31
        printed = -_unit16(1, 3)  # second term printed as H_nu_alpha
        assert np.array_equal(lhs, corrected)
        assert not np.array_equal(lhs, printed)


class TestLukasiewiczGateRow:
    """The displayed single-ququat Lukasiewicz matrix has row 3 equal to
    (1, 0, 0, -1); that matrix violates its own defining relation (it
    sends |1] out of the state space).  The synthesized gate carries row
    3 = (1, -1, -1, -1) and verifies exhaustively."""

    PUBLISHED = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, -1]], dtype=float
    )

    def test_published_row_fails_defining_relation(self):
        state1 = computational_state(PauliIndex((1,)))
        out = self.PUBLISHED @ state1.P
        assert not np.array_equal(out, computational_state(PauliIndex((2,))).P)
        # the published image is not even a valid state
        assert out @ out - 1.0 > 1.0  # sum of squares 3 > 2**n = 2

    def test_corrected_row(self):
        gate = synthesize_quantum(builtin("luk_neg"))
        assert np.array_equal(gate.entries[3], [1, -1, -1, -1])
        assert verify_realization(gate, builtin("luk_neg"))


class TestDissipatorOrdering:
    """The published dissipator anticommutator carries V V^dagger, which
    does not preserve the trace for non-normal V and contradicts the
    displayed single-qubit generator (vanishing top row).  The standard
    V^dagger V ordering is implemented; both agree for normal V."""

    def test_published_ordering_breaks_trace(self):
        v = np.array([[0, 1], [0, 0]], dtype=complex)
        published = np.zeros((4, 4), dtype=complex)
        vvd = v @ v.conj().T
        published += left_mult_superop(v).matrix @ right_mult_superop(v.conj().T).matrix
        published -= 0.5 * left_mult_superop(vvd).matrix
        published -= 0.5 * right_mult_superop(vvd).matrix
        assert np.max(np.abs(published[0])) > 0.5  # top row does not vanish

    def test_implemented_ordering_preserves_trace(self):
        v = np.array([[0, 1], [0, 0]], dtype=complex)
        gen = liouvillian_superop(np.zeros((2, 2)), [v]).to_pauli_generator()
        assert np.max(np.abs(gen[0])) < 1e-12

    def test_orderings_agree_for_normal_v(self):
        v = 0.6 * SIGMA[3]
        vvd = v @ v.conj().T
        published = (
            left_mult_superop(v).matrix @ right_mult_superop(v.conj().T).matrix
            - 0.5 * left_mult_superop(vvd).matrix
            - 0.5 * right_mult_superop(vvd).matrix
        )
        gen = liouvillian_superop(np.zeros((2, 2)), [v]).to_pauli_generator()
        assert np.max(np.abs(published - gen)) < 1e-12


class TestReflectionIdentityAngles:
    """The reflection identities are printed without angle arguments, and
    the first one as rot1 . rot1 . inversion; no pair of rot1 angles can
    produce it, while rot1(pi) . rot2(pi) . inversion does."""

    def test_rot1_rot1_cannot_give_reflect1(self):
        # rot1 compositions leave the (3,3) entry at +1; reflect1 . inversion
        # needs -1 there.
        target = named_gate("reflect1").entries @ named_gate("inversion").entries
        assert target[3, 3] == -1.0
        for a in np.linspace(0, 2 * np.pi, 17):
            for b in np.linspace(0, 2 * np.pi, 17):
                prod = compose(named_gate("rot1", a), named_gate("rot1", b)).entries
                assert prod[3, 3] == 1.0

    def test_identities_hold_at_pi(self):
        inv = named_gate("inversion")
        assert np.allclose(
            compose(named_gate("rot1", np.pi), compose(named_gate("rot2", np.pi), inv)).entries,
            named_gate("reflect1").entries,
            atol=1e-12,
        )


class TestUnitalConstantClause:
    """The published unital-realizability criterion admits constant
    tables; but a unital gate fixes the maximally mixed state, so the
    (unique) gate realizing a nonzero constant is never unital.  The
    divergence is exactly the three nonzero constants."""

    def test_constant_realizer_is_not_unital(self):
        for k in (1, 2, 3):
            t = builtin(f"const{k}")
            assert unital_realizable(t)  # published criterion
            gate = synthesize_quantum(t)
            # the realizer is unique (computational states span), and it
            # translates |0...0]
            assert verify_realization(gate, t)
            assert gate.entries[k, 0] == 1.0

    def test_divergence_set_is_exactly_nonzero_constants(self):
        import itertools

        mismatches = []
        for outs in itertools.product(range(4), repeat=4):
            t = TruthTable(1, outs)
            gate = synthesize_quantum(t)
            unital_col = np.array_equal(gate.entries[:, 0], np.eye(4)[0])
            if unital_realizable(t) != unital_col:
                mismatches.append(outs)
        assert mismatches == [(1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3)]


class TestComputationalStatePurity:
    """Generalized computational states are claimed pure for every
    nonzero index; the two-term definition gives purity 2**(1-n), pure
    only for n = 1."""

    def test_single_ququat_pure(self):
        for mu in (1, 2, 3):
            rho = pvec_to_density(computational_state(PauliIndex((mu,))))
            assert rho.purity() == pytest.approx(1.0, abs=1e-12)

    def test_two_ququat_not_pure(self):
        rho = pvec_to_density(computational_state(PauliIndex((1, 2))))
        assert rho.purity() == pytest.approx(0.5, abs=1e-12)
