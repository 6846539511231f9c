"""Operator algebra: tensor structure, spectra, channels, POVMs."""

import json
import math

import numpy as np
import pytest

from qmac import qmat
from qmac.qmat import (
    DensityOperator,
    DimensionCapError,
    FactorSpace,
    KrausChannel,
    Operator,
    PovmSet,
    PureState,
)

from conftest import (
    bell_state,
    random_density,
    random_kraus_channel,
    random_pure_vector,
    random_unitary,
)
from oracles import kron_columns, output_factor_uses, permute_rows


def basis_projector(dim, i):
    m = np.zeros((dim, dim), dtype=complex)
    m[i, i] = 1.0
    return m


class TestFactorSpace:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FactorSpace(("A", "A"), (2, 2))

    def test_dimension_cap(self, monkeypatch):
        # the cap bounds dense matrices only; a space of any size is accepted
        assert qmat.dimension_cap() == 4096
        assert FactorSpace(("A", "B"), (256, 256)).dim == 65536
        monkeypatch.setattr(qmat, "DEFAULT_DIM_CAP", 8)
        assert qmat.dimension_cap() == 8
        FactorSpace(("A", "B"), (4, 4))

    def test_total_dim(self):
        sp = FactorSpace(("A", "B", "C"), (2, 3, 4))
        assert sp.dim == 24
        assert sp.dim_of("B") == 3
        assert sp.subspace(("C", "A")).dims == (4, 2)


class TestTensor:
    def test_identity_case(self):
        ia = qmat.identity(FactorSpace(("A",), (2,)))
        ib = qmat.identity(FactorSpace(("B",), (2,)))
        out = qmat.tensor(ia, ib)
        assert np.array_equal(out.matrix, np.eye(4))
        assert out.space.labels == ("A", "B")

    def test_basis_projectors(self):
        p0 = Operator(FactorSpace(("A",), (2,)), basis_projector(2, 0))
        p1 = Operator(FactorSpace(("B",), (2,)), basis_projector(2, 1))
        out = qmat.tensor(p0, p1)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # |01>
        assert np.allclose(out.matrix, expected)

    def test_trace_multiplicative(self):
        # oracle: direct product of separately computed traces
        rng = np.random.default_rng(42)
        rho = random_density(rng, 3)
        sigma = random_density(rng, 3)
        a = Operator(FactorSpace(("A",), (3,)), 0.7 * rho)
        b = Operator(FactorSpace(("B",), (3,)), 1.3 * sigma)
        out = qmat.tensor(a, b)
        assert np.isclose(out.trace, np.trace(0.7 * rho) * np.trace(1.3 * sigma))

    def test_duplicate_label_error(self):
        a = qmat.identity(FactorSpace(("A",), (2,)))
        with pytest.raises(ValueError, match="duplicate"):
            qmat.tensor(a, a)

    def test_cap_error(self, monkeypatch):
        # a product above the cap is formed; embedding onto it is refused
        monkeypatch.setattr(qmat, "DEFAULT_DIM_CAP", 4)
        a = qmat.identity(FactorSpace(("A",), (2,)))
        b = qmat.identity(FactorSpace(("B",), (4,)))
        assert qmat.tensor(a, b).space.dim == 8
        with pytest.raises(DimensionCapError, match="exceeding the cap 4"):
            qmat.embed(a, FactorSpace(("A", "B"), (2, 4)))

    def test_embed_refused_above_the_cap_before_it_allocates(self):
        # a 2^40-dimensional identity would not fit in memory
        a = qmat.identity(FactorSpace(("A",), (2,)))
        target = FactorSpace(["A"] + [f"X{i}" for i in range(39)], (2,) * 40)
        with pytest.raises(DimensionCapError, match="exceeding the cap 4096"):
            qmat.embed(a, target)

    def test_pure_states(self):
        bell = bell_state()
        prod = qmat.tensor(bell, bell_state("Bp", "B"))
        assert isinstance(prod, PureState)
        assert prod.space.dim == 16


class TestPartialTrace:
    def test_bell_reduction(self):
        red = qmat.partial_trace(bell_state("A", "B"), ("A",))
        assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_case(self):
        rng = np.random.default_rng(7)
        for da, db in ((2, 3), (3, 2), (2, 2), (4, 3), (3, 4)):
            rho = random_density(rng, da)
            sigma = random_density(rng, db)
            both = qmat.tensor(
                DensityOperator(FactorSpace(("A",), (da,)), rho),
                DensityOperator(FactorSpace(("B",), (db,)), sigma),
            )
            back = qmat.partial_trace(both, ("A",))
            assert np.max(np.abs(back.matrix - rho)) < 1e-12

    def test_matches_index_sum_oracle(self):
        # oracle: explicit summation over the traced index
        rng = np.random.default_rng(11)
        rho = random_density(rng, 6)
        state = DensityOperator(FactorSpace(("A", "B"), (2, 3)), rho)
        reduced = qmat.partial_trace(state, ("A",)).matrix
        t = rho.reshape(2, 3, 2, 3)
        oracle = np.zeros((2, 2), dtype=complex)
        for a in range(2):
            for ap in range(2):
                for b in range(3):
                    oracle[a, ap] += t[a, b, ap, b]
        assert np.max(np.abs(reduced - oracle)) < 1e-12

    def test_trace_preserved_and_unknown_label(self):
        rng = np.random.default_rng(3)
        state = DensityOperator(FactorSpace(("A", "B"), (2, 2)),
                                random_density(rng, 4))
        red = qmat.partial_trace(state, ("B",))
        assert np.isclose(red.trace, 1.0)
        with pytest.raises(KeyError):
            qmat.partial_trace(state, ("Q",))


class TestEigHermitian:
    def test_diagonal_case(self):
        vals, vecs = qmat.eig_hermitian(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(vals, [3.0, 2.0, 1.0])
        recon = (vecs * vals) @ vecs.conj().T
        assert np.allclose(recon, np.diag([3.0, 1.0, 2.0]))

    def test_pauli_x(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        vals, vecs = qmat.eig_hermitian(x)
        assert np.allclose(vals, [1.0, -1.0])
        plus = np.array([1, 1]) / math.sqrt(2)
        assert abs(abs(np.vdot(vecs[:, 0], plus)) - 1) < 1e-12

    def test_reconstruction_random(self):
        rng = np.random.default_rng(19)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = (a + a.conj().T) / 2
        vals, vecs = qmat.eig_hermitian(h)
        assert np.max(np.abs((vecs * vals) @ vecs.conj().T - h)) < 1e-9
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(6))) < 1e-9
        assert all(vals[i] >= vals[i + 1] for i in range(5))

    def test_non_hermitian_rejected(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            qmat.eig_hermitian(m)

    def test_tie_break_deterministic(self):
        m = np.diag([2.0, 2.0, 1.0])
        v1 = qmat.eig_hermitian(m)
        v2 = qmat.eig_hermitian(m)
        assert np.array_equal(v1[0], v2[0])
        assert np.array_equal(v1[1], v2[1])


class TestOperatorPower:
    def test_identity_inverse_root(self):
        out = qmat.operator_power(np.eye(3), -0.5)
        assert np.allclose(out, np.eye(3))

    def test_scaled_projector(self):
        p = np.zeros((3, 3), dtype=complex)
        p[0, 0] = p[1, 1] = 1.0
        out = qmat.operator_power(4.0 * p, -0.5)
        assert np.allclose(out, 0.5 * p)

    def test_square_root_squares_back(self):
        rng = np.random.default_rng(23)
        m = random_density(rng, 5) * 5
        root = qmat.operator_power(m, 0.5)
        assert np.max(np.abs(root @ root - m)) < 1e-9

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            qmat.operator_power(np.diag([1.0, -0.5]), 0.5)


class TestApplyChannel:
    def test_identity_channel(self):
        ch = qmat.named_channel("identity:2")
        rng = np.random.default_rng(5)
        rho = DensityOperator(FactorSpace(("Ap",), (2,)), random_density(rng, 2))
        out = qmat.apply_channel(ch, rho)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12
        assert out.space.labels == ("B",)

    def test_fully_depolarizing(self):
        ch = qmat.named_channel("depolarizing:1")
        rng = np.random.default_rng(6)
        rho = DensityOperator(FactorSpace(("Ap",), (2,)), random_density(rng, 2))
        out = qmat.apply_channel(ch, rho)
        assert np.max(np.abs(out.matrix - np.eye(2) / 2)) < 1e-12

    def test_amplitude_damping_hand_value(self):
        # oracle: K0 |1><1| K0+ + K1 |1><1| K1+ = diag(g, 1-g) at g = 0.3
        ch = qmat.named_channel("amplitude-damping:0.3")
        rho = DensityOperator(FactorSpace(("Ap",), (2,)), basis_projector(2, 1))
        out = qmat.apply_channel(ch, rho)
        assert np.allclose(out.matrix, np.diag([0.3, 0.7]), atol=1e-12)

    def test_identity_on_untouched_factors(self):
        ch = qmat.named_channel("amplitude-damping:0.5")
        bell = bell_state("Ap", "A")
        out = qmat.apply_channel(ch, bell.density(), acting_on=("Ap",))
        assert set(out.space.labels) == {"B", "A"}
        # the untouched share keeps its maximally mixed marginal
        marg = qmat.partial_trace(out, ("A",))
        assert np.allclose(marg.matrix, np.eye(2) / 2, atol=1e-12)

    def test_label_mismatch(self):
        ch = qmat.named_channel("identity:2")
        rho = DensityOperator(FactorSpace(("Q",), (2,)),
                              np.eye(2, dtype=complex) / 2)
        with pytest.raises(KeyError):
            qmat.apply_channel(ch, rho)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_trace_and_psd_preserved(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(200):
            ch = random_kraus_channel(rng, dim, dim, n_kraus=2)
            rho = DensityOperator(
                FactorSpace(("Ap",), (dim,)), random_density(rng, dim)
            )
            out = qmat.apply_channel(ch, rho)  # DensityOperator validates
            assert abs(out.trace - 1.0) < 1e-9


class TestChannels:
    def test_kraus_completeness_enforced(self):
        bad = [np.eye(2) * 0.9]
        with pytest.raises(ValueError, match="identity"):
            KrausChannel(FactorSpace(("Ap",), (2,)), FactorSpace(("B",), (2,)), bad)

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_non_finite_kraus_rejected(self, entry):
        # a NaN makes the completeness defect NaN, which no comparison fails
        second = np.zeros((2, 2), dtype=complex)
        second[1, 0] = entry
        with pytest.raises(ValueError, match="Kraus matrix 1 has a non-finite"):
            KrausChannel(FactorSpace(("Ap",), (2,)), FactorSpace(("B",), (2,)),
                         [np.eye(2), second])

    @pytest.mark.parametrize("name", [
        "identity:3", "depolarizing:0.4", "amplitude-damping:0.25",
        "cnot-mac", "adder-mac",
    ])
    def test_named_channels_are_cptp(self, name):
        ch = qmat.named_channel(name)
        total = sum(k.conj().T @ k for k in ch.kraus)
        assert np.max(np.abs(total - np.eye(ch.in_space.dim))) < 1e-10

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown"):
            qmat.named_channel("teleporter")

    def test_cnot_mac_is_classical_on_computational_inputs(self):
        ch = qmat.named_channel("cnot-mac")
        rho = DensityOperator(ch.in_space, basis_projector(4, 3))  # |11>
        out = qmat.apply_channel(ch, rho)
        assert np.allclose(out.matrix, basis_projector(4, 2))  # |1, 0>

    def test_adder_mac_sums(self):
        ch = qmat.named_channel("adder-mac")
        rho = DensityOperator(ch.in_space, basis_projector(4, 3))  # x=y=1
        out = qmat.apply_channel(ch, rho)
        assert np.allclose(out.matrix, basis_projector(3, 2))  # |2>

    def test_json_round_trip(self):
        ch = qmat.named_channel("amplitude-damping:0.3")
        obj = qmat.channel_to_json(ch)
        # wire format: each matrix is a flat row-major list of [re, im]
        assert np.asarray(obj["kraus"][0]).shape == (4, 2)
        obj = json.loads(json.dumps(obj))
        back = qmat.channel_from_json(obj)
        for k1, k2 in zip(ch.kraus, back.kraus):
            assert np.max(np.abs(k1 - k2)) < 1e-12
        mac = qmat.channel_from_json(qmat.channel_to_json(
            qmat.named_channel("cnot-mac")
        ))
        assert mac.is_mac and mac.out_space.dims == (4,)

    def test_json_nested_rows_accepted(self):
        ch = qmat.named_channel("identity:2")
        nested = {
            "in_dims": [2], "out_dims": [2],
            "kraus": [[[[1.0, 0.0], [0.0, 0.0]],
                       [[0.0, 0.0], [1.0, 0.0]]]],
        }
        back = qmat.channel_from_json(nested)
        assert np.allclose(back.kraus[0], ch.kraus[0])

    def test_json_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            qmat.channel_from_json({
                "in_dims": [2], "out_dims": [2],
                "kraus": [[[1.0, 0.0], [0.0, 0.0]]],  # 2 pairs, need 4
            })


class TestPovmSet:
    def test_sum_beyond_identity_rejected(self):
        sp = FactorSpace(("S",), (2,))
        with pytest.raises(ValueError, match="sum"):
            PovmSet(sp, {0: np.eye(2), 1: 0.5 * np.eye(2)})

    def test_eigenvalue_range_enforced(self):
        sp = FactorSpace(("S",), (2,))
        with pytest.raises(ValueError, match="eigenvalues"):
            PovmSet(sp, {0: 1.5 * np.eye(2) / 1.0})

    def test_completion(self):
        sp = FactorSpace(("S",), (2,))
        povm = PovmSet(sp, {0: 0.25 * np.eye(2), 1: 0.5 * np.eye(2)})
        assert np.allclose(povm.completion(), 0.25 * np.eye(2))


class TestColumnPower:
    """The n-fold column products, filled in place in a requested row order."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_products_in_any_row_order_bit_for_bit(self, n):
        # oracle: chained column-wise Kronecker products, copy-major, with
        # the rows then moved; every order of the 2n factors gives it
        rng = np.random.default_rng(80)
        m = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        single = FactorSpace(("A", "C"), (2, 3))
        power = qmat.power_space(single, n)
        seqs = rng.integers(0, 4, size=(7, n))
        want = kron_columns(m, seqs)
        assert np.array_equal(qmat.column_power(m, seqs, single), want)
        for labels in (power.labels, power.labels[::-1],
                       tuple(rng.permutation(power.labels)),
                       tuple(f"A{i}" for i in range(1, n + 1))
                       + tuple(f"C{i}" for i in range(1, n + 1))):
            got = qmat.column_power(m, seqs, single, labels)
            assert np.array_equal(
                got, permute_rows(want, power, labels)), labels

    def test_one_factor_and_no_columns(self):
        u = random_unitary(np.random.default_rng(81), 3)
        seqs = np.array([[0, 2], [1, 1]])
        assert np.array_equal(qmat.column_power(u, seqs),
                              kron_columns(u, seqs))
        assert qmat.column_power(u, np.empty((0, 4), int)).shape == (81, 0)

    def test_labels_must_be_the_copies(self):
        single = FactorSpace(("A", "C"), (2, 2))
        with pytest.raises(ValueError, match="permutation"):
            qmat.column_power(np.eye(4), [[0, 1]], single, ("A1", "C1", "A2"))


class TestIsometricExtension:
    """The output factor R (R R† is the channel output) and the isometry it holds."""

    def test_stinespring_reproduces_channel(self):
        # sent through the channel, half of |Phi> = sum_a |aa> / sqrt(d) gives
        # the factor R[(b, a), i] = K_i[b, a] / sqrt(d): the Stinespring
        # isometry V = sum_i K_i (x) |i>_E up to the order of its indices
        rng = np.random.default_rng(77)
        ch = random_kraus_channel(rng, 2, 3, n_kraus=2)
        r = qmat.output_factor(ch, bell_state("Ap", "Q"), (("Ap",), ("B",)),
                               ("B", "Q"))
        v = math.sqrt(2) * r.reshape(3, 2, 2).transpose(0, 2, 1).reshape(6, 2)
        space = FactorSpace(("B", "E"), (3, 2))
        assert np.max(np.abs(v.conj().T @ v - np.eye(2))) < 1e-10
        rho = random_density(rng, 2)
        big = v @ rho @ v.conj().T
        big_op = Operator(space, big)
        out = qmat.partial_trace(big_op, ("B",)).matrix
        direct = sum(k @ rho @ k.conj().T for k in ch.kraus)
        assert np.max(np.abs(out - direct)) < 1e-10

    def test_purified_application_matches_channel(self):
        ch = qmat.named_channel("amplitude-damping:0.4")
        bell = bell_state("Ap", "A")
        r = qmat.output_factor(ch, bell, (("Ap",), ("B",)), ("B", "A"))
        reduced = r @ r.conj().T
        direct = qmat.apply_channel(ch, bell.density(), acting_on=("Ap",))
        direct = qmat.permute(direct, ("B", "A")).matrix
        assert np.max(np.abs(reduced - direct)) < 1e-10

    def test_wide_factor_is_compressed(self):
        # four Kraus matrices on a lone qubit would give R four columns for
        # two rows; a QR of R† keeps R R† with two
        ch = qmat.named_channel("depolarizing:0.3")
        rng = np.random.default_rng(78)
        state = PureState(FactorSpace(("Ap",), (2,)), random_pure_vector(rng, 2))
        r = qmat.output_factor(ch, state, (("Ap",), ("B",)), ("B",))
        assert r.shape == (2, 2)
        direct = qmat.apply_channel(ch, state.density()).matrix
        assert np.max(np.abs(r @ r.conj().T - direct)) < 1e-12

    def test_redundant_kraus_set_is_reduced(self):
        # 64 copies of I/8 are the identity channel; the factor keeps at most
        # d_in d_out = 4 Kraus columns per use
        ch = KrausChannel(FactorSpace(("Ap",), (2,)), FactorSpace(("B",), (2,)),
                          [np.eye(2) / 8] * 64)
        bell = bell_state("Ap", "A")
        r = qmat.output_factor(ch, bell, (("Ap",), ("B",)), ("A", "B"))
        assert r.shape == (4, 4)
        assert np.max(np.abs(r @ r.conj().T - bell.density().matrix)) < 1e-12

    def test_uses_in_sequence_and_row_order(self):
        # the n-use oracle: two uses of a 2 -> 3 channel on the two halves
        # of a random state on (Ap1, Ap2, Q); rows in a requested order
        # differ by a permutation
        rng = np.random.default_rng(79)
        ch = random_kraus_channel(rng, 2, 3, n_kraus=3)
        space = FactorSpace(("Ap1", "Ap2", "Q"), (2, 2, 2))
        state = PureState(space, random_pure_vector(rng, 8))
        uses = [(("Ap1",), ("B1",)), (("Ap2",), ("B2",))]
        r = output_factor_uses(ch, state, uses, ("Q", "B1", "B2"))
        want = state.density()
        for (acting_on, out_labels) in uses:
            want = qmat.apply_channel(ch, want, acting_on, out_labels)
        want = qmat.permute(want, ("Q", "B1", "B2")).matrix
        assert r.shape == (18, 9)
        assert np.max(np.abs(r @ r.conj().T - want)) < 1e-12

    def test_use_checks(self):
        ch = qmat.named_channel("identity:2")
        bell = bell_state("Ap", "A")
        with pytest.raises(ValueError, match="collide"):
            qmat.output_factor(ch, bell, (("Ap",), ("A",)), ("A",))
        with pytest.raises(ValueError, match="permutation"):
            qmat.output_factor(ch, bell, (("Ap",), ("B",)), ("A",))
        with pytest.raises(KeyError):
            qmat.output_factor(ch, bell, (("Bp",), ("B",)), ("A", "B"))
