"""Entropies, mutual informations, and the rate-region calculators."""

import math

import numpy as np
import pytest

from qmac import eacode, info, qmat
from qmac.info import RateRegion
from qmac.qmat import DensityOperator, FactorSpace, PureState

from conftest import (
    bell_state,
    fully_depolarizing_mac,
    parallel_qubit_mac,
    random_density,
    schmidt_state,
)

# binary entropy H2(0.9), frozen from a 30-digit mpmath evaluation
H2_09 = 0.468995593589281221253589330383


def qubit(p):
    return DensityOperator(FactorSpace(("A",), (2,)), np.diag([p, 1 - p]))


class TestVonNeumannEntropy:
    def test_pure_state(self):
        rho = DensityOperator(FactorSpace(("A",), (2,)), np.diag([1.0, 0.0]))
        assert info.von_neumann_entropy(rho) == 0.0

    def test_maximally_mixed(self):
        rho = DensityOperator(FactorSpace(("A",), (2,)), np.eye(2) / 2)
        assert np.isclose(info.von_neumann_entropy(rho), 1.0)

    def test_binary_entropy_oracle(self):
        assert abs(info.von_neumann_entropy(qubit(0.9)) - H2_09) < 1e-12

    def test_range(self):
        rng = np.random.default_rng(12)
        for dim in (2, 3, 5):
            rho = DensityOperator(FactorSpace(("A",), (dim,)),
                                  random_density(rng, dim))
            h = info.von_neumann_entropy(rho)
            assert -1e-12 <= h <= math.log2(dim) + 1e-12


class TestMutualInformation:
    def test_bell_state(self):
        rho = bell_state("A", "B").density()
        assert np.isclose(info.mutual_information(rho, ("A",), ("B",)), 2.0)

    def test_product_state(self):
        rng = np.random.default_rng(9)
        rho = qmat.tensor(
            DensityOperator(FactorSpace(("A",), (2,)), random_density(rng, 2)),
            DensityOperator(FactorSpace(("B",), (3,)), random_density(rng, 3)),
        )
        assert abs(info.mutual_information(rho, ("A",), ("B",))) < 1e-10

    def test_classically_correlated(self):
        m = np.zeros((4, 4))
        m[0, 0] = m[3, 3] = 0.5
        rho = DensityOperator(FactorSpace(("A", "B"), (2, 2)), m)
        assert np.isclose(info.mutual_information(rho, ("A",), ("B",)), 1.0)

    def test_overlap_rejected(self):
        rho = bell_state("A", "B").density()
        with pytest.raises(ValueError, match="overlap"):
            info.mutual_information(rho, ("A",), ("A", "B"))


def ghz_state():
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1 / math.sqrt(2)
    return PureState(FactorSpace(("A", "B", "C"), (2, 2, 2)), v)


class TestConditionalMutualInformation:
    def test_bell_with_uncorrelated_conditioner(self):
        rho = qmat.tensor(
            bell_state("A", "C").density(),
            DensityOperator(FactorSpace(("B",), (2,)), np.eye(2) / 2),
        )
        val = info.conditional_mutual_information(rho, ("A",), ("C",), ("B",))
        assert np.isclose(val, 2.0)

    def test_ghz_direct_entropy_oracle(self):
        # oracle: hand-built marginals of the pure GHZ
        rho = ghz_state().density()
        val = info.conditional_mutual_information(rho, ("A",), ("B",), ("C",))
        # H(AC) = 1, H(BC) = 1, H(C) = 1, H(ABC) = 0 for the coherent GHZ
        assert np.isclose(val, 1.0)
        # the computational-basis-dephased GHZ has classical correlations only
        m = np.zeros((8, 8))
        m[0, 0] = m[7, 7] = 0.5
        dephased = DensityOperator(FactorSpace(("A", "B", "C"), (2, 2, 2)), m)
        val = info.conditional_mutual_information(
            dephased, ("A",), ("B",), ("C",)
        )
        assert abs(val) < 1e-12

    def test_pure_product_zero(self):
        v = np.zeros(8, dtype=complex)
        v[0] = 1.0
        rho = PureState(FactorSpace(("A", "B", "C"), (2, 2, 2)), v).density()
        val = info.conditional_mutual_information(rho, ("A",), ("B",), ("C",))
        assert abs(val) < 1e-12

    def test_strong_subadditivity_random(self):
        rng = np.random.default_rng(77)
        for dims in ((2, 2, 2), (2, 2, 3)):
            for _ in range(150):
                rho = DensityOperator(
                    FactorSpace(("A", "B", "C"), dims),
                    random_density(rng, int(np.prod(dims))),
                )
                val = info.conditional_mutual_information(
                    rho, ("A",), ("B",), ("C",)
                )
                assert val >= -1e-9


class TestCoherentInformation:
    def test_bell(self):
        rho = bell_state("A", "B").density()
        assert np.isclose(info.coherent_information(rho, ("A",), ("B",)), 1.0)

    def test_product_of_maximally_mixed(self):
        rho = DensityOperator(FactorSpace(("A", "B"), (2, 2)), np.eye(4) / 4)
        assert np.isclose(info.coherent_information(rho, ("A",), ("B",)), -1.0)

    def test_pure_bipartite_equals_marginal_entropy(self):
        rho = schmidt_state([0.9, 0.1], "A", "B").density()
        val = info.coherent_information(rho, ("A",), ("B",))
        assert abs(val - H2_09) < 1e-12


class TestPentagonVertices:
    def test_rectangle_when_sum_slack(self):
        reg = RateRegion(1.0, 2.0, 5.0)
        assert set(reg.vertices) == {(0, 0), (1, 0), (1, 2), (0, 2)}

    def test_pentagon(self):
        reg = RateRegion(2.0, 2.0, 3.0)
        assert set(reg.vertices) == {(0, 0), (2, 0), (2, 1), (1, 2), (0, 2)}

    def test_sum_dominant(self):
        reg = RateRegion(4.0, 5.0, 2.0)
        assert set(reg.vertices) == {(0, 0), (2, 0), (0, 2)}

    def test_vertices_satisfy_inequalities(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = rng.uniform(0, 3, size=2)
            c = rng.uniform(0, a + b + 1)
            reg = RateRegion(a, b, c)
            for x, y in reg.vertices:
                assert x <= a + 1e-9 and y <= b + 1e-9
                assert x + y <= c + 1e-9
                assert x >= -1e-12 and y >= -1e-12

    def test_negative_bounds_clamp(self):
        reg = RateRegion(-0.5, 1.0, 2.0)
        assert reg.r1_max == 0.0


class TestEaCcRegion:
    def test_superdense_coding(self):
        reg = info.ea_cc_region(
            parallel_qubit_mac(), bell_state("Ap", "A"), bell_state("Bp", "B")
        )
        assert np.allclose(reg.bounds(), (2.0, 2.0, 4.0), atol=1e-12)

    def test_fully_depolarizing(self):
        reg = info.ea_cc_region(
            fully_depolarizing_mac(), bell_state("Ap", "A"),
            bell_state("Bp", "B"),
        )
        assert np.allclose(reg.bounds(), (0.0, 0.0, 0.0), atol=1e-9)

    def test_cnot_mac_versus_manual_entropy_oracle(self):
        # oracle: build the purified 6-qubit state by hand as its factor R,
        # whose columns index the 2-qubit dephasing ancilla, trace that
        # ancilla as R R†, and evaluate the three informations from
        # explicitly constructed marginals.
        ch = qmat.named_channel("cnot-mac")
        phi, psi = bell_state("Ap", "A"), bell_state("Bp", "B")
        joint = qmat.tensor(phi, psi)
        r = qmat.output_factor(ch, joint, [(("Ap", "Bp"), ("C",))],
                               ("A", "B", "C"))
        assert r.shape == (16, 4)  # A, B, C (2 qubits) by E (2-qubit ancilla)
        rho = DensityOperator(FactorSpace(("A", "B", "C"), (2, 2, 4)),
                              r @ r.conj().T)

        def h(labels):
            sub = qmat.partial_trace(rho, labels)
            vals = np.linalg.eigvalsh(sub.matrix)
            return float(-sum(v * math.log2(v) for v in vals if v > 1e-14))

        r1 = h(("A", "B")) + h(("C", "B")) - h(("B",)) - h(("A", "B", "C"))
        r2 = h(("B", "A")) + h(("C", "A")) - h(("A",)) - h(("A", "B", "C"))
        s = h(("A", "B")) + h(("C",)) - h(("A", "B", "C"))
        reg = info.ea_cc_region(ch, phi, psi)
        assert np.allclose(reg.bounds(), (r1, r2, s), atol=1e-10)
        assert np.allclose(reg.bounds(), (1.0, 1.0, 2.0), atol=1e-10)

    def test_vertices_respect_bounds(self):
        reg = info.ea_cc_region(
            qmat.named_channel("cnot-mac"), schmidt_state([0.8, 0.2]),
            schmidt_state([0.6, 0.4], "Bp", "B"),
        )
        for x, y in reg.vertices:
            assert x + y <= reg.sum_max + 1e-9


class TestUnassistedCcRegion:
    def binary_ensemble(self):
        e0 = np.zeros((2, 2)); e0[0, 0] = 1.0
        e1 = np.zeros((2, 2)); e1[1, 1] = 1.0
        return [(0.5, e0), (0.5, e1)]

    def test_adder_mac_shannon_oracle(self):
        # oracle: brute-force Shannon entropies of the joint (x, y, z) law
        ens = self.binary_ensemble()
        reg = info.unassisted_cc_region(qmat.named_channel("adder-mac"),
                                        ens, ens)
        pxyz = {}
        for x in range(2):
            for y in range(2):
                pxyz[(x, y, x + y)] = 0.25

        def shannon(marginal):
            acc = {}
            for k, p in pxyz.items():
                key = marginal(k)
                acc[key] = acc.get(key, 0.0) + p
            return -sum(p * math.log2(p) for p in acc.values() if p > 0)

        h_xy = shannon(lambda k: (k[0], k[1]))
        h_yz = shannon(lambda k: (k[1], k[2]))
        h_xz = shannon(lambda k: (k[0], k[2]))
        h_x = shannon(lambda k: k[0])
        h_y = shannon(lambda k: k[1])
        h_z = shannon(lambda k: k[2])
        h_xyz = shannon(lambda k: k)
        expect = (
            h_xy + h_yz - h_y - h_xyz,
            h_xy + h_xz - h_x - h_xyz,
            h_xy + h_z - h_xyz,
        )
        assert np.allclose(reg.bounds(), expect, atol=1e-10)
        assert np.allclose(reg.bounds(), (1.0, 1.0, 1.5), atol=1e-10)

    def test_deterministic_ensembles(self):
        e0 = np.zeros((2, 2)); e0[0, 0] = 1.0
        det = [(1.0, e0)]
        reg = info.unassisted_cc_region(qmat.named_channel("adder-mac"),
                                        det, det)
        assert np.allclose(reg.bounds(), (0.0, 0.0, 0.0), atol=1e-10)

    def test_identity_channel_perfect_bit(self):
        # identity on Alice's qubit alone, uniform orthogonal inputs
        ch = qmat.KrausChannel(
            FactorSpace(("Ap", "Bp"), (2, 2)), FactorSpace(("C",), (4,)),
            [np.eye(4)],
        )
        ens = self.binary_ensemble()
        reg = info.unassisted_cc_region(ch, ens, [(1.0, np.eye(2) / 2)])
        assert np.isclose(reg.r1_max, 1.0, atol=1e-10)

    def test_unnormalized_rejected(self):
        e0 = np.zeros((2, 2)); e0[0, 0] = 1.0
        with pytest.raises(ValueError, match="sum"):
            info.unassisted_cc_region(
                qmat.named_channel("adder-mac"), [(0.7, e0)], [(1.0, e0)]
            )


class TestEaCodeState:
    def test_refused_above_the_dense_cap_before_it_allocates(self, monkeypatch):
        # the cnot-mac code state is on (A, B, C), 16-dimensional
        def unreachable(*args):
            raise AssertionError("the output factor was built")

        monkeypatch.setattr(qmat, "DEFAULT_DIM_CAP", 8)
        monkeypatch.setattr(qmat, "output_factor", unreachable)
        with pytest.raises(qmat.DimensionCapError, match="dimension 16"):
            info.ea_code_state(qmat.named_channel("cnot-mac"),
                               (bell_state("Ap", "A"), bell_state("Bp", "B")))

    def test_single_sender_layout(self):
        # oracle: the n = 1 channel output of the type decomposition
        ch = qmat.named_channel("amplitude-damping:0.3")
        phi = schmidt_state([0.7, 0.3])
        rho = info.ea_code_state(ch, [phi])
        assert rho.space.labels == ("A", "B")
        ref = eacode.channel_output_state(ch, [eacode.type_decompose(phi, 1)])
        assert ref.space.labels == ("A1", "B1")
        assert np.max(np.abs(rho.matrix - ref.matrix)) < 1e-12

    def test_labels_come_from_the_states(self):
        ch = parallel_qubit_mac()
        rho = info.ea_code_state(
            ch, (bell_state("Ap", "R"), bell_state("Bp", "S")))
        assert rho.space.labels == ("R", "S") + ch.out_space.labels
        ref = info.ea_code_state(
            ch, (bell_state("Ap", "A"), bell_state("Bp", "B")))
        assert np.array_equal(rho.matrix, ref.matrix)

    @pytest.mark.parametrize("name, weights", [
        ("cnot-mac", [0.7, 0.3]), ("adder-mac", [0.5, 0.5]),
        ("depolarizing:0.2", [0.7, 0.3]), ("amplitude-damping:0.3", [0.6, 0.4]),
        ("identity:3", [0.6, 0.3, 0.1]),
    ])
    def test_matches_dense_kraus_sum(self, name, weights):
        # oracle: the channel's Kraus sum on the full input density matrix
        ch = qmat.named_channel(name)
        states = [schmidt_state(weights, s, r)
                  for s, r in zip(ch.in_space.labels, ("A", "B"))]
        rho = info.ea_code_state(ch, states)
        dense = qmat.apply_channel(ch, qmat.tensor(*states).density(),
                                   acting_on=ch.in_space.labels)
        dense = qmat.permute(dense, rho.space.labels)
        assert np.max(np.abs(rho.matrix - dense.matrix)) < 1e-12

    def test_no_kraus_sum_and_one_state(self, monkeypatch):
        calls = {"apply_channel": 0, "DensityOperator": 0}

        def apply_channel(*args, **kwargs):
            calls["apply_channel"] += 1
            return original_apply(*args, **kwargs)

        def density_init(self, *args, **kwargs):
            calls["DensityOperator"] += 1
            original_init(self, *args, **kwargs)

        original_apply = qmat.apply_channel
        original_init = qmat.DensityOperator.__init__
        monkeypatch.setattr(qmat, "apply_channel", apply_channel)
        monkeypatch.setattr(qmat.DensityOperator, "__init__", density_init)
        info.ea_code_state(qmat.named_channel("cnot-mac"),
                           (bell_state("Ap", "A"), bell_state("Bp", "B")))
        assert calls == {"apply_channel": 0, "DensityOperator": 1}
        calls.update(apply_channel=0, DensityOperator=0)
        info.ea_code_state(qmat.named_channel("depolarizing:0.2"),
                           [bell_state()])
        assert calls == {"apply_channel": 0, "DensityOperator": 1}


class TestQuantumRegions:
    def test_ea_q_is_half_cc_exactly(self):
        ch = parallel_qubit_mac()
        phi, psi = bell_state("Ap", "A"), bell_state("Bp", "B")
        cc = info.ea_cc_region(ch, phi, psi)
        q = info.ea_q_region(ch, phi, psi)
        assert q.bounds() == tuple(0.5 * b for b in cc.bounds())
        assert np.allclose(q.bounds(), (1.0, 1.0, 2.0), atol=1e-12)

    def test_lsd_region_coherent_information_oracle(self):
        # oracle: H(CB) - H(ABC) etc. computed through separate traces
        ch = parallel_qubit_mac()
        phi, psi = bell_state("Ap", "A"), bell_state("Bp", "B")
        reg = info.lsd_q_region(ch, phi, psi)
        rho = info.ea_code_state(ch, (phi, psi))
        h_cb = info.von_neumann_entropy(qmat.partial_trace(rho, ("C", "B")))
        h_all = info.von_neumann_entropy(rho)
        assert np.isclose(reg.r1_max, h_cb - h_all, atol=1e-12)
        assert np.allclose(reg.bounds(), (1.0, 1.0, 2.0), atol=1e-10)

    def test_lsd_clamps_and_reports_raw(self):
        reg = info.lsd_q_region(
            fully_depolarizing_mac(), bell_state("Ap", "A"),
            bell_state("Bp", "B"),
        )
        assert reg.bounds() == (0.0, 0.0, 0.0)
        assert reg.raw_bounds[0] < 0  # I(A>C|B) is negative here

    @pytest.mark.parametrize("name", ["cnot-mac", "adder-mac"])
    def test_regions_read_receiver_labels_from_the_states(self, name):
        # phi on (Ap, R) and psi on (Bp, S) give the regions of (Ap, A) and
        # (Bp, B): the receiver labels are names, not fixed letters
        ch = qmat.named_channel(name)
        renamed = (schmidt_state([0.7, 0.3], "Ap", "R"), bell_state("Bp", "S"))
        plain = (schmidt_state([0.7, 0.3], "Ap", "A"), bell_state("Bp", "B"))
        for region in (info.ea_cc_region, info.ea_q_region, info.lsd_q_region):
            got, want = region(ch, *renamed), region(ch, *plain)
            assert np.allclose(got.bounds(), want.bounds(), rtol=0, atol=1e-12)
            assert np.allclose(got.raw_bounds, want.raw_bounds, rtol=0, atol=1e-12)
