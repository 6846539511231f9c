"""Type classes, typical projectors, measured packing constants."""

import itertools
import math

import numpy as np
import pytest

from qmac import info, qmat, typicality
from qmac.qmat import DensityOperator, FactorSpace

from conftest import random_density, random_unitary, schmidt_state
from oracles import embedded_typical_projectors, type_sequences


class TestTypeTable:
    def test_binary_n2(self):
        counts, dims = typicality.type_table(2, 2)
        assert counts.tolist() == [[2, 0], [1, 1], [0, 2]]
        assert dims == (1, 2, 1)

    def test_n1_singletons(self):
        counts, dims = typicality.type_table(1, 5)
        assert len(counts) == 5
        assert dims == (1,) * 5

    def test_dims_sum_to_sequence_count(self):
        # oracle: exhaustive sequence enumeration
        counts, dims = typicality.type_table(4, 2)
        assert sum(dims) == 2**4
        counted = {}
        for seq in itertools.product(range(2), repeat=4):
            key = (seq.count(0), seq.count(1))
            counted[key] = counted.get(key, 0) + 1
        for row, dim in zip(counts.tolist(), dims):
            assert counted[tuple(row)] == dim

    def test_sequences_are_lexicographic(self):
        # the first is the letters in order, the least sequence of the type
        seqs = list(type_sequences((1, 2, 1)))
        assert seqs[0] == (0, 1, 1, 2)
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert len(seqs) == math.factorial(4) // 2
        assert all(tuple(seq.count(a) for a in range(3)) == (1, 2, 1)
                   for seq in seqs)
        # a row of the table, as numpy integers, gives the same list
        counts, dims = typicality.type_table(4, 3)
        row = counts.tolist().index([1, 2, 1])
        assert list(type_sequences(counts[row])) == seqs
        assert dims[row] == len(seqs)

    def test_cap(self, monkeypatch):
        # the dense cap does not bound the sequence count
        monkeypatch.setattr(qmat, "DEFAULT_DIM_CAP", 100)
        assert sum(typicality.type_table(10, 2)[1]) == 1024
        counts, dims = typicality.type_table(4, 16)
        assert len(counts) == math.comb(19, 4)
        assert sum(dims) == 16**4


class TestTypeClassProjector:
    def test_rank_and_span(self):
        proj = typicality.type_class_projector((1, 1))
        # span{|01>, |10>}
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[2, 2] = 1.0
        assert np.allclose(proj, expected)

    def test_resolution_of_identity(self):
        counts, _ = typicality.type_table(3, 2)
        total = sum(typicality.type_class_projector(row) for row in counts)
        assert np.max(np.abs(total - np.eye(8))) < 1e-12

    def test_orthogonal_across_types(self):
        counts, _ = typicality.type_table(3, 2)
        projs = [typicality.type_class_projector(row) for row in counts]
        for i in range(len(projs)):
            for j in range(i + 1, len(projs)):
                assert np.max(np.abs(projs[i] @ projs[j])) < 1e-12

    def test_rotated_basis(self):
        rng = np.random.default_rng(31)
        u = random_unitary(rng, 2)
        proj = typicality.type_class_projector((1, 1), u)
        assert np.max(np.abs(proj @ proj - proj)) < 1e-12
        assert np.isclose(np.trace(proj).real, 2)

    def test_basis_of_another_alphabet_refused(self):
        with pytest.raises(ValueError, match="3 columns for a 2-letter type"):
            typicality.type_class_projector((1, 1), np.eye(3))


def kron_vector(basis, seq):
    """Reference product vector b_{z1} (x) ... (x) b_{zn}, one kron per letter."""
    vec = basis[:, seq[0]]
    for z in seq[1:]:
        vec = np.kron(vec, basis[:, z])
    return vec


class TestTypeBasis:
    def test_columns_are_kron_products_in_type_then_lex_order(self):
        rng = np.random.default_rng(5)
        u = random_unitary(rng, 3)
        counts, _ = typicality.type_table(3, 3)
        b = typicality.type_basis(counts, u)
        seqs = [seq for row in counts for seq in type_sequences(row)]
        assert b.shape == (27, 27)
        for col, seq in zip(b.T, seqs):
            assert np.array_equal(col, kron_vector(u, seq))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("alphabet", [1, 2, 3, 4])
    def test_sequences_match_the_recursive_enumeration(self, alphabet, n):
        # whole type lists, sub-lists, reorderings and zero-padded counts
        # give the columns the recursive type_sequences gives, exactly
        rng = np.random.default_rng(10 * alphabet + n)
        types = typicality.type_table(n, alphabet)[0].tolist()
        lists = [types, types[::-1], types[1::2] or types,
                 [types[i] for i in rng.permutation(len(types))],
                 [row + [0] for row in types]]
        for sub in lists:
            u = random_unitary(rng, len(sub[0]))
            seqs = np.array([seq for row in sub
                             for seq in type_sequences(row)])
            want = np.array([kron_vector(u, seq) for seq in seqs]).T
            assert np.array_equal(typicality.type_basis(sub, u), want)

    def test_typical_projector_is_sum_of_outer_products(self):
        # reference: one rank-one update per retained sequence
        rho = DensityOperator(FactorSpace(("A",), (3,)),
                              random_density(np.random.default_rng(9), 3))
        tp = typicality.typical_projector(rho, 3, 0.2)
        vals, vecs = qmat.eig_hermitian(rho)
        expect = np.zeros((27, 27), dtype=complex)
        kept = 0
        for seq in itertools.product(range(3), repeat=3):
            lam = math.prod(vals[z] for z in seq)
            if abs(-math.log2(lam) / 3 - tp.base_entropy) <= 0.2 + 1e-12:
                v = kron_vector(vecs, seq)
                expect += np.outer(v, v.conj())
                kept += 1
        assert 0 < kept < 27
        assert np.max(np.abs(tp.projector - expect)) < 1e-12


def qubit_state(p):
    return DensityOperator(FactorSpace(("A",), (2,)), np.diag([p, 1 - p]))


class TestTypicalProjector:
    def test_maximally_mixed_keeps_everything(self):
        rho = DensityOperator(FactorSpace(("A",), (2,)), np.eye(2) / 2)
        tp = typicality.typical_projector(rho, 3, 0.1)
        assert np.allclose(tp.projector, np.eye(8))
        assert np.isclose(tp.weight, 1.0)

    def test_pure_state_projects_on_power(self):
        rng = np.random.default_rng(13)
        u = random_unitary(rng, 2)
        psi = u[:, 0]
        rho = DensityOperator(FactorSpace(("A",), (2,)),
                              np.outer(psi, psi.conj()))
        tp = typicality.typical_projector(rho, 3, 0.05)
        target = np.outer(psi, psi.conj())
        expected = np.kron(np.kron(target, target), target)
        assert np.max(np.abs(tp.projector - expected)) < 1e-10

    @pytest.mark.parametrize("delta", [0.05, 0.2, 0.35, 0.6, 1.2])
    def test_matches_bruteforce_enumeration(self, delta):
        # oracle: loop over all 16 eigenvalue products of rho^(x)4
        rho = qubit_state(0.9)
        tp = typicality.typical_projector(rho, 4, delta)
        h = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
        retained_dim = 0
        weight = 0.0
        for seq in itertools.product(range(2), repeat=4):
            lam = math.prod([0.9, 0.1][z] for z in seq)
            if abs(-math.log2(lam) / 4 - h) <= delta:
                retained_dim += 1
                weight += lam
        assert tp.rank == retained_dim
        assert np.isclose(tp.weight, weight, atol=1e-12)

    def test_commutes_with_power(self):
        rng = np.random.default_rng(41)
        rho = DensityOperator(FactorSpace(("A",), (2,)), random_density(rng, 2))
        tp = typicality.typical_projector(rho, 3, 0.3)
        power = rho.matrix
        for _ in range(2):
            power = np.kron(power, rho.matrix)
        comm = tp.projector @ power - power @ tp.projector
        assert np.max(np.abs(comm)) < 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(43)
        rho = DensityOperator(FactorSpace(("A",), (3,)), random_density(rng, 3))
        tp = typicality.typical_projector(rho, 2, 0.4)
        assert np.max(np.abs(tp.projector @ tp.projector - tp.projector)) < 1e-9

    def test_equipartition_sandwich(self):
        rho = qubit_state(0.8)
        tp = typicality.typical_projector(rho, 4, 0.4)
        h = tp.base_entropy
        if tp.rank:
            assert tp.lambda_min >= 2 ** (-4 * (h + 0.4)) * (1 - 1e-9)
            assert tp.lambda_max <= 2 ** (-4 * (h - 0.4)) * (1 + 1e-9)

    def test_weight_monotone_in_delta(self):
        rho = qubit_state(0.85)
        weights = [
            typicality.typical_projector(rho, 4, d).weight
            for d in (0.05, 0.15, 0.3, 0.6, 1.0, 3.0)
        ]
        assert all(w2 >= w1 - 1e-12 for w1, w2 in zip(weights, weights[1:]))
        assert np.isclose(weights[-1], 1.0)

    @pytest.mark.parametrize("delta", [60.0, 1e300])
    def test_rounding_eigenvalues_are_not_typical(self, delta):
        # rho_AB of identity:3 on the state simulate-seq builds for "bell"
        # is pure; eigh returns one of its zero eigenvalues as 5.08e-17,
        # which a delta above 54 would otherwise admit beside the one true
        # eigenvector
        rho = info.ea_code_state(qmat.named_channel("identity:3"),
                                 [schmidt_state([1 / 3] * 3)])
        tp = typicality.typical_projector(rho, 1, delta)
        assert tp.rank == 1
        assert tp.lambda_min == tp.lambda_max

    @pytest.mark.parametrize("delta", [-0.1, float("nan")])
    def test_bad_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="delta"):
            typicality.typical_projector(qubit_state(0.8), 2, delta)

    @staticmethod
    def mac_marginal(spec, phi, keep):
        # the single-copy marginal that mac_typical_projectors reads
        channel = qmat.named_channel(spec)
        shares = [schmidt_state(phi, "Ap", "A"),
                  schmidt_state([0.5, 0.5], "Bp", "B")]
        return qmat.partial_trace(info.ea_code_state(channel, shares),
                                  keep + channel.out_space.labels)

    @staticmethod
    def full_alphabet(rho, n, delta):
        # reference: every type over the full eigen-alphabet, those touching
        # a zero eigenvalue skipped
        vals, vecs = qmat.eig_hermitian(rho)
        vals = np.clip(vals.real, 0.0, None)
        vals[qmat.rounding_residuals(vals, len(vals))] = 0.0
        entropy = float(-sum(v * math.log2(v) for v in vals if v > 0))
        typical, weight = [], 0.0
        lam_max, lam_min = -np.inf, np.inf
        counts, dims = typicality.type_table(n, len(vals))
        for row, dim in zip(counts.tolist(), dims):
            if any(c > 0 and vals[i] <= 0 for i, c in enumerate(row)):
                continue
            log_lam = sum(c * math.log2(vals[i])
                          for i, c in enumerate(row) if c)
            if abs(-log_lam / n - entropy) <= delta + 1e-12:
                typical.append(row)
                lam = 2.0**log_lam
                weight += dim * lam
                lam_max, lam_min = max(lam_max, lam), min(lam_min, lam)
        return (typicality.type_basis(typical, vecs),
                weight, lam_max, lam_min)

    RANK_DEFICIENT = {
        "cnot-mac-ABC": ("cnot-mac", [0.5, 0.5], ("A", "B")),
        "cnot-mac-AC": ("cnot-mac", [0.5, 0.5], ("A",)),
        "adder-mac-ABC": ("adder-mac", [0.7, 0.3], ("A", "B")),
        "adder-mac-AC": ("adder-mac", [0.7, 0.3], ("A",)),
    }

    @pytest.mark.parametrize("spec,phi,keep", RANK_DEFICIENT.values(),
                             ids=RANK_DEFICIENT)
    @pytest.mark.parametrize("delta", [0.3, 1.0])
    def test_support_letters_give_the_full_alphabet_projector(
            self, spec, phi, keep, delta):
        rho = self.mac_marginal(spec, phi, keep)
        tp = typicality.typical_projector(rho, 2, delta)
        basis, weight, lam_max, lam_min = self.full_alphabet(rho, 2, delta)
        assert tp.rank > 0
        assert np.array_equal(tp.basis, basis)
        assert (tp.weight, tp.lambda_max, tp.lambda_min) == (
            weight, lam_max, lam_min)

    @pytest.mark.parametrize("spec,phi,keep", RANK_DEFICIENT.values(),
                             ids=RANK_DEFICIENT)
    def test_types_enumerated_over_the_support(self, monkeypatch, spec, phi,
                                               keep):
        # the ABC (dim 16 or 12) and AC (8 or 6) marginals have rank 4, so
        # n = 2 enumerates 10 types, not 136, 78, 36 or 21
        rho = self.mac_marginal(spec, phi, keep)
        sizes = []
        type_table = typicality.type_table

        def spy(n, letters):
            sizes.append(letters)
            return type_table(n, letters)

        monkeypatch.setattr(typicality, "type_table", spy)
        typicality.typical_projector(rho, 2, 1.0)
        assert rho.space.dim > 4
        assert sizes == [4]

    @staticmethod
    def per_type(rho, n, delta):
        # reference: one counts row per type over the support letters,
        # zero-padded, its log2 lam summed letter by letter
        vals, vecs = qmat.eig_hermitian(rho)
        vals = np.clip(vals.real, 0.0, None)
        vals[qmat.rounding_residuals(vals, len(vals))] = 0.0
        support = int(np.count_nonzero(vals))
        zeros = (0,) * (len(vals) - support)
        entropy = float(-sum(v * math.log2(v) for v in vals if v > 0))
        typical, weight = [], 0.0
        lam_max, lam_min = -np.inf, np.inf
        counts, dims = typicality.type_table(n, support)
        for row, dim in zip(counts.tolist(), dims):
            row = tuple(row) + zeros
            log_lam = 0.0
            for i, c in enumerate(row):
                if c:
                    log_lam += c * math.log2(vals[i])
            if abs(-log_lam / n - entropy) <= delta + 1e-12:
                typical.append(row)
                lam = 2.0**log_lam
                weight += dim * lam
                lam_max, lam_min = max(lam_max, lam), min(lam_min, lam)
        if not typical:
            return (np.zeros((len(vals) ** n, 0), dtype=complex), weight,
                    float("nan"), float("nan"))
        return (typicality.type_basis(typical, vecs),
                weight, lam_max, lam_min)

    @pytest.mark.parametrize("delta", [0.0, 0.5, 1.0, 10.0])
    @pytest.mark.parametrize("support", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_type_table_matches_a_type_class_per_type(self, n, support, delta):
        # a random state on 5 letters whose last 5 - support eigenvalues
        # are zero, in a random eigenbasis: the basis, weight and extreme
        # eigenvalues are bit for bit those of a loop over the types' rows
        rng = np.random.default_rng(100 * n + 10 * support + int(delta))
        u = random_unitary(rng, 5)
        p = np.zeros(5)
        p[:support] = rng.dirichlet(np.ones(support))
        rho = DensityOperator(FactorSpace(("A",), (5,)), (u * p) @ u.conj().T)
        tp = typicality.typical_projector(rho, n, delta)
        basis, weight, lam_max, lam_min = self.per_type(rho, n, delta)
        assert np.array_equal(tp.basis, basis)
        got = (tp.weight, tp.lambda_max, tp.lambda_min)
        assert np.array_equal(got, (weight, lam_max, lam_min), equal_nan=True)

    def test_type_table_is_every_composition(self):
        # oracle: every composition of n, first letter's count descending
        # (reverse lexicographic), each with its sequence count
        for n, letters in itertools.product(range(5), range(1, 6)):
            counts, dims = typicality.type_table(n, letters)
            want = sorted((c for c in itertools.product(range(n + 1),
                                                        repeat=letters)
                           if sum(c) == n), reverse=True)
            seqs = [tuple(seq.count(a) for a in range(letters))
                    for seq in itertools.product(range(letters), repeat=n)]
            assert counts.tolist() == [list(c) for c in want]
            assert dims == tuple(seqs.count(c) for c in want)
            assert all(type(d) is int for d in dims)
            assert not counts.flags.writeable

    def test_negative_marginal_eigenvalue_is_named(self):
        # a marginal with an eigenvalue of -1e-6 fails the state check that
        # the typical projector makes on the spectrum it decomposes
        rho = np.diag([0.6, 0.0, -1e-6, 0.4 + 1e-6]).astype(complex)
        space = FactorSpace(("A", "B"), (2, 2))
        bundle_space = FactorSpace(("A1", "A2", "B1", "B2"), (2,) * 4)
        op = qmat.Operator(space, rho)
        with pytest.raises(ValueError, match="eigenvalue -1.000e-06"):
            typicality.typical_projector(op, 2, 1.0)
        with pytest.raises(ValueError,
                           match=r"marginal 'AB': density matrix has "
                                 r"eigenvalue -1.000e-06"):
            typicality.projector_bundle(
                op, 2, 1.0, {"A": ("A",), "AB": ("A", "B")}, bundle_space)

    @pytest.mark.parametrize("matrix, message", [
        (np.diag([0.5, 0.5 + 1e-9]), "trace"),
        (np.array([[0.5, 1e-9], [0.0, 0.5]]), "not Hermitian"),
    ])
    def test_operator_is_checked_as_a_state(self, matrix, message):
        # the trace and Hermiticity checks of a DensityOperator, at its
        # tolerances, on an operator that is only decomposed
        op = qmat.Operator(FactorSpace(("A",), (2,)), matrix)
        with pytest.raises(ValueError, match=message):
            DensityOperator(op.space, op.matrix)
        with pytest.raises(ValueError, match=message):
            typicality.typical_projector(op, 2, 1.0)

    def test_multipartite_marginal_usage(self):
        # projector built on a designated marginal embeds by label
        rng = np.random.default_rng(55)
        rho = DensityOperator(FactorSpace(("A", "B"), (2, 2)),
                              random_density(rng, 4))
        marg = qmat.partial_trace(rho, ("B",))
        tp = typicality.typical_projector(marg, 2, 0.5)
        assert tp.space.labels == ("B1", "B2")


class TestProjectorBundle:
    def bundle(self):
        # a two-qubit state with a non-product spectrum, at n = 2
        rng = np.random.default_rng(31)
        rho = DensityOperator(FactorSpace(("A", "B"), (2, 2)),
                              random_density(rng, 4))
        space = FactorSpace(("A1", "A2", "B1", "B2"), (2,) * 4)
        return rho, typicality.projector_bundle(
            rho, 2, 0.6, {"A": ("A",), "B": ("B",), "AB": ("A", "B")}, space)

    def test_matches_embedded_projectors(self):
        # oracle: the typical projectors embedded as d x d matrices
        rho, p = self.bundle()
        want = embedded_typical_projectors(
            rho, 2, 0.6, {"A": ("A",), "B": ("B",), "AB": ("A", "B")}, p.space)
        mats = np.random.default_rng(32).normal(size=(16, 3))
        for name, mat in want.items():
            assert np.max(np.abs(p.embedded(name) - mat)) < 1e-12
            # the embedding multiplies the rank by the other factors' 4
            assert 4 ** (name != "AB") * p.rank(name) == round(
                np.trace(mat).real)
            assert np.max(np.abs(p.apply(name, mats) - mat @ mats)) < 1e-12

    def test_rejects_a_non_projector(self):
        _, p = self.bundle()
        labels, b = p.bases["A"]
        with pytest.raises(ValueError, match="'A' is not orthonormal"):
            typicality.ProjectorBundle(p.space, {**p.bases, "A": (labels, b / 2)})
        labels, b = p.bases["AB"]
        with pytest.raises(ValueError, match="'AB' is not orthonormal"):
            typicality.ProjectorBundle(p.space,
                                       {**p.bases, "AB": (labels, 1.1 * b)})

    def test_rejects_a_split_projector(self):
        # A1 and B1 are split by A2: no stacked product applies them in place
        _, p = self.bundle()
        with pytest.raises(ValueError, match="projector 'A1B1'.*contiguous"):
            typicality.ProjectorBundle(
                p.space, {**p.bases, "A1B1": (("A1", "B1"), np.eye(4))})

    @pytest.mark.parametrize("n", [1, 2])
    def test_decoders_read_contiguous_runs(self, n):
        # the MAC output is laid out (B..., A..., C...), so AC is a run too
        from qmac import eacode, seqdecode, simuldecode

        d1, d2 = (eacode.type_decompose(schmidt_state(w, s, r), n)
                  for w, s, r in (([0.7, 0.3], "Ap", "A"),
                                  ([0.6, 0.4], "Bp", "B")))
        bundles = [
            simuldecode.mac_typical_projectors(
                qmat.named_channel("cnot-mac"), (d1, d2), 1.0),
            seqdecode.sequential_projectors(
                qmat.named_channel("amplitude-damping:0.3"), d1, 1.0)]
        for p in bundles:
            for name, (labels, _) in p.bases.items():
                start = p.space.labels.index(labels[0])
                assert p.space.labels[start:start + len(labels)] == labels, name

    def test_full_rank_projector_returns_its_input(self):
        # every eigenvector of the maximally mixed state is typical
        rho = DensityOperator(FactorSpace(("A", "B"), (2, 2)), np.eye(4) / 4)
        space = FactorSpace(("A1", "A2", "B1", "B2"), (2,) * 4)
        p = typicality.projector_bundle(
            rho, 2, 0.0, {"A": ("A",), "B": ("B",), "AB": ("A", "B")}, space)
        mats = np.random.default_rng(33).normal(size=(16, 3))
        for name, (labels, _) in p.bases.items():
            assert p.rank(name) == space.subspace(labels).dim
            assert p.apply(name, mats) is mats

    @staticmethod
    def decoder_bundle(test, weights, n, delta):
        """The bundle whose pair of runs ``test`` is a decoder's fixed
        test: ("A", "B") for the sequential decoder on
        amplitude-damping:0.3, ("B", "AC") for the successive decoder's
        Bob stage on cnot-mac."""
        from qmac import eacode, seqdecode, simuldecode

        decomps = [eacode.type_decompose(schmidt_state(w, s, r), n)
                   for w, s, r in zip(weights, ("Ap", "Bp"), ("A", "B"))]
        if test == ("A", "B"):
            return seqdecode.sequential_projectors(
                qmat.named_channel("amplitude-damping:0.3"), *decomps, delta)
        return simuldecode.mac_typical_projectors(
            qmat.named_channel("cnot-mac"), decomps, delta)

    # (ranks of X and Z, out of their dims) per case: at delta = 0.5 both
    # runs of each test are rank-deficient; at delta = 1 the leading run
    # (Pi_A, Pi_B) is full rank and stays in its own coordinates
    @pytest.mark.parametrize("test, weights, n, delta, ranks", [
        (("A", "B"), ([0.7, 0.3],), 2, 0.5, ((3, 4), (1, 4))),
        (("A", "B"), ([0.7, 0.3],), 3, 0.5, ((7, 8), (4, 8))),
        (("A", "B"), ([0.7, 0.3],), 2, 1.0, ((4, 4), (3, 4))),
        (("B", "AC"), ([0.8, 0.2], [0.9, 0.1]), 2, 0.5, ((1, 4), (2, 64))),
        (("B", "AC"), ([0.7, 0.3], [0.6, 0.4]), 2, 1.0, ((4, 4), (15, 64))),
    ], ids=str)
    def test_coordinates_match_the_embedded_projectors(self, test, weights,
                                                       n, delta, ranks):
        # oracle: Pi_X Pi_Z embedded as d x d matrices; Q† is the
        # coordinates of the identity, Q = B_X (x) B_Z with I for B of a
        # full-rank run
        p = self.decoder_bundle(test, weights, n, delta)
        assert tuple((p.rank(x), p.basis(x).shape[0]) for x in test) == ranks
        d = p.space.dim
        q_dag = p.coordinates(test, np.eye(d, dtype=complex))
        x, z = (p.basis(name) if p.rank(name) < p.basis(name).shape[0]
                else np.eye(p.rank(name)) for name in test)
        assert np.max(np.abs(q_dag - np.kron(x, z).conj().T)) < 1e-12
        assert q_dag.shape == (math.prod(r for r, _ in ranks), d)
        assert np.max(np.abs(q_dag @ q_dag.conj().T
                             - np.eye(len(q_dag)))) < 1e-12
        rng = np.random.default_rng(34)
        y = rng.normal(size=(2, d, 3)) + 1j * rng.normal(size=(2, d, 3))
        got = p.coordinates(test, y)
        assert got.shape == (2, len(q_dag), 3)
        assert np.max(np.abs(got - q_dag @ y)) < 1e-12
        want = p.embedded(test[0]) @ p.embedded(test[1]) @ y
        assert np.max(np.abs(q_dag.conj().T @ got - want)) < 1e-12

    def test_full_rank_runs_keep_their_own_coordinates(self):
        # a unitary basis is replaced by I, not applied: a trailing
        # full-rank run gives Q† = B_X† (x) I, and two give the input back
        space = FactorSpace(("X1", "Z1"), (3, 2))
        rng = np.random.default_rng(35)
        b_x = random_unitary(rng, 3)[:, :2]
        u_x, u_z = random_unitary(rng, 3), random_unitary(rng, 2)
        mats = rng.normal(size=(6, 2))
        p = typicality.ProjectorBundle(space, {"X": (("X1",), b_x),
                                               "Z": (("Z1",), u_z)})
        want = np.kron(b_x, np.eye(2)).conj().T @ mats
        assert np.max(np.abs(p.coordinates(("X", "Z"), mats) - want)) < 1e-12
        p = typicality.ProjectorBundle(space, {"X": (("X1",), u_x),
                                               "Z": (("Z1",), u_z)})
        assert p.coordinates(("X", "Z"), mats) is mats

    @pytest.mark.parametrize("test", [("B", "A"), ("A", "AB"), ("A", "A")])
    def test_coordinates_need_two_runs_that_tile_the_space(self, test):
        _, p = self.bundle()
        with pytest.raises(ValueError, match="do not tile"):
            p.coordinates(test, np.eye(16))

    @pytest.mark.parametrize("run", ["sequential", "simultaneous", "successive"])
    def test_decoders_form_no_dense_projector(self, monkeypatch, run):
        # every projector stays a basis: neither the n-copy projector B B†
        # nor its embedding is formed on the decoders' paths
        from qmac import eacode, seqdecode, simuldecode

        def refuse(*args, **kwargs):
            raise AssertionError("a dense typical projector was formed")

        monkeypatch.setattr(typicality.TypicalProjector, "projector",
                            property(refuse))
        monkeypatch.setattr(typicality.ProjectorBundle, "embedded", refuse)
        monkeypatch.setattr(qmat, "embed", refuse)
        if run == "sequential":
            rep = seqdecode.ea_sequential_protocol(
                qmat.named_channel("amplitude-damping:0.3"),
                schmidt_state([0.7, 0.3]), 2, 4, 1.0, 0, 2)
            assert 0.0 <= rep.success_mean <= 1.0
            return
        d1, d2 = (eacode.type_decompose(schmidt_state(w, s, r), 2)
                  for w, s, r in (([0.7, 0.3], "Ap", "A"),
                                  ([0.6, 0.4], "Bp", "B")))
        ch = qmat.named_channel("cnot-mac")
        books = [eacode.sample_code(d1, 2, 4), eacode.sample_code(d2, 3, 5)]
        rep = simuldecode.run_mac_experiment(
            eacode.channel_output_factor(ch, (d1, d2)), books, run,
            simuldecode.mac_typical_projectors(ch, (d1, d2), 1.0))
        assert 0.0 <= rep.avg_error <= 1.0


class TestMeasurePackingConstants:
    def test_orthogonal_pure_codewords(self):
        dim = 4
        states = []
        words = []
        for x in range(dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[x, x] = 1.0
            states.append(m)
            words.append(m.copy())
        mc = typicality.measure_packing_constants(
            [1.0 / dim] * dim, states, np.eye(dim), words
        )
        assert np.isclose(mc.epsilon, 0.0, atol=1e-12)
        assert np.isclose(mc.d, 1.0)
        assert np.isclose(mc.D, dim)
        assert mc.commutator_residual < 1e-12

    def test_zero_code_projector_gives_epsilon_one(self):
        states = [np.eye(2) / 2]
        words = [np.eye(2)]
        mc = typicality.measure_packing_constants(
            [1.0], states, np.zeros((2, 2)), words
        )
        assert np.isclose(mc.epsilon, 1.0)

    def test_composition_of_word_and_code_parts(self):
        rng = np.random.default_rng(71)
        dim = 4
        states = [random_density(rng, dim) for _ in range(3)]
        words = []
        for rho in states:
            _, vecs = np.linalg.eigh(rho)
            words.append(vecs[:, 2:] @ vecs[:, 2:].conj().T)
        probs = [0.5, 0.3, 0.2]
        pi = np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex)
        mc = typicality.measure_packing_constants(probs, states, pi, words)
        eps, d, residual = typicality.measure_word_constants(states, pi, words)
        rho_bar = sum(p * rho for p, rho in zip(probs, states))
        assert (mc.epsilon, mc.d, mc.commutator_residual) == (eps, d, residual)
        assert mc.D == typicality.measure_code_constant(rho_bar, pi)

    def test_zero_code_projector_gives_infinite_D(self):
        assert typicality.measure_code_constant(
            np.eye(2) / 2, np.zeros((2, 2))
        ) == np.inf

    def test_misaligned_words_rejected(self):
        with pytest.raises(ValueError, match="align"):
            typicality.measure_word_constants(
                [np.eye(2) / 2], np.eye(2), [np.eye(2), np.eye(2)]
            )

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            typicality.measure_packing_constants([], [], np.eye(2), [])

    def test_least_eigenvalue_matches_support_compression(self):
        # reference: the least eigenvalue of Pi_x rho_x Pi_x compressed onto
        # an eigenbasis of Pi_x's support, skipping rank-0 projectors
        rng = np.random.default_rng(13)
        for dim in (2, 3, 5, 8):
            states, words = [], []
            for rank in range(dim + 1):
                states.append(random_density(rng, dim))
                u = random_unitary(rng, dim)[:, :rank]
                words.append(u @ u.conj().T)
            inv_d = np.inf
            for rho, w in zip(states, words):
                wvals, wvecs = np.linalg.eigh(w)
                supp = wvecs[:, wvals > 0.5]
                if supp.shape[1]:
                    inv_d = min(inv_d, np.linalg.eigvalsh(
                        supp.conj().T @ rho @ supp).min())
            _, d, _ = typicality.measure_word_constants(states, np.eye(dim), words)
            assert abs(d * inv_d - 1.0) <= 1e-12

    def test_ea_ensemble_cross_check(self):
        # oracle: eigendecomposition computed directly on each quantity
        from qmac import seqdecode
        from conftest import schmidt_state

        phi = schmidt_state([0.7, 0.3])
        ch = qmat.named_channel("amplitude-damping:0.2")
        decomp, code_proj, sigma, words = seqdecode.ea_protocol_instance(
            ch, phi, 2, 0.8
        )
        keys = list(sigma.keys())
        probs = [1.0 / len(keys)] * len(keys)
        mc = typicality.measure_packing_constants(
            probs, [sigma[s].matrix for s in keys], code_proj,
            [words[s] for s in keys],
        )
        # direct recomputation of epsilon
        eps = 1.0
        for s in keys:
            eps = min(
                eps,
                np.trace(code_proj @ sigma[s].matrix).real,
                np.trace(words[s] @ sigma[s].matrix).real,
            )
        assert np.isclose(mc.epsilon, 1.0 - eps, atol=1e-12)
        # direct recomputation of D from the averaged state
        avg = sum(p * sigma[s].matrix for p, s in zip(probs, keys))
        top = np.linalg.eigvalsh(code_proj @ avg @ code_proj).max()
        assert np.isclose(mc.D, 1.0 / top)
        # direct recomputation of d on one word's support
        vals = []
        for s in keys:
            wvals, wvecs = np.linalg.eigh(words[s])
            supp = wvecs[:, wvals > 0.5]
            vals.append(np.linalg.eigvalsh(
                supp.conj().T @ sigma[s].matrix @ supp
            ).min())
        assert np.isclose(mc.d, 1.0 / min(vals))
