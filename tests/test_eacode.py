"""Schmidt/type decomposition, Heisenberg-Weyl encoders, codebooks."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qmac import eacode, qmat, typicality
from qmac.qmat import FactorSpace, PureState

from oracles import (average_codeword_state, block_projectors, block_state,
                     block_vector, channel_output_factor_by_uses, dense_map,
                     full_space, gram_defect, phi_power)
from conftest import (
    PRODUCT_CHANNELS,
    bell_state,
    random_kraus_channel,
    random_unitary,
    schmidt_state,
    shared_decomps,
)


class TestSchmidt:
    def test_bell(self):
        coeffs, _, _ = eacode.schmidt(bell_state("A", "B"), ("A",))
        assert np.allclose(coeffs, [1 / math.sqrt(2)] * 2)

    def test_product_state(self):
        v = np.zeros(4, dtype=complex)
        v[1] = 1.0  # |0>|1>
        phi = PureState(FactorSpace(("A", "B"), (2, 2)), v)
        coeffs, _, _ = eacode.schmidt(phi, ("A",))
        assert np.allclose(coeffs, [1.0, 0.0], atol=1e-12)

    def test_gram_matrix_oracle(self):
        # oracle: squared coefficients = eigenvalues of the reduced Gram matrix
        rng = np.random.default_rng(17)
        v = rng.normal(size=9) + 1j * rng.normal(size=9)
        v /= np.linalg.norm(v)
        phi = PureState(FactorSpace(("A", "B"), (3, 3)), v)
        coeffs, left, right = eacode.schmidt(phi, ("A",))
        m = v.reshape(3, 3)
        gram_eigs = np.sort(np.linalg.eigvalsh(m @ m.conj().T))[::-1]
        assert np.allclose(coeffs**2, gram_eigs, atol=1e-10)
        recon = sum(
            coeffs[i] * np.kron(left[:, i], right[:, i]) for i in range(3)
        )
        assert np.linalg.norm(recon - v) < 1e-10

    def test_reconstruction_multifactor_cut(self):
        rng = np.random.default_rng(21)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        phi = PureState(FactorSpace(("A", "B", "C"), (2, 2, 2)), v)
        coeffs, left, right = eacode.schmidt(phi, ("A", "B"))
        moved = qmat.permute(phi, ("A", "B", "C")).vector
        recon = sum(
            coeffs[i] * np.kron(left[:, i], right[:, i])
            for i in range(len(coeffs))
        )
        assert np.linalg.norm(recon - moved) < 1e-10

    def test_bad_cut(self):
        with pytest.raises(ValueError, match="nonempty"):
            eacode.schmidt(bell_state("A", "B"), ("A", "B"))


class TestTypeDecompose:
    def test_binomial_block_weights(self):
        phi = schmidt_state([0.7, 0.3])
        dec = eacode.type_decompose(phi, 2)
        assert dec.counts.tolist() == [[2, 0], [1, 1], [0, 2]]
        assert np.allclose(dec.probs, [0.49, 0.42, 0.09])
        assert np.isclose(dec.probs.sum(), 1.0, atol=1e-12)

    def test_bell_n1_singletons(self):
        dec = eacode.type_decompose(bell_state(), 1)
        assert dec.block_dims == (1, 1)
        assert np.allclose(dec.probs, [0.5, 0.5])

    def test_product_state_single_type(self):
        v = np.zeros(4, dtype=complex)
        v[0] = 1.0
        phi = PureState(FactorSpace(("Ap", "A"), (2, 2)), v)
        dec = eacode.type_decompose(phi, 3)
        live = [(c, p) for c, p in zip(dec.counts.tolist(), dec.probs)
                if p > 1e-12]
        assert len(live) == 1
        assert live[0][0] == [3, 0]
        assert np.isclose(live[0][1], 1.0)

    def test_reassembly(self):
        # construction asserts it; verify the pieces explicitly anyway
        dec = eacode.type_decompose(schmidt_state([0.6, 0.4]), 2)
        rebuilt = sum(
            math.sqrt(p) * block_vector(dec, i)
            for i, p in enumerate(dec.probs)
        )
        assert np.linalg.norm(rebuilt - phi_power(dec).vector) < 1e-10

    def test_reassembly_defect_is_checked(self, monkeypatch):
        # one perturbed unit of the receiver's type basis, which is built
        # first, misses the n-fold state
        type_permutation, calls = typicality.type_permutation, []

        def perturbed(counts, local_basis):
            rows, units = type_permutation(counts, local_basis)
            if not calls:
                units[-1] += 1e-6
            calls.append(len(rows))
            return rows, units

        monkeypatch.setattr(typicality, "type_permutation", perturbed)
        with pytest.raises(AssertionError, match="misses the n-fold state by "
                           "4.000e-07, with 0 nonzero entries outside"):
            eacode.type_decompose(schmidt_state([0.6, 0.4]), 2)
        assert calls == [4, 4]

    def test_entries_outside_the_blocks_are_checked(self, monkeypatch):
        # a 1e-13 entry at |01> of a state whose Schmidt data is the
        # unperturbed state's: every block entry matches, and the n-fold
        # state's entries outside the blocks are counted
        clean = schmidt_state([0.6, 0.4])
        vec = clean.vector.copy()
        vec[1] = 1e-13
        phi = PureState(clean.space, vec)
        data = eacode.schmidt(clean, ("Ap",))
        monkeypatch.setattr(eacode, "schmidt", lambda *args: data)
        with pytest.raises(AssertionError, match="misses the n-fold state by "
                           "0.000e[+]00, with 5 nonzero entries outside"):
            eacode.type_decompose(phi, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("weights", [[0.7, 0.3], [0.5, 0.3, 0.2],
                                         [0.4, 0.3, 0.2, 0.1], [1.0, 0.0]])
    def test_fields_match_a_type_class_per_type(self, weights, n):
        # oracle: each type's multinomial dim and weight from its counts
        # row alone, type by type; bit for bit
        dec = eacode.type_decompose(schmidt_state(weights), n)
        coeffs, left, right = eacode.schmidt(dec.phi, (dec.sender_label,))
        counts = typicality.type_table(n, len(coeffs))[0].tolist()
        dims = [math.factorial(n) // math.prod(map(math.factorial, row))
                for row in counts]
        sq = coeffs**2
        probs = np.array([dim * math.prod(sq[i] ** c
                                          for i, c in enumerate(row))
                          for row, dim in zip(counts, dims)])
        assert dec.counts.tolist() == counts
        assert not dec.counts.flags.writeable
        assert dec.block_dims == tuple(dims)
        assert all(type(d) is int for d in dec.block_dims)
        assert np.array_equal(dec.probs, probs)
        assert np.array_equal(dec.schmidt_probs, coeffs**2)
        for side, local in (("sender", left), ("receiver", right)):
            # each column of the dense type basis has one nonzero: its row
            # is the perm's entry and its value the unit, bit for bit
            b = typicality.type_basis(counts, local)
            nonzero = b != 0
            assert (nonzero.sum(axis=0) == 1).all()
            rows = nonzero.argmax(axis=0)
            perm, units = (getattr(dec, f"{side}_{f}")
                           for f in ("perm", "units"))
            assert np.array_equal(perm, rows)
            assert np.array_equal(units, b[rows, np.arange(len(rows))])
            assert not (perm.flags.writeable or units.flags.writeable)

    @pytest.mark.parametrize("side", ["sender", "receiver"])
    def test_rotated_basis_refused_when_decomposed(self, side):
        # a Hadamard on one side: its type basis is no permutation, so the
        # encoders are no index maps, and the state is refused at once
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        rotate = (np.kron(h, np.eye(2)) if side == "sender"
                  else np.kron(np.eye(2), h))
        phi = PureState(FactorSpace(("Ap", "A"), (2, 2)),
                        rotate @ schmidt_state([0.7, 0.3]).vector)
        with pytest.raises(ValueError, match=rf"state on \('Ap', 'A'\) has a "
                           rf"{side} type basis at n = 2 that is not a perm"):
            eacode.type_decompose(phi, 2)

    def test_holds_the_state_and_its_permutations_alone(self):
        # at n = 8 the n-fold state takes 1 MiB, and the rest is O(d_s^n)
        # with d_s^n = 256, where the two dense type bases held 2 MiB more
        bell = bell_state()
        eacode.type_decompose(bell, 1)
        tracemalloc.start()
        try:
            dec = eacode.type_decompose(bell, 8)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < phi_power(dec).vector.nbytes + 256 * 2**8 + (64 << 10)

    def test_traces_no_n_fold_state(self):
        # at n = 10 phi^(x)n takes 16 MiB, and building it by np.kron and a
        # permute traced 64 MiB; the reassembly check reads phi's entries
        bell = bell_state()
        eacode.type_decompose(bell, 1)
        tracemalloc.start()
        try:
            dec = eacode.type_decompose(bell, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert not hasattr(dec, "phi_n")

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("phased", ["01", "10"])
    def test_phase_on_either_schmidt_term_is_accepted(self, phased, n):
        # sqrt(0.7)|01> + sqrt(0.3)|10> with e^{0.9i} on one term: the
        # SVD leaves ~1e-16 entries where the Schmidt bases, permutations
        # with phases, have zeros, and those residuals are set to zero
        vec = np.zeros(4, dtype=complex)
        vec[1], vec[2] = math.sqrt(0.7), math.sqrt(0.3)
        vec[int(phased, 2)] *= np.exp(0.9j)
        dec = eacode.type_decompose(
            PureState(FactorSpace(("Ap", "A"), (2, 2)), vec), n)
        rebuilt = sum(math.sqrt(p) * block_vector(dec, i)
                      for i, p in enumerate(dec.probs))
        assert np.linalg.norm(rebuilt - phi_power(dec).vector) < 1e-10

    def test_blocks_maximally_entangled(self):
        dec = eacode.type_decompose(schmidt_state([0.7, 0.3]), 2)
        block = block_state(dec, 1)  # the (1,1) type, d_t = 2
        red = qmat.partial_trace(block, dec.sender_space.labels)
        vals = np.sort(np.linalg.eigvalsh(red.matrix))[::-1]
        assert np.allclose(vals[:2], [0.5, 0.5], atol=1e-10)


class TestHwUnitary:
    def test_zero_index_is_signed_identity(self):
        dec = eacode.type_decompose(schmidt_state([0.7, 0.3]), 2)
        s = [(0, 0, 1), (0, 0, 0), (0, 0, 1)]
        u = eacode.hw_unitary(s, dec)
        # blockwise +-identity: squares to the identity
        assert np.max(np.abs(u @ u - np.eye(4))) < 1e-12
        assert np.max(np.abs(np.abs(np.linalg.eigvals(u)) - 1)) < 1e-12

    def test_xz_on_dim2_block_matches_hand_matrix(self):
        # X(1)Z(1) = [[0, -1], [1, 0]] in the block's sequence basis
        dec = eacode.type_decompose(schmidt_state([0.7, 0.3]), 2)
        s = [(0, 0, 0), (1, 1, 0), (0, 0, 0)]
        block = eacode._block_matrix(s, dec)
        sl = dec.block_slices[1]
        assert np.allclose(block[sl, sl], np.array([[0, -1], [1, 0]]), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_block_orthogonality_exhaustive(self, d):
        # oracle: X(x)Z(z) built from the definition; trace orthogonality
        def xz(x, z):
            m = np.zeros((d, d), dtype=complex)
            for j in range(d):
                m[(j + x) % d, j] = np.exp(2j * np.pi * j * z / d)
            return m

        for x1, z1, x2, z2 in itertools.product(range(d), repeat=4):
            val = np.trace(xz(x1, z1).conj().T @ xz(x2, z2))
            expect = d if (x1, z1) == (x2, z2) else 0.0
            assert abs(val - expect) < 1e-10

    def test_module_blocks_match_definition(self):
        # the dim-4 block of a qubit n=4 decomposition
        dec = eacode.type_decompose(schmidt_state([0.7, 0.3]), 4)
        t_index = dec.block_dims.index(4)
        triples = [(0, 0, 0)] * len(dec.block_dims)
        triples[t_index] = (3, 2, 0)
        sl = dec.block_slices[t_index]
        block = eacode._block_matrix(triples, dec)[sl, sl]
        expect = np.zeros((4, 4), dtype=complex)
        for j in range(4):
            expect[(j + 3) % 4, j] = np.exp(2j * np.pi * j * 2 / 4)
        assert np.max(np.abs(block - expect)) < 1e-12

    def test_unitarity_random_indices(self):
        dec = eacode.type_decompose(schmidt_state([0.55, 0.45]), 2)
        rng = np.random.default_rng(71)
        for _ in range(100):
            triples = [
                (int(rng.integers(d)), int(rng.integers(d)), int(rng.integers(2)))
                for d in dec.block_dims
            ]
            u = eacode.hw_unitary(triples, dec)
            assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-10

    ORACLES = {
        "_block_matrix": eacode._block_matrix,
        "hw_unitary": eacode.hw_unitary,
        "hw_transpose_unitary": eacode.hw_transpose_unitary,
        "receiver_encoder": lambda s, dec: eacode.receiver_encoder(dec, s),
        "transpose_trick_residual": eacode.transpose_trick_residual,
        "conjugate_by_receiver_encoders":
            lambda s, dec: eacode.conjugate_by_receiver_encoders(
                eacode.channel_output_state(
                    qmat.named_channel("identity:2"), [dec]), [(dec, s)]),
        "a book": lambda s, dec: eacode.EaCodeBook(dec, [s], 0),
    }

    @pytest.mark.parametrize("caller", list(ORACLES))
    @pytest.mark.parametrize("row, match", [
        ([(0, 0, 0), (2, 0, 0), (0, 0, 0)],
         r"row 0: index \(2, 0, 0\) out of range for block dimension 2"),
        ([(0, 0, 0), (0, 0, 2), (0, 0, 0)], r"\(0, 0, 2\) out of range"),
        ([(0, 0, 0), (0, -1, 0), (0, 0, 0)], r"\(0, -1, 0\) out of range"),
        ([(0, 0, 0)] * 2, r"draws shaped \(.*2, 3\) are not .* the "
                          "decomposition's 3 type blocks: index block "
                          "dimensions differ"),
        ([(0.0, 0, 0)] * 3, "draws must be integers, not float64"),
    ], ids=["x at d_t", "b = 2", "negative z", "two blocks", "floats"])
    def test_one_validator_refuses_a_row(self, caller, row, match):
        # every oracle and the book check an index row with _check_draws
        dec = eacode.type_decompose(schmidt_state([0.7, 0.3]), 2)
        with pytest.raises(ValueError, match=match):
            self.ORACLES[caller](row, dec)

    def test_oracles_take_one_row(self):
        # a book's (K, blocks, 3) draws are not one encoder's index
        dec = eacode.type_decompose(schmidt_state([0.7, 0.3]), 2)
        draws = eacode.sample_code(dec, 2, 0).draws
        with pytest.raises(ValueError, match=r"not a row of one \(x, z, b\)"):
            eacode.hw_transpose_unitary(draws, dec)
        assert np.array_equal(eacode.hw_transpose_unitary(draws[1], dec),
                              eacode.hw_transpose_unitary(
                                  eacode.sample_code(dec, 2, 0).entries[1],
                                  dec))

    @pytest.mark.parametrize("weights, n", [([0.5, 0.5], 1),
                                            ([0.7, 0.3], 2),
                                            ([0.5, 0.3, 0.2], 1)])
    def test_index_rows_enumerated_lexicographically(self, weights, n):
        # every row of S once, lexicographic in (x, z, b) block by block:
        # the order of the nested tuples themselves
        dec = eacode.type_decompose(schmidt_state(weights), n)
        rows = list(eacode.enumerate_indices(dec))
        assert len(rows) == len(set(rows)) == eacode.index_set_size(dec)
        assert rows == sorted(rows)
        assert rows[0] == ((0, 0, 0),) * len(dec.block_dims)
        assert rows[-1] == tuple((d - 1, d - 1, 1) for d in dec.block_dims)
        assert all(type(v) is int for row in rows for t in row for v in t)
        assert np.array_equal(eacode._check_draws(rows, dec, ndim=3), rows)


class TestTransposeTrick:
    def test_identity_index(self):
        dec = eacode.type_decompose(schmidt_state([0.7, 0.3]), 2)
        s = [(0, 0, 0)] * 3
        assert eacode.transpose_trick_residual(s, dec) < 1e-12

    def test_bell_ricochet_any_unitary(self):
        # (U (x) I)|Phi+> = (I (x) U^T)|Phi+> for plain maximal entanglement
        rng = np.random.default_rng(3)
        bell = bell_state("Ap", "A")
        for _ in range(20):
            u = random_unitary(rng, 2)
            lhs = np.kron(u, np.eye(2)) @ bell.vector
            rhs = np.kron(np.eye(2), u.T) @ bell.vector
            assert np.linalg.norm(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("probs", [[0.5, 0.5], [0.8, 0.2]])
    def test_residual_vanishes_on_random_indices(self, probs):
        dec = eacode.type_decompose(schmidt_state(probs), 2)
        rng = np.random.default_rng(29)
        for _ in range(100):
            triples = [
                (int(rng.integers(d)), int(rng.integers(d)), int(rng.integers(2)))
                for d in dec.block_dims
            ]
            assert eacode.transpose_trick_residual(triples, dec) < 1e-10


class TestReceiverEncoders:
    """The local contraction against the embedded-unitary oracle U rho U†."""

    @staticmethod
    def embedded(decomp, s, space):
        u = eacode.hw_transpose_unitary(s, decomp)
        return qmat.embed(qmat.Operator(decomp.receiver_space, u), space).matrix

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("senders", [1, 2])
    def test_local_conjugation_matches_embed_oracle(self, n, senders):
        d1 = eacode.type_decompose(schmidt_state([0.7, 0.3], "Ap", "A"), n)
        if senders == 1:
            ch = qmat.named_channel("amplitude-damping:0.3")
            decomps = [d1]
            rho = eacode.channel_output_state(ch, [d1])
        else:
            ch = qmat.named_channel("cnot-mac")
            d2 = eacode.type_decompose(schmidt_state([0.6, 0.4], "Bp", "B"), n)
            decomps = [d1, d2]
            rho = eacode.channel_output_state(ch, (d1, d2))
        space = rho.space
        rng = np.random.default_rng(17 + n)
        for trial in range(4):
            encoders = [
                (d, eacode.sample_code(d, 1, seed=100 * trial + i).draws[0])
                for i, d in enumerate(decomps)
            ]
            want = rho.matrix
            for d, s in encoders:
                u = self.embedded(d, s, space)
                want = u @ want @ u.conj().T
            got = eacode.conjugate_by_receiver_encoders(rho, encoders).matrix
            assert np.max(np.abs(got - want)) < 1e-12
            # each encoder alone and a complex unitary (the Heisenberg-Weyl
            # encoders of these small blocks are real), on their own (leading
            # or middle) run of factors, acting on a non-Hermitian matrix and
            # on columns
            mat = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(
                size=(space.dim, space.dim))
            for d, s in encoders:
                complex_u = qmat.Operator(
                    d.receiver_space, random_unitary(rng, d.receiver_space.dim))
                for w in (eacode.receiver_encoder(d, s), complex_u):
                    u = qmat.embed(w, space).matrix
                    assert np.max(np.abs(
                        qmat.conjugate_local(w, mat, space) - u @ mat @ u.conj().T
                    )) < 1e-12
                    assert np.max(np.abs(
                        qmat.apply_local(w, mat[:, :3], space) - u @ mat[:, :3]
                    )) < 1e-12

    def test_encoder_pair_order_does_not_matter(self):
        # each encoder acts on its own share, so the two senders' encoders
        # commute and either order of the pairs gives the same state
        d1 = eacode.type_decompose(schmidt_state([0.7, 0.3], "Ap", "A"), 2)
        d2 = eacode.type_decompose(schmidt_state([0.6, 0.4], "Bp", "B"), 2)
        rho = eacode.channel_output_state(qmat.named_channel("cnot-mac"),
                                          (d1, d2))
        for seed in range(3):
            s1 = eacode.sample_code(d1, 1, seed=2 * seed).draws[0]
            s2 = eacode.sample_code(d2, 1, seed=2 * seed + 1).draws[0]
            ab = eacode.conjugate_by_receiver_encoders(rho, [(d1, s1), (d2, s2)])
            ba = eacode.conjugate_by_receiver_encoders(rho, [(d2, s2), (d1, s1)])
            assert np.max(np.abs(ab.matrix - ba.matrix)) < 1e-12


SEEDS = [0, 1, 2**31, 2**63 - 1, 2**64 - 1]
SCHMIDT = {"2 letters": [0.7, 0.3], "3 letters": [0.5, 0.3, 0.2]}


def per_message_entries(decomp, message_count, seed):
    """Reference draws: a generator per message, keyed by the seed with
    counter m << 128, and scalar draws below d_t, d_t and 2 block by block,
    as nested tuples of rows."""
    entries = []
    for m in range(message_count):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=m << 128))
        entries.append(tuple(
            (int(rng.integers(d)), int(rng.integers(d)), int(rng.integers(2)))
            for d in decomp.block_dims))
    return tuple(entries)


class TestSampleCode:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("weights", list(SCHMIDT))
    def test_draws_pinned_to_per_message_generators(self, weights, n):
        dec = eacode.type_decompose(schmidt_state(SCHMIDT[weights]), n)
        for seed in SEEDS:
            book = eacode.sample_code(dec, 8, seed)
            want = per_message_entries(dec, 8, seed)
            assert book.entries == want
            assert book.draws.tolist() == [list(map(list, s)) for s in want]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("weights", ["0.7,0.3", "0.3,0.7", "bell",
                                         "0.5,0.3,0.2"])
    def test_maps_are_the_oracle_encoder_bit_for_bit(self, weights, n):
        # the Schmidt order puts the weight 0.7 first, so at (0.3, 0.7) the
        # receiver's type basis C sends the first type's sequence 0...0 to
        # the product vector |1...1>, not to |0...0>
        phi = (bell_state() if weights == "bell" else
               schmidt_state([float(p) for p in weights.split(",")]))
        dec = eacode.type_decompose(phi, n)
        d_s = dec.receiver_space.dim
        assert dec.receiver_perm[0] == (d_s - 1 if weights == "0.3,0.7" else 0)
        for seed in SEEDS:
            book = eacode.sample_code(dec, 8, seed)
            for maps, dtype in ((book.index, np.intp), (book.phase, complex)):
                assert (maps.shape, maps.dtype) == ((8, d_s), dtype)
                assert not maps.flags.writeable
            for k, s in enumerate(book.entries):
                assert np.array_equal(dense_map(book.index[k], book.phase[k]),
                                      eacode.hw_transpose_unitary(s, dec))

    def test_entries_of_another_decomposition_refused(self):
        # n = 1 and n = 3 give 2 and 4 type blocks, n = 2 three
        dec = eacode.type_decompose(schmidt_state([0.7, 0.3]), 2)
        for n in (1, 3):
            other = eacode.type_decompose(schmidt_state([0.7, 0.3]), n)
            draws = eacode.sample_code(other, 2, 0).draws
            with pytest.raises(ValueError, match="draws shaped .* not rows "
                                                 ".* block dimensions differ"):
                eacode.EaCodeBook(dec, draws, 0)
            with pytest.raises(ValueError, match="draws shaped .* not a row "
                                                 ".* block dimensions differ"):
                eacode.receiver_encoder(dec, draws[0])

    @pytest.mark.parametrize("case, message, edit", [
        ("x at d_t", 1, (1, 1, 0, 2)),
        ("z at d_t", 2, (2, 1, 1, 2)),
        ("b = 2", 0, (0, 0, 2, 2)),
        ("negative x", 2, (2, 2, 0, -1)),
        ("negative b", 1, (1, 0, 2, -1)),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_draws_out_of_range_refused_naming_the_message(self, case,
                                                           message, edit):
        # blocks of dims (1, 2, 1) at n = 2; one entry of one message moved
        # out of its range
        dec = eacode.type_decompose(schmidt_state([0.7, 0.3]), 2)
        draws = eacode.sample_code(dec, 3, 0).draws.copy()
        m, t, i, value = edit
        draws[m, t, i] = value
        with pytest.raises(ValueError,
                           match=f"row {message}: .* out of range"):
            eacode.EaCodeBook(dec, draws, 0)

    def test_draws_are_a_read_only_copy(self):
        dec = eacode.type_decompose(schmidt_state([0.7, 0.3]), 2)
        draws = np.zeros((2, 3, 3), dtype=np.int32)
        book = eacode.EaCodeBook(dec, draws, 0)
        assert book.draws.dtype == np.intp and not book.draws.flags.writeable
        assert draws.flags.writeable
        draws[0, 1] = 1
        assert not book.draws.any() and book.message_count == 2
        assert book.entries[1] == ((0, 0, 0),) * 3

    def test_reproducible(self):
        dec = eacode.type_decompose(schmidt_state([0.7, 0.3]), 2)
        b1 = eacode.sample_code(dec, 5, seed=99)
        b2 = eacode.sample_code(dec, 5, seed=99)
        assert b1.entries == b2.entries

    def test_message_splitting_is_stable(self):
        # prefix books agree with longer books message by message
        dec = eacode.type_decompose(schmidt_state([0.7, 0.3]), 2)
        short = eacode.sample_code(dec, 2, seed=4)
        longer = eacode.sample_code(dec, 6, seed=4)
        assert longer.entries[:2] == short.entries

    def test_uniform_coverage(self):
        dec = eacode.type_decompose(bell_state(), 1)  # |S| = 4
        books = eacode.sample_code(dec, 4000, seed=8)
        counts = {}
        for s in books.entries:
            counts[s] = counts.get(s, 0) + 1
        assert len(counts) == 4
        assert min(counts.values()) > 800  # uniform within loose bounds

    def test_code_books_need_independent_seeds(self):
        # two senders' books drawn from one seed are not independent codes
        ch = qmat.named_channel("cnot-mac")
        decomps = [eacode.type_decompose(bell_state(s, r), 1)
                   for s, r in (("Ap", "A"), ("Bp", "B"))]
        space = eacode.channel_output_space(ch, decomps)
        factor = eacode.channel_output_factor(ch, decomps)
        books = [eacode.sample_code(d, 2, 7) for d in decomps]
        with pytest.raises(ValueError, match="independent seeds"):
            eacode.codeword_factors(factor, books, space)
        books[1] = eacode.sample_code(decomps[1], 2, 8)
        sent, _, _ = eacode.codeword_factors(factor, books, space)
        assert sent == [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestExpectedCodeword:
    @pytest.mark.parametrize("n,want_dim", [(2, 2), (3, 3)])
    def test_block_twirl_gives_product_of_maximally_mixed(self, n, want_dim):
        # exhaustive average over one block's 2 d^2 indices
        dec = eacode.type_decompose(schmidt_state([0.7, 0.3]), n)
        t_index = dec.block_dims.index(want_dim)
        block = block_state(dec, t_index)
        acc = np.zeros((block.space.dim, block.space.dim), dtype=complex)
        count = 0
        d = want_dim
        for x, z, b in itertools.product(range(d), range(d), range(2)):
            triples = [(0, 0, 0)] * len(dec.block_dims)
            triples[t_index] = (x, z, b)
            u = qmat.embed(
                qmat.Operator(dec.receiver_space,
                              eacode.hw_transpose_unitary(triples, dec)),
                full_space(dec),
            ).matrix
            vec = u @ block.vector
            acc += np.outer(vec, vec.conj())
            count += 1
        acc /= count
        expect = np.kron(*block_projectors(dec, t_index))
        assert np.max(np.abs(acc - expect)) < 1e-10

    def test_full_state_average_over_s(self):
        # exhaustive average over S at n = 2 reproduces sum_t p(t) pi_t (x) pi_t
        dec = eacode.type_decompose(schmidt_state([0.7, 0.3]), 2)
        full_dim = full_space(dec).dim
        acc = np.zeros((full_dim, full_dim), dtype=complex)
        count = 0
        for s in eacode.enumerate_indices(dec):
            u = qmat.embed(
                qmat.Operator(dec.receiver_space,
                              eacode.hw_transpose_unitary(s, dec)),
                full_space(dec),
            ).matrix
            vec = u @ phi_power(dec).vector
            acc += np.outer(vec, vec.conj())
            count += 1
        acc /= count
        expect = np.zeros_like(acc)
        for i, p in enumerate(dec.probs):
            expect += p * np.kron(*block_projectors(dec, i))
        assert np.max(np.abs(acc - expect)) < 1e-10


class TestAverageCodewordState:
    @pytest.mark.parametrize("spec,probs,n", [
        ("amplitude-damping:0.3", [0.7, 0.3], 2),
        ("identity:2", [0.5, 0.5], 2),
        ("depolarizing:0.2", [0.6, 0.4], 2),
        ("amplitude-damping:0.3", [0.7, 0.3], 3),
    ])
    def test_closed_form_matches_index_set_average(self, spec, probs, n):
        # oracle: the exhaustive average of U^T(s) rho U^*(s) over all of S
        ch = qmat.named_channel(spec)
        dec = eacode.type_decompose(schmidt_state(probs), n)
        rho = eacode.channel_output_state(ch, [dec])
        acc = np.zeros_like(rho.matrix)
        count = 0
        for s in eacode.enumerate_indices(dec):
            u = eacode.receiver_encoder(dec, s)
            acc += qmat.conjugate_local(u, rho.matrix, rho.space)
            count += 1
        assert count == eacode.index_set_size(dec)
        avg = average_codeword_state(rho, dec)
        assert avg.space == rho.space
        assert np.max(np.abs(avg.matrix - acc / count)) < 1e-12
        # the same blocks on the factor R, P_t one on the block's rows
        share = np.arange(dec.receiver_space.dim)
        factored = sum(
            np.kron(np.diag(np.isin(share, rows)) / len(rows), y @ y.conj().T)
            for rows, y in eacode.average_codeword_factors(
                eacode.channel_output_factor(ch, [dec]), dec))
        assert np.max(np.abs(factored - acc / count)) < 1e-12

    def test_receiver_share_must_lead(self):
        dec = eacode.type_decompose(schmidt_state([0.7, 0.3]), 1)
        rho = eacode.channel_output_state(qmat.named_channel("identity:2"),
                                          [dec])
        swapped = qmat.permute(rho, tuple(reversed(rho.space.labels)))
        with pytest.raises(ValueError, match="receiver share"):
            average_codeword_state(swapped, dec)


def encode_by_apply_local(x, books, space):
    """Reference for eacode.encode: one qmat.apply_local per entry, of the
    oracle encoder, into the (T, d, Kc) stack."""
    x = np.broadcast_to(x, (len(books),) + x.shape[-2:])
    return np.array([
        np.hstack([qmat.apply_local(eacode.receiver_encoder(book.decomp, s),
                                    x_t, space) for s in book.entries])
        for book, x_t in zip(books, x)])


class TestEncode:
    """Codeword states: the channel output conjugated by receiver encoders."""

    @pytest.mark.parametrize("case", ["bob's share, first",
                                      "alice's share, behind bob's",
                                      "a (T, d, c) stack",
                                      "two books on one X"])
    def test_stacked_encode_is_apply_local_bit_for_bit(self, case):
        ch = qmat.named_channel("cnot-mac")
        d1 = eacode.type_decompose(schmidt_state([0.7, 0.3], "Ap", "A"), 2)
        d2 = eacode.type_decompose(schmidt_state([0.6, 0.4], "Bp", "B"), 2)
        space = eacode.channel_output_space(ch, [d1, d2])
        assert space.labels[:4] == ("B1", "B2", "A1", "A2")
        r = eacode.channel_output_factor(ch, [d1, d2])
        x, books = r, [eacode.sample_code(d1, 3, 7)]
        if case.startswith("bob"):
            books = [eacode.sample_code(d2, 3, 7)]
        elif case.startswith("a (T"):
            x = np.stack([r, eacode.encode(r, [eacode.sample_code(d2, 1, 8)],
                                           space)[0]])
            books = [eacode.sample_code(d1, 3, seed) for seed in (7, 9)]
        elif case.startswith("two books"):
            books = [eacode.sample_code(d1, 3, seed) for seed in (7, 9)]
        got = eacode.encode(x, books, space)
        assert got.shape == (len(books), r.shape[0], 3 * r.shape[1])
        assert np.array_equal(got, encode_by_apply_local(x, books, space))

    def test_identity_channel_zero_index(self):
        dec = eacode.type_decompose(schmidt_state([0.7, 0.3]), 1)
        s = [(0, 0, 0), (0, 0, 0)]
        ch = qmat.named_channel("identity:2")
        rho = eacode.channel_output_state(ch, [dec])
        out = eacode.conjugate_by_receiver_encoders(rho, [(dec, s)])
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12

    def test_spectrum_invariance(self):
        dec = eacode.type_decompose(schmidt_state([0.7, 0.3]), 2)
        ch = qmat.named_channel("amplitude-damping:0.3")
        rho = eacode.channel_output_state(ch, [dec])
        base = np.sort(np.linalg.eigvalsh(rho.matrix))
        book = eacode.sample_code(dec, 4, seed=2)
        for m in range(4):
            out = eacode.conjugate_by_receiver_encoders(
                rho, [(dec, book.draws[m])])
            assert np.max(np.abs(np.sort(np.linalg.eigvalsh(out.matrix)) - base)) < 1e-10

    def test_exhaustive_average_matches_block_structure(self):
        # identity channel, maximally entangled, n = 1: the S-average is the
        # classically correlated state sum_z p(t_z) |z><z| (x) |z><z|
        dec = eacode.type_decompose(bell_state(), 1)
        ch = qmat.named_channel("identity:2")
        rho = eacode.channel_output_state(ch, [dec])
        acc = None
        count = 0
        for s in eacode.enumerate_indices(dec):
            out = eacode.conjugate_by_receiver_encoders(rho, [(dec, s)]).matrix
            acc = out if acc is None else acc + out
            count += 1
        acc /= count
        expect = np.zeros((4, 4))
        expect[0, 0] = expect[3, 3] = 0.5
        assert np.max(np.abs(acc - expect)) < 1e-12


def random_mac(rng, d_out=3, n_kraus=3):
    """Random two-qubit-input channel with a d_out-dimensional output."""
    big = random_unitary(rng, d_out * n_kraus)[:, :4]
    kraus = [big[i * d_out:(i + 1) * d_out, :] for i in range(n_kraus)]
    return qmat.KrausChannel(FactorSpace(("Ap", "Bp"), (2, 2)),
                             FactorSpace(("C",), (d_out,)), kraus)


def output_by_channel_loop(channel, decomps):
    """Oracle: the output as n dense Kraus sums, apply_channel copy by copy."""
    state = qmat.tensor(*(phi_power(d) for d in decomps)).density()
    senders = tuple(d.sender_label for d in decomps)
    for i in range(1, decomps[0].n + 1):
        state = qmat.apply_channel(
            channel, state,
            acting_on=tuple(f"{l}{i}" for l in senders),
            out_labels=tuple(f"{l}{i}" for l in channel.out_space.labels),
        )
    space = eacode.channel_output_space(channel, decomps)
    return qmat.permute(state, space.labels)


SINGLE_SENDER = {
    "identity:3": lambda: qmat.named_channel("identity:3"),
    "depolarizing:0.2": lambda: qmat.named_channel("depolarizing:0.2"),
    "amplitude-damping:0.3": lambda: qmat.named_channel("amplitude-damping:0.3"),
    "random 2->3": lambda: random_kraus_channel(np.random.default_rng(41), 2, 3, 2),
}
TWO_SENDERS = {
    "cnot-mac": lambda: qmat.named_channel("cnot-mac"),
    "adder-mac": lambda: qmat.named_channel("adder-mac"),
    "random 4->3": lambda: random_mac(np.random.default_rng(42)),
}


def shared_state(weights, dim, sender, receiver):
    if weights == "bell":
        return bell_state(sender, receiver, dim)
    # identity:3 needs three Schmidt weights
    return schmidt_state([0.6, 0.3, 0.1] if dim == 3 else [0.7, 0.3],
                         sender, receiver)


class TestChannelOutput:
    """rho = R R† against the dense Kraus sums it replaces."""

    def test_state_refused_above_the_dense_cap_before_it_allocates(
            self, monkeypatch):
        # at n = 3 the qubit channel's output is on (A1..A3, B1..B3), d = 64;
        # its factor R is 64-dimensional too and is not the dense state
        def unreachable(*args):
            raise AssertionError("the output factor was built")

        ch = qmat.named_channel("amplitude-damping:0.3")
        dec = eacode.type_decompose(shared_state("bell", 2, "Ap", "A"), 3)
        monkeypatch.setattr(qmat, "DEFAULT_DIM_CAP", 32)
        assert eacode.channel_output_factor(ch, [dec]).shape[0] == 64
        monkeypatch.setattr(eacode, "channel_output_factor", unreachable)
        with pytest.raises(qmat.DimensionCapError, match="dimension 64"):
            eacode.channel_output_state(ch, [dec])

    @pytest.mark.parametrize("weights", ["bell", "skewed"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", list(SINGLE_SENDER))
    def test_single_sender_matches_channel_loop(self, name, n, weights):
        ch = SINGLE_SENDER[name]()
        dec = eacode.type_decompose(
            shared_state(weights, ch.in_space.dim, "Ap", "A"), n)
        got = eacode.channel_output_state(ch, [dec])
        want = output_by_channel_loop(ch, [dec])
        assert got.space == want.space
        assert np.max(np.abs(got.matrix - want.matrix)) < 1e-12
        r = eacode.channel_output_factor(ch, [dec])
        assert r.shape[0] == got.space.dim and r.shape[1] <= r.shape[0]

    @pytest.mark.parametrize("weights", ["bell", "skewed"])
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("name", list(TWO_SENDERS))
    def test_two_senders_match_channel_loop(self, name, n, weights):
        ch = TWO_SENDERS[name]()
        d1 = eacode.type_decompose(shared_state(weights, 2, "Ap", "A"), n)
        d2 = eacode.type_decompose(bell_state("Bp", "B"), n)
        got = eacode.channel_output_state(ch, (d1, d2))
        want = output_by_channel_loop(ch, (d1, d2))
        assert got.space == want.space
        assert np.max(np.abs(got.matrix - want.matrix)) < 1e-12

    def test_redundant_json_channel_is_the_identity(self):
        # 64 copies of I/8 on two qubits: the noiseless channel, whose 64^n
        # Kraus columns would outgrow R's rows without the reduction
        entry = [[float(v), 0.0] for v in (np.eye(4) / 8).ravel()]
        ch = qmat.channel_from_json(
            {"in_dims": [2, 2], "out_dims": [4], "kraus": [entry] * 64})
        noiseless = qmat.KrausChannel(ch.in_space, ch.out_space, [np.eye(4)])
        d1 = eacode.type_decompose(bell_state("Ap", "A"), 2)
        d2 = eacode.type_decompose(schmidt_state([0.7, 0.3], "Bp", "B"), 2)
        got = eacode.channel_output_state(ch, (d1, d2))
        want = eacode.channel_output_state(noiseless, (d1, d2))
        assert np.max(np.abs(got.matrix - want.matrix)) < 1e-12
        r = eacode.channel_output_factor(ch, (d1, d2))
        assert r.shape[1] <= r.shape[0] == got.space.dim

    @pytest.mark.parametrize("weights", ["bell", "skewed"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", list(PRODUCT_CHANNELS))
    def test_factor_matches_the_n_use_oracle(self, name, n, weights):
        # R = r^(x)n from one channel use, against n uses on the senders'
        # n-fold states; C1 and C2 of a two-output channel stay copy-major
        ch = PRODUCT_CHANNELS[name]()
        decomps = shared_decomps(ch, weights, n)
        r = eacode.channel_output_factor(ch, decomps)
        want = channel_output_factor_by_uses(ch, decomps)
        assert r.shape == want.shape
        assert gram_defect(r, want) < 1e-15
        if name == "json C1 C2":
            assert eacode.channel_output_space(ch, decomps).labels[2 * n:] == (
                tuple(f"C{j}{i}" for i in range(1, n + 1) for j in (1, 2)))

    def test_one_channel_use_on_the_single_copy_states(self, monkeypatch):
        spaces, output_factor = [], qmat.output_factor

        def counted(ch, state, use, labels):
            spaces.append(state.space)
            return output_factor(ch, state, use, labels)

        monkeypatch.setattr(qmat, "output_factor", counted)
        ch = qmat.named_channel("cnot-mac")
        eacode.channel_output_factor(ch, shared_decomps(ch, "skewed", 3))
        assert spaces == [FactorSpace(("Ap", "A", "Bp", "B"), (2,) * 4)]

    def test_factor_is_filled_in_place(self):
        # at cnot-mac n = 3 R is 4,096 x 64 (4 MiB); n uses on the senders'
        # n-fold states peaked at 2.25 R
        ch = qmat.named_channel("cnot-mac")
        decomps = shared_decomps(ch, "bell", 3)
        eacode.channel_output_factor(ch, decomps)
        tracemalloc.start()
        try:
            r = eacode.channel_output_factor(ch, decomps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * r.nbytes

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
        d1 = eacode.type_decompose(bell_state("Ap", "A"), 2)
        d2 = eacode.type_decompose(bell_state("Bp", "B"), 2)
        eacode.channel_output_state(qmat.named_channel("cnot-mac"), (d1, d2))
        assert calls == {"apply_channel": 0, "DensityOperator": 1}
        calls.update(apply_channel=0, DensityOperator=0)
        eacode.channel_output_state(qmat.named_channel("depolarizing:0.2"),
                                    [d1])
        assert calls == {"apply_channel": 0, "DensityOperator": 1}
