"""Simultaneous decoding, the operator inequality, randomization, coherence."""

import dataclasses
import itertools
from collections import Counter

import numpy as np
import pytest

from qmac import eacode, info, qmat, seqdecode, simuldecode, typicality
from qmac.qmat import FactorSpace, PovmSet

from oracles import dense_map, embedded_typical_projectors
from conftest import (bell_state, book_of, fully_depolarizing_mac,
                      parallel_qubit_mac, random_mac, schmidt_state)


DECODERS = {"simultaneous": simuldecode.simultaneous_povm,
            "successive": seqdecode.ea_successive_povm}


def output_factor(ch, books):
    """R with rho_n = R R† for the books' decompositions."""
    return eacode.channel_output_factor(ch, [b.decomp for b in books])


def read(reader, ch, books, povm):
    """A dense reader, ``reader(R, books, space, povm)``, on the channel
    output of the books' decompositions."""
    space = eacode.channel_output_space(ch, [b.decomp for b in books])
    return reader(output_factor(ch, books), books, space, povm)


def overlap_table(ch, books, povm):
    """The dense reader's table of ``povm`` on the books' codewords."""
    space = eacode.channel_output_space(ch, [b.decomp for b in books])
    sent, v, _ = eacode.codeword_factors(output_factor(ch, books), books,
                                         space)
    return eacode.overlap_table(sent, v, povm)


def randomize_code(books, *shifts) -> list:
    """Relabel each codebook by a modular message shift (common randomness):
    message l of a book sends the entry of message l + shift."""
    return [eacode.EaCodeBook(b.decomp, np.roll(b.draws, -s, axis=0), b.seed)
            for b, s in zip(books, shifts)]


def sample_books(decomps, counts, seeds):
    return [eacode.sample_code(d, k, s)
            for d, k, s in zip(decomps, counts, seeds)]


def run_experiment(ch, books, mode, delta):
    """run_mac_experiment on R and the typical projectors of the books'
    decompositions, each built here."""
    return simuldecode.run_mac_experiment(
        output_factor(ch, books), books, mode,
        simuldecode.mac_typical_projectors(
            ch, [b.decomp for b in books], delta))


def bell_pair_books(channel, n=1, entries1=None, entries2=None, seeds=(5, 6)):
    d1 = eacode.type_decompose(bell_state("Ap", "A"), n)
    d2 = eacode.type_decompose(bell_state("Bp", "B"), n)
    if entries1 is None:
        return sample_books((d1, d2), (2, 2), seeds), d1, d2
    b1 = book_of(d1, entries1, seeds[0])
    b2 = book_of(d2, entries2, seeds[1])
    return [b1, b2], d1, d2


def phase_books(channel):
    """n=1 Bell codebooks whose two codewords differ by a Z phase flip."""
    idx_i = [(0, 0, 0), (0, 0, 0)]
    idx_z = [(0, 0, 0), (0, 0, 1)]
    return bell_pair_books(channel, 1, [idx_i, idx_z], [idx_i, idx_z])


def check_against_dense_oracle(ch, books, povm):
    """The factor table and every figure against dense sigma_lm = U rho_n U†.

    Oracle: build each codeword state as a density matrix, take the
    probability of every outcome and of abort by a dense trace, and sum the
    wrong outcomes by which sender was misidentified.
    """
    d1, d2 = books[0].decomp, books[1].decomp
    rho = eacode.channel_output_state(ch, (d1, d2))
    L, M = (b.message_count for b in books)
    sent = [(l, m) for l in range(L) for m in range(M)]
    ops = [povm[k] for k in sent] + [povm.completion()]
    want_table = np.empty((len(sent) + 1, len(sent)))
    want = dict.fromkeys(("wrong_alice", "wrong_bob", "wrong_both", "abort"), 0.0)
    for j, (l, m) in enumerate(sent):
        sigma = eacode.conjugate_by_receiver_encoders(
            rho, [(d1, books[0].draws[l]), (d2, books[1].draws[m])]
        ).matrix
        want_table[:, j] = [np.trace(op @ sigma).real for op in ops]
        for i, (lp, mp) in enumerate(sent):
            if (lp, mp) != (l, m):
                kind = ("wrong_alice" if mp == m else
                        "wrong_bob" if lp == l else "wrong_both")
                want[kind] += want_table[i, j] / (L * M)
        want["abort"] += want_table[-1, j] / (L * M)
    table = overlap_table(ch, books, povm)
    assert table.shape == want_table.shape
    assert np.max(np.abs(table - want_table)) < 1e-12
    err = read(simuldecode.error_figures, ch, books, povm)["avg_error"]
    assert abs(err - sum(want.values())) < 1e-12
    parts = read(simuldecode.error_breakdown, ch, books, povm)
    assert abs(parts["total"] - err) < 1e-12
    for kind, value in want.items():
        assert abs(parts[kind] - value) < 1e-12


class TestBuildUpsilon:
    def test_zero_joint_projector(self):
        books, d1, d2 = bell_pair_books(qmat.named_channel("cnot-mac"))
        proj = simuldecode.mac_typical_projectors(
            qmat.named_channel("cnot-mac"), (d1, d2), 1.0
        )
        dim = proj.space.dim
        zeroed = dataclasses.replace(proj, bases={
            **proj.bases, "ABC": (proj.space.labels, np.zeros((dim, 0)))})
        ups = simuldecode.build_upsilon(books, 0, 0, zeroed)
        assert np.max(np.abs(ups)) < 1e-12

    def test_six_projectors_and_joint_alias(self):
        ch = qmat.named_channel("cnot-mac")
        _, d1, d2 = bell_pair_books(ch)
        proj = simuldecode.mac_typical_projectors(ch, (d1, d2), 1.0)
        # five marginals on their own factors, the joint one on every factor,
        # each as an orthonormal basis
        assert set(proj.bases) == {"A", "B", "C", "AB", "AC", "ABC"}
        for name, (labels, b) in proj.bases.items():
            if name == "ABC":
                assert labels == proj.space.labels
            else:
                assert set(labels) < set(proj.space.labels)
            assert b.shape[0] == proj.space.subspace(labels).dim
            assert np.max(np.abs(b.conj().T @ b - np.eye(b.shape[1]))) < 1e-12
        # embedded() builds each of the six once, equal to the eager
        # embedding of the single-copy state's typical projectors
        out = ch.out_space.labels
        want = embedded_typical_projectors(
            info.ea_code_state(ch, (d1.phi, d2.phi)), 1, 1.0,
            {"A": ("A",), "B": ("B",), "C": out, "AB": ("A", "B"),
             "AC": ("A",) + out, "ABC": ("A", "B") + out},
            proj.space,
        )
        for name, mat in want.items():
            assert proj.embedded(name) is proj.embedded(name)
            assert np.max(np.abs(proj.embedded(name) - mat)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("name", ["cnot-mac", "adder-mac"])
    def test_apply_matches_the_embedded_projectors(self, name, n):
        # AC's factors are one run after B's; C and AB are rank-deficient
        ch = qmat.named_channel(name)
        d1, d2 = (eacode.type_decompose(schmidt_state(w, s, r), n)
                  for w, s, r in (([0.7, 0.3], "Ap", "A"),
                                  ([0.6, 0.4], "Bp", "B")))
        proj = simuldecode.mac_typical_projectors(ch, (d1, d2), 1.0)
        labels = proj.bases["AC"][0]
        start = proj.space.labels.index(labels[0])
        assert proj.space.labels[start:start + len(labels)] == labels
        mats = np.random.default_rng(n).normal(size=(proj.space.dim, 5))
        for key in ("AC", "C", "AB"):
            if key != "AC":
                assert proj.rank(key) < len(proj.basis(key))
            want = proj.embedded(key) @ mats
            assert np.max(np.abs(proj.apply(key, mats) - want)) < 1e-12

    def test_identity_projectors_identity_indices(self):
        ch = parallel_qubit_mac()
        books, d1, d2 = phase_books(ch)
        proj = simuldecode.mac_typical_projectors(ch, (d1, d2), 1.0)
        dim = proj.space.dim
        eye = np.eye(dim)
        all_eye = dataclasses.replace(proj, bases={
            k: (labels, np.eye(len(b))) for k, (labels, b) in proj.bases.items()})
        ups = simuldecode.build_upsilon(books, 0, 0, all_eye)
        assert np.max(np.abs(ups - eye)) < 1e-10

    def test_psd_and_hermitian(self):
        ch = qmat.named_channel("cnot-mac")
        books, d1, d2 = bell_pair_books(ch)
        proj = simuldecode.mac_typical_projectors(ch, (d1, d2), 1.0)
        for l in range(2):
            for m in range(2):
                ups = simuldecode.build_upsilon(books, l, m, proj)
                assert np.max(np.abs(ups - ups.conj().T)) < 1e-10
                assert np.linalg.eigvalsh(ups).min() > -1e-10


class TestSqrtMeasurement:
    def test_single_element_support_projector(self):
        ups = np.diag([0.5, 2.0, 0.0]).astype(complex)
        povm = simuldecode.sqrt_measurement({0: ups})
        assert np.allclose(povm[0], np.diag([1.0, 1.0, 0.0]), atol=1e-10)

    def test_orthogonal_family(self):
        u0 = np.diag([0.7, 0.0, 0.0]).astype(complex)
        u1 = np.diag([0.0, 0.2, 0.0]).astype(complex)
        povm = simuldecode.sqrt_measurement({0: u0, 1: u1})
        assert np.allclose(povm[0], np.diag([1.0, 0, 0]), atol=1e-10)
        assert np.allclose(povm[1], np.diag([0, 1.0, 0]), atol=1e-10)

    def test_random_family_resolves_support(self):
        # oracle: eigenvalues of the element sum are 0 or 1
        rng = np.random.default_rng(91)
        ups = {}
        for k in range(3):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            ups[k] = a @ a.conj().T
        povm = simuldecode.sqrt_measurement(ups)
        vals = np.linalg.eigvalsh(povm.total())
        assert all(abs(v) < 1e-8 or abs(v - 1) < 1e-8 for v in vals)

    def test_family_sum_must_be_hermitian_and_psd(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            simuldecode.sqrt_measurement({0: np.diag([1.0, -1e-6]).astype(complex)})
        skew = np.array([[1.0, 1e-6], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian"):
            simuldecode.sqrt_measurement({0: skew})


class TestAverageError:
    def test_perfect_discrimination(self):
        # parallel noiseless qubits, phase-flip codewords: four orthogonal
        # Bell-pair products, decoded exactly
        ch = parallel_qubit_mac()
        books, d1, d2 = phase_books(ch)
        proj = simuldecode.mac_typical_projectors(ch, (d1, d2), 2.0)
        povm = simuldecode.simultaneous_povm(books, proj)
        err = read(simuldecode.error_figures, ch, books, povm)["avg_error"]
        assert err < 1e-9

    def test_uniform_povm(self):
        ch = qmat.named_channel("cnot-mac")
        books, _, _ = bell_pair_books(ch)
        dim = 16
        uniform = PovmSet(
            FactorSpace(("S",), (dim,)),
            {(l, m): np.eye(dim) / 4 for l in range(2) for m in range(2)},
        )
        err = read(simuldecode.error_figures, ch, books, uniform)["avg_error"]
        assert np.isclose(err, 1 - 1 / 4, atol=1e-12)

    def test_outcome_enumeration_oracle(self):
        ch = qmat.named_channel("cnot-mac")
        books, d1, d2 = bell_pair_books(ch, seeds=(21, 22))
        proj = simuldecode.mac_typical_projectors(ch, (d1, d2), 1.0)
        povm = simuldecode.simultaneous_povm(books, proj)
        check_against_dense_oracle(ch, books, povm)

    @pytest.mark.parametrize("name, weights, n, L, M, mode", [
        ("adder-mac", None, 1, 3, 2, "simultaneous"),
        ("cnot-mac", [0.7, 0.3], 1, 2, 3, "simultaneous"),
        ("cnot-mac", [0.7, 0.3], 2, 3, 2, "simultaneous"),
        ("adder-mac", [0.7, 0.3], 2, 2, 3, "simultaneous"),
        ("cnot-mac", None, 1, 3, 2, "successive"),
        ("adder-mac", [0.7, 0.3], 1, 2, 3, "successive"),
        ("cnot-mac", [0.7, 0.3], 2, 2, 3, "successive"),
    ], ids=lambda v: "skewed" if v == [0.7, 0.3] else
        "bell" if v is None else str(v))
    def test_factor_table_matches_dense_oracle(self, name, weights, n, L, M,
                                               mode):
        ch = qmat.named_channel(name)
        states = [bell_state(s, r) if weights is None
                  else schmidt_state(weights, s, r)
                  for s, r in (("Ap", "A"), ("Bp", "B"))]
        d1, d2 = (eacode.type_decompose(phi, n) for phi in states)
        books = sample_books((d1, d2), (L, M), (23, 24))
        delta = 1.5 if name == "adder-mac" else 1.0
        povm = DECODERS[mode](
            books, simuldecode.mac_typical_projectors(ch, (d1, d2), delta))
        check_against_dense_oracle(ch, books, povm)

    def test_error_never_increases_with_blocklength(self):
        # aggregate mean over 20 seed pairs at n = 2 vs the n = 1 value
        ch = qmat.named_channel("cnot-mac")
        errs = {1: [], 2: []}
        for n in (1, 2):
            d1 = eacode.type_decompose(bell_state("Ap", "A"), n)
            d2 = eacode.type_decompose(bell_state("Bp", "B"), n)
            proj = simuldecode.mac_typical_projectors(ch, (d1, d2), 1.0)
            for seed in range(20):
                books = sample_books((d1, d2), (2, 2),
                                     (1000 + 2 * seed, 1001 + 2 * seed))
                povm = simuldecode.simultaneous_povm(books, proj)
                errs[n].append(read(simuldecode.error_figures, ch, books,
                                    povm)["avg_error"])
        assert np.mean(errs[2]) <= np.mean(errs[1]) + 1e-12


class TestHayashiNagaoka:
    def test_projector_with_zero_t(self):
        s = np.diag([1.0, 1.0, 0.0]).astype(complex)
        holds, gap = simuldecode.hayashi_nagaoka_check(s, np.zeros((3, 3)))
        assert holds
        # gap operator is exactly (I - S) + extra identity off the support
        assert gap >= -1e-12

    def test_half_identity(self):
        s = np.eye(2) / 2
        t = np.eye(2) / 2
        holds, gap = simuldecode.hayashi_nagaoka_check(s, t)
        assert holds and gap > 1.0  # RHS - LHS = 3I - I/2

    def test_random_qualifying_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            dim = int(rng.integers(2, 7))
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            s = a @ a.conj().T
            s /= np.linalg.eigvalsh(s).max() * (1 + rng.uniform())
            b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            t = (b @ b.conj().T) * rng.uniform()
            holds, _ = simuldecode.hayashi_nagaoka_check(s, t)
            assert holds

    def test_preconditions_enforced(self):
        with pytest.raises(ValueError, match="S"):
            simuldecode.hayashi_nagaoka_check(2 * np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="positive"):
            simuldecode.hayashi_nagaoka_check(np.eye(2) / 2, -np.eye(2))


class TestRandomization:
    def test_zero_shift_identity(self):
        ch = qmat.named_channel("cnot-mac")
        books, _, _ = bell_pair_books(ch)
        same = randomize_code(books, 0, 0)
        assert same[0].entries == books[0].entries
        assert same[1].entries == books[1].entries

    def test_shift_relabels(self):
        ch = qmat.named_channel("cnot-mac")
        books, _, _ = bell_pair_books(ch)
        shifted = randomize_code(books, 1, 0)
        assert shifted[0].entries == books[0].entries[::-1]

    def test_max_error_equals_average_exhaustively(self):
        # the displayed shift-averaging identity, all four shifts summed
        ch = qmat.named_channel("cnot-mac")
        books, d1, d2 = bell_pair_books(ch, seeds=(31, 32))
        proj = simuldecode.mac_typical_projectors(ch, (d1, d2), 1.0)
        povm = simuldecode.simultaneous_povm(books, proj)
        avg = read(simuldecode.error_figures, ch, books, povm)["avg_error"]
        mx = read(simuldecode.max_error_via_randomization, ch, books, povm)
        assert abs(avg - mx) < 1e-12

    def test_identity_on_adder_mac_rectangular(self):
        # L = 3, M = 2 on a different channel exercises unequal ranges
        ch = qmat.named_channel("adder-mac")
        d1 = eacode.type_decompose(bell_state("Ap", "A"), 1)
        d2 = eacode.type_decompose(bell_state("Bp", "B"), 1)
        books = sample_books((d1, d2), (3, 2), (41, 42))
        proj = simuldecode.mac_typical_projectors(ch, (d1, d2), 1.5)
        povm = simuldecode.simultaneous_povm(books, proj)
        avg = read(simuldecode.error_figures, ch, books, povm)["avg_error"]
        mx = read(simuldecode.max_error_via_randomization, ch, books, povm)
        assert abs(avg - mx) < 1e-12


    def test_one_pass_matches_shift_loop(self):
        # reference: average each pair's error over every shift (S, T) of
        # both books, then take the worst pair
        ch = qmat.named_channel("adder-mac")
        d1 = eacode.type_decompose(schmidt_state([0.7, 0.3], "Ap", "A"), 1)
        d2 = eacode.type_decompose(bell_state("Bp", "B"), 1)
        L, M = 3, 2
        books = sample_books((d1, d2), (L, M), (43, 44))
        report = run_experiment(ch, books, "simultaneous", 1.5)
        povm = simuldecode.simultaneous_povm(
            books, simuldecode.mac_typical_projectors(ch, (d1, d2), 1.5))
        rho = eacode.channel_output_state(ch, (d1, d2))
        pairwise = {}
        for l in range(L):
            for m in range(M):
                sigma = eacode.conjugate_by_receiver_encoders(
                    rho, [(d1, books[0].draws[l]), (d2, books[1].draws[m])]
                )
                pairwise[(l, m)] = 1.0 - np.trace(povm[(l, m)] @ sigma.matrix).real
        worst = max(
            sum(pairwise[((l + s) % L, (m + t) % M)]
                for s in range(L) for t in range(M)) / (L * M)
            for l in range(L) for m in range(M)
        )
        assert abs(report.max_error_randomized - worst) < 1e-12

    @pytest.mark.parametrize("name, weights, L, M", [
        ("cnot-mac", None, 3, 3),
        ("adder-mac", [0.7, 0.3], 3, 2),
    ], ids=lambda v: "skewed" if v == [0.7, 0.3] else
        "bell" if v is None else str(v))
    def test_relabeled_code_permutes_the_table(self, name, weights, L, M):
        # decoding randomize_code(books, s, t) with its own POVM sends pair
        # (l, m) to the original (l + s, m + t): the same table, with rows
        # and columns permuted, so every pair's shift average is the mean
        ch = qmat.named_channel(name)
        phi = (bell_state("Ap", "A") if weights is None
               else schmidt_state(weights, "Ap", "A"))
        d1 = eacode.type_decompose(phi, 2)
        d2 = eacode.type_decompose(bell_state("Bp", "B"), 2)
        proj = simuldecode.mac_typical_projectors(ch, (d1, d2), 1.5)
        books = sample_books((d1, d2), (L, M), (45, 46))
        table = overlap_table(
            ch, books, simuldecode.simultaneous_povm(books, proj))
        for s, t in ((1, 0), (0, 1), (L - 1, M - 1)):
            shifted = randomize_code(books, s, t)
            got = overlap_table(
                ch, shifted, simuldecode.simultaneous_povm(shifted, proj))
            cols = [((l + s) % L) * M + (m + t) % M
                    for l in range(L) for m in range(M)]
            rows = cols + [L * M]  # the abort row stays last
            assert np.max(np.abs(got - table[np.ix_(rows, cols)])) < 1e-12


class TestExpectedCodewordUnderChannel:
    def test_sender2_twirl_structure(self):
        # exhaustive average over S2 of the encoded channel output equals
        # sum_t p(t) pi_t on B (x) the channel applied to phi (x) pi_t
        ch = qmat.named_channel("cnot-mac")
        phi = bell_state("Ap", "A")
        psi = schmidt_state([0.7, 0.3], "Bp", "B")
        d1 = eacode.type_decompose(phi, 1)
        d2 = eacode.type_decompose(psi, 1)
        rho = eacode.channel_output_state(ch, (d1, d2))
        acc = np.zeros_like(rho.matrix)
        count = 0
        for s2 in eacode.enumerate_indices(d2):
            sigma = eacode.conjugate_by_receiver_encoders(rho, [(d2, s2)])
            acc = acc + sigma.matrix
            count += 1
        acc /= count
        expect = np.zeros_like(acc)
        for i, (d, p) in enumerate(zip(d2.block_dims, d2.probs)):
            sl = d2.block_slices[i]
            pi_b = (d2._receiver_block_basis[:, sl]
                    @ d2._receiver_block_basis[:, sl].conj().T) / d
            pi_bp = (d2._sender_block_basis[:, sl]
                     @ d2._sender_block_basis[:, sl].conj().T) / d
            inp = qmat.tensor(
                phi.density(),
                qmat.DensityOperator(FactorSpace(("Bp",), (2,)), pi_bp),
            )
            out = qmat.apply_channel(ch, inp, acting_on=("Ap", "Bp"))
            out = qmat.permute(out, ("A", "C"))
            block = qmat.tensor(
                qmat.Operator(FactorSpace(("B",), (2,)), pi_b),
                qmat.Operator(out.space, out.matrix),
            )
            # rho lives on the n = 1 copies of these labels, in its own order
            block = qmat.permute(block, [l[:-1] for l in rho.space.labels])
            expect += p * block.matrix
        assert np.max(np.abs(acc - expect)) < 1e-9


class TestCoherentDecoder:
    def test_single_identity_element(self):
        povm = PovmSet(FactorSpace(("S",), (2,)), {0: np.eye(2)})
        dec = simuldecode.coherent_decoder(povm)
        assert dec.isometry_defect() < 1e-12
        assert np.allclose(dec.block(0), np.eye(2))
        assert np.max(np.abs(dec.block("abort"))) < 1e-9

    def test_projective_orthogonal_fidelity_one(self):
        ch = parallel_qubit_mac()
        books, d1, d2 = phase_books(ch)
        proj = simuldecode.mac_typical_projectors(ch, (d1, d2), 2.0)
        povm = simuldecode.simultaneous_povm(books, proj)
        dec = simuldecode.coherent_decoder(povm)
        assert dec.isometry_defect() < 1e-9
        fid = read(simuldecode.coherent_fidelity, ch, books, povm)
        assert fid > 1 - 1e-9

    def test_fidelity_beats_average_success_on_cnot_mac(self):
        ch = qmat.named_channel("cnot-mac")
        books, d1, d2 = bell_pair_books(ch, seeds=(51, 52))
        proj = simuldecode.mac_typical_projectors(ch, (d1, d2), 1.0)
        povm = simuldecode.simultaneous_povm(books, proj)
        err = read(simuldecode.error_figures, ch, books, povm)["avg_error"]
        fid = read(simuldecode.coherent_fidelity, ch, books, povm)
        assert fid >= (1 - err) - 1e-10

    def test_environment_is_not_a_factor(self, monkeypatch):
        # at n = 2 every space is 256-dimensional; the purified output is a
        # 256 x 16 factor, not a 4096-dimensional state with the environment
        # as a factor, so a dense cap of 1024 leaves the fidelity unchanged
        ch = qmat.named_channel("cnot-mac")
        books, d1, d2 = bell_pair_books(ch, n=2, seeds=(53, 54))
        povm = simuldecode.simultaneous_povm(
            books, simuldecode.mac_typical_projectors(ch, (d1, d2), 1.0))
        fid = read(simuldecode.coherent_fidelity, ch, books, povm)
        monkeypatch.setattr(qmat, "DEFAULT_DIM_CAP", 1024)
        assert read(simuldecode.coherent_fidelity, ch, books, povm) == fid

    def test_codeword_trace_is_checked(self, monkeypatch):
        ch = qmat.named_channel("cnot-mac")
        books, d1, d2 = bell_pair_books(ch)
        povm = simuldecode.simultaneous_povm(
            books, simuldecode.mac_typical_projectors(ch, (d1, d2), 1.0))
        factor = eacode.channel_output_factor
        monkeypatch.setattr(eacode, "channel_output_factor",
                            lambda *args: 1.001 * factor(*args))
        with pytest.raises(ValueError, match=r"codeword state \(0, 0\) has trace"):
            read(simuldecode.coherent_fidelity, ch, books, povm)


class TestSuccessiveMode:
    def test_successive_decodes_orthogonal_instance(self):
        ch = parallel_qubit_mac()
        books, d1, d2 = phase_books(ch)
        proj = simuldecode.mac_typical_projectors(ch, (d1, d2), 2.0)
        povm = seqdecode.ea_successive_povm(books, proj)
        err = read(simuldecode.error_figures, ch, books, povm)["avg_error"]
        assert err < 1e-9

    def test_ea_successive_povm_valid_and_reported(self):
        ch = qmat.named_channel("cnot-mac")
        books, d1, d2 = bell_pair_books(ch, seeds=(71, 72))
        report = run_experiment(ch, books, "successive", 1.0)
        povm = seqdecode.ea_successive_povm(
            books, simuldecode.mac_typical_projectors(ch, (d1, d2), 1.0))
        gap = np.linalg.eigvalsh(
            np.eye(povm.space.dim) - povm.total()
        ).min()
        assert gap >= -1e-9
        assert 0 <= report.avg_error <= 1 + 1e-9
        assert abs(report.max_error_randomized - report.avg_error) < 1e-12

    def test_unknown_mode_rejected(self):
        ch = qmat.named_channel("cnot-mac")
        books, _, _ = bell_pair_books(ch)
        with pytest.raises(ValueError, match="mode"):
            run_experiment(ch, books, "oracle", 1.0)

    def test_reports_are_deterministic(self):
        ch = qmat.named_channel("cnot-mac")
        books, _, _ = bell_pair_books(ch, seeds=(81, 82))
        r1 = run_experiment(ch, books, "simultaneous", 1.0)
        r2 = run_experiment(ch, books, "simultaneous", 1.0)
        assert r1.to_json() == r2.to_json()


class TestOnePassEvaluation:
    def test_one_output_factor_and_no_dense_state(self, monkeypatch):
        # every figure comes from the factor R: rho_n and the codeword
        # states sigma_lm are never formed
        calls = Counter()
        for name in ("channel_output_factor", "channel_output_state",
                     "conjugate_by_receiver_encoders"):
            def counted(*args, _fn=getattr(eacode, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(eacode, name, counted)
        ch = qmat.named_channel("cnot-mac")
        d1 = eacode.type_decompose(bell_state("Ap", "A"), 1)
        d2 = eacode.type_decompose(bell_state("Bp", "B"), 1)
        books = sample_books((d1, d2), (2, 3), (51, 52))
        for mode, decoder in DECODERS.items():
            calls.clear()
            run_experiment(ch, books, mode, 1.0)
            assert calls == {"channel_output_factor": 1}
            povm = decoder(
                books, simuldecode.mac_typical_projectors(ch, (d1, d2), 1.0))
            calls.clear()
            read(simuldecode.error_breakdown, ch, books, povm)
            assert calls == {"channel_output_factor": 1}

    @staticmethod
    def count_encoders_and_tensors(monkeypatch):
        # "entries" counts the encoders that the books' index maps hold; the
        # per-index oracle hw_transpose_unitary is counted too, and must not
        # run
        calls = Counter()
        for module, name in ((eacode, "encoder_maps"),
                             (eacode, "hw_transpose_unitary"),
                             (qmat, "tensor")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                if _name == "encoder_maps":
                    calls["entries"] += len(args[1])
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("mode", list(DECODERS))
    def test_each_encoder_built_once_on_its_own_share(self, monkeypatch, mode):
        # one map build per codebook, one encoder per entry, L + M in all, and
        # no joint encoder: the only tensor products are the channel input
        # and the code state of the typical projectors
        calls = self.count_encoders_and_tensors(monkeypatch)
        ch = qmat.named_channel("cnot-mac")
        d1 = eacode.type_decompose(schmidt_state([0.7, 0.3], "Ap", "A"), 2)
        d2 = eacode.type_decompose(schmidt_state([0.6, 0.4], "Bp", "B"), 2)
        calls.clear()
        books = sample_books((d1, d2), (4, 4), (0, 1))
        run_experiment(ch, books, mode, 1.0)
        assert calls == {"encoder_maps": 2, "entries": 8, "tensor": 2}

    def test_sequential_trial_builds_each_encoder_once(self, monkeypatch):
        calls = self.count_encoders_and_tensors(monkeypatch)
        seqdecode.ea_sequential_protocol(
            qmat.named_channel("amplitude-damping:0.3"),
            schmidt_state([0.7, 0.3]), 2, 6, 1.0, 3, 1)
        assert (calls["encoder_maps"], calls["entries"]) == (1, 6)
        assert "hw_transpose_unitary" not in calls

    @pytest.mark.parametrize("n", [1, 2])
    def test_simultaneous_run_forms_no_dense_operator(self, monkeypatch, n):
        # the Gram form builds no detection operator, no dense square-root
        # measurement and no embedded d x d projector
        calls = Counter()
        for module, name in ((simuldecode, "build_upsilon"),
                             (simuldecode, "sqrt_measurement"),
                             (qmat, "embed")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        ch = qmat.named_channel("cnot-mac")
        books, _, _ = bell_pair_books(ch, n=n, seeds=(57, 58))
        report = run_experiment(ch, books, "simultaneous", 1.0)
        assert 0 <= report.avg_error <= 1
        assert calls == {}

    def test_codeword_trace_is_checked(self, monkeypatch):
        # Tr sigma_lm = |V_lm|^2 is checked on the dense table's columns
        ch = qmat.named_channel("cnot-mac")
        books, d1, d2 = bell_pair_books(ch)
        povm = simuldecode.simultaneous_povm(
            books, simuldecode.mac_typical_projectors(ch, (d1, d2), 1.0))
        factor = eacode.channel_output_factor
        monkeypatch.setattr(eacode, "channel_output_factor",
                            lambda *args: 1.001 * factor(*args))
        with pytest.raises(ValueError, match=r"codeword state \(0, 0\) has trace"):
            read(simuldecode.error_figures, ch, books, povm)["avg_error"]
        # and on |V_lm|^2 by the Gram form
        with pytest.raises(ValueError, match=r"codeword state \(0, 0\) has trace"):
            run_experiment(ch, books, "simultaneous", 1.0)

    def test_outcomes_must_be_the_pairs_in_order(self):
        ch = qmat.named_channel("cnot-mac")
        books, _, _ = bell_pair_books(ch)
        space = FactorSpace(("S",), (16,))
        swapped = PovmSet(space, {(l, m): np.eye(16) / 4
                                  for m in range(2) for l in range(2)})
        # the pairs are sent l-major, and this POVM lists them m-major
        with pytest.raises(ValueError, match="sent codewords, in order"):
            read(simuldecode.error_figures, ch, books, swapped)["avg_error"]

    @pytest.mark.parametrize("mode", ["simultaneous", "successive"])
    def test_report_matches_standalone_wrappers(self, mode):
        ch = qmat.named_channel("cnot-mac")
        d1 = eacode.type_decompose(bell_state("Ap", "A"), 2)
        d2 = eacode.type_decompose(bell_state("Bp", "B"), 2)
        books = sample_books((d1, d2), (2, 2), (61, 62))
        report = run_experiment(ch, books, mode, 1.0)
        povm = DECODERS[mode](
            books, simuldecode.mac_typical_projectors(ch, (d1, d2), 1.0))
        out = report.to_json()
        avg = read(simuldecode.error_figures, ch, books, povm)["avg_error"]
        mx = read(simuldecode.max_error_via_randomization, ch, books, povm)
        assert abs(out["avg_error"] - avg) < 1e-12
        assert abs(out["max_error_randomized"] - mx) < 1e-12
        parts = read(simuldecode.error_breakdown, ch, books, povm)
        assert out["error_terms"].keys() == parts.keys()
        for key, value in parts.items():
            assert abs(out["error_terms"][key] - value) < 1e-12


def sample_pair(name, weights, n, L, M, seeds):
    ch = qmat.named_channel(name)
    states = [bell_state(s, r) if weights is None
              else schmidt_state(weights, s, r)
              for s, r in (("Ap", "A"), ("Bp", "B"))]
    d1, d2 = (eacode.type_decompose(phi, n) for phi in states)
    return ch, sample_books((d1, d2), (L, M), seeds), d1, d2


def spy_support(monkeypatch):
    """Record the (E, f) of every square root that ``gram_table`` takes."""
    seen = []
    support = simuldecode._support

    def spy(total):
        seen.append((total.shape, *support(total)))
        return seen[-1][1:]

    monkeypatch.setattr(simuldecode, "_support", spy)
    return seen


class TestGramForm:
    # the cases whose square root is taken on the d x d family sum S, where
    # Lq > d; every other case decomposes the Lq x Lq Gram matrix G'
    S_SIDE = {("cnot-mac", 1, 8, 6), ("adder-mac", 1, 6, 4)}
    CASES = [
        ("cnot-mac", None, 1, 2, 2, "G"),
        ("cnot-mac", [0.7, 0.3], 1, 3, 2, "S"),
        ("adder-mac", None, 1, 2, 3, "S"),
        ("adder-mac", [0.7, 0.3], 1, 3, 2, "S"),
        ("cnot-mac", None, 1, 8, 6, "S"),
        ("adder-mac", None, 1, 6, 4, "S"),
        ("cnot-mac", None, 2, 3, 2, "G"),
        ("cnot-mac", None, 2, 2, 1, "G"),
        ("cnot-mac", [0.7, 0.3], 2, 2, 3, "G"),
        ("adder-mac", None, 2, 2, 3, "G"),
        ("adder-mac", [0.7, 0.3], 2, 3, 2, "G"),
    ]

    @staticmethod
    def projectors(name, ch, d1, d2):
        return simuldecode.mac_typical_projectors(
            ch, (d1, d2), 1.5 if name == "adder-mac" else 1.0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name, weights, n, L, M, kr_side", CASES,
                             ids=lambda v: "skewed" if v == [0.7, 0.3] else
                             "bell" if v is None else str(v))
    def test_table_matches_dense_oracle(self, name, weights, n, L, M, kr_side,
                                        seed):
        # oracle: the dense square-root measurement and its overlap table;
        # kr_side marks the side the full Kr x Kr Gram form took ("S" where
        # Kr > d), and S_SIDE the side the factored form takes
        ch, books, d1, d2 = sample_pair(name, weights, n, L, M,
                                        (2 * seed, 2 * seed + 1))
        proj = self.projectors(name, ch, d1, d2)
        kr = L * M * proj.rank("ABC")
        assert (kr > proj.space.dim) == (kr_side == "S")
        w, _ = simuldecode._detection_factors(books, proj)
        s_side = (name, n, L, M) in self.S_SIDE
        assert (w.shape[1] > proj.space.dim) == s_side
        want = overlap_table(
            ch, books, simuldecode.simultaneous_povm(books, proj))
        got = simuldecode.gram_table(output_factor(ch, books), books, proj)
        assert got.shape == want.shape == (L * M + 1, L * M)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_cases_cover_a_proper_support_on_both_sides(self, monkeypatch):
        # the square root is read on the support only, so the cases must
        # include a G' whose support rank r_s is below Lq and an S of rank
        # below d; each E is orthonormal and f^2 inverts G' on it
        seen = spy_support(monkeypatch)
        proper = set()
        for name, weights, n, L, M, _ in self.CASES:
            for seed in (1, 2, 3):
                ch, books, d1, d2 = sample_pair(name, weights, n, L, M,
                                                (2 * seed, 2 * seed + 1))
                proj = self.projectors(name, ch, d1, d2)
                w, _ = simuldecode._detection_factors(books, proj)
                seen.clear()
                simuldecode.gram_table(output_factor(ch, books), books, proj)
                [(shape, e, f)] = seen
                s_side = (name, n, L, M) in self.S_SIDE
                assert shape == ((proj.space.dim,) * 2 if s_side
                                 else (w.shape[1],) * 2)
                assert e.shape == (shape[0], len(f))
                assert np.max(np.abs(e.conj().T @ e - np.eye(len(f)))) < 1e-12
                total = w @ w.conj().T if s_side else w.conj().T @ w
                ef = e * f
                assert np.max(np.abs(ef.conj().T @ total @ ef
                                     - np.eye(len(f)))) < 1e-10
                if len(f) < shape[0]:
                    proper.add("S" if s_side else "G")
        assert proper == {"G", "S"}

    @pytest.mark.parametrize("M, q", [(1, 16), (4, 24)])
    def test_row_space_of_the_shared_factor(self, M, q):
        # Y = [Y_1 ... Y_M] has rank q: full column rank Mr = 16 at M = 1,
        # where nothing is dropped, and 24 of Mr = 64 at M = 4
        ch, books, d1, d2 = sample_pair("cnot-mac", None, 2, 2, M, (2, 3))
        proj = simuldecode.mac_typical_projectors(ch, (d1, d2), 1.0)
        w, z = simuldecode._detection_factors(books, proj)
        assert z.shape == (M * proj.rank("ABC"), q)
        assert w.shape == (proj.space.dim, books[0].message_count * q)
        assert np.max(np.abs(z.conj().T @ z - np.eye(q))) < 1e-12

    def test_decomposes_the_small_gram_matrix(self, monkeypatch):
        # the benchmark's op at --seed 1: G' is Lq x Lq = 96 x 96, where
        # G = W†W was Kr x Kr = 256 x 256
        ch, books, d1, d2 = sample_pair("cnot-mac", None, 2, 4, 4, (2, 3))
        proj = simuldecode.mac_typical_projectors(ch, (d1, d2), 1.0)
        seen = spy_support(monkeypatch)
        simuldecode.gram_table(output_factor(ch, books), books, proj)
        # one decomposition, read on its support of rank 36
        assert [(shape, e.shape, f.shape) for shape, e, f in seen] == [
            ((96, 96), (96, 36), (36,))]

    def test_detection_factors_square_to_the_dense_operators(self):
        ch, books, d1, d2 = sample_pair("adder-mac", [0.7, 0.3], 2, 2, 3,
                                        (63, 64))
        proj = simuldecode.mac_typical_projectors(ch, (d1, d2), 1.5)
        w, z = simuldecode._detection_factors(books, proj)
        r, q = proj.rank("ABC"), z.shape[1]
        for l, m in itertools.product(*(range(b.message_count)
                                        for b in books)):
            block = w[:, l * q:(l + 1) * q] @ z[m * r:(m + 1) * r].conj().T
            ups = simuldecode.build_upsilon(books, l, m, proj)
            assert np.max(np.abs(block @ block.conj().T - ups)) < 1e-12

    def test_support_defect_is_checked(self, monkeypatch):
        # a wrong inverse root f = lambda^{-1/2} misses the support of G'
        ch, books, d1, d2 = sample_pair("cnot-mac", None, 2, 2, 2, (65, 66))
        proj = simuldecode.mac_typical_projectors(ch, (d1, d2), 1.0)
        support = simuldecode._support

        def scaled(total):
            e, f = support(total)
            return e, 1.001 * f

        monkeypatch.setattr(simuldecode, "_support", scaled)
        with pytest.raises(ValueError, match="misses the support projector"):
            simuldecode.gram_table(output_factor(ch, books), books, proj)


class TestBlocklengthThree:
    # d = 1728 (adder-mac) and 4096 (cnot-mac): no dense oracle runs here,
    # so these check what the Gram form can check on its own

    def test_adder_mac_identities(self):
        ch, books, d1, d2 = sample_pair("adder-mac", None, 3, 2, 2, (0, 1))
        proj = simuldecode.mac_typical_projectors(ch, (d1, d2), 1.0)
        assert proj.space.dim == 1728
        report = run_experiment(ch, books, "simultaneous", 1.0)
        assert abs(report.breakdown["total"] - report.avg_error) < 1e-12
        table = simuldecode.gram_table(output_factor(ch, books), books, proj)
        assert table[:-1].sum(axis=0).max() <= 1 + 1e-12
        assert table[-1].min() >= -1e-12
        # G'^{+1/2} G' G'^{+1/2} is the support projector of G', in the
        # support basis f E† G' E f = I, and in G's own coordinates
        w, _ = simuldecode._detection_factors(books, proj)
        assert w.shape[1] <= w.shape[0]
        gram = w.conj().T @ w
        e, f = simuldecode._support(gram)
        ef = e * f
        assert np.max(np.abs(ef.conj().T @ gram @ ef - np.eye(len(f)))) < 1e-10
        inv_root, supp = simuldecode._inverse_root(gram)
        assert np.max(np.abs(inv_root @ gram @ inv_root - supp)) < 1e-10

    def test_cnot_mac_average_error(self):
        # an independent implementation measured the same value
        ch, books, _, _ = sample_pair("cnot-mac", None, 3, 2, 2, (0, 1))
        report = run_experiment(ch, books, "simultaneous", 1.0)
        assert abs(report.avg_error - 0.52734375) < 1e-12
        assert abs(report.breakdown["total"] - report.avg_error) < 1e-12


def bob_through_mac():
    """Bob's qubit passes and Alice's is discarded: |b><ab|, a = 0, 1."""
    kraus = [np.zeros((2, 4), dtype=complex) for _ in range(2)]
    for a, b in itertools.product(range(2), repeat=2):
        kraus[a][b, 2 * a + b] = 1.0
    return qmat.KrausChannel(
        FactorSpace(("Ap", "Bp"), (2, 2)), FactorSpace(("C",), (2,)),
        kraus, name="bob-through")



def xor_mac():
    """Both qubits in, their parity out: |a + b mod 2><ab|, a = 0, 1."""
    kraus = [np.zeros((2, 4), dtype=complex) for _ in range(2)]
    for a, b in itertools.product(range(2), repeat=2):
        kraus[a][a ^ b, 2 * a + b] = 1.0
    return qmat.KrausChannel(
        FactorSpace(("Ap", "Bp"), (2, 2)), FactorSpace(("C",), (2,)),
        kraus, name="xor")


class TestSuccessiveTable:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name, weights, n, L, M", [
        ("cnot-mac", None, 1, 3, 2),
        ("adder-mac", [0.7, 0.3], 1, 2, 3),
        ("cnot-mac", None, 1, 1, 3),
        ("adder-mac", None, 1, 3, 1),
        ("cnot-mac", [0.7, 0.3], 2, 2, 3),
        ("adder-mac", None, 2, 3, 2),
    ], ids=lambda v: "skewed" if v == [0.7, 0.3] else
        "bell" if v is None else str(v))
    def test_matches_dense_oracle(self, name, weights, n, L, M, seed):
        # oracle: the dense successive POVM and its overlap table
        ch, books, d1, d2 = sample_pair(name, weights, n, L, M,
                                        (2 * seed, 2 * seed + 1))
        proj = simuldecode.mac_typical_projectors(
            ch, (d1, d2), 1.5 if name == "adder-mac" else 1.0)
        want = overlap_table(
            ch, books, seqdecode.ea_successive_povm(books, proj))
        got = seqdecode.successive_table(output_factor(ch, books), books, proj)
        assert got.shape == want.shape == (L * M + 1, L * M)
        assert np.max(np.abs(got - want)) < 1e-12

    # Bob's stage runs in the coordinates of its fixed test Pi_B Pi_AC;
    # these skewed states make both runs rank-deficient (ranks of B and AC)
    @pytest.mark.parametrize("name, n, delta, ranks", [
        ("cnot-mac", 2, 0.5, (1, 2)),
        ("adder-mac", 2, 1.0, (1, 5)),
        ("cnot-mac", 1, 1.0, (1, 1)),
        ("adder-mac", 1, 1.0, (1, 1)),
        ("cnot-mac", 2, 1.0, (1, 5)),
        ("adder-mac", 2, 0.5, (1, 2)),
    ])
    def test_matches_dense_oracle_in_rank_deficient_tests(self, name, n,
                                                          delta, ranks):
        ch = qmat.named_channel(name)
        d1, d2 = (eacode.type_decompose(schmidt_state(w, s, r), n)
                  for w, s, r in (([0.8, 0.2], "Ap", "A"),
                                  ([0.9, 0.1], "Bp", "B")))
        books = sample_books((d1, d2), (3, 4), (8, 9))
        proj = simuldecode.mac_typical_projectors(ch, (d1, d2), delta)
        assert (proj.rank("B"), proj.rank("AC")) == ranks
        want = overlap_table(
            ch, books, seqdecode.ea_successive_povm(books, proj))
        got = seqdecode.successive_table(output_factor(ch, books), books, proj)
        assert got.shape == want.shape == (13, 12)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_run_forms_no_dense_operator(self, monkeypatch, n):
        def refuse(*args, **kwargs):
            raise AssertionError("the successive run formed a d x d matrix")

        for module, name in ((seqdecode, "successive_povm"),
                             (seqdecode, "ea_successive_povm"),
                             (eacode, "overlap_table"),
                             (qmat, "embed")):
            monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(typicality.ProjectorBundle, "embedded", refuse)
        ch = qmat.named_channel("cnot-mac")
        books, _, _ = bell_pair_books(ch, n=n, seeds=(59, 60))
        report = run_experiment(ch, books, "successive", 1.0)
        assert abs(report.breakdown["total"] - report.avg_error) < 1e-12

    def test_codeword_trace_is_checked(self, monkeypatch):
        ch = qmat.named_channel("cnot-mac")
        books, _, _ = bell_pair_books(ch)
        factor = eacode.channel_output_factor
        monkeypatch.setattr(eacode, "channel_output_factor",
                            lambda *args: 1.001 * factor(*args))
        with pytest.raises(ValueError, match=r"codeword state \(0, 0\) has trace"):
            run_experiment(ch, books, "successive", 1.0)

    def test_encoders_act_a_number_of_times_fixed_in_m(self, monkeypatch):
        # V and Bob's words [U_2(t_m) B] are encoded once per table (one
        # encode of Alice's book and two of Bob's), and both stages run in
        # Alice's frame, so her encoders act L times per table, each as one
        # gather outside encode: U_1(s_0)† on V, then one frame step per
        # update, however many words Bob's stage tests; no encoder acts as
        # an operator
        calls, encoding = Counter(), []
        apply_local, encode = qmat.apply_local, eacode.encode
        apply_map = eacode.apply_map

        def counted_apply(*args, **kwargs):
            calls[args[0].space] += 1
            return apply_local(*args, **kwargs)

        def counted_encode(x, books, space):
            calls["encode", books[0].decomp.receiver_space] += 1
            encoding.append(True)
            try:
                return encode(x, books, space)
            finally:
                encoding.pop()

        def counted_map(index, phase, x, out):
            if not encoding:
                calls["map", index.shape] += 1
            return apply_map(index, phase, x, out)

        monkeypatch.setattr(qmat, "apply_local", counted_apply)
        monkeypatch.setattr(eacode, "encode", counted_encode)
        monkeypatch.setattr(eacode, "apply_map", counted_map)
        L = 4
        for M in (2, 4):
            ch, books, d1, d2 = sample_pair("cnot-mac", None, 2, L, M, (0, 1))
            proj = simuldecode.mac_typical_projectors(ch, (d1, d2), 1.0)
            factor = output_factor(ch, books)
            calls.clear()
            seqdecode.successive_table(factor, books, proj)
            d_s = d1.receiver_space.dim
            assert calls == {("encode", d1.receiver_space): 1,
                             ("encode", d2.receiver_space): 2,
                             ("map", (1, d_s)): L}

    @pytest.mark.parametrize("weights, n", [(None, 2), ([0.7, 0.3], 2),
                                            ([0.3, 0.7], 3),
                                            ([0.5, 0.3, 0.2], 2)])
    def test_frame_maps_are_the_oracle_products(self, weights, n):
        # U_1(s_0)† and every S_l = U_1(s_{l+1})† U_1(s_l), composed as
        # index maps, against the products of the dense oracle encoders
        phi = bell_state() if weights is None else schmidt_state(weights)
        dec = eacode.type_decompose(phi, n)
        book = eacode.sample_code(dec, 5, 3)
        u = [eacode.hw_transpose_unitary(s, dec) for s in book.entries]
        index, phase = seqdecode.frame_maps(book)
        assert index.shape == phase.shape == (5, dec.receiver_space.dim)
        for l, want in enumerate([u[0].conj().T] + [
                u[l + 1].conj().T @ u[l] for l in range(4)]):
            assert np.max(np.abs(dense_map(index[l], phase[l]) - want)) <= 1e-15

    def test_code_projector_applied_once_per_alice_update(self, monkeypatch):
        # Y stays in the range of Pi = Pi_A Pi_B Pi_C after each of Alice's
        # L - 1 updates, so Pi acts on V once and then once per update
        ch, books, d1, d2 = sample_pair("cnot-mac", [0.7, 0.3], 2, 4, 2,
                                        (0, 1))
        proj = simuldecode.mac_typical_projectors(ch, (d1, d2), 1.0)
        factor = output_factor(ch, books)
        calls = Counter()
        apply = typicality.ProjectorBundle.apply

        def counted(self, name, mat):
            calls[name] += 1
            return apply(self, name, mat)

        monkeypatch.setattr(typicality.ProjectorBundle, "apply", counted)
        seqdecode.successive_table(factor, books, proj)
        assert calls["A"] == 4

    def test_oracles_read_no_encoder_maps(self, monkeypatch):
        # the dense oracles build each encoder from its index, so books
        # whose index maps hold their encoders in reverse order decode
        # differently under the factored decoders and under the oracles
        maps = eacode.encoder_maps
        monkeypatch.setattr(eacode, "encoder_maps", lambda decomp, draws: tuple(
            m[::-1] for m in maps(decomp, draws)))
        ch, books, d1, d2 = sample_pair("cnot-mac", None, 2, 3, 3, (0, 1))
        proj = simuldecode.mac_typical_projectors(ch, (d1, d2), 1.0)
        factor = output_factor(ch, books)
        for table, povm in ((seqdecode.successive_table,
                             seqdecode.ea_successive_povm),
                            (simuldecode.gram_table,
                             simuldecode.simultaneous_povm)):
            want = overlap_table(ch, books, povm(books, proj))
            assert np.max(np.abs(table(factor, books, proj) - want)) > 0.1

    @pytest.mark.parametrize("channel, joint_rank", [
        (fully_depolarizing_mac(out=2), 8), (bob_through_mac(), 2)],
        ids=["depolarizing", "bob-through"])
    def test_matches_dense_oracle_when_every_test_is_full_rank(
            self, channel, joint_rank):
        # two qubits in, one out: with Bell states Pi_B and Pi_AC are full
        # rank, so Pi_x = I, the chain's start is Z itself and Alice's
        # update is zero; the joint test is full rank on the fully
        # depolarizing MAC and rank-deficient where Bob's qubit passes
        _, d1, d2 = bell_pair_books(channel)
        books = sample_books((d1, d2), (3, 3), (4, 5))
        proj = simuldecode.mac_typical_projectors(channel, (d1, d2), 1.0)
        assert proj.rank("ABC") == joint_rank
        z = np.zeros((proj.space.dim, 2), dtype=complex)
        assert proj.coordinates(("B", "AC"), z) is z
        want = overlap_table(
            channel, books, seqdecode.ea_successive_povm(books, proj))
        got = seqdecode.successive_table(output_factor(channel, books), books,
                                         proj)
        assert got.shape == want.shape == (10, 9)
        assert np.max(np.abs(got - want)) < 1e-12

    # Alice's update runs in her frame because each U_1 commutes with
    # Pi = Pi_A Pi_B Pi_C; skewed states make Pi a proper subspace
    @pytest.mark.parametrize("name, n, delta", [
        ("cnot-mac", 1, 1.0), ("cnot-mac", 2, 0.5), ("cnot-mac", 2, 1.0),
        ("adder-mac", 1, 1.0), ("adder-mac", 2, 1.0),
    ])
    def test_alice_encoders_commute_with_the_code_projector(self, name, n,
                                                            delta):
        ch, books, d1, d2 = sample_pair(name, [0.7, 0.3], n, 4, 1, (3, 4))
        proj = simuldecode.mac_typical_projectors(ch, (d1, d2), delta)
        pi = proj.embedded("A") @ proj.embedded("B") @ proj.embedded("C")
        assert np.trace(pi).real < proj.space.dim - 0.5
        for s in books[0].entries:
            u = eacode.receiver_encoder(d1, s)
            assert np.max(np.abs(
                qmat.conjugate_local(u, pi, proj.space) - pi)) < 1e-12

    @pytest.mark.parametrize("name, weights, n", [
        ("cnot-mac", None, 1), ("cnot-mac", [0.7, 0.3], 2),
        ("adder-mac", None, 2), ("adder-mac", [0.7, 0.3], 1),
    ], ids=lambda v: "skewed" if v == [0.7, 0.3] else
        "bell" if v is None else str(v))
    def test_matches_dense_oracle_when_alice_repeats_an_index(self, name,
                                                              weights, n):
        # Alice's entries s, s, t, s: one frame step is the identity and the
        # last undoes the one before it
        ch, books, d1, _ = sample_pair(name, weights, n, 2, 3, (10, 11))
        s, t = books[0].entries
        assert s != t
        books = [book_of(d1, (s, s, t, s), 10), books[1]]
        proj = simuldecode.mac_typical_projectors(
            ch, [b.decomp for b in books], 1.5 if name == "adder-mac" else 1.0)
        want = overlap_table(
            ch, books, seqdecode.ea_successive_povm(books, proj))
        got = seqdecode.successive_table(output_factor(ch, books), books, proj)
        assert got.shape == want.shape == (13, 12)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("channel, weights", [
        (parallel_qubit_mac(), None), (fully_depolarizing_mac(), [0.7, 0.3]),
        (fully_depolarizing_mac(out=2), [0.7, 0.3]),
        (bob_through_mac(), [0.7, 0.3]),
    ], ids=["parallel-qubits-bell", "depolarizing-4-skewed",
            "depolarizing-2-skewed", "bob-through-skewed"])
    def test_matches_dense_oracle_on_qubit_macs(self, channel, weights, seed):
        # Pi_x = Pi_B Pi_AC is the identity on the fully depolarizing MACs
        # and rank-deficient on the other two
        d1, d2 = (eacode.type_decompose(
            bell_state(s, r) if weights is None
            else schmidt_state(weights, s, r), 1)
            for s, r in (("Ap", "A"), ("Bp", "B")))
        books = sample_books((d1, d2), (3, 2), (2 * seed, 2 * seed + 1))
        proj = simuldecode.mac_typical_projectors(channel, (d1, d2), 1.0)
        want = overlap_table(
            channel, books, seqdecode.ea_successive_povm(books, proj))
        got = seqdecode.successive_table(output_factor(channel, books), books,
                                         proj)
        assert got.shape == want.shape == (7, 6)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("seeds", [(12, 13), (14, 15)])
    def test_matches_dense_oracle_at_blocklength_three(self, seeds):
        # d = 512 with one output qubit that Alice's input reaches; the
        # type blocks of dimension 3 make her encoders more than Pauli
        # operators up to phase, so a frame step S_l and its inverse
        # differ in more than a phase
        channel = xor_mac()
        d1, d2 = (eacode.type_decompose(schmidt_state([0.7, 0.3], s, r), 3)
                  for s, r in (("Ap", "A"), ("Bp", "B")))
        assert max(d1.block_dims) == 3
        books = sample_books((d1, d2), (3, 2), seeds)
        proj = simuldecode.mac_typical_projectors(channel, (d1, d2), 1.0)
        want = overlap_table(
            channel, books, seqdecode.ea_successive_povm(books, proj))
        got = seqdecode.successive_table(output_factor(channel, books), books,
                                         proj)
        assert got.shape == want.shape == (7, 6)
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("name, weights, n, delta", [
        ("cnot-mac", None, 1, 1.0), ("cnot-mac", [0.7, 0.3], 1, 1.0),
        ("cnot-mac", None, 2, 1.0), ("cnot-mac", [0.7, 0.3], 2, 0.5),
        ("adder-mac", None, 1, 1.5), ("adder-mac", [0.7, 0.3], 1, 1.0),
        ("adder-mac", None, 2, 1.5), ("adder-mac", [0.7, 0.3], 2, 1.0),
    ], ids=lambda v: "skewed" if v == [0.7, 0.3] else
        "bell" if v is None else str(v))
    def test_rows_read_only_the_tests_before_them(self, name, weights, n,
                                                  delta):
        # row (l, m) reads s_0 ... s_l and t_0 ... t_m alone, so dropping
        # later entries of either book leaves it as it was on every
        # codeword kept; column (l, m) is the codeword of pair (l, m)
        ch, books, d1, d2 = sample_pair(name, weights, n, 3, 3, (6, 7))
        proj = simuldecode.mac_typical_projectors(ch, (d1, d2), delta)
        factor = output_factor(ch, books)
        full = seqdecode.successive_table(factor, books, proj)
        for L, M in ((2, 3), (3, 2), (1, 1)):
            short = [eacode.EaCodeBook(b.decomp, b.draws[:k], b.seed)
                     for b, k in zip(books, (L, M))]
            pairs = [3 * l + m for l in range(L) for m in range(M)]
            got = seqdecode.successive_table(factor, short, proj)
            assert np.max(np.abs(got[:-1] - full[np.ix_(pairs, pairs)])
                          ) < 1e-12

    def test_cnot_mac_blocklength_three(self):
        # d = 4096, where the dense POVM ran out of memory: the identities
        # the table satisfies on its own
        ch, books, d1, d2 = sample_pair("cnot-mac", None, 3, 2, 2, (0, 1))
        proj = simuldecode.mac_typical_projectors(ch, (d1, d2), 1.0)
        table = seqdecode.successive_table(output_factor(ch, books), books,
                                           proj)
        assert np.max(np.abs(table.sum(axis=0) - 1.0)) < 1e-12
        assert table.min() >= -1e-12
        report = run_experiment(ch, books, "successive", 1.0)
        assert abs(report.breakdown["total"] - report.avg_error) < 1e-12


RANDOM_MACS = range(64)


class TestRandomMacs:
    """Seeded random MACs, 64 at n = 1 and 8 at n = 2, as a standing check
    of every factored MAC decoder against its dense POVM, which must be a
    POVM: the named channels' test projectors commute with the code
    projector, and so hide a family that sums beyond the identity."""

    @staticmethod
    def projectors(seed, n=1):
        ch, phi, psi, delta = random_mac(seed)
        decomps = [eacode.type_decompose(s, n) for s in (phi, psi)]
        return ch, decomps, simuldecode.mac_typical_projectors(
            ch, decomps, delta)

    def test_at_least_fifty_decode_at_n_1(self):
        decoded = 0
        for seed in RANDOM_MACS:
            try:
                self.projectors(seed)
                decoded += 1
            except ValueError as e:
                # the one refusal: an empty typical projector, naming delta
                assert f"delta = {random_mac(seed)[3]} leaves" in str(e)
        assert decoded >= 50

    @pytest.mark.parametrize("seed, n", [(seed, 1) for seed in RANDOM_MACS]
                             + [(seed, 2) for seed in range(8)])
    def test_tables_match_dense_povms(self, seed, n):
        try:
            ch, decomps, proj = self.projectors(seed, n)
        except ValueError as e:
            assert "projector empty" in str(e)
            return
        books = sample_books(decomps, (2, 2), (2 * seed, 2 * seed + 1))
        factor = eacode.channel_output_factor(ch, decomps)
        eye = np.eye(proj.space.dim)
        for povm, table in (
                (seqdecode.ea_successive_povm(books, proj),
                 seqdecode.successive_table(factor, books, proj)),
                (simuldecode.simultaneous_povm(books, proj),
                 simuldecode.gram_table(factor, books, proj))):
            assert np.linalg.eigvalsh(eye - povm.total()).min() >= -1e-9
            assert np.max(np.abs(table - overlap_table(ch, books, povm))
                          ) < 1e-12


class TestByteCounts:
    """Each decoder's byte count (:func:`seqdecode.sequential_bytes`,
    :func:`seqdecode.successive_bytes`, :func:`simuldecode.gram_bytes`)
    holds what its call allocates: tracemalloc's peak over the call, less
    what was traced at its start, stays within the count that the call
    checks, less R and the bases.  BLAS workspace and the interpreter are
    outside tracemalloc; the address-limit tests in test_cli cover them."""

    @staticmethod
    def traced_and_counted(monkeypatch, decoder, factor, books, projectors):
        import tracemalloc
        require, needs = qmat.require_bytes, []
        monkeypatch.setattr(qmat, "require_bytes",
                            lambda need: needs.append(need) or require(need))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            decoder(factor, books, projectors)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        return peak, max(needs) - factor.nbytes - projectors.nbytes

    @pytest.mark.parametrize("spec, weights, n, messages, trials", [
        ("amplitude-damping:0.3", None, 4, 4, 16),
        ("amplitude-damping:0.3", (0.7, 0.3), 5, 4, 1),
        ("identity:2", None, 8, 4, 1),
        ("depolarizing:0.2", (0.7, 0.3), 4, 8, 3),
    ])
    def test_sequential(self, monkeypatch, spec, weights, n, messages,
                        trials):
        ch = qmat.named_channel(spec)
        phi = bell_state() if weights is None else schmidt_state(weights)
        decomp = eacode.type_decompose(phi, n)
        factor = eacode.channel_output_factor(ch, [decomp])
        projectors = seqdecode.sequential_projectors(ch, decomp, 1.0)
        codes = [[eacode.sample_code(decomp, messages, seed)]
                 for seed in range(trials)]
        peak, count = self.traced_and_counted(
            monkeypatch, seqdecode.sequential_tables, factor, codes,
            projectors)
        assert peak <= count < 2 * peak + (1 << 20)

    @pytest.mark.parametrize("mode", ["successive", "simultaneous"])
    @pytest.mark.parametrize("name, weights, n, L, M", [
        ("cnot-mac", None, 3, 2, 2),
        ("cnot-mac", (0.7, 0.3), 3, 4, 4),
        ("cnot-mac", None, 2, 16, 16),
        ("adder-mac", None, 3, 2, 2),
    ])
    def test_mac(self, monkeypatch, mode, name, weights, n, L, M):
        ch, books, _, _ = sample_pair(name, weights, n, L, M, (0, 1))
        projectors = simuldecode.mac_typical_projectors(
            ch, [b.decomp for b in books], 1.0)
        decoder = (simuldecode.gram_table if mode == "simultaneous"
                   else seqdecode.successive_table)
        peak, count = self.traced_and_counted(
            monkeypatch, decoder, output_factor(ch, books), books, projectors)
        assert peak <= count < 2 * peak + (1 << 20)
