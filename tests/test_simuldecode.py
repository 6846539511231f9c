"""Simultaneous decoding, the operator inequality, randomization, coherence."""

from collections import Counter

import numpy as np
import pytest

from qmac import eacode, qmat, simuldecode
from qmac.eacode import HwIndex
from qmac.qmat import FactorSpace, PovmSet

from conftest import bell_state, parallel_qubit_mac, schmidt_state


def bell_pair_books(channel, n=1, entries1=None, entries2=None, seeds=(5, 6)):
    d1 = eacode.type_decompose(bell_state("Ap", "A"), n)
    d2 = eacode.type_decompose(bell_state("Bp", "B"), n)
    if entries1 is None:
        return simuldecode.MacCodePair.sample(d1, d2, 2, 2, *seeds), d1, d2
    b1 = eacode.EaCodeBook(len(entries1), entries1, seeds[0], d1)
    b2 = eacode.EaCodeBook(len(entries2), entries2, seeds[1], d2)
    return simuldecode.MacCodePair(b1, b2), d1, d2


def phase_books(channel):
    """n=1 Bell codebooks whose two codewords differ by a Z phase flip."""
    d1 = eacode.type_decompose(bell_state("Ap", "A"), 1)
    dims = d1.block_dims
    idx_i = HwIndex([(0, 0, 0), (0, 0, 0)], dims)
    idx_z = HwIndex([(0, 0, 0), (0, 0, 1)], dims)
    return bell_pair_books(channel, 1, [idx_i, idx_z], [idx_i, idx_z])


def check_against_dense_oracle(ch, pair, povm):
    """The factor table and every figure against dense sigma_lm = U rho_n U†.

    Oracle: build each codeword state as a density matrix, take the
    probability of every outcome and of abort by a dense trace, and sum the
    wrong outcomes by which sender was misidentified.
    """
    d1, d2 = pair.book1.decomp, pair.book2.decomp
    rho = eacode.channel_output_state(ch, d1, d2)
    L, M = pair.L, pair.M
    sent = [(l, m) for l in range(L) for m in range(M)]
    ops = [povm[k] for k in sent] + [povm.completion()]
    want_table = np.empty((len(sent) + 1, len(sent)))
    want = dict.fromkeys(("wrong_alice", "wrong_bob", "wrong_both", "abort"), 0.0)
    for j, (l, m) in enumerate(sent):
        sigma = eacode.conjugate_by_receiver_encoders(
            rho, [(d1, pair.book1[l]), (d2, pair.book2[m])]
        ).matrix
        want_table[:, j] = [np.trace(op @ sigma).real for op in ops]
        for i, (lp, mp) in enumerate(sent):
            if (lp, mp) != (l, m):
                kind = ("wrong_alice" if mp == m else
                        "wrong_bob" if lp == l else "wrong_both")
                want[kind] += want_table[i, j] / (L * M)
        want["abort"] += want_table[-1, j] / (L * M)
    table = simuldecode._overlap_table(ch, pair, povm)
    assert table.shape == want_table.shape
    assert np.max(np.abs(table - want_table)) < 1e-12
    err = simuldecode.error_figures(ch, pair, povm)["avg_error"]
    assert abs(err - sum(want.values())) < 1e-12
    parts = simuldecode.error_breakdown(ch, pair, povm)
    assert abs(parts["total"] - err) < 1e-12
    for kind, value in want.items():
        assert abs(parts[kind] - value) < 1e-12


class TestBuildUpsilon:
    def test_zero_joint_projector(self):
        pair, d1, d2 = bell_pair_books(qmat.named_channel("cnot-mac"))
        proj = simuldecode.mac_typical_projectors(
            qmat.named_channel("cnot-mac"), d1, d2, 1.0
        )
        dim = proj.space.dim
        zeroed = simuldecode.MacProjectors(
            proj.space, {**proj.marginals, "ABC": np.zeros((dim, dim))}
        )
        ups = simuldecode.build_upsilon(pair, 0, 0, zeroed)
        assert np.max(np.abs(ups)) < 1e-12

    def test_six_projectors_and_joint_alias(self):
        ch = qmat.named_channel("cnot-mac")
        _, d1, d2 = bell_pair_books(ch)
        proj = simuldecode.mac_typical_projectors(ch, d1, d2, 1.0)
        assert set(proj.marginals) == {"A", "B", "C", "AB", "AC", "ABC"}
        assert proj.pi_full is proj.marginals["ABC"]

    def test_identity_projectors_identity_indices(self):
        ch = parallel_qubit_mac()
        pair, d1, d2 = phase_books(ch)
        proj = simuldecode.mac_typical_projectors(ch, d1, d2, 1.0)
        dim = proj.space.dim
        eye = np.eye(dim)
        all_eye = simuldecode.MacProjectors(
            proj.space,
            {k: eye.copy() for k in proj.marginals},
        )
        ups = simuldecode.build_upsilon(pair, 0, 0, all_eye)
        assert np.max(np.abs(ups - eye)) < 1e-10

    def test_psd_and_hermitian(self):
        ch = qmat.named_channel("cnot-mac")
        pair, d1, d2 = bell_pair_books(ch)
        proj = simuldecode.mac_typical_projectors(ch, d1, d2, 1.0)
        for l in range(2):
            for m in range(2):
                ups = simuldecode.build_upsilon(pair, l, m, proj)
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
        pair, d1, d2 = phase_books(ch)
        proj = simuldecode.mac_typical_projectors(ch, d1, d2, 2.0)
        povm = simuldecode.simultaneous_povm(pair, proj)
        assert simuldecode.error_figures(ch, pair, povm)["avg_error"] < 1e-9

    def test_uniform_povm(self):
        ch = qmat.named_channel("cnot-mac")
        pair, _, _ = bell_pair_books(ch)
        dim = 16
        uniform = PovmSet(
            FactorSpace(("S",), (dim,)),
            {(l, m): np.eye(dim) / 4 for l in range(2) for m in range(2)},
        )
        err = simuldecode.error_figures(ch, pair, uniform)["avg_error"]
        assert np.isclose(err, 1 - 1 / 4, atol=1e-12)

    def test_outcome_enumeration_oracle(self):
        ch = qmat.named_channel("cnot-mac")
        pair, d1, d2 = bell_pair_books(ch, seeds=(21, 22))
        proj = simuldecode.mac_typical_projectors(ch, d1, d2, 1.0)
        povm = simuldecode.simultaneous_povm(pair, proj)
        check_against_dense_oracle(ch, pair, povm)

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
        pair = simuldecode.MacCodePair.sample(d1, d2, L, M, 23, 24)
        delta = 1.5 if name == "adder-mac" else 1.0
        decoder = {"simultaneous": simuldecode.simultaneous_povm,
                   "successive": simuldecode.ea_successive_povm}[mode]
        povm = decoder(pair, simuldecode.mac_typical_projectors(ch, d1, d2, delta))
        check_against_dense_oracle(ch, pair, povm)

    def test_error_never_increases_with_blocklength(self):
        # aggregate mean over 20 seed pairs at n = 2 vs the n = 1 value
        ch = qmat.named_channel("cnot-mac")
        errs = {1: [], 2: []}
        for n in (1, 2):
            d1 = eacode.type_decompose(bell_state("Ap", "A"), n)
            d2 = eacode.type_decompose(bell_state("Bp", "B"), n)
            proj = simuldecode.mac_typical_projectors(ch, d1, d2, 1.0)
            for seed in range(20):
                pair = simuldecode.MacCodePair.sample(
                    d1, d2, 2, 2, 1000 + 2 * seed, 1001 + 2 * seed
                )
                povm = simuldecode.simultaneous_povm(pair, proj)
                errs[n].append(simuldecode.error_figures(ch, pair, povm)["avg_error"])
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
        pair, _, _ = bell_pair_books(ch)
        same = simuldecode.randomize_code(pair, 0, 0)
        assert same.book1.entries == pair.book1.entries
        assert same.book2.entries == pair.book2.entries

    def test_shift_relabels(self):
        ch = qmat.named_channel("cnot-mac")
        pair, _, _ = bell_pair_books(ch)
        shifted = simuldecode.randomize_code(pair, 1, 0)
        assert shifted.book1.entries == pair.book1.entries[::-1]

    def test_max_error_equals_average_exhaustively(self):
        # the displayed shift-averaging identity, all four shifts summed
        ch = qmat.named_channel("cnot-mac")
        pair, d1, d2 = bell_pair_books(ch, seeds=(31, 32))
        proj = simuldecode.mac_typical_projectors(ch, d1, d2, 1.0)
        povm = simuldecode.simultaneous_povm(pair, proj)
        avg = simuldecode.error_figures(ch, pair, povm)["avg_error"]
        mx = simuldecode.max_error_via_randomization(ch, pair, povm)
        assert abs(avg - mx) < 1e-12

    def test_identity_on_adder_mac_rectangular(self):
        # L = 3, M = 2 on a different channel exercises unequal ranges
        ch = qmat.named_channel("adder-mac")
        d1 = eacode.type_decompose(bell_state("Ap", "A"), 1)
        d2 = eacode.type_decompose(bell_state("Bp", "B"), 1)
        pair = simuldecode.MacCodePair.sample(d1, d2, 3, 2, 41, 42)
        proj = simuldecode.mac_typical_projectors(ch, d1, d2, 1.5)
        povm = simuldecode.simultaneous_povm(pair, proj)
        avg = simuldecode.error_figures(ch, pair, povm)["avg_error"]
        mx = simuldecode.max_error_via_randomization(ch, pair, povm)
        assert abs(avg - mx) < 1e-12


    def test_one_pass_matches_shift_loop(self):
        # reference: average each pair's error over every shift (S, T) of
        # both books, then take the worst pair
        ch = qmat.named_channel("adder-mac")
        d1 = eacode.type_decompose(schmidt_state([0.7, 0.3], "Ap", "A"), 1)
        d2 = eacode.type_decompose(bell_state("Bp", "B"), 1)
        L, M = 3, 2
        pair = simuldecode.MacCodePair.sample(d1, d2, L, M, 43, 44)
        report, povm = simuldecode.run_mac_experiment(
            ch, pair, "simultaneous", 1.5
        )
        rho = eacode.channel_output_state(ch, d1, d2)
        pairwise = {}
        for l in range(L):
            for m in range(M):
                sigma = eacode.conjugate_by_receiver_encoders(
                    rho, [(d1, pair.book1[l]), (d2, pair.book2[m])]
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
        # decoding randomize_code(pair, s, t) with its own POVM sends pair
        # (l, m) to the original (l + s, m + t): the same table, with rows
        # and columns permuted, so every pair's shift average is the mean
        ch = qmat.named_channel(name)
        phi = (bell_state("Ap", "A") if weights is None
               else schmidt_state(weights, "Ap", "A"))
        d1 = eacode.type_decompose(phi, 2)
        d2 = eacode.type_decompose(bell_state("Bp", "B"), 2)
        proj = simuldecode.mac_typical_projectors(ch, d1, d2, 1.5)
        pair = simuldecode.MacCodePair.sample(d1, d2, L, M, 45, 46)
        table = simuldecode._overlap_table(
            ch, pair, simuldecode.simultaneous_povm(pair, proj))
        for s, t in ((1, 0), (0, 1), (L - 1, M - 1)):
            shifted = simuldecode.randomize_code(pair, s, t)
            got = simuldecode._overlap_table(
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
        rho = eacode.channel_output_state(ch, d1, d2)
        acc = np.zeros_like(rho.matrix)
        count = 0
        for s2 in eacode.enumerate_indices(d2):
            sigma = eacode.conjugate_by_receiver_encoders(rho, [(d2, s2)])
            acc = acc + sigma.matrix
            count += 1
        acc /= count
        expect = np.zeros_like(acc)
        for i, (t, p) in enumerate(zip(d2.types, d2.probs)):
            sl = d2.block_slices[i]
            pi_b = (d2._receiver_block_basis[:, sl]
                    @ d2._receiver_block_basis[:, sl].conj().T) / t.dim
            pi_bp = (d2._sender_block_basis[:, sl]
                     @ d2._sender_block_basis[:, sl].conj().T) / t.dim
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
            block = qmat.permute(block, ("A", "B", "C"))
            expect += p * block.matrix
        # rho lives on (A1, B1, C1); relabel for comparison
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
        pair, d1, d2 = phase_books(ch)
        proj = simuldecode.mac_typical_projectors(ch, d1, d2, 2.0)
        povm = simuldecode.simultaneous_povm(pair, proj)
        dec = simuldecode.coherent_decoder(povm)
        assert dec.isometry_defect() < 1e-9
        fid = simuldecode.coherent_fidelity(ch, pair, povm)
        assert fid > 1 - 1e-9

    def test_fidelity_beats_average_success_on_cnot_mac(self):
        ch = qmat.named_channel("cnot-mac")
        pair, d1, d2 = bell_pair_books(ch, seeds=(51, 52))
        proj = simuldecode.mac_typical_projectors(ch, d1, d2, 1.0)
        povm = simuldecode.simultaneous_povm(pair, proj)
        err = simuldecode.error_figures(ch, pair, povm)["avg_error"]
        fid = simuldecode.coherent_fidelity(ch, pair, povm)
        assert fid >= (1 - err) - 1e-10

    def test_environment_is_not_a_factor(self, monkeypatch):
        # at n = 2 every space is 256-dimensional; the purified output is a
        # 256 x 16 factor, not a 4096-dimensional state with the environment
        # as a factor, so a cap of 1024 leaves the fidelity unchanged
        ch = qmat.named_channel("cnot-mac")
        pair, d1, d2 = bell_pair_books(ch, n=2, seeds=(53, 54))
        povm = simuldecode.simultaneous_povm(
            pair, simuldecode.mac_typical_projectors(ch, d1, d2, 1.0))
        fid = simuldecode.coherent_fidelity(ch, pair, povm)
        monkeypatch.setenv("QMAC_DIM_CAP", "1024")
        assert simuldecode.coherent_fidelity(ch, pair, povm) == fid


class TestSuccessiveMode:
    def test_successive_decodes_orthogonal_instance(self):
        ch = parallel_qubit_mac()
        pair, d1, d2 = phase_books(ch)
        proj = simuldecode.mac_typical_projectors(ch, d1, d2, 2.0)
        povm = simuldecode.ea_successive_povm(pair, proj)
        assert simuldecode.error_figures(ch, pair, povm)["avg_error"] < 1e-9

    def test_ea_successive_povm_valid_and_reported(self):
        ch = qmat.named_channel("cnot-mac")
        pair, d1, d2 = bell_pair_books(ch, seeds=(71, 72))
        report, povm = simuldecode.run_mac_experiment(ch, pair, "successive", 1.0)
        gap = np.linalg.eigvalsh(
            np.eye(povm.space.dim) - povm.total()
        ).min()
        assert gap >= -1e-9
        assert 0 <= report.avg_error <= 1 + 1e-9
        assert abs(report.max_error_randomized - report.avg_error) < 1e-12

    def test_unknown_mode_rejected(self):
        ch = qmat.named_channel("cnot-mac")
        pair, _, _ = bell_pair_books(ch)
        with pytest.raises(ValueError, match="mode"):
            simuldecode.run_mac_experiment(ch, pair, "oracle", 1.0)

    def test_reports_are_deterministic(self):
        ch = qmat.named_channel("cnot-mac")
        pair, _, _ = bell_pair_books(ch, seeds=(81, 82))
        r1, _ = simuldecode.run_mac_experiment(ch, pair, "simultaneous", 1.0)
        r2, _ = simuldecode.run_mac_experiment(ch, pair, "simultaneous", 1.0)
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
        pair = simuldecode.MacCodePair.sample(d1, d2, 2, 3, 51, 52)
        for mode in ("simultaneous", "successive"):
            calls.clear()
            _, povm = simuldecode.run_mac_experiment(ch, pair, mode, 1.0)
            assert calls == {"channel_output_factor": 1}
            calls.clear()
            simuldecode.error_breakdown(ch, pair, povm)
            assert calls == {"channel_output_factor": 1}

    def test_codeword_trace_is_checked(self, monkeypatch):
        # Tr sigma_lm = |V_lm|^2 is checked on the table's columns
        ch = qmat.named_channel("cnot-mac")
        pair, d1, d2 = bell_pair_books(ch)
        povm = simuldecode.simultaneous_povm(
            pair, simuldecode.mac_typical_projectors(ch, d1, d2, 1.0))
        factor = eacode.channel_output_factor
        monkeypatch.setattr(eacode, "channel_output_factor",
                            lambda *args: 1.001 * factor(*args))
        with pytest.raises(ValueError, match=r"codeword state \(0, 0\) has trace"):
            simuldecode.error_figures(ch, pair, povm)["avg_error"]

    def test_outcomes_must_be_the_pairs_in_order(self):
        ch = qmat.named_channel("cnot-mac")
        pair, _, _ = bell_pair_books(ch)
        space = FactorSpace(("S",), (16,))
        swapped = PovmSet(space, {(l, m): np.eye(16) / 4
                                  for m in range(2) for l in range(2)})
        with pytest.raises(ValueError, match="l-major"):
            simuldecode.error_figures(ch, pair, swapped)["avg_error"]

    @pytest.mark.parametrize("mode", ["simultaneous", "successive"])
    def test_report_matches_standalone_wrappers(self, mode):
        ch = qmat.named_channel("cnot-mac")
        d1 = eacode.type_decompose(bell_state("Ap", "A"), 2)
        d2 = eacode.type_decompose(bell_state("Bp", "B"), 2)
        pair = simuldecode.MacCodePair.sample(d1, d2, 2, 2, 61, 62)
        report, povm = simuldecode.run_mac_experiment(ch, pair, mode, 1.0)
        out = report.to_json()
        avg = simuldecode.error_figures(ch, pair, povm)["avg_error"]
        mx = simuldecode.max_error_via_randomization(ch, pair, povm)
        assert abs(out["avg_error"] - avg) < 1e-12
        assert abs(out["max_error_randomized"] - mx) < 1e-12
        parts = simuldecode.error_breakdown(ch, pair, povm)
        assert out["error_terms"].keys() == parts.keys()
        for key, value in parts.items():
            assert abs(out["error_terms"][key] - value) < 1e-12
