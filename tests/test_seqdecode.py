"""Sequential decoding POVMs, the packing bound, diagnostics, protocols."""

import math

import numpy as np
import pytest

from qmac import eacode, qmat, seqdecode, typicality
from qmac.qmat import FactorSpace
from qmac.seqdecode import PackingConstants

from oracles import average_codeword_state
from conftest import (bell_state, book_of, packing_instances, random_unitary,
                      schmidt_state)

# |0.98 (2 - e^(2^-5))|^2, frozen from a 30-digit mpmath evaluation
PACKING_BOUND_EXAMPLE = 0.900395004096159375474


def orthogonal_instance(dim):
    """Orthonormal-basis codewords with matching rank-1 projectors."""
    states, words = [], {}
    for x in range(dim):
        m = np.zeros((dim, dim), dtype=complex)
        m[x, x] = 1.0
        states.append(m)
        words[x] = m.copy()
    return states, np.eye(dim), words


class TestSequentialPovm:
    def test_single_message(self):
        states, pi, words = orthogonal_instance(3)
        povm = seqdecode.sequential_povm([1], pi, words)
        assert np.allclose(povm[0], pi @ words[1] @ pi)

    def test_orthogonal_codewords_decode_perfectly(self):
        states, pi, words = orthogonal_instance(3)
        povm = seqdecode.sequential_povm([0, 2], pi, words)
        assert np.isclose(np.trace(povm[0] @ states[0]).real, 1.0)
        assert np.isclose(np.trace(povm[1] @ states[2]).real, 1.0)
        # same conclusion with the code projector being the codeword span
        span = words[0] + words[2]
        povm = seqdecode.sequential_povm([0, 2], span, words)
        assert np.isclose(np.trace(povm[0] @ states[0]).real, 1.0)
        assert np.isclose(np.trace(povm[1] @ states[2]).real, 1.0)

    def test_sum_below_identity_random(self):
        # oracle: eigenvalues of I - sum
        rng = np.random.default_rng(44)
        dim = 4
        pi = np.eye(dim)
        words = {}
        for x in range(3):
            vecs = np.linalg.qr(
                rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            )[0][:, :2]
            words[x] = vecs @ vecs.conj().T
        povm = seqdecode.sequential_povm([0, 1, 2], pi, words)
        gap = np.linalg.eigvalsh(np.eye(dim) - povm.total())
        assert gap.min() >= -1e-9

    def test_non_projector_rejected(self):
        with pytest.raises(ValueError, match="idempotent"):
            seqdecode.sequential_povm([0], np.eye(2) * 0.5, {0: np.eye(2)})


class TestExactSuccess:
    def test_uniform_guessing(self):
        dim, m_count = 4, 4
        povm = qmat.PovmSet(
            FactorSpace(("S",), (dim,)),
            {m: np.eye(dim) / m_count for m in range(m_count)},
        )
        states = [np.eye(dim) / dim for _ in range(m_count)]
        assert np.isclose(
            seqdecode.exact_success_probability(states, povm), 1 / m_count
        )

    def test_identical_codewords_hand_formula(self):
        # two messages on the same letter; Pi = I, Pi_x = |0><0|:
        # Lambda_1 = |0><0|, Lambda_2 = |1><1||0><0||1><1| = 0,
        # so the average success is rho_00 / 2.
        rho = np.array([[0.3, 0.1], [0.1, 0.7]], dtype=complex)
        words = {0: np.diag([1.0, 0.0]).astype(complex)}
        povm = seqdecode.sequential_povm([0, 0], np.eye(2), words)
        val = seqdecode.exact_success_probability([rho, rho], povm)
        assert np.isclose(val, 0.15)


class TestExpectedSuccessExhaustive:
    def test_single_message_formula(self):
        # oracle: sum_x p(x) Tr{Pi_x Pi rho_x Pi}
        rng = np.random.default_rng(50)
        dim = 3
        states, pi, words = orthogonal_instance(dim)
        probs = rng.dirichlet(np.ones(dim))
        ens = [(probs[x], states[x]) for x in range(dim)]
        val = seqdecode.expected_success_exhaustive(ens, pi, words, 1)
        oracle = sum(
            probs[x] * np.trace(words[x] @ pi @ states[x] @ pi).real
            for x in range(dim)
        )
        assert np.isclose(val, oracle, atol=1e-12)

    def test_single_letter_alphabet(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        words = {0: np.diag([1.0, 0.0]).astype(complex)}
        ens = [(1.0, rho)]
        val = seqdecode.expected_success_exhaustive(ens, np.eye(2), words, 2)
        povm = seqdecode.sequential_povm([0, 0], np.eye(2), words)
        direct = seqdecode.exact_success_probability([rho, rho], povm)
        assert np.isclose(val, direct, atol=1e-12)

    def test_matches_monte_carlo(self):
        # oracle: the 4-term codebook sum vs multinomial Monte Carlo
        states, pi, words = orthogonal_instance(2)
        ens = [(0.5, states[0]), (0.5, states[1])]
        exact = seqdecode.expected_success_exhaustive(ens, pi, words, 2)
        per_book = {}
        for c0 in range(2):
            for c1 in range(2):
                povm = seqdecode.sequential_povm([c0, c1], pi, words)
                per_book[(c0, c1)] = seqdecode.exact_success_probability(
                    [states[c0], states[c1]], povm
                )
        rng = np.random.default_rng(123)
        n_samples = 100_000
        draws = rng.integers(0, 2, size=(n_samples, 2))
        samples = np.array([per_book[(a, b)] for a, b in draws])
        stderr = samples.std(ddof=1) / math.sqrt(n_samples)
        assert abs(samples.mean() - exact) < 3 * stderr + 1e-12

    def test_enumeration_cap(self):
        states, pi, words = orthogonal_instance(4)
        ens = [(0.25, s) for s in states]
        with pytest.raises(ValueError, match="cap"):
            seqdecode.expected_success_exhaustive(ens, pi, words, 12, cap=1000)


class TestPackingBound:
    def test_perfect_limit(self):
        b = seqdecode.packing_lower_bound(
            PackingConstants(1e-12, 1.0, 1e9, 1)
        )
        assert b.condition_holds
        assert abs(b.value - 1.0) < 1e-6

    def test_epsilon_half_gives_zero(self):
        b = seqdecode.packing_lower_bound(PackingConstants(0.5, 1.0, 100.0, 2))
        assert np.isclose(b.value, 0.0)

    def test_frozen_example_value(self):
        # eps = 0.01, d/D = 2^-10, |M| = 2^5
        b = seqdecode.packing_lower_bound(
            PackingConstants(0.01, 1.0, 2.0**10, 2**5)
        )
        assert b.condition_holds
        assert abs(b.value - PACKING_BOUND_EXAMPLE) < 1e-15

    def test_positivity_failure_flag(self):
        b = seqdecode.packing_lower_bound(PackingConstants(0.1, 1.0, 1.0, 5))
        assert b.value == 0.0 and not b.condition_holds

    def test_epsilon_above_half_drops_flag(self):
        b = seqdecode.packing_lower_bound(PackingConstants(0.8, 1.0, 100.0, 2))
        assert not b.condition_holds

    def test_constants_validation(self):
        with pytest.raises(ValueError):
            PackingConstants(0.0, 1.0, 1.0, 2)
        with pytest.raises(ValueError):
            PackingConstants(0.1, -1.0, 1.0, 2)

    def test_huge_exponent_gives_zero_without_overflow(self):
        # d|M|/D = 1e6: e^x overflows a float, and the bracket is negative
        # from x = ln 2 on
        b = seqdecode.packing_lower_bound(PackingConstants(0.1, 1e6, 1.0, 1))
        assert b.value == 0.0 and not b.condition_holds
        b = seqdecode.packing_lower_bound(
            PackingConstants(0.1, 1.0, 1.0 / math.log(2), 1))
        assert b.value == 0.0 and not b.condition_holds


class TestPackingDiagnostics:
    def test_orthogonal_closed_form(self):
        # hand computation: Wbar_0 = sum_x Pi_x / |X| = I/|X| for a full
        # orthonormal codeword set, so f_z = (1/|X|)^z, saturating the
        # geometric bound with d = 1 and D = |X|.
        dim = 4
        states, pi, words = orthogonal_instance(dim)
        ens = [(1.0 / dim, s) for s in states]
        fs = seqdecode.packing_diagnostics(ens, pi, list(words.values()), 5)
        for z, f in enumerate(fs):
            assert np.isclose(f, (1 / dim) ** z, atol=1e-12)

    def test_zero_projector(self):
        states, _, words = orthogonal_instance(3)
        ens = [(1 / 3, s) for s in states]
        fs = seqdecode.packing_diagnostics(
            ens, np.zeros((3, 3)), list(words.values()), 3
        )
        assert np.allclose(fs, 0.0)

    def test_f0_is_trace_of_w1_pi(self):
        rng = np.random.default_rng(60)
        dim = 4
        states, pi, words = orthogonal_instance(dim)
        probs = rng.dirichlet(np.ones(dim))
        ens = [(probs[x], states[x]) for x in range(dim)]
        fs = seqdecode.packing_diagnostics(ens, pi, list(words.values()), 0)
        w1 = sum(p * w @ s @ w for (p, s), w in zip(ens, words.values()))
        assert np.isclose(fs[0], np.trace(w1 @ pi).real, atol=1e-12)

    def test_geometric_decay_with_measured_constants(self):
        for name, probs, states, pi, words, m_count in packing_instances(12):
            mc = typicality.measure_packing_constants(probs, states, pi, words)
            fs = seqdecode.packing_diagnostics(
                list(zip(probs, states)), pi, words, 4
            )
            assert fs[0] >= 1 - 2 * mc.epsilon - 1e-9, name
            ratio = mc.d / mc.D
            for z in range(1, len(fs)):
                assert fs[z] <= ratio * fs[z - 1] + 1e-9, name
                assert fs[z] <= ratio**z * fs[0] + 1e-9, name


class TestEaSequentialProtocol:
    def test_single_message_perfect(self):
        ch = qmat.named_channel("identity:2")
        rep = seqdecode.ea_sequential_protocol(
            ch, bell_state(), 1, 1, 1.0, seed=7, trials=5
        )
        assert abs(rep.success_mean - 1.0) < 1e-9

    def test_dense_coding_matches_exhaustive_oracle(self):
        # oracle: enumerate all |S|^|M| codebooks of the n=1 instance
        ch = qmat.named_channel("identity:2")
        phi = bell_state()
        dec, code_proj, sigma, words = seqdecode.ea_protocol_instance(
            ch, phi, 1, 1.0
        )
        keys = list(sigma.keys())
        ens = [(1.0 / len(keys), sigma[s].matrix) for s in keys]
        wp = [words[s] for s in keys]
        exact = seqdecode.expected_success_exhaustive(ens, code_proj, wp, 4)
        # by hand: 4 index values map onto 2 distinct phase-flip codewords,
        # so E success = (1 + 1/2 + 1/4 + 1/8) / 4 = 15/32
        assert abs(exact - 15 / 32) < 1e-12
        rep = seqdecode.ea_sequential_protocol(
            ch, phi, 1, 4, 1.0, seed=11, trials=600
        )
        assert abs(rep.success_mean - exact) < 3 * rep.success_stderr + 1e-9

    def test_fully_depolarizing_uniform_guessing(self):
        ch = qmat.named_channel("depolarizing:1")
        rep = seqdecode.ea_sequential_protocol(
            ch, bell_state(), 1, 4, 1.0, seed=3, trials=20
        )
        assert abs(rep.success_mean - 0.25) < 1e-9
        assert rep.success_stderr < 1e-12  # all codewords identical

    def test_report_fields_and_determinism(self):
        ch = qmat.named_channel("amplitude-damping:0.3")
        phi = schmidt_state([0.7, 0.3])
        r1 = seqdecode.ea_sequential_protocol(ch, phi, 2, 2, 0.8, 5, 10)
        r2 = seqdecode.ea_sequential_protocol(ch, phi, 2, 2, 0.8, 5, 10)
        assert r1.to_json() == r2.to_json()
        assert r1.n == 2 and r1.message_count == 2


def _same_constant(a, b, rel):
    """Equal within ``rel`` relative, or both infinite."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * abs(b)


class TestCovariantPackingConstants:
    # (channel, shared state, n, delta); oracle: measure_packing_constants
    # over every codeword of ea_protocol_instance, i.e. all of S
    INSTANCES = [
        ("amplitude-damping:0.3", schmidt_state([0.7, 0.3]), 2, 0.8),
        # degenerate Schmidt spectrum: the receiver's eigenbasis is arbitrary
        ("amplitude-damping:0.3", bell_state(), 2, 1.0),
        ("depolarizing:0.2", schmidt_state([0.6, 0.4]), 2, 0.5),
        # empty code and word projectors: epsilon 1, d and D infinite
        ("amplitude-damping:0.3", schmidt_state([0.7, 0.3]), 2, 0.01),
        # |S| = 4096 over 81 dimensions
        ("identity:3", bell_state(dim=3), 2, 1.0),
        ("identity:2", bell_state(), 1, 1.0),
        ("identity:2", schmidt_state([0.7, 0.3]), 2, 1.0),
        ("depolarizing:0.2", schmidt_state([0.8, 0.2]), 1, 1.0),
        ("amplitude-damping:0.3", schmidt_state([0.8, 0.2]), 2, 1.0),
    ]

    @pytest.mark.parametrize("spec,phi,n,delta", INSTANCES)
    def test_matches_brute_force_over_index_set(self, spec, phi, n, delta):
        ch = qmat.named_channel(spec)
        _, code_proj, sigma, words = seqdecode.ea_protocol_instance(
            ch, phi, n, delta
        )
        keys = list(sigma.keys())
        brute = typicality.measure_packing_constants(
            [1.0 / len(keys)] * len(keys), [sigma[s].matrix for s in keys],
            code_proj, [words[s] for s in keys],
        )
        cov = seqdecode.ea_packing_constants(ch, phi, n, delta)
        assert abs(cov.epsilon - brute.epsilon) <= 1e-12
        assert _same_constant(cov.d, brute.d, 1e-12)
        assert _same_constant(cov.D, brute.D, 1e-12)

    @pytest.mark.parametrize("spec,weights,delta", [
        ("amplitude-damping:0.3", [0.7, 0.3], 1.0),
        ("depolarizing:0.2", None, 1.0),
        ("identity:2", [0.8, 0.2], 0.5),
    ], ids=str)
    def test_matches_dense_covariant_path_at_n3(self, spec, weights, delta):
        # oracle: the constants of s = 0 on the dense rho_n and Pi_AB, and D
        # on the dense closed-form average state (|S| = 1296 at n = 3)
        ch = qmat.named_channel(spec)
        phi = bell_state() if weights is None else schmidt_state(weights)
        decomp = eacode.type_decompose(phi, 3)
        p = seqdecode.sequential_projectors(ch, decomp, delta)
        rho = eacode.channel_output_state(ch, [decomp])
        code_proj = p.embedded("A") @ p.embedded("B")
        eps, d, residual = typicality.measure_word_constants(
            [rho.matrix], code_proj, [p.embedded("AB")])
        D = typicality.measure_code_constant(
            average_codeword_state(rho, decomp).matrix, code_proj)
        cov = seqdecode.ea_packing_constants(ch, phi, 3, delta)
        assert abs(cov.epsilon - eps) <= 1e-12
        assert _same_constant(cov.d, d, 1e-12)
        assert _same_constant(cov.D, D, 1e-12)
        # a Frobenius norm, which bounds the max-norm
        assert residual - 1e-15 <= cov.commutator_residual < 1e-12

    def test_protocol_reports_covariant_constants(self):
        ch = qmat.named_channel("amplitude-damping:0.3")
        phi = schmidt_state([0.7, 0.3])
        rep = seqdecode.ea_sequential_protocol(ch, phi, 2, 2, 0.8, 5, 3)
        mc = seqdecode.ea_packing_constants(ch, phi, 2, 0.8)
        assert (rep.epsilon, rep.d, rep.D) == (mc.epsilon, mc.d, mc.D)

    def test_empty_projector_rejected_naming_delta(self):
        ch = qmat.named_channel("amplitude-damping:0.3")
        with pytest.raises(ValueError, match="delta"):
            seqdecode.ea_sequential_protocol(
                ch, schmidt_state([0.7, 0.3]), 2, 2, 0.01, 0, 1
            )

    def test_codewords_built_only_for_drawn_indices(self, monkeypatch):
        trials, messages = 3, 4
        phi = schmidt_state([0.7, 0.3])
        decomp = eacode.type_decompose(phi, 3)
        drawn = [str(s) for t in range(trials) for s in
                 eacode.sample_code(decomp, messages, t).draws.tolist()]
        built = []
        original = eacode.encoder_maps

        def counting(decomp, draws):
            built.extend(map(str, draws.tolist()))
            return original(decomp, draws)

        def refuse(*args, **kwargs):
            raise AssertionError("the protocol enumerated the index set")

        monkeypatch.setattr(eacode, "encoder_maps", counting)
        monkeypatch.setattr(eacode, "hw_transpose_unitary", refuse)
        monkeypatch.setattr(seqdecode, "ea_protocol_instance", refuse)
        seqdecode.ea_sequential_protocol(
            qmat.named_channel("amplitude-damping:0.3"), phi, 3, messages,
            1.0, 0, trials,
        )
        assert 0 < len(built) <= trials * messages
        assert len(set(built)) == len(built)  # each index built once
        assert built == drawn  # the books' entries, in trial order

    def test_index_set_beyond_oracle_cap(self):
        # n = 4: |S| = 294912, refused by the oracle, run by the protocol
        ch = qmat.named_channel("amplitude-damping:0.3")
        phi = schmidt_state([0.7, 0.3])
        with pytest.raises(qmat.DimensionCapError, match="index set"):
            seqdecode.ea_protocol_instance(ch, phi, 4, 1.0)
        rep = seqdecode.ea_sequential_protocol(ch, phi, 4, 2, 1.0, 0, 1)
        assert all(math.isfinite(x) for x in (rep.epsilon, rep.d, rep.D))
        assert 0.0 <= rep.success_mean <= 1.0 + 1e-12


class TestBoundAgainstExhaustiveSuccess:
    def test_bound_holds_on_selected_instances(self):
        held = 0
        for name, probs, states, pi, words, m_count in packing_instances(20):
            mc = typicality.measure_packing_constants(probs, states, pi, words)
            bound = seqdecode.packing_lower_bound(PackingConstants(
                max(mc.epsilon, 1e-15), mc.d, mc.D, m_count
            ))
            if not bound.condition_holds:
                continue
            success = seqdecode.expected_success_exhaustive(
                list(zip(probs, states)), pi, {x: w for x, w in enumerate(words)},
                m_count,
            )
            assert success >= bound.value - 1e-12, name
            held += 1
        assert held >= 8


class TestSuccessive:
    def test_orthogonal_two_stage_decodes_perfectly(self):
        # Pi_x: rank-2 blocks; Pi_xy: basis states; codewords the basis states
        dim = 4
        pi = np.eye(dim)
        px = {}
        for x in range(2):
            m = np.zeros((dim, dim), dtype=complex)
            m[2 * x, 2 * x] = m[2 * x + 1, 2 * x + 1] = 1.0
            px[x] = m
        pxy = {}
        for x in range(2):
            for y in range(2):
                m = np.zeros((dim, dim), dtype=complex)
                m[2 * x + y, 2 * x + y] = 1.0
                pxy[(x, y)] = m
        povm = seqdecode.successive_povm([0, 1], [0, 1], pi, px, pxy)
        for l in range(2):
            for m_i in range(2):
                state = pxy[(l, m_i)]
                assert np.isclose(
                    np.trace(povm[(l, m_i)] @ state).real, 1.0, atol=1e-12
                )
        gap = np.linalg.eigvalsh(np.eye(dim) - povm.total())
        assert gap.min() >= -1e-9

    def test_matches_product_definition(self):
        # Lambda_{l,m} = M†M with M multiplied out factor by factor, on
        # random projectors that do not commute; codes repeat letters
        rng = np.random.default_rng(7)
        dim = 6
        eye = np.eye(dim)

        def projector(rank):
            u = random_unitary(rng, dim)[:, :rank]
            return u @ u.conj().T

        pi = projector(5)
        px = {x: projector(3) for x in range(2)}
        pxy = {(x, y): projector(2) for x in range(2) for y in range(3)}
        code1, code2 = [0, 1, 0], [2, 0, 2, 1]
        povm = seqdecode.successive_povm(code1, code2, pi, px, pxy)
        for l, x in enumerate(code1):
            for m, y in enumerate(code2):
                mat = pxy[(x, y)]
                for yy in reversed(code2[:m]):
                    mat = mat @ px[x] @ (eye - pxy[(x, yy)]) @ px[x]
                mat = mat @ px[x]
                for xx in reversed(code1[:l]):
                    mat = mat @ pi @ (eye - px[xx]) @ pi
                mat = mat @ pi  # Alice's product starts with Pi
                expect = mat.conj().T @ mat
                assert np.max(np.abs(povm[(l, m)] - expect)) < 1e-12

    @pytest.mark.parametrize("rank", [6, 4, 2])
    def test_first_pair_is_its_test_inside_alices(self, rank):
        # L = M = 1: no earlier test acts, and the code projector starts
        # Alice's product, so Lambda = Pi Pi_x Pi_xy Pi_x Pi
        rng = np.random.default_rng(rank)
        dim = 6

        def projector(r):
            u = random_unitary(rng, dim)[:, :r]
            return u @ u.conj().T

        pi = projector(rank)
        px, pxy = {0: projector(4)}, {(0, 0): projector(2)}
        povm = seqdecode.successive_povm([0], [0], pi, px, pxy)
        assert list(povm.elements) == [(0, 0)]
        expect = pi @ px[0] @ pxy[(0, 0)] @ px[0] @ pi
        assert np.max(np.abs(povm[(0, 0)] - expect)) < 1e-12


def dense_table(instance, entries):
    """Oracle: the full table [T; abort] of the dense sequential POVM on the
    dense codeword states of ``ea_protocol_instance``, off-diagonal entries
    included, and the mean success."""
    _, code_proj, sigma, words = instance
    povm = seqdecode.sequential_povm(list(entries), code_proj, words)
    states = [sigma[s] for s in entries]
    ops = [povm[k] for k in range(len(entries))] + [povm.completion()]
    table = np.array([[np.trace(op @ rho.matrix).real for rho in states]
                      for op in ops])
    return table, seqdecode.exact_success_probability(states, povm)


def factored_table(channel, decomp, delta, entries):
    return seqdecode.sequential_table(
        eacode.channel_output_factor(channel, [decomp]),
        [book_of(decomp, entries, 0)],
        seqdecode.sequential_projectors(channel, decomp, delta))


SEQ_CHANNELS = ("identity:2", "depolarizing:0.2", "amplitude-damping:0.3")
SCHMIDT = {"bell": None, "0.7,0.3": [0.7, 0.3], "0.8,0.2": [0.8, 0.2]}


class TestSequentialWeights:
    # every channel and Schmidt spectrum at n = 1, 2; one spectrum at n = 3,
    # where the oracle builds all 1296 dense codewords
    @pytest.mark.parametrize("spec,weights,n", [
        (spec, w, n) for spec in SEQ_CHANNELS for w in SCHMIDT for n in (1, 2)
    ] + [(spec, "0.7,0.3", 3) for spec in SEQ_CHANNELS])
    def test_matches_dense_povm(self, spec, weights, n):
        ch = qmat.named_channel(spec)
        w = SCHMIDT[weights]
        phi = bell_state() if w is None else schmidt_state(w)
        instance = seqdecode.ea_protocol_instance(ch, phi, n, 1.0)
        decomp = instance[0]
        for seed, messages in ((0, 4), (7, 3), (11, 6)):
            entries = eacode.sample_code(decomp, messages, seed).entries
            table = factored_table(ch, decomp, 1.0, entries)
            want, mean = dense_table(instance, entries)
            assert table.shape == want.shape == (messages + 1, messages)
            assert np.max(np.abs(table - want)) < 1e-12
            assert abs(float(np.diagonal(table).mean()) - mean) < 1e-12

    def test_book_repeating_an_index(self):
        # n = 1: |S| = 4, so nine messages repeat some index
        ch = qmat.named_channel("depolarizing:0.2")
        instance = seqdecode.ea_protocol_instance(
            ch, schmidt_state([0.7, 0.3]), 1, 1.0)
        decomp = instance[0]
        entries = eacode.sample_code(decomp, 9, 3).entries
        assert len(set(entries)) < len(entries)
        table = factored_table(ch, decomp, 1.0, entries)
        want, _ = dense_table(instance, entries)
        assert np.max(np.abs(table - want)) < 1e-12

    # at delta = 0.5 Pi_A and Pi_B are rank-deficient, so the chain's
    # coordinates Q† = B_A† (x) B_B† drop rows of both runs
    @pytest.mark.parametrize("spec,n,ranks", [
        ("amplitude-damping:0.3", 2, (3, 1)),
        ("identity:2", 2, (3, 3)),
        ("amplitude-damping:0.3", 3, (7, 4)),
    ])
    def test_stack_matches_dense_povm_in_rank_deficient_tests(self, spec, n,
                                                              ranks):
        ch = qmat.named_channel(spec)
        instance = seqdecode.ea_protocol_instance(
            ch, schmidt_state([0.7, 0.3]), n, 0.5)
        decomp = instance[0]
        projectors = seqdecode.sequential_projectors(ch, decomp, 0.5)
        assert (projectors.rank("A"), projectors.rank("B")) == ranks
        codes = [[eacode.sample_code(decomp, 5, seed)] for seed in range(3)]
        tables = seqdecode.sequential_tables(
            eacode.channel_output_factor(ch, [decomp]), codes, projectors)
        for (book,), table in zip(codes, tables):
            want, _ = dense_table(instance, book.entries)
            assert table.shape == want.shape == (6, 5)
            assert np.max(np.abs(table - want)) < 1e-12

    def test_protocol_forms_no_dense_operator(self, monkeypatch):
        # neither rho_n, a codeword state, an embedded projector nor a POVM
        def refuse(*args, **kwargs):
            raise AssertionError("the protocol formed a d x d matrix")

        for module, name in ((seqdecode, "sequential_povm"),
                             (seqdecode, "exact_success_probability"),
                             (eacode, "channel_output_state"),
                             (qmat, "embed")):
            monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(typicality.ProjectorBundle, "embedded", refuse)
        rep = seqdecode.ea_sequential_protocol(
            qmat.named_channel("amplitude-damping:0.3"),
            schmidt_state([0.7, 0.3]), 3, 4, 1.0, 0, 2)
        assert 0.0 <= rep.success_mean <= 1.0

    def test_codeword_trace_is_checked(self, monkeypatch):
        factor = eacode.channel_output_factor
        monkeypatch.setattr(eacode, "channel_output_factor",
                            lambda *args: 1.001 * factor(*args))
        with pytest.raises(ValueError, match=r"codeword state \(0,\) has trace"):
            seqdecode.ea_sequential_protocol(
                qmat.named_channel("identity:2"), bell_state(), 1, 2, 1.0,
                0, 1)

    def test_abort_weight_is_checked(self, monkeypatch):
        # word projections that double their output decode more than the
        # trace
        chain = seqdecode._chain
        monkeypatch.setattr(seqdecode, "_chain", lambda *args: (
            2.0 * p for p in chain(*args)))
        with pytest.raises(ValueError, match="abort weight"):
            seqdecode.ea_sequential_protocol(
                qmat.named_channel("identity:2"), bell_state(), 1, 2, 1.0,
                0, 1)

    @pytest.mark.parametrize("spec,weights,n,messages", [
        ("amplitude-damping:0.3", [0.7, 0.3], 3, 4),
        ("depolarizing:0.2", [0.8, 0.2], 2, 6),
        ("identity:2", None, 2, 1),
    ])
    def test_each_table_of_a_stack_is_its_code_alone(self, spec, weights, n,
                                                     messages):
        ch = qmat.named_channel(spec)
        phi = bell_state() if weights is None else schmidt_state(weights)
        decomp = eacode.type_decompose(phi, n)
        factor = eacode.channel_output_factor(ch, [decomp])
        projectors = seqdecode.sequential_projectors(ch, decomp, 1.0)
        codes = [[eacode.sample_code(decomp, messages, seed)]
                 for seed in range(5)]
        stacked = seqdecode.sequential_tables(factor, codes, projectors)
        assert len(stacked) == 5
        for books, table in zip(codes, stacked):
            assert np.array_equal(
                table, seqdecode.sequential_table(factor, books, projectors))

    # one trial's V is 64 x 32 complex entries (32 KiB) for 4 codewords:
    # GROUP_BYTES = 0 decodes the trials one by one, three trials' V make
    # groups of 3, and 8 codewords groups of 2
    @pytest.mark.parametrize("limit,value,groups", [
        ("GROUP_BYTES", 0, [1] * 7),
        ("GROUP_BYTES", 3 * 32768, [3, 3, 1]),
        ("GROUP_CODEWORDS", 8, [2, 2, 2, 1]),
    ])
    def test_grouping_leaves_the_report_unchanged(self, monkeypatch, limit,
                                                  value, groups):
        args = (qmat.named_channel("amplitude-damping:0.3"),
                schmidt_state([0.7, 0.3]), 3, 4, 1.0, 0, 7)
        calls = []
        tables = seqdecode.sequential_tables

        def counted(factor, codes, projectors, held=0):
            calls.append(len(codes))
            return tables(factor, codes, projectors, held)

        monkeypatch.setattr(seqdecode, "sequential_tables", counted)
        stacked = seqdecode.ea_sequential_protocol(*args)
        monkeypatch.setattr(seqdecode, limit, value)
        grouped = seqdecode.ea_sequential_protocol(*args)
        assert calls == [7] + groups
        assert grouped == stacked

    @pytest.mark.parametrize("decoder", ["sequential", "successive"])
    def test_chain_steps_apply_no_projector(self, monkeypatch, decoder):
        # the chain runs in the coordinates of its fixed test, so none of
        # its steps calls ProjectorBundle.apply; skewed states make every
        # run of the tests rank-deficient or C's so at n = 2
        from qmac import simuldecode

        calls, steps = [], []
        apply, chain = typicality.ProjectorBundle.apply, seqdecode._chain

        def counted(self, name, mat):
            calls.append(name)
            return apply(self, name, mat)

        def watched(*args):
            it = chain(*args)
            while True:
                before = len(calls)
                try:
                    t = next(it)
                except StopIteration:
                    return
                steps.append(len(calls) - before)
                yield t

        monkeypatch.setattr(typicality.ProjectorBundle, "apply", counted)
        monkeypatch.setattr(seqdecode, "_chain", watched)
        if decoder == "sequential":
            ch = qmat.named_channel("amplitude-damping:0.3")
            decomp = eacode.type_decompose(schmidt_state([0.7, 0.3]), 2)
            seqdecode.sequential_table(
                eacode.channel_output_factor(ch, [decomp]),
                [eacode.sample_code(decomp, 4, 0)],
                seqdecode.sequential_projectors(ch, decomp, 0.5))
            assert steps == [0] * 4
            return
        ch = qmat.named_channel("cnot-mac")
        decomps = [eacode.type_decompose(schmidt_state(w, s, r), 2)
                   for w, s, r in (([0.8, 0.2], "Ap", "A"),
                                   ([0.9, 0.1], "Bp", "B"))]
        seqdecode.successive_table(
            eacode.channel_output_factor(ch, decomps),
            [eacode.sample_code(decomps[0], 3, 0),
             eacode.sample_code(decomps[1], 4, 1)],
            simuldecode.mac_typical_projectors(ch, decomps, 0.5))
        assert steps == [0] * 12
        assert calls  # Alice's stage still projects

    def test_trial_group(self):
        assert seqdecode.trial_group(1 << 20, 4, 64) == 4
        assert seqdecode.trial_group(1 << 20, 4, 3) == 3
        assert seqdecode.trial_group(5 << 20, 4, 64) == 1
        # tiny trials: the codeword count bounds the group
        assert seqdecode.trial_group(64, 4, 10**6) == 256
        assert seqdecode.trial_group(64, 2000, 64) == 1

    def test_blocklength_five(self):
        # the dense path measured 0.986686862179 here in about 70 s
        rep = seqdecode.ea_sequential_protocol(
            qmat.named_channel("identity:2"), bell_state(), 5, 4, 1.0, 0, 10)
        assert abs(rep.success_mean - 0.986686862179) < 1e-12
        assert (rep.d, rep.D) == (pytest.approx(1.0), pytest.approx(32.0))
