"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Asymptotic capacity claims are out of scope; what is checked here
is exact reproduction of closed-form numerics plus the finite-size
properties of the decoder constructions at their stated tolerances.
"""

import math
import time

import numpy as np
import pytest

from qmac import cli, eacode, gaussian, info, qmat, seqdecode, simuldecode, typicality
from qmac.gaussian import BosonicMacParams
from qmac.seqdecode import PackingConstants

from conftest import bell_state, packing_instances, parallel_qubit_mac, schmidt_state

ETA_GRID = [round(0.05 * k, 2) for k in range(1, 20)]  # 0.05 .. 0.95
PHOTON_GRID = [0.1, 1.0, 10.0, 1000.0]


def report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def measured_instances():
    """Packing instances with measured constants and bound flags attached."""
    out = []
    for name, probs, states, pi, words, m_count in packing_instances():
        mc = typicality.measure_packing_constants(probs, states, pi, words)
        bound = seqdecode.packing_lower_bound(PackingConstants(
            max(mc.epsilon, 1e-15), mc.d, mc.D, m_count
        ))
        out.append((name, probs, states, pi, words, m_count, mc, bound))
    return out


@pytest.fixture(scope="module")
def cnot_mac_instance():
    """The n = 1 cnot-mac experiment shared by criteria 10, 12 and 13."""
    ch = qmat.named_channel("cnot-mac")
    d1 = eacode.type_decompose(bell_state("Ap", "A"), 1)
    d2 = eacode.type_decompose(bell_state("Bp", "B"), 1)
    books = [eacode.sample_code(d1, 2, 314), eacode.sample_code(d2, 2, 315)]
    projectors = simuldecode.mac_typical_projectors(ch, (d1, d2), 1.0)
    povm = simuldecode.simultaneous_povm(books, projectors)
    return ch, books, projectors, povm


def test_criterion_01_closed_form_matches_numeric_oracle():
    start = time.perf_counter()
    worst = 0.0
    for eta in ETA_GRID:
        for nsa in PHOTON_GRID:
            for nsb in PHOTON_GRID:
                p = BosonicMacParams(eta, nsa, nsb)
                closed = gaussian.ea_bosonic_region(p).bounds()
                oracle = gaussian.ea_bosonic_region_numeric(p).bounds()
                worst = max(worst, max(
                    abs(c - o) for c, o in zip(closed, oracle)
                ))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-9 and elapsed < 5.0,
           f"max |closed - numeric| = {worst:.2e} over "
           f"{len(ETA_GRID) * len(PHOTON_GRID)**2} grid points in {elapsed:.2f} s")


def test_criterion_02_figure_sweeps(tmp_path, capsys):
    emitted = {}
    for nsa, nsb, tag in ((1000.0, 10.0, "a"), (10.0, 10.0, "b")):
        target = tmp_path / f"fig1{tag}.csv"
        code = cli.main([
            "gaussian-sweep", "--nsa", str(nsa), "--nsb", str(nsb),
            "--steps", "101", "--out", str(target),
        ])
        assert code == 0
        lines = target.read_text().strip().split("\n")
        assert len(lines) == 102  # header + 101 grid points
        emitted[tag] = lines
    # the symmetric sweep's sum column is flat at 2 g(10), read back from
    # the emitted file itself
    sums = [float(line.split(",")[3]) for line in emitted["b"][1:]]
    dev = max(abs(s - 2 * gaussian.g_entropy(10.0)) for s in sums)
    capsys.readouterr()
    report(2, dev <= 1e-10,
           f"two 101-point sweeps emitted; symmetric sum deviates by {dev:.2e}")


def test_criterion_03_containment_flags():
    start = time.perf_counter()
    contains = gaussian.compare_regions(
        BosonicMacParams(0.5, 10.0, 8.0)
    )["ea_contains_ys"]
    not_contains = gaussian.compare_regions(
        BosonicMacParams(0.95, 1.0, 1.0)
    )["ea_contains_ys"]
    elapsed = time.perf_counter() - start
    report(3, contains is True and not_contains is False and elapsed < 1.0,
           f"(10, 8, 0.5) -> {contains}; (1, 1, 0.95) -> {not_contains} "
           f"in {elapsed:.3f} s")


def test_criterion_04_sum_gap_positivity():
    rng = np.random.default_rng(20260810)
    worst = np.inf
    for _ in range(10_000):
        eta = float(rng.uniform())
        nsa = float(rng.uniform(0.0, 200.0))
        nsb = float(rng.uniform(0.0, 200.0))
        gap = (
            gaussian.g_entropy(nsa) + gaussian.g_entropy(nsb)
            - gaussian.g_entropy(eta * nsb + (1 - eta) * nsa)
        )
        worst = min(worst, gap)
    report(4, worst >= -1e-9, f"min sum gap over 10^4 triples = {worst:.3e}")


def test_criterion_05_symplectic_hand_check():
    p = BosonicMacParams(0.5, 1.0, 1.0)
    v = gaussian.bosonic_output_state(p).marginal(("A", "C"))
    nus = gaussian.symplectic_eigenvalues(v)
    # independent two-mode formula from the block determinants
    a, b, c = v.matrix[:2, :2], v.matrix[2:, 2:], v.matrix[:2, 2:]
    delta = np.linalg.det(a) + np.linalg.det(b) + 2 * np.linalg.det(c)
    det_v = np.linalg.det(v.matrix)
    disc = math.sqrt(max(delta**2 - 4 * det_v, 0.0))
    formula = sorted(
        (math.sqrt((delta + disc) / 2), math.sqrt((delta - disc) / 2)),
        reverse=True,
    )
    dev = max(
        abs(nus[0] - math.sqrt(5)), abs(nus[1] - math.sqrt(5)),
        abs(nus[0] - formula[0]), abs(nus[1] - formula[1]),
    )
    report(5, dev <= 1e-10,
           f"spectrum {{{nus[0]:.12f}, {nus[1]:.12f}}} vs sqrt5, "
           f"Delta = {delta:.6f}, det = {det_v:.6f}, max dev {dev:.2e}")


def test_criterion_06_packing_bound_against_exhaustive_success(
        measured_instances):
    start = time.perf_counter()
    checked = 0
    worst_margin = np.inf
    for name, probs, states, pi, words, m_count, mc, bound in measured_instances:
        if not bound.condition_holds:
            continue
        assert mc.commutator_residual < 1e-9, name  # packing hypothesis
        success = seqdecode.expected_success_exhaustive(
            list(zip(probs, states)), pi,
            {x: w for x, w in enumerate(words)}, m_count,
        )
        margin = success - bound.value
        worst_margin = min(worst_margin, margin)
        assert margin >= -1e-12, (name, success, bound.value)
        checked += 1
    elapsed = time.perf_counter() - start
    report(6, checked >= 50 and worst_margin >= -1e-12 and elapsed < 60.0,
           f"bound held on {checked} qualifying instances "
           f"(worst margin {worst_margin:.3e}) in {elapsed:.2f} s")


def test_criterion_07_packing_diagnostics(measured_instances):
    worst_f0 = np.inf
    worst_decay = np.inf
    for name, probs, states, pi, words, m_count, mc, bound in measured_instances:
        fs = seqdecode.packing_diagnostics(
            list(zip(probs, states)), pi, words, 4
        )
        worst_f0 = min(worst_f0, fs[0] - (1 - 2 * mc.epsilon))
        ratio = mc.d / mc.D
        for z in range(1, len(fs)):
            worst_decay = min(worst_decay, ratio**z * fs[0] - fs[z])
            assert fs[z] <= ratio**z * fs[0] + 1e-9, name
        assert fs[0] >= 1 - 2 * mc.epsilon - 1e-9, name
    report(7, worst_f0 >= -1e-9 and worst_decay >= -1e-9,
           f"f0 slack {worst_f0:.3e}, geometric-decay slack {worst_decay:.3e} "
           f"over {len(measured_instances)} instances")


def test_criterion_08_transpose_trick_residuals():
    rng = np.random.default_rng(88)
    worst = 0.0
    for probs in ([0.5, 0.5], [0.7, 0.3], [0.9, 0.1]):
        decomp = eacode.type_decompose(schmidt_state(probs), 2)
        for _ in range(100):
            triples = [
                (int(rng.integers(d)), int(rng.integers(d)),
                 int(rng.integers(2)))
                for d in decomp.block_dims
            ]
            s = eacode.HwIndex(triples, decomp.block_dims)
            worst = max(worst, eacode.transpose_trick_residual(s, decomp))
    report(8, worst < 1e-10,
           f"max residual over 300 random indices on n = 2 states = {worst:.2e}")


def test_criterion_09_hayashi_nagaoka():
    rng = np.random.default_rng(99)
    worst = np.inf
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        s = a @ a.conj().T
        s /= np.linalg.eigvalsh(s).max() * (1.0 + rng.uniform())
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        t = (b @ b.conj().T) * rng.uniform()
        holds, gap = simuldecode.hayashi_nagaoka_check(s, t)
        worst = min(worst, gap)
        assert holds
    report(9, worst >= -1e-9,
           f"min gap eigenvalue over 200 qualifying pairs = {worst:.3e}")


def test_criterion_10_randomization_identity(cnot_mac_instance):
    ch, books, projectors, povm = cnot_mac_instance
    cases = [(ch, books, povm)]
    # a second code with unequal message counts on the adder channel
    adder = qmat.named_channel("adder-mac")
    d1 = eacode.type_decompose(bell_state("Ap", "A"), 1)
    d2 = eacode.type_decompose(bell_state("Bp", "B"), 1)
    books2 = [eacode.sample_code(d1, 4, 41), eacode.sample_code(d2, 3, 42)]
    proj2 = simuldecode.mac_typical_projectors(adder, (d1, d2), 1.5)
    cases.append((adder, books2, simuldecode.simultaneous_povm(books2, proj2)))
    # and the parallel-qubit channel at n = 1
    par = parallel_qubit_mac()
    books3 = [eacode.sample_code(d1, 2, 51), eacode.sample_code(d2, 2, 52)]
    proj3 = simuldecode.mac_typical_projectors(par, (d1, d2), 2.0)
    cases.append((par, books3, simuldecode.simultaneous_povm(books3, proj3)))
    worst = 0.0
    for channel, code_books, code_povm in cases:
        code = (eacode.channel_output_factor(channel, (d1, d2)), code_books,
                eacode.channel_output_space(channel, (d1, d2)), code_povm)
        avg = simuldecode.error_figures(*code)["avg_error"]
        mx = simuldecode.max_error_via_randomization(*code)
        worst = max(worst, abs(avg - mx))
    report(10, worst <= 1e-12,
           f"max |shift-averaged max error - average error| = {worst:.3e} "
           f"over {len(cases)} codes")


def test_criterion_11_super_dense_coding():
    ch = parallel_qubit_mac()
    phi, psi = bell_state("Ap", "A"), bell_state("Bp", "B")
    cc = info.ea_cc_region(ch, phi, psi)
    q = info.ea_q_region(ch, phi, psi)
    dev_cc = max(abs(x - y) for x, y in zip(cc.bounds(), (2.0, 2.0, 4.0)))
    dev_q = max(abs(x - y) for x, y in zip(q.bounds(), (1.0, 1.0, 2.0)))
    exact_half = q.bounds() == tuple(0.5 * b for b in cc.bounds())
    report(11, dev_cc <= 1e-12 and dev_q <= 1e-12 and exact_half,
           f"cc region {tuple(round(b, 12) for b in cc.bounds())}, "
           f"q region = cc/2 exactly, deviations {dev_cc:.2e}/{dev_q:.2e}")


def test_criterion_12_coherent_decoder(cnot_mac_instance):
    ch, books, projectors, povm = cnot_mac_instance
    decoder = simuldecode.coherent_decoder(povm)
    defect = decoder.isometry_defect()
    decomps = [b.decomp for b in books]
    rho = eacode.channel_output_state(ch, decomps)
    eps_measured = 1.0 - min(
        np.trace(povm[(l, m)] @ eacode.conjugate_by_receiver_encoders(
            rho, [(decomps[0], books[0][l]), (decomps[1], books[1][m])]
        ).matrix).real
        for l in range(books[0].message_count)
        for m in range(books[1].message_count)
    )
    fidelity = simuldecode.coherent_fidelity(
        eacode.channel_output_factor(ch, decomps), books, projectors.space,
        povm)
    ok = defect <= 1e-9 and fidelity >= 1.0 - eps_measured - 1e-10
    report(12, ok,
           f"isometry defect {defect:.2e}; fidelity {fidelity:.6f} >= "
           f"1 - eps_measured = {1 - eps_measured:.6f}")


def test_criterion_13_povm_completeness(measured_instances, cnot_mac_instance):
    # PovmSet rejects families exceeding the identity at construction, so
    # every POVM built anywhere in the suite is already certified; this
    # re-verifies a representative batch of all three constructions.
    worst = np.inf
    count = 0
    # sequential POVMs over random codes from the packing instances
    rng = np.random.default_rng(7)
    for name, probs, states, pi, words, m_count, mc, bound in \
            measured_instances[:12]:
        code = [int(rng.integers(len(states))) for _ in range(m_count)]
        povm = seqdecode.sequential_povm(
            code, pi, {x: w for x, w in enumerate(words)}
        )
        gap = np.linalg.eigvalsh(np.eye(povm.space.dim) - povm.total()).min()
        worst = min(worst, gap)
        count += 1
    # the square-root measurement and the successive decoder on the MAC
    ch, books, projectors, povm = cnot_mac_instance
    for p in (povm, seqdecode.ea_successive_povm(books, projectors)):
        gap = np.linalg.eigvalsh(np.eye(p.space.dim) - p.total()).min()
        worst = min(worst, gap)
        count += 1
    report(13, worst >= -1e-9,
           f"min eigenvalue of I - sum(POVM) over {count} constructions = "
           f"{worst:.3e} (and PovmSet enforces the bound at construction)")
