"""Shared builders for randomized test instances.  All RNG use is seeded."""

import math

import numpy as np

from qmac import eacode
from qmac.qmat import FactorSpace, KrausChannel, PureState


def book_of(decomp, entries, seed):
    """The :class:`eacode.EaCodeBook` whose messages send ``entries``, a
    sequence of :class:`eacode.HwIndex`, in order."""
    draws = np.array([s.triples for s in entries], dtype=np.intp)
    return eacode.EaCodeBook(
        decomp, draws.reshape(len(entries), len(decomp.block_dims), 3), seed)


def random_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, dim, rank=None):
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = a @ a.conj().T
    return m / np.trace(m).real


def random_pure_vector(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_kraus_channel(rng, d_in, d_out, n_kraus=None):
    """Random CPTP map via a Haar-ish isometry sliced into Kraus blocks."""
    n_kraus = n_kraus or d_out
    big = random_unitary(rng, d_out * n_kraus)[:, :d_in]
    kraus = [big[i * d_out:(i + 1) * d_out, :] for i in range(n_kraus)]
    return KrausChannel(
        FactorSpace(("Ap",), (d_in,)), FactorSpace(("B",), (d_out,)), kraus
    )


def bell_state(sender="Ap", receiver="A", dim=2):
    vec = np.zeros(dim * dim, dtype=complex)
    for i in range(dim):
        vec[i * dim + i] = 1.0 / math.sqrt(dim)
    return PureState(FactorSpace((sender, receiver), (dim, dim)), vec)


def schmidt_state(probs, sender="Ap", receiver="A"):
    dim = len(probs)
    vec = np.zeros(dim * dim, dtype=complex)
    for i, p in enumerate(probs):
        vec[i * dim + i] = math.sqrt(p)
    return PureState(FactorSpace((sender, receiver), (dim, dim)), vec)


def parallel_qubit_mac():
    """Two noiseless qubit channels side by side, composite dim-4 output."""
    return KrausChannel(
        FactorSpace(("Ap", "Bp"), (2, 2)), FactorSpace(("C",), (4,)),
        [np.eye(4)], name="parallel-qubits",
    )


def random_mac(seed):
    """A seeded small MAC and its code parameters: (channel, phi, psi, delta).

    Two qubit inputs and an output of dimension 2 to 4, through an isometric
    set of 1 to 3 Kraus matrices (as many as an isometry of the 4-dim input
    needs at least); the shared states have Dirichlet Schmidt weights, and
    delta is one of 0.5, 1 and 1.5.
    """
    rng = np.random.default_rng(seed)
    out = int(rng.integers(2, 5))
    n_kraus = int(rng.integers(-(-4 // out), 4))
    big = random_unitary(rng, out * n_kraus)[:, :4]
    channel = KrausChannel(
        FactorSpace(("Ap", "Bp"), (2, 2)), FactorSpace(("C",), (out,)),
        [big[i * out:(i + 1) * out] for i in range(n_kraus)],
        name=f"random-mac-{seed}")
    phi, psi = (schmidt_state(rng.dirichlet(np.ones(2)).tolist(), s, r)
                for s, r in (("Ap", "A"), ("Bp", "B")))
    return channel, phi, psi, float(rng.choice([0.5, 1.0, 1.5]))


def fully_depolarizing_mac(out=4):
    """Two qubits in, the maximally mixed state of dimension ``out`` out:
    Kraus matrices |i><ab| / sqrt(out)."""
    kraus = []
    for i in range(out):
        for j in range(4):
            k = np.zeros((out, 4), dtype=complex)
            k[i, j] = 1.0 / math.sqrt(out)
            kraus.append(k)
    return KrausChannel(
        FactorSpace(("Ap", "Bp"), (2, 2)), FactorSpace(("C",), (out,)),
        kraus, name="depolarizing-mac",
    )


def packing_instances(max_instances=None):
    """Randomized small packing ensembles (dims 2-8, |M| <= 4), seeded.

    Yields (name, probs, states, code_projector, word_projectors,
    message_count).  Word projectors commute with their states by
    construction.  Unions of rotated orthonormal bases average to the
    maximally mixed state exactly, so those instances satisfy the packing
    bound's positivity condition by design; the small-dimension and
    rank-deficient entries cover the degenerate-flag path instead.
    """
    out = []
    # orthonormal-basis codewords: epsilon = 0, d = 1, D = |X|
    for dim, m_count in ((4, 2), (5, 2), (6, 3), (7, 3), (8, 4)):
        states = [np.zeros((dim, dim), dtype=complex) for _ in range(dim)]
        words = []
        for x in range(dim):
            states[x][x, x] = 1.0
            words.append(states[x].copy())
        out.append((
            f"orthobasis-d{dim}-M{m_count}",
            [1.0 / dim] * dim, states, np.eye(dim), words, m_count,
        ))
    # single rotated orthonormal basis
    rng = np.random.default_rng(909)
    for dim, m_count in ((4, 2), (6, 2), (8, 3)):
        u = random_unitary(rng, dim)
        states = [np.outer(u[:, x], u[:, x].conj()) for x in range(dim)]
        out.append((
            f"rotated-d{dim}-M{m_count}",
            [1.0 / dim] * dim, states, np.eye(dim),
            [s.copy() for s in states], m_count,
        ))
    # unions of rotated orthonormal bases: rho-bar = I/dim exactly
    seed = 300
    union_specs = (
        [(dim, 2, 2, rep) for dim in (4, 5, 6, 7, 8) for rep in range(5)]
        + [(dim, 2, 3, rep) for dim in (6, 7, 8) for rep in range(3)]
        + [(8, 2, 4, 0)]
    )
    for dim, n_bases, m_count, rep in union_specs:
        rng = np.random.default_rng(seed)
        seed += 1
        states = []
        for _ in range(n_bases):
            u = random_unitary(rng, dim)
            states.extend(
                np.outer(u[:, x], u[:, x].conj()) for x in range(dim)
            )
        out.append((
            f"union-d{dim}-b{n_bases}-M{m_count}-r{rep}",
            [1.0 / len(states)] * len(states), states, np.eye(dim),
            [s.copy() for s in states], m_count,
        ))
    # rank-2 block codewords from rotated block bases (d = 2 instances)
    seed = 600
    for rep in range(6):
        rng = np.random.default_rng(seed)
        seed += 1
        dim = 8
        states, words = [], []
        for _ in range(2):
            u = random_unitary(rng, dim)
            for blk in range(dim // 2):
                cols = u[:, 2 * blk:2 * blk + 2]
                proj = cols @ cols.conj().T
                states.append(proj / 2)
                words.append(proj)
        out.append((
            f"blocks-d{dim}-rank2-r{rep}",
            [1.0 / len(states)] * len(states), states, np.eye(dim), words, 2,
        ))
    # unstructured random pure codewords; small dims mostly fail the
    # positivity condition and exercise the flag path
    seed = 1000
    for dim in (2, 3, 4, 6, 8):
        for rep in range(3):
            rng = np.random.default_rng(seed)
            seed += 1
            n_letters = 3 * dim
            states = []
            for _ in range(n_letters):
                v = random_pure_vector(rng, dim)
                states.append(np.outer(v, v.conj()))
            out.append((
                f"pure-d{dim}-r{rep}",
                [1.0 / n_letters] * n_letters, states, np.eye(dim),
                [s.copy() for s in states], 2,
            ))
    # mixed codewords on random overlapping subspaces (flag-path coverage)
    seed = 5000
    for dim, rank in ((4, 2), (8, 3)):
        for rep in range(2):
            rng = np.random.default_rng(seed)
            seed += 1
            n_letters = 3 * dim
            states, words = [], []
            for _ in range(n_letters):
                u = random_unitary(rng, dim)[:, :rank]
                proj = u @ u.conj().T
                states.append(proj / rank)
                words.append(proj)
            out.append((
                f"mixed-d{dim}-rank{rank}-r{rep}",
                [1.0 / n_letters] * n_letters, states, np.eye(dim), words, 2,
            ))
    if max_instances is not None:
        out = out[:max_instances]
    return out
