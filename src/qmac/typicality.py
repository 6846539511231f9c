"""Types, type-class subspaces and entropy-typical projectors.

Weak (entropy) typicality on eigenvalue products: the n-fold power of a
state is diagonal in the product eigenbasis, and a product eigenvector is
retained when its sample entropy -(1/n) log2(lambda product) sits within
delta of the base entropy.  Type classes group the index sequences sharing
an eigenvalue product, so projectors are assembled block by block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import qmat

__all__ = [
    "TypicalProjector",
    "ProjectorBundle",
    "MeasuredConstants",
    "type_table",
    "type_basis",
    "type_permutation",
    "type_class_projector",
    "typical_projector",
    "projector_bundle",
    "applied_blocks",
    "coordinate_rows",
    "require_nonempty",
    "measure_word_constants",
    "measure_code_constant",
    "measure_packing_constants",
]

PROJECTOR_TOL = 1e-9


@functools.lru_cache(maxsize=16)
def type_table(n: int, letters: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The types of length-n sequences over ``letters`` letters as integers:
    a read-only (T, letters) array of their counts and the tuple of their
    multinomial dims (the types' sequence counts, which sum to
    letters**n).

    The one enumeration of types: every composition of n into ``letters``
    parts, the first letter's count descending, then the next one's.  A
    type is a row of the counts.
    """
    if n < 0 or letters < 1:
        raise ValueError("need n >= 0 and alphabet_size >= 1")
    rows: list[tuple[int, ...]] = []

    def rec(remaining: int, parts: tuple[int, ...]):
        if len(parts) == letters - 1:
            rows.append(parts + (remaining,))
            return
        for c in range(remaining, -1, -1):
            rec(remaining - c, parts + (c,))

    rec(n, ())
    counts = np.array(rows, dtype=np.int64).reshape(len(rows), letters)
    counts.setflags(write=False)
    top = math.factorial(n)
    return counts, tuple(top // math.prod(map(math.factorial, r)) for r in rows)


@functools.lru_cache(maxsize=16)
def _sequence_table(n: int, alphabet_size: int) -> dict:
    """Type counts -> the (d_t, n) array of that type's sequences, in
    lexicographic order, for every length-n sequence over the alphabet.

    One ``np.indices`` table in lexicographic order, grouped by type with a
    stable sort, so each group keeps that order.  The arrays are read-only,
    since one command's types share them.
    """
    seqs = np.indices((alphabet_size,) * n).reshape(n, -1).T
    counts = np.stack([(seqs == letter).sum(axis=1)
                       for letter in range(alphabet_size)], axis=1)
    keys, inverse = np.unique(counts, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    groups = np.split(seqs[np.argsort(inverse, kind="stable")],
                      np.cumsum(np.bincount(inverse))[:-1])
    for g in groups:
        g.setflags(write=False)
    return {tuple(k.tolist()): g for k, g in zip(keys, groups)}


def _sequences(counts) -> np.ndarray:
    """The (N, n) sequences of the types ``counts``, type by type."""
    counts = np.asarray(counts)
    used = 1 + int(np.flatnonzero(counts.any(axis=0)).max(initial=0))
    table = _sequence_table(int(counts[0].sum()), used)
    return np.concatenate([table[tuple(r)] for r in counts[:, :used].tolist()])


def type_basis(counts, local_basis: np.ndarray) -> np.ndarray:
    """Product vectors  b_{z1} (x) ... (x) b_{zn}  as columns, one per sequence.

    ``counts`` is an integer array whose rows are the letter counts of the
    types (:func:`type_table`); trailing letters that no type uses may be
    left out of the rows.  Columns run type by type and lexicographically
    within each type, so each type owns a contiguous run of d_t columns;
    ``local_basis`` holds the single-copy basis as columns.
    """
    local_basis = np.asarray(local_basis, dtype=complex)
    seqs = _sequences(counts)
    cols = local_basis[:, seqs[:, 0]]
    for letters in seqs.T[1:]:
        # column-wise Kronecker product with the next letter's basis vector
        cols = (cols[:, None, :] * local_basis[:, letters][None]).reshape(
            -1, len(seqs)
        )
    return cols


def type_permutation(counts, local_basis: np.ndarray) -> tuple:
    """(rows, units): the row and value of each column's one nonzero in
    :func:`type_basis` ``(counts, local_basis)``, bit for bit, in O(n d^n);
    a ``local_basis`` whose 0/1 pattern P is no permutation (P^T P = I,
    square) raises ``ValueError``."""
    nz = (local_basis != 0).astype(int)
    if nz.shape != nz.shape[::-1] or (nz.T @ nz != np.eye(len(nz))).any():
        raise ValueError("the local basis is not a permutation with phases")
    perm, local = nz.argmax(0), local_basis.T[nz.T == 1].astype(complex)
    seqs = _sequences(counts)
    rows, units = perm[seqs[:, 0]], local[seqs[:, 0]]
    for letters in seqs.T[1:]:
        rows, units = rows * len(perm) + perm[letters], units * local[letters]
    return rows, units


def type_class_projector(counts, local_basis: np.ndarray | None = None
                         ) -> np.ndarray:
    """Rank-d_t projector onto the span of a type class's product vectors.

    Parameters
    ----------
    counts : sequence of int
        The type's letter counts, a row of :func:`type_table`.
    local_basis : array, optional
        Columns are the single-copy basis; defaults to the computational
        basis of the alphabet size.
    """
    letters = len(counts)
    if local_basis is None:
        local_basis = np.eye(letters, dtype=complex)
    if np.shape(local_basis)[1] != letters:
        raise ValueError(
            f"basis has {np.shape(local_basis)[1]} columns for a "
            f"{letters}-letter type"
        )
    b = type_basis([counts], local_basis)
    return b @ b.conj().T


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class TypicalProjector:
    """A delta-typical projector for the n-fold power of a state.

    Attributes
    ----------
    space : FactorSpace
        The n-fold space (copy-major labels ``X1, Y1, X2, Y2, ...``).
    basis : ndarray
        Orthonormal columns B spanning the projector's range, one per
        retained product eigenvector (``space.dim`` x rank).
    base_entropy : float
        Entropy of the single-copy state in bits.
    weight : float
        Tr{Pi rho^(x)n}, the retained probability mass.
    lambda_max, lambda_min : float
        Largest and smallest retained eigenvalue of rho^(x)n (NaN when the
        projector is zero).
    """

    space: qmat.FactorSpace
    basis: np.ndarray
    base_entropy: float
    weight: float
    lambda_max: float
    lambda_min: float

    def __post_init__(self):
        object.__setattr__(self, "basis", qmat.frozen_copy(self.basis))

    @property
    def projector(self) -> np.ndarray:
        """The projector B B†, which commutes with the n-fold state; formed
        on each access."""
        return self.basis @ self.basis.conj().T

    @property
    def rank(self) -> int:
        return self.basis.shape[1]


def typical_projector(rho: qmat.Operator, n: int, delta: float
                      ) -> TypicalProjector:
    """Entropy-typical projector of rho^(x)n.

    A product eigenvector with eigenvalue product lam is retained when
    ``|-(1/n) log2 lam - H(rho)| <= delta``; eigenvectors touching a zero
    eigenvalue are never retained.  By construction every retained
    eigenvalue obeys the equipartition sandwich
    2^{-n(H+delta)} <= lam <= 2^{-n(H-delta)}.  The basis B is the
    :func:`type_basis` of the retained types in the eigenbasis.
    Eigenvalues at most dim * machine epsilon * lambda_max are rounding
    residuals of zero (:func:`qmat.rounding_residuals`), and count as zero.
    The eigenvalues descend, so the zeros are a suffix: only the types over
    the support letters are read, from one cached table of their counts and
    dims (:func:`type_table`).  Each log2 lam is summed letter by letter, in
    letter order, so the retained types, ``weight``, ``lambda_max`` and
    ``lambda_min`` are bit for bit those of a loop over the types one by
    one.  ``rho`` is decomposed once (:func:`qmat.state_spectrum`): an
    operator that is not a :class:`~qmat.DensityOperator` is checked to be
    a state there.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not delta >= 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    vals, vecs = qmat.state_spectrum(rho)
    vals = np.clip(vals.real, 0.0, None)
    vals[qmat.rounding_residuals(vals, len(vals))] = 0.0
    entropy = float(-sum(v * math.log2(v) for v in vals if v > 0))
    space = qmat.power_space(rho.space, n)
    support = int(np.count_nonzero(vals))
    counts, dims = type_table(n, support)
    log_lam = np.zeros(len(counts))
    for letter, log_val in enumerate(map(math.log2, vals[:support])):
        log_lam += counts[:, letter] * log_val
    typical = np.flatnonzero(np.abs(-log_lam / n - entropy) <= delta + 1e-12)
    if not typical.size:
        return TypicalProjector(space, np.zeros((space.dim, 0), dtype=complex),
                                entropy, 0.0, float("nan"), float("nan"))
    lams = [2.0**x for x in log_lam[typical].tolist()]
    weight = 0.0
    for i, lam in zip(typical.tolist(), lams):
        weight += dims[i] * lam
    return TypicalProjector(space, type_basis(counts[typical], vecs),
                            entropy, weight, max(lams), min(lams))


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class ProjectorBundle:
    """The typical projectors of one n-copy space, each kept as its basis.

    ``bases`` maps a name to ``(labels, B)``: B holds orthonormal columns
    spanning Pi = B B† on the n-copy factors ``labels``, a contiguous run of
    ``space`` in its order, with rows in that order.  The joint projector
    covers all of ``space``.  The factored decoders apply them to d x c
    blocks (:meth:`apply`) or take the coordinates of a product of two of
    them that tile ``space`` (:meth:`coordinates`), in which the decoders'
    chains run; :meth:`embedded` builds the d x d matrices that the dense
    oracles read.  A split run, or a B whose columns are not orthonormal
    within 1e-9, raises ``ValueError`` naming the projector.
    """

    space: qmat.FactorSpace
    bases: dict
    # name -> the run's (before, d_X, -1) view (qmat.local_shape)
    _shapes: dict = field(default_factory=dict, init=False)
    # d x d matrices, each built on first use by embedded()
    _dense: dict = field(default_factory=dict, init=False)

    def __post_init__(self):
        object.__setattr__(self, "bases", {
            name: (tuple(labels), qmat.frozen_copy(b))
            for name, (labels, b) in self.bases.items()})
        for name, (labels, b) in self.bases.items():
            try:
                self._shapes[name] = qmat.local_shape(
                    self.space.subspace(labels), self.space)
            except ValueError as e:
                raise ValueError(f"projector {name!r}: {e}") from None
            defect = float(np.max(np.abs(b.conj().T @ b - np.eye(b.shape[1])),
                                  initial=0.0))
            if defect > PROJECTOR_TOL:
                raise ValueError(
                    f"basis of projector {name!r} is not orthonormal "
                    f"(defect {defect:.3e} > {PROJECTOR_TOL})")

    def basis(self, name: str) -> np.ndarray:
        """The orthonormal columns B of projector ``name`` on its factors."""
        return self.bases[name][1]

    def rank(self, name: str) -> int:
        """Rank of projector ``name``, its basis's column count."""
        return self.basis(name).shape[1]

    @property
    def nbytes(self) -> int:
        """Bytes of the bases."""
        return sum(b.nbytes for _, b in self.bases.values())

    def shapes(self) -> dict:
        """Each projector's basis shape (d_X, r_X), which the decoders' byte
        counts read (:func:`qmac.seqdecode.sequential_bytes`)."""
        return {name: b.shape for name, (_, b) in self.bases.items()}

    def embedded(self, name: str) -> np.ndarray:
        """Projector ``name`` as a d x d matrix on ``space``, built once."""
        if name not in self._dense:
            labels, b = self.bases[name]
            op = qmat.Operator(self.space.subspace(labels), b @ b.conj().T)
            self._dense[name] = qmat.frozen_copy(
                qmat.embed(op, self.space).matrix)
        return self._dense[name]

    def apply(self, name: str, mat: np.ndarray) -> np.ndarray:
        """(Pi_name (x) I) @ mat on d x c blocks, as B (B† Y).

        One stacked product on the (before, d_X, after) view of ``mat``,
        whose axis 1 is the name's contiguous run, so no row moves.  ``mat``
        may be a stack of d x c blocks on its leading axes.  A full-rank
        projector is the identity, so ``mat`` itself returns.
        """
        b = self.bases[name][1]
        if b.shape[1] == b.shape[0]:
            return mat
        y = mat.reshape(mat.shape[:-2] + self._shapes[name])
        return (b @ (b.conj().T @ y)).reshape(mat.shape)

    def coordinates(self, names, mat: np.ndarray) -> np.ndarray:
        """Q† @ mat for Q = B_X (x) B_Z, the coordinates of Pi_X Pi_Z mat.

        ``names`` is (X, Z): two projectors whose runs tile ``space``, X's
        first.  Q has orthonormal columns and Q Q† = Pi_X Pi_Z, so
        Q (Q† Y) = Pi_X Pi_Z Y.  Z's run acts first, as one stacked product
        B_Z† Y on its view, then X's, whose leading view the smaller rows
        keep valid.  A full-rank run stays in its own coordinates (B is
        replaced by I), so a d x c block comes back r_X r_Z x c, or as
        ``mat`` itself when both runs are full rank.  ``mat`` may be a
        stack of blocks on its leading axes.
        """
        x, z = names
        if self.bases[x][0] + self.bases[z][0] != self.space.labels:
            raise ValueError(f"projectors {x!r} and {z!r} do not tile "
                             f"{self.space.labels} in that order")
        lead = mat.shape[:-2]
        for name in (z, x):
            b = self.bases[name][1]
            if b.shape[1] < b.shape[0]:
                y = mat.reshape(lead + self._shapes[name])
                mat = (b.conj().T @ y).reshape(lead + (-1, mat.shape[-1]))
        return mat


def projector_bundle(rho: qmat.DensityOperator, n: int, delta: float,
                     marginals: dict, space: qmat.FactorSpace
                     ) -> ProjectorBundle:
    """Typical projectors of marginals of ``rho``, on the n-copy ``space``.

    ``rho`` is a single-copy state and ``marginals`` maps a name to the
    labels of ``rho`` that the marginal keeps (label X covers X1..Xn of
    ``space``).  Each projector is kept as its type basis, its rows moved
    to the factor order of ``space``, so no d x d matrix is formed.  An
    empty projector is not an error here.  Each marginal is traced out as
    a plain operator and checked to be a state once, by
    :func:`typical_projector` on the spectrum it decomposes; a marginal
    that fails raises ``ValueError`` naming it.
    """
    op = qmat.Operator(rho.space, rho.matrix)
    bases = {}
    for name, keep in marginals.items():
        try:
            tp = typical_projector(qmat.partial_trace(op, keep), n, delta)
        except ValueError as e:
            raise ValueError(f"marginal {name!r}: {e}") from None
        labels = [l for l in space.labels if l in tp.space.labels]
        bases[name] = (labels, qmat.permute_rows(tp.basis, tp.space, labels))
    return ProjectorBundle(space, bases)


def applied_blocks(shapes: dict, names) -> float:
    """The most blocks the size of Y, besides Y, that applying the named
    projectors to Y in turn (:meth:`ProjectorBundle.apply`) holds at once.

    ``shapes`` maps a name to its basis shape (d_X, r_X).  A full-rank
    projector returns its input; any other forms B†Y, r_X / d_X of Y, and
    a new block, while the block before it stays held.
    """
    most, before = 0.0, 0
    for d_x, r_x in (shapes[name] for name in names):
        if r_x < d_x:
            most, before = max(most, before + r_x / d_x + 1), 1
    return most


def coordinate_rows(shapes: dict, names) -> tuple:
    """(q, formed): the rows of :meth:`ProjectorBundle.coordinates`' result
    for ``names`` = (X, Z), and the rows of the blocks it forms, each as a
    fraction of its input's rows; ``shapes`` as in :func:`applied_blocks`.
    """
    f_x, f_z = (r / d for d, r in (shapes[name] for name in names))
    return f_x * f_z, f_z * (f_z < 1) + f_x * f_z * (f_x < 1)


def require_nonempty(ranks: dict, delta: float) -> None:
    """Raise ``ValueError`` naming ``delta`` when a named projector is zero.

    ``ranks`` maps each projector's name to its integer rank.
    """
    for name, rank in ranks.items():
        if rank == 0:
            raise ValueError(
                f"delta = {delta} leaves the typical {name} projector empty: "
                "no eigenvector is delta-typical, so a larger delta is needed"
            )


@dataclass(frozen=True, slots=True)
class MeasuredConstants:
    """Packing-hypothesis constants measured on an explicit ensemble."""

    epsilon: float
    d: float
    D: float
    commutator_residual: float

    def __repr__(self):
        return (
            f"MeasuredConstants(epsilon={self.epsilon:.6g}, d={self.d:.6g}, "
            f"D={self.D:.6g}, commutator_residual={self.commutator_residual:.3g})"
        )


def measure_word_constants(states, code_projector, word_projectors
                           ) -> tuple[float, float, float]:
    """Measure the per-codeword packing constants (epsilon, d, residual).

    Parameters
    ----------
    states : sequence of ndarray
        Density matrices rho_x.
    code_projector : ndarray
        The code subspace projector Pi.
    word_projectors : sequence of ndarray
        Codeword subspace projectors Pi_x, aligned with ``states``.

    Returns
    -------
    (epsilon, d, commutator_residual)
        ``epsilon`` = 1 - min over x of min(Tr{Pi rho_x}, Tr{Pi_x rho_x});
        ``1/d`` = min over x of the least eigenvalue of Pi_x rho_x Pi_x on
        the support of Pi_x (d is infinite when every Pi_x is zero);
        ``commutator_residual`` is the max-norm of [Pi_x, rho_x], worst case
        over x.
    """
    states = [np.asarray(s, dtype=complex) for s in states]
    word_projectors = [np.asarray(w, dtype=complex) for w in word_projectors]
    if not states:
        raise ValueError("empty ensemble")
    if len(states) != len(word_projectors):
        raise ValueError("states and word projectors must align")
    pi = np.asarray(code_projector, dtype=complex)

    min_overlap = 1.0
    inv_d = np.inf
    residual = 0.0
    for rho, w in zip(states, word_projectors):
        min_overlap = min(
            min_overlap,
            float(np.trace(pi @ rho).real),
            float(np.trace(w @ rho).real),
        )
        residual = max(residual, float(np.max(np.abs(w @ rho - rho @ w))))
        if np.trace(w).real > 0.5:
            # I - Pi_x lifts the complement to eigenvalue 1, above every
            # eigenvalue of the compressed state, so the least eigenvalue is
            # the one on the support of Pi_x
            lifted = w @ rho @ w + (np.eye(len(w)) - w)
            inv_d = min(inv_d, float(np.linalg.eigvalsh(lifted).min()))
    epsilon = 1.0 - min_overlap
    d = (1.0 / inv_d) if (np.isfinite(inv_d) and inv_d > 0) else np.inf
    return epsilon, d, residual


def measure_code_constant(rho_bar, code_projector) -> float:
    """D = 1 / (largest eigenvalue of Pi rho-bar Pi); infinite when that is 0.

    ``rho_bar`` is the ensemble's average state and ``code_projector`` the
    code subspace projector Pi.
    """
    pi = np.asarray(code_projector, dtype=complex)
    rho_bar = np.asarray(rho_bar, dtype=complex)
    top = float(np.linalg.eigvalsh((pi @ rho_bar @ pi + (pi @ rho_bar @ pi).conj().T) / 2).max())
    return (1.0 / top) if top > 0 else np.inf


def measure_packing_constants(probs, states, code_projector, word_projectors
                              ) -> MeasuredConstants:
    """Measure (epsilon, d, D) for an ensemble against given projectors.

    Parameters
    ----------
    probs : sequence of float
        Ensemble weights, summing to 1.
    states : sequence of ndarray
        Density matrices rho_x, aligned with ``probs``.
    code_projector : ndarray
        The code subspace projector Pi.
    word_projectors : sequence of ndarray
        Codeword subspace projectors Pi_x, aligned with ``probs``.

    Returns
    -------
    MeasuredConstants
        ``epsilon``, ``d`` and ``commutator_residual`` as in
        :func:`measure_word_constants`; ``D`` as in
        :func:`measure_code_constant` at rho-bar = sum_x p(x) rho_x.
    """
    probs = [float(p) for p in probs]
    states = [np.asarray(s, dtype=complex) for s in states]
    if len(probs) != len(states):
        raise ValueError("probs and states must align")
    epsilon, d, residual = measure_word_constants(
        states, code_projector, word_projectors
    )
    rho_bar = sum(p * rho for p, rho in zip(probs, states))
    D = measure_code_constant(rho_bar, code_projector)
    return MeasuredConstants(epsilon, d, D, residual)
