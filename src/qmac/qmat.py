"""Dense complex operator algebra over labeled tensor factors.

Every finite-dimensional object in this package is a dense numpy array
tagged with a :class:`FactorSpace` that names its tensor factors, so that
partial traces, embeddings and channel applications can be requested by
label instead of by axis bookkeeping.  All values are immutable and all
operations are pure functions.  A space may have any dimension, but a dense
matrix on a whole space above :func:`dimension_cap` is refused
(:func:`require_dense`, called by :func:`embed` and the dense code states),
and a run whose byte count exceeds the memory limit (:func:`require_bytes`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DimensionCapError",
    "FactorSpace",
    "Operator",
    "DensityOperator",
    "PureState",
    "KrausChannel",
    "PovmSet",
    "dimension_cap",
    "require_dense",
    "require_bytes",
    "frozen_copy",
    "power_space",
    "column_power",
    "identity",
    "tensor",
    "permute",
    "embed",
    "local_shape",
    "apply_local",
    "conjugate_local",
    "partial_trace",
    "eig_hermitian",
    "state_spectrum",
    "rounding_residuals",
    "operator_power",
    "apply_channel",
    "output_factor",
    "named_channel",
    "channel_from_json",
    "channel_to_json",
]

DEFAULT_DIM_CAP = 4096

HERMITICITY_TOL = 1e-10
HERMITICITY_HARD_TOL = 1e-8
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
NORM_TOL = 1e-12
KRAUS_TOL = 1e-10
POVM_TOL = 1e-9


class DimensionCapError(ValueError):
    """Raised when a dense matrix would be formed on a space above the cap."""


def dimension_cap() -> int:
    """The largest dimension of a space that holds a dense matrix: 4096."""
    return DEFAULT_DIM_CAP


def require_dense(space: FactorSpace) -> None:
    """Refuse a dense matrix on ``space`` above :func:`dimension_cap`."""
    if space.dim > dimension_cap():
        raise DimensionCapError(
            f"a dense matrix on {space.labels} would have dimension "
            f"{space.dim}, exceeding the cap {dimension_cap()}")


def require_bytes(need: int) -> int:
    """Refuse, with ``MemoryError``, a run counted at ``need`` bytes when
    that exceeds the smaller of the soft address-space limit and physical
    memory; return ``need``.  The message names both figures."""
    import resource  # here, so that importing the package does not load it

    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    limit = min(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
                math.inf if soft == resource.RLIM_INFINITY else soft)
    if need > limit:
        from decimal import Decimal  # a count can pass a float's range
        raise MemoryError(
            f"the run needs an estimated {Decimal(need) / 2**30:.3g} GiB for "
            "the codeword stack and the decoder's blocks, over the memory "
            f"limit of {limit / 2**30:.3g} GiB")
    return need


def frozen_copy(a: np.ndarray) -> np.ndarray:
    """``a`` if it is a read-only complex array of its own, else such a copy."""
    if (isinstance(a, np.ndarray) and a.dtype == complex
            and a.flags.owndata and not a.flags.writeable):
        return a
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, slots=True)
class FactorSpace:
    """An ordered list of named tensor factors with their dimensions.

    Parameters
    ----------
    labels : sequence of str
        Unique subsystem names, e.g. ``("A", "B")``.
    dims : sequence of int
        Positive dimension of each factor, aligned with ``labels``.
    """

    labels: tuple[str, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        labels = tuple(str(l) for l in self.labels)
        dims = tuple(int(d) for d in self.dims)
        if len(labels) != len(dims):
            raise ValueError("labels and dims must have equal length")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate factor labels in {labels}")
        if any(d <= 0 for d in dims):
            raise ValueError("factor dimensions must be positive")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown factor label {label!r}; have {self.labels}")

    def dim_of(self, label: str) -> int:
        return self.dims[self.axis(label)]

    def subspace(self, labels: Iterable[str]) -> "FactorSpace":
        labels = tuple(labels)
        return FactorSpace(labels, tuple(self.dim_of(l) for l in labels))

    def __repr__(self):
        inner = ", ".join(f"{l}:{d}" for l, d in zip(self.labels, self.dims))
        return f"FactorSpace({inner})"


def power_space(space: FactorSpace, n: int) -> FactorSpace:
    """n-fold copy of a space, copy-major: labels X -> X1, X2, ..., Xn."""
    return FactorSpace([f"{l}{i}" for i in range(1, n + 1)
                        for l in space.labels], space.dims * n)


def column_power(m, seqs, single: FactorSpace | None = None, labels=None
                 ) -> np.ndarray:
    """Columns m[:, seqs[a, 0]] (x) ... (x) m[:, seqs[a, n-1]] for the
    (N, n) integer ``seqs``, with m's rows on ``single`` (one factor when
    omitted) and the result's on its n copies in the order ``labels``
    (copy-major when omitted).  Copy by copy, the product so far times the
    next copy's columns is written into a view of a new array with an axis
    per factor in ``labels``' order: no row moves, equal bits in any order.
    """
    m, seqs = np.asarray(m, dtype=complex), np.asarray(seqs)
    single = single or FactorSpace(("X",), (len(m),))
    n, k, dims, cols = seqs.shape[1], len(single.dims), single.dims, len(seqs)
    order = (list(range(n * k)) if labels is None
             else _permutation(power_space(single, n), labels))
    out = np.ones((1, cols), dtype=complex)
    for i in range(n):  # out holds the product of the first i copies
        axes = [f for f in order if f < (i + 1) * k]

        def view(a, lo, hi):  # 1 on the axes of factors outside [lo, hi)
            return a.reshape([dims[f % k] if lo <= f < hi else 1
                              for f in axes] + [cols])

        last = [f - i * k for f in axes if f >= i * k]
        tail = m[:, seqs[:, i]].reshape(dims + (cols,)).transpose(last + [k])
        held, out = out, np.empty((len(out) * single.dim, cols), complex)
        np.multiply(view(held, 0, i * k), view(tail, i * k, (i + 1) * k),
                    out=view(out, 0, (i + 1) * k))
    return out


@dataclass(frozen=True, slots=True, eq=False)
class Operator:
    """A square matrix on a labeled factor space.  No constraints beyond shape."""

    space: FactorSpace
    matrix: np.ndarray

    def __post_init__(self):
        matrix = frozen_copy(self.matrix)
        dim = self.space.dim
        if matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match space dim {dim}"
            )
        object.__setattr__(self, "matrix", matrix)

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def __repr__(self):
        return f"{type(self).__name__}(space={self.space!r}, dim={self.space.dim})"


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class DensityOperator(Operator):
    """A state: Hermitian, unit-trace, positive semidefinite within tolerance."""

    # An own __init__ rather than a generated one: the generated one would
    # equal Operator's by code object (code compares by value), so a profiler
    # that keys calls by code could not tell state validation apart.
    def __init__(self, space: FactorSpace, matrix: np.ndarray):
        Operator.__init__(self, space, matrix)

    def __post_init__(self):
        Operator.__post_init__(self)
        _check_hermitian_unit_trace(self)
        _check_psd(np.linalg.eigvalsh(_sym(self.matrix)))


def _check_hermitian_unit_trace(op: Operator) -> None:
    """The first two checks of a state: Hermitian and unit trace within 1e-10."""
    defect = op.hermiticity_defect()
    if defect > HERMITICITY_TOL:
        raise ValueError(f"density matrix not Hermitian (defect {defect:.3e})")
    tr = op.trace
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} differs from 1")


def _check_psd(vals: np.ndarray) -> None:
    """The last check of a state: no eigenvalue in ``vals`` below -1e-9."""
    lo = float(np.min(vals))
    if lo < -PSD_TOL:
        raise ValueError(f"density matrix has eigenvalue {lo:.3e} < -{PSD_TOL}")


@dataclass(frozen=True, slots=True, eq=False)
class PureState:
    """A unit vector on a labeled factor space."""

    space: FactorSpace
    vector: np.ndarray

    def __post_init__(self):
        vector = frozen_copy(self.vector).reshape(-1)
        dim = self.space.dim
        if vector.shape != (dim,):
            raise ValueError(
                f"vector length {vector.shape[0]} does not match space dim {dim}"
            )
        nrm = float(np.linalg.norm(vector))
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"state vector norm {nrm} differs from 1")
        object.__setattr__(self, "vector", vector)

    def density(self) -> DensityOperator:
        return DensityOperator(self.space, np.outer(self.vector, self.vector.conj()))

    def __repr__(self):
        return f"PureState(space={self.space!r})"


def identity(space: FactorSpace) -> Operator:
    return Operator(space, np.eye(space.dim))


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------

def tensor(*ops):
    """Kronecker product with concatenated labels.

    Accepts :class:`Operator`/:class:`DensityOperator` (all of one kind) or
    :class:`PureState` inputs.  Densities stay densities and pure states stay
    pure; the result space is the concatenation of the input spaces.
    Duplicate labels across the inputs raise ``ValueError``.
    """
    if not ops:
        raise ValueError("tensor() needs at least one operand")
    labels = [l for op in ops for l in op.space.labels]
    dims = [d for op in ops for d in op.space.dims]
    space = FactorSpace(labels, dims)  # checks duplicates
    if all(isinstance(op, PureState) for op in ops):
        vec = ops[0].vector
        for op in ops[1:]:
            vec = np.kron(vec, op.vector)
        return PureState(space, vec)
    mat = ops[0].matrix
    for op in ops[1:]:
        mat = np.kron(mat, op.matrix)
    if all(isinstance(op, DensityOperator) for op in ops):
        return DensityOperator(space, mat)
    return Operator(space, mat)


def _permutation(space: FactorSpace, new_labels: Sequence[str]) -> list[int]:
    new_labels = tuple(new_labels)
    if sorted(new_labels) != sorted(space.labels):
        raise ValueError(f"{new_labels} is not a permutation of {space.labels}")
    return [space.axis(l) for l in new_labels]


def permute(op, new_labels: Sequence[str]):
    """Reorder tensor factors to the given label order (same kind out)."""
    perm = _permutation(op.space, new_labels)
    space = op.space.subspace(new_labels)
    if isinstance(op, PureState):
        vec = op.vector.reshape(op.space.dims).transpose(perm).reshape(-1)
        return PureState(space, vec)
    k = len(op.space.dims)
    mat = op.matrix.reshape(op.space.dims + op.space.dims)
    mat = mat.transpose(perm + [k + p for p in perm])
    mat = mat.reshape(space.dim, space.dim)
    if isinstance(op, DensityOperator):
        return DensityOperator(space, mat)
    return Operator(space, mat)


def embed(op: Operator, target: FactorSpace) -> Operator:
    """Extend an operator by identity onto a larger labeled space.

    The operator's labels must be a subset of ``target.labels``; factor
    dimensions must agree.  The result acts as ``op`` on its own factors and
    as identity elsewhere, ordered per ``target``; refused above the cap.
    """
    require_dense(target)
    missing = [l for l in target.labels if l not in op.space.labels]
    for l in op.space.labels:
        if target.dim_of(l) != op.space.dim_of(l):
            raise ValueError(f"dimension mismatch on label {l!r}")
    if not missing:
        return permute(Operator(op.space, op.matrix), target.labels)
    rest = target.subspace(missing)
    big = tensor(Operator(op.space, op.matrix), identity(rest))
    return permute(big, target.labels)


def local_shape(sub: FactorSpace, space: FactorSpace) -> tuple:
    """(before, sub.dim, -1): the view of ``space.dim`` rows whose axis 1 is
    ``sub``, a contiguous run of ``space`` (in order, else ``ValueError``)."""
    labels = sub.labels
    start = space.axis(labels[0])
    stop = start + len(labels)
    if space.labels[start:stop] != labels:
        raise ValueError(f"{labels} is not a contiguous run of {space.labels}")
    if space.dims[start:stop] != sub.dims:
        raise ValueError(f"dimension mismatch on labels {labels}")
    return (math.prod(space.dims[:start]), sub.dim, -1)


def apply_local(op: Operator, mat, space: FactorSpace) -> np.ndarray:
    """(op (x) I) @ mat on ``space`` without forming op (x) I.

    ``op`` must act on a contiguous run of ``space`` (:func:`local_shape`);
    ``mat`` is a vector or matrix with ``space.dim`` rows.  The cost is one
    stacked product with the small matrix, not a ``space.dim``-sized one.
    """
    mat = np.asarray(mat)
    out = np.matmul(op.matrix, mat.reshape(local_shape(op.space, space)))
    return out.reshape(mat.shape)


def conjugate_local(op: Operator, mat, space: FactorSpace) -> np.ndarray:
    """(op (x) I) mat (op (x) I)† on ``space`` as two local contractions.

    The right-hand factor acts as op* on the left of the transpose:
    X (op (x) I)† = ((op* (x) I) X^T)^T.
    """
    left = apply_local(op, mat, space)
    return apply_local(Operator(op.space, op.matrix.conj()), left.T, space).T


def partial_trace(op, keep: Iterable[str]):
    """Trace out all factors not in ``keep``; the kept factors keep their order.

    Works on :class:`Operator`, :class:`DensityOperator` (stays a density) and
    :class:`PureState` (returns the reduced :class:`DensityOperator`).
    """
    if isinstance(op, PureState):
        op = op.density()
    keep = list(keep)
    for l in keep:
        op.space.axis(l)
    keep_in_order = [l for l in op.space.labels if l in set(keep)]
    k = len(op.space.dims)
    keep_axes = [op.space.axis(l) for l in keep_in_order]
    traced_axes = [i for i in range(k) if i not in keep_axes]
    t = op.matrix.reshape(op.space.dims + op.space.dims)
    for ax in sorted(traced_axes, reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    sub = op.space.subspace(keep_in_order)
    mat = t.reshape(sub.dim, sub.dim)
    out = Operator(sub, mat)
    if isinstance(op, DensityOperator):
        out = DensityOperator(sub, mat)
    if keep_in_order != keep:
        out = permute(out, keep)
    return out


# ---------------------------------------------------------------------------
# spectral operations
# ---------------------------------------------------------------------------

def eig_hermitian(op):
    """Eigendecomposition of a Hermitian operator, eigenvalues descending.

    The input is symmetrized as (M + M†)/2 before decomposing; an asymmetry
    beyond 1e-8 in max-norm is treated as a caller bug and raises.  Ties are
    broken by a stable descending sort, so degenerate eigenvalues keep the
    ascending index order of the underlying LAPACK output.

    Returns
    -------
    (eigenvalues, eigenvectors)
        Real eigenvalues, descending; eigenvectors as orthonormal columns
        aligned with the eigenvalues.
    """
    m = op.matrix if isinstance(op, Operator) else np.asarray(op, dtype=complex)
    defect = float(np.max(np.abs(m - m.conj().T)))
    if defect > HERMITICITY_HARD_TOL:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} > 1e-8)")
    vals, vecs = np.linalg.eigh(_sym(m))
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


def state_spectrum(op: Operator):
    """:func:`eig_hermitian` of ``op``, checked to be a state on the way.

    A :class:`DensityOperator` was checked when it was made.  Any other
    operator gets the checks of that constructor, with its tolerances, and
    the positivity check reads the eigenvalues decomposed here, so a state
    that is only decomposed is never decomposed twice.
    """
    checked = isinstance(op, DensityOperator)
    if not checked:
        _check_hermitian_unit_trace(op)
    vals, vecs = eig_hermitian(op)
    if not checked:
        _check_psd(vals)
    return vals, vecs


def rounding_residuals(vals: np.ndarray, size: int) -> np.ndarray:
    """Which ``vals`` (the spectrum of a matrix with larger side ``size``)
    are rounding residuals of zero: at most size * eps * max(vals)."""
    return vals <= size * np.finfo(float).eps * vals.max(initial=0.0)


def operator_power(op, exponent: float, support_cutoff: float = 1e-12):
    """The matrix with ``x**exponent`` applied to the eigenvalues of a PSD operator.

    Eigenvalues at or below ``support_cutoff`` map to 0, which makes negative
    exponents the pseudo-inverse on the support.  An eigenvalue below -1e-9
    raises.
    """
    vals, vecs = eig_hermitian(op)
    if float(vals.min()) < -PSD_TOL:
        raise ValueError(f"operator has eigenvalue {vals.min():.3e} < -{PSD_TOL}")
    fvals = np.array(
        [v**exponent if v > support_cutoff else 0.0 for v in vals.real]
    )
    return (vecs * fvals) @ vecs.conj().T


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, eq=False)
class KrausChannel:
    """A completely positive trace-preserving map given by Kraus matrices.

    Parameters
    ----------
    in_space, out_space : FactorSpace
        Declared input and output factors.  A multiple access channel simply
        has two input factors (conventionally ``Ap`` and ``Bp``).
    kraus : sequence of arrays
        Matrices of shape ``(out_dim, in_dim)`` with finite entries and
        sum K†K = identity within 1e-10.
    """

    in_space: FactorSpace
    out_space: FactorSpace
    kraus: tuple[np.ndarray, ...]
    name: str = ""

    def __post_init__(self):
        kraus = tuple(frozen_copy(k) for k in self.kraus)
        if not kraus:
            raise ValueError("a channel needs at least one Kraus matrix")
        shape = (self.out_space.dim, self.in_space.dim)
        for i, k in enumerate(kraus):
            if k.shape != shape:
                raise ValueError(f"Kraus matrix shape {k.shape}, expected {shape}")
            if not np.isfinite(k).all():
                raise ValueError(f"Kraus matrix {i} has a non-finite entry")
        total = sum(k.conj().T @ k for k in kraus)
        defect = float(np.max(np.abs(total - np.eye(self.in_space.dim))))
        if defect > KRAUS_TOL:
            raise ValueError(f"sum K†K deviates from identity by {defect:.3e}")
        object.__setattr__(self, "kraus", kraus)

    @property
    def is_mac(self) -> bool:
        return len(self.in_space.labels) == 2

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return (
            f"KrausChannel{tag}({self.in_space.labels} -> {self.out_space.labels}, "
            f"{len(self.kraus)} Kraus)"
        )


def _channel_use(ch: KrausChannel, space: FactorSpace, acting_on, out_labels):
    """Check a use of ``ch`` on ``space``: (acting_on, untouched labels, out space)."""
    acting_on, out_labels = tuple(acting_on), tuple(out_labels)
    if len(acting_on) != len(ch.in_space.labels):
        raise ValueError("acting_on must name one label per channel input factor")
    if len(out_labels) != len(ch.out_space.labels):
        raise ValueError("out_labels must name one label per channel output factor")
    for l, d in zip(acting_on, ch.in_space.dims):
        if space.dim_of(l) != d:
            raise ValueError(
                f"label {l!r} has dimension {space.dim_of(l)}, channel wants {d}"
            )
    rest = tuple(l for l in space.labels if l not in set(acting_on))
    if set(out_labels) & set(rest):
        raise ValueError(f"output labels {out_labels} collide with {list(rest)}")
    out_space = FactorSpace(
        out_labels + rest, ch.out_space.dims + space.subspace(rest).dims
    )
    return acting_on, rest, out_space


def apply_channel(ch: KrausChannel, state, acting_on=None, out_labels=None):
    """Apply a channel to named factors of a state, identity elsewhere.

    Parameters
    ----------
    ch : KrausChannel
    state : DensityOperator or Operator
    acting_on : sequence of labels, optional
        Labels of ``state`` fed to the channel inputs, in the channel's input
        order.  Defaults to the channel's own input labels.
    out_labels : sequence of labels, optional
        Names for the channel outputs in the result (defaults to the
        channel's output labels); must not collide with untouched factors.
    """
    acting_on, rest, new_space = _channel_use(
        ch, state.space,
        ch.in_space.labels if acting_on is None else acting_on,
        ch.out_space.labels if out_labels is None else out_labels,
    )
    moved = permute(Operator(state.space, state.matrix), acting_on + rest)
    eye = np.eye(new_space.dim // ch.out_space.dim)
    acc = np.zeros((new_space.dim, new_space.dim), dtype=complex)
    for k in ch.kraus:
        kf = np.kron(k, eye)
        acc += kf @ moved.matrix @ kf.conj().T
    if isinstance(state, DensityOperator):
        return DensityOperator(new_space, acc)
    return Operator(new_space, acc)


def output_factor(ch: KrausChannel, state: PureState, use, labels) -> np.ndarray:
    """R with R R† the output of ``state`` after one use of the channel.

    The use ``(acting_on, out_labels)`` sends the named factors through the
    channel, as in :func:`apply_channel`, but contracts the Kraus matrices
    with those factors only; the Kraus index joins R's columns, so the
    environment is never a factor of the space.  R's rows follow ``labels``.
    R is never wider than tall: more than d_in d_out Kraus matrices are
    reduced to d_in d_out by a QR of the stacked matrices, and an R wider
    than tall by a QR of R†; R^(x)n is :func:`column_power`'s.
    """
    d_in, d_out = ch.in_space.dim, ch.out_space.dim
    kraus = np.stack(ch.kraus).reshape(len(ch.kraus), d_out * d_in)
    if len(kraus) > d_out * d_in:
        # rows of S with S^T S* = K^T K*: the same sum K_i X K_i†
        kraus = np.linalg.qr(kraus, mode="r")
    kraus = kraus.reshape(-1, d_in)  # rows (Kraus index, output)
    acting_on, rest, space = _channel_use(ch, state.space, *use)
    moved = permute(state, acting_on + rest).vector.reshape(d_in, -1)
    # rows (Kraus, out, rest) -> rows (out, rest), columns Kraus
    r = (kraus @ moved).reshape(-1, space.dim).T
    if r.shape[1] > r.shape[0]:
        r = np.linalg.qr(r.conj().T, mode="r").conj().T
    perm = _permutation(space, labels)
    r = r.reshape(space.dims + (-1,)).transpose(perm + [len(perm)])
    return r.reshape(space.dim, -1)


# ---------------------------------------------------------------------------
# POVMs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True, eq=False, repr=False)
class PovmSet:
    """An indexed family of positive operators with sum at most the identity.

    The completion element ``I - sum`` is kept implicit; :meth:`completion`
    materializes it.  Each element must be Hermitian with eigenvalues in
    [-1e-9, 1 + 1e-9], and the family total must satisfy sum <= I + 1e-9.
    """

    space: FactorSpace
    elements: dict

    def __post_init__(self):
        elements = {k: frozen_copy(m) for k, m in dict(self.elements).items()}
        if not elements:
            raise ValueError("a POVM needs at least one element")
        dim = self.space.dim
        total = np.zeros((dim, dim), dtype=complex)
        for key, mat in elements.items():
            if mat.shape != (dim, dim):
                raise ValueError(f"element {key!r} has shape {mat.shape}")
            defect = float(np.max(np.abs(mat - mat.conj().T)))
            if defect > POVM_TOL:
                raise ValueError(f"element {key!r} not Hermitian (defect {defect:.3e})")
            vals = np.linalg.eigvalsh(_sym(mat))
            if vals.min() < -POVM_TOL or vals.max() > 1 + POVM_TOL:
                raise ValueError(
                    f"element {key!r} has eigenvalues in "
                    f"[{vals.min():.3e}, {vals.max():.3e}], outside [0, 1]"
                )
            total += mat
        gap = np.linalg.eigvalsh(_sym(np.eye(dim) - total))
        if gap.min() < -POVM_TOL:
            raise ValueError(
                f"POVM elements sum beyond identity (min gap eigenvalue {gap.min():.3e})"
            )
        object.__setattr__(self, "elements", elements)

    def __getitem__(self, key) -> np.ndarray:
        return self.elements[key]

    def keys(self):
        return self.elements.keys()

    def total(self) -> np.ndarray:
        return sum(self.elements.values())

    def completion(self) -> np.ndarray:
        """The implicit abort element I - sum(elements)."""
        return np.eye(self.space.dim) - self.total()


# ---------------------------------------------------------------------------
# named channels and the JSON wire format
# ---------------------------------------------------------------------------

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]],
    dtype=complex,
)


def named_channel(name: str) -> KrausChannel:
    """Construct one of the built-in channels.

    ``identity:d``
        The identity channel on a d-dimensional input.
    ``depolarizing:p``
        Qubit depolarizing channel rho -> (1-p) rho + p I/2.
    ``amplitude-damping:g``
        Qubit amplitude damping with decay probability g.
    ``cnot-mac``
        Two-qubit multiple access channel: CNOT (control ``Ap``, target
        ``Bp``) followed by computational-basis dephasing of both output
        qubits; ``C`` is the dim-4 composite output and the dephasing
        ancilla is the traced environment.
    ``adder-mac``
        Classical integer adder embedded as a dephasing MAC: computational
        inputs x, y produce |x+y> in a 3-dimensional output register.
    """
    kind, _, arg = name.partition(":")

    def refuse(reason):
        return ValueError(f"named channel {name!r}: {reason}")

    def parameter(convert, default):
        try:
            return convert(arg) if arg else default
        except ValueError as e:
            raise refuse(e) from None

    if kind == "identity":
        d = parameter(int, 2)
        if d < 1:
            raise refuse("identity channel needs dimension >= 1")
        return KrausChannel(
            FactorSpace(("Ap",), (d,)), FactorSpace(("B",), (d,)),
            [np.eye(d)], name=name,
        )
    if kind == "depolarizing":
        p = parameter(float, 1.0)
        if not 0.0 <= p <= 4.0 / 3.0:
            raise refuse("depolarizing parameter must lie in [0, 4/3]")
        kraus = [
            math.sqrt(max(1 - 3 * p / 4, 0.0)) * np.eye(2),
            math.sqrt(p / 4) * _PAULI_X,
            math.sqrt(p / 4) * _PAULI_Y,
            math.sqrt(p / 4) * _PAULI_Z,
        ]
        return KrausChannel(
            FactorSpace(("Ap",), (2,)), FactorSpace(("B",), (2,)), kraus, name=name
        )
    if kind == "amplitude-damping":
        g = parameter(float, 0.5)
        if not 0.0 <= g <= 1.0:
            raise refuse("damping probability must lie in [0, 1]")
        k0 = np.array([[1, 0], [0, math.sqrt(1 - g)]], dtype=complex)
        k1 = np.array([[0, math.sqrt(g)], [0, 0]], dtype=complex)
        return KrausChannel(
            FactorSpace(("Ap",), (2,)), FactorSpace(("B",), (2,)), [k0, k1], name=name
        )
    if kind == "cnot-mac":
        kraus = []
        for a in range(2):
            for b in range(2):
                proj = np.zeros((4, 4), dtype=complex)
                proj[2 * a + b, 2 * a + b] = 1.0
                kraus.append(proj @ _CNOT)
        return KrausChannel(
            FactorSpace(("Ap", "Bp"), (2, 2)), FactorSpace(("C",), (4,)),
            kraus, name=name,
        )
    if kind == "adder-mac":
        kraus = []
        for x in range(2):
            for y in range(2):
                k = np.zeros((3, 4), dtype=complex)
                k[x + y, 2 * x + y] = 1.0
                kraus.append(k)
        return KrausChannel(
            FactorSpace(("Ap", "Bp"), (2, 2)), FactorSpace(("C",), (3,)),
            kraus, name=name,
        )
    raise ValueError(f"unknown named channel {name!r}")


def channel_from_json(obj: dict) -> KrausChannel:
    """Build a channel from the wire format.

    The object carries ``in_dims`` (one entry per sender), ``out_dims`` and
    ``kraus``: a list of matrices, each a flat row-major list of
    ``[re, im]`` entry pairs (a nested rows-of-pairs layout is also
    accepted).  One input factor is labeled ``Ap`` (output ``B``); two
    input factors are labeled ``Ap``/``Bp`` (output ``C`` or ``C1``,
    ``C2``, ...).  Anything else raises ``ValueError`` naming what is wrong.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"a channel is a JSON object, got {type(obj).__name__}")
    for key in ("in_dims", "out_dims", "kraus"):
        if not isinstance(obj.get(key), list):
            raise ValueError(f"the channel object needs a list {key!r}")
    in_dims, out_dims = tuple(obj["in_dims"]), tuple(obj["out_dims"])
    if not all(type(d) is int for d in in_dims + out_dims):
        raise ValueError("in_dims and out_dims must list integers")
    if len(in_dims) == 1:
        in_labels = ("Ap",)
        out_labels = ("B",) if len(out_dims) == 1 else tuple(
            f"B{i+1}" for i in range(len(out_dims))
        )
    elif len(in_dims) == 2:
        in_labels = ("Ap", "Bp")
        out_labels = ("C",) if len(out_dims) == 1 else tuple(
            f"C{i+1}" for i in range(len(out_dims))
        )
    else:
        raise ValueError("channels support one or two input factors")
    d_in = math.prod(in_dims)
    d_out = math.prod(out_dims)
    kraus = []
    for i, mat in enumerate(obj["kraus"]):
        try:
            arr = np.ascontiguousarray(mat, dtype=float)
        except (TypeError, ValueError) as e:
            raise ValueError(f"Kraus matrix {i} is not a list of numbers: {e}"
                             ) from None
        if arr.shape not in ((d_out * d_in, 2), (d_out, d_in, 2)):
            raise ValueError(
                f"Kraus matrix {i} has shape {arr.shape}; expected "
                f"{d_out * d_in} row-major [re, im] pairs"
            )
        # [re, im] pairs are the memory layout of complex entries
        kraus.append(arr.view(complex).reshape(d_out, d_in))
    return KrausChannel(
        FactorSpace(in_labels, in_dims), FactorSpace(out_labels, out_dims), kraus
    )


def channel_to_json(ch: KrausChannel) -> dict:
    """Inverse of :func:`channel_from_json` (labels are regenerated on read)."""
    return {
        "in_dims": list(ch.in_space.dims),
        "out_dims": list(ch.out_space.dims),
        "kraus": [
            [[float(e.real), float(e.imag)] for e in k.reshape(-1)]
            for k in ch.kraus
        ],
    }
