"""Span tracing of qmac's layers from outside the package.

The benchmark rebinds the public functions listed in ``LAYERS`` on their
modules.  qmac's modules call each other through module attributes
(``qmat.embed``, ``eacode.channel_output_state``) and call their own
functions through module globals, which are the same attributes, so the
wrappers also see calls made inside a module.  The three validating
constructors are wrapped on the class, because other modules bind the class
itself with ``from .qmat import ...``.

A span is ``(name, parent, op, start, end, raised)``.  Spans stay in memory
and are written out once, after the timed loop.  Nothing here imports qmac;
the caller passes the modules in.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# module -> traced public functions; the spans are named "<module>.<fn>"
LAYERS = {
    "cli": ("main",),
    "qmat": ("validate", "embed", "apply_channel", "operator_power",
             "eig_hermitian", "permute", "tensor", "partial_trace"),
    "eacode": ("type_decompose", "channel_output_state",
               "conjugate_by_receiver_encoders", "hw_transpose_unitary"),
    "typicality": ("typical_projector", "measure_packing_constants"),
    "seqdecode": ("ea_protocol_instance", "sequential_povm",
                  "exact_success_probability"),
    "simuldecode": ("mac_typical_projectors", "build_upsilon",
                    "sqrt_measurement", "error_breakdown",
                    "max_error_via_randomization", "run_mac_experiment"),
    "gaussian": ("region_sweep", "ea_bosonic_region", "sweep_csv"),
}

# "qmat.validate" is the time spent in these constructors (input checks and
# the eigvalsh positivity test)
VALIDATING_CLASSES = ("DensityOperator", "PovmSet", "KrausChannel")

# metrics derived from counters rather than from span durations
EXTRA_METRICS = {
    "cli.output_bytes": ("B/op", "lower"),
    "qmat.embed.bytes": ("B/op", "lower"),
    "qmat.max_dim": ("dim", "lower"),
    "eacode.channel_output_state.calls_per_op": ("calls/op", "lower"),
    "eacode.codeword_reuse": ("ratio", "higher"),
    "typicality.packing_ensemble_size": ("count", "lower"),
    "gaussian.g_entropy.calls_per_point": ("calls/point", "lower"),
    "trace.ops": ("count", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def metric_units() -> dict:
    """Every per-layer metric name -> (unit, better), in report order."""
    out = {}
    for module, fns in LAYERS.items():
        for fn in fns:
            out[f"{module}.{fn}.calls"] = ("calls/op", "lower")
            out[f"{module}.{fn}.s"] = ("s/op", "lower")
        out[f"{module}.self_s"] = ("s/op", "lower")
        out[f"{module}.errors"] = ("count", "lower")
    out.update(EXTRA_METRICS)
    return out


def _dim(x) -> int:
    """Matrix dimension of an operator, a matrix or an (eigvals, eigvecs) pair."""
    space = getattr(x, "space", None)
    if space is not None:
        return space.dim
    if isinstance(x, tuple):
        x = x[-1]
    shape = getattr(x, "shape", ())
    return int(shape[0]) if shape else 0


class Tracer:
    """Records a span per wrapped call while attached, tagged with ``op``.

    ``counts`` holds the untimed counters: ``gaussian.g_entropy`` calls,
    ``gaussian.points`` swept and ``qmat.embed.bytes``.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = Counter()
        self.max_dim = 0
        self.ensemble_size = 0
        self.verify_calls = False
        self.interpreter_calls = Counter()
        self._bindings = []  # (name, owner, attribute, original, wrapper)

    def reset(self) -> None:
        """Drop what was recorded so far."""
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.interpreter_calls.clear()
        self.max_dim = 0
        self.ensemble_size = 0

    def _span(self, name, fn, measure=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            stack.append(sid)
            spans.append(None)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                # a tuple of atoms, which the garbage collector stops tracking
                spans[sid] = (name, parent, self.op, start, clock(), raised)
                stack.pop()
            if measure is not None:
                measure(args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _bind(self, name, owner, attr, wrapper):
        self._bindings.append((name, owner, attr, getattr(owner, attr), wrapper))

    def wrap(self, modules: dict) -> None:
        """Build a wrapper for every function in ``LAYERS``; attach() binds them.

        ``modules`` maps each layer name to its imported qmac module.
        """

        def note_dim(args, result):
            self.max_dim = max(self.max_dim, _dim(result))

        def note_embed(args, result):
            d = _dim(result)
            self.counts["qmat.embed.bytes"] += 16 * d * d
            note_dim(args, result)

        def note_validate(args, result):
            self.max_dim = max(self.max_dim, _dim(args[0]))

        def note_ensemble(args, result):
            self.ensemble_size = max(self.ensemble_size, len(args[1]))

        def note_points(args, result):
            self.counts["gaussian.points"] += len(result)

        measures = {
            "qmat.embed": note_embed,
            "typicality.measure_packing_constants": note_ensemble,
            "gaussian.region_sweep": note_points,
        }
        for module, fns in LAYERS.items():
            mod = modules[module]
            for fn in fns:
                name = f"{module}.{fn}"
                if name == "qmat.validate":
                    continue
                measure = measures.get(name)
                if measure is None and module == "qmat":
                    measure = note_dim
                self._bind(name, mod, fn, self._span(name, getattr(mod, fn), measure))
        for cls_name in VALIDATING_CLASSES:
            cls = getattr(modules["qmat"], cls_name)
            self._bind("qmat.validate", cls, "__init__", self._span(
                "qmat.validate", cls.__init__, note_validate))
        gauss = modules["gaussian"]
        self._bind("gaussian.g_entropy", gauss, "g_entropy",
                   self._count("gaussian.g_entropy", gauss.g_entropy))

    def attach(self) -> None:
        """Put the wrappers in place.

        With ``verify_calls`` set, a trace hook also counts every call the
        interpreter makes into the wrapped functions' own code, however the
        caller reached them, into ``interpreter_calls``.
        """
        for _name, owner, attr, _original, wrapper in self._bindings:
            setattr(owner, attr, wrapper)
        if self.verify_calls:
            names = {original.__code__: name
                     for name, _owner, _attr, original, _wrapper in self._bindings}
            calls = self.interpreter_calls

            # a global trace function sees each Python call once and, by
            # returning None, asks for no line events
            def hook(frame, event, arg):
                name = names.get(frame.f_code)
                if name is not None:
                    calls[name] += 1

            sys.settrace(hook)

    def detach(self) -> None:
        """Restore the original functions, so an op runs with no wrapper at all."""
        sys.settrace(None)
        for _name, owner, attr, original, _wrapper in self._bindings:
            setattr(owner, attr, original)

    def missed_calls(self, op) -> list:
        """Wrapped functions whose op-``op`` calls bypassed their wrapper.

        Compares, per name, the spans (or counts) recorded for ``op`` with
        ``interpreter_calls``; a shortfall means a caller holds a reference
        the wrapper does not replace.
        """
        recorded = Counter(name for name, _parent, span_op, *_ in self.spans
                           if span_op == op) + self.counts
        return [f"{name}: {recorded[name]} recorded, {n} made"
                for name, n in sorted(self.interpreter_calls.items())
                if recorded[name] != n]

    def write(self, path) -> None:
        """Write the spans as tab-separated lines, one per span."""
        with open(path, "w") as f:
            f.write("id\tname\tparent\top\tstart\tend\traised\n")
            for i, (name, parent, op, start, end, raised) in enumerate(self.spans):
                f.write(f"{i}\t{name}\t{parent}\t{op}\t{start!r}\t{end!r}\t{int(raised)}\n")


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for name, parent, op, start, end, raised in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _union_length(children.get(i, ()))
        for i, (name, parent, op, start, end, raised) in enumerate(spans)
    ]


def layer_metrics(tracer: Tracer, ops: int, codewords_per_op: int,
                  output_bytes: int, overhead_frac: float) -> dict:
    """Per-op layer metrics over ``ops`` timed ops; names as in metric_units()."""
    calls, incl, selfs, errors = Counter(), Counter(), Counter(), Counter()
    for rec, own in zip(tracer.spans, self_times(tracer.spans)):
        name, _parent, _op, start, end, raised = rec
        module = name.split(".", 1)[0]
        calls[name] += 1
        incl[name] += end - start
        selfs[module] += own
        errors[module] += raised
    out = {}
    for module, fns in LAYERS.items():
        for fn in fns:
            out[f"{module}.{fn}.calls"] = calls[f"{module}.{fn}"] / ops
            out[f"{module}.{fn}.s"] = incl[f"{module}.{fn}"] / ops
        out[f"{module}.self_s"] = selfs[module] / ops
        out[f"{module}.errors"] = errors[module]
    conj = calls["eacode.conjugate_by_receiver_encoders"] / ops
    points = tracer.counts["gaussian.points"]
    out.update({
        "cli.output_bytes": output_bytes / ops,
        "qmat.embed.bytes": tracer.counts["qmat.embed.bytes"] / ops,
        "qmat.max_dim": tracer.max_dim,
        "eacode.channel_output_state.calls_per_op":
            calls["eacode.channel_output_state"] / ops,
        "eacode.codeword_reuse": codewords_per_op / conj if conj else 0.0,
        "typicality.packing_ensemble_size": tracer.ensemble_size,
        "gaussian.g_entropy.calls_per_point":
            tracer.counts["gaussian.g_entropy"] / points if points else 0.0,
        "trace.ops": ops,
        "trace.overhead_frac": overhead_frac,
    })
    return out


def check_self_time_arithmetic() -> str | None:
    """Self-time arithmetic on a fixed span tree; returns a failure or None.

    The tree nests a same-layer span (eig_hermitian inside operator_power,
    both qmat) and gives one parent two overlapping children, whose union,
    not their sum, is subtracted.  Times are binary fractions, so the
    expected values are exact.
    """
    spans = [
        ["cli.main", -1, 0, 0.0, 10.0, False],
        ["simuldecode.sqrt_measurement", 0, 0, 1.0, 6.0, False],
        ["qmat.operator_power", 1, 0, 2.0, 5.0, False],
        ["qmat.eig_hermitian", 2, 0, 2.5, 4.0, False],
        ["qmat.validate", 1, 0, 5.5, 5.75, False],
        ["qmat.embed", 0, 0, 7.0, 8.0, False],
        ["qmat.permute", 5, 0, 7.25, 7.75, False],
        ["qmat.tensor", 5, 0, 7.5, 7.875, False],
    ]
    expected = [4.0, 1.75, 1.5, 1.5, 0.25, 0.375, 0.5, 0.375]
    got = self_times(spans)
    if got != expected:
        return f"self times {got} != {expected}"
    tracer = Tracer()
    tracer.spans = spans
    m = layer_metrics(tracer, 1, 0, 0, 0.0)
    want = {"cli.self_s": 4.0, "simuldecode.self_s": 1.75, "qmat.self_s": 4.5,
            "qmat.operator_power.s": 3.0, "qmat.eig_hermitian.s": 1.5,
            "qmat.operator_power.calls": 1.0}
    for key, value in want.items():
        if m[key] != value:
            return f"{key} = {m[key]}, expected {value}"
    return None
