"""Command-line front end: regions, sweeps, decoder experiments, checks.

Every command is deterministic given its full flag set (seeds included),
floats are emitted at 12 significant digits, and exit codes are 0 on
success, 2 on validation failure, 3 on I/O failure, 4 when the dimension
cap is exceeded or memory runs out.  ``QMAC_DIM_CAP`` overrides the cap.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import eacode, gaussian, info, qmat, seqdecode, simuldecode
from .gaussian import BosonicMacParams
from .qmat import DimensionCapError, FactorSpace, PureState


def _round12(obj):
    """Round every float to 12 significant digits, recursively."""
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def emit_json(obj, stream=None) -> None:
    """Write ``obj`` as strict JSON; NaN or infinity raises ValueError."""
    text = json.dumps(_round12(obj), indent=2, allow_nan=False)
    (stream or sys.stdout).write(text + "\n")


def _check_delta(delta: float) -> None:
    if not (delta >= 0 and math.isfinite(delta)):
        raise ValueError(f"--delta must be a finite nonnegative number, got {delta}")


def _load_channel(spec: str) -> qmat.KrausChannel:
    if spec.endswith(".json"):
        try:
            with open(spec) as f:
                return qmat.channel_from_json(json.load(f))
        except DimensionCapError:
            raise
        except ValueError as e:  # JSONDecodeError included
            raise ValueError(f"channel file {spec}: {e}")
    return qmat.named_channel(spec)


def _shared_state(spec: str, dim: int, sender: str, receiver: str) -> PureState:
    """Entangled pure state sum_i sqrt(p_i) |ii> from "bell" or a prob list."""
    if spec == "bell":
        probs = [1.0 / dim] * dim
    else:
        try:
            probs = [float(x) for x in spec.split(",")]
        except ValueError as e:
            raise ValueError(f"state spec {spec!r}: {e}") from None
        if len(probs) != dim:
            raise ValueError(
                f"state spec {spec!r} has {len(probs)} weights, channel input "
                f"dimension is {dim}"
            )
        if not all(p > 0 and math.isfinite(p) for p in probs):
            raise ValueError(
                f"state spec {spec!r}: Schmidt weights must be positive and finite"
            )
        total = sum(probs)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"Schmidt weights sum to {total}, not 1")
    vec = np.zeros(dim * dim, dtype=complex)
    for i, p in enumerate(probs):
        vec[i * dim + i] = math.sqrt(p)
    return PureState(FactorSpace((sender, receiver), (dim, dim)), vec)


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as f:
            f.write(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gaussian_region(args) -> int:
    p = BosonicMacParams(args.eta, args.nsa, args.nsb)
    if args.format == "csv":
        rows = gaussian.region_sweep(args.nsa, args.nsb, [args.eta])
        _write_or_print(gaussian.sweep_csv(rows), args.out)
        return 0
    cmp_ = gaussian.compare_regions(p)
    emit_json({
        "eta": p.eta,
        "nsa": p.nsa,
        "nsb": p.nsb,
        "ea_region": cmp_["ea"].to_json(),
        "ea_region_numeric": gaussian.ea_bosonic_region_numeric(p).to_json(),
        "yen_shapiro": cmp_["ys"].to_json(),
        "sum_gap": cmp_["sum_gap"],
        "ea_contains_ys": cmp_["ea_contains_ys"],
    })
    return 0


def cmd_gaussian_sweep(args) -> int:
    if args.steps < 2:
        raise ValueError(f"steps must be at least 2, got {args.steps}")
    grid = [i / (args.steps - 1) for i in range(args.steps)]
    rows = gaussian.region_sweep(args.nsa, args.nsb, grid)
    _write_or_print(gaussian.sweep_csv(rows), args.out)
    return 0


def cmd_compare_ys(args) -> int:
    p = BosonicMacParams(args.eta, args.nsa, args.nsb)
    cmp_ = gaussian.compare_regions(p)
    emit_json({
        "eta": p.eta,
        "nsa": p.nsa,
        "nsb": p.nsb,
        "sum_gap": cmp_["sum_gap"],
        "ea_contains_ys": cmp_["ea_contains_ys"],
        "ea_region": cmp_["ea"].to_json(),
        "yen_shapiro": cmp_["ys"].to_json(),
        "vertices": cmp_["vertices"],
    })
    return 0


def cmd_simulate_seq(args) -> int:
    channel = _load_channel(args.channel)
    if channel.is_mac:
        raise ValueError("simulate-seq needs a single-sender channel")
    d = channel.in_space.dims[0]
    phi = _shared_state(args.phi, d, channel.in_space.labels[0], "A")
    if args.messages < 1 or args.trials < 1 or args.n < 1:
        raise ValueError("n, messages and trials must be positive")
    _check_delta(args.delta)
    report = seqdecode.ea_sequential_protocol(
        channel, phi, args.n, args.messages, args.delta, args.seed, args.trials
    )
    emit_json(report.to_json())
    return 0


def cmd_simulate_mac(args) -> int:
    channel = _load_channel(args.channel)
    if not channel.is_mac:
        raise ValueError("simulate-mac needs a two-sender channel")
    da, db = channel.in_space.dims
    phi = _shared_state(args.phi, da, channel.in_space.labels[0], "A")
    psi = _shared_state(args.psi, db, channel.in_space.labels[1], "B")
    if args.L < 1 or args.M < 1 or args.n < 1 or args.trials < 1:
        raise ValueError("n, L, M and trials must be positive")
    _check_delta(args.delta)
    d1 = eacode.type_decompose(phi, args.n)
    d2 = eacode.type_decompose(psi, args.n)
    reports = []
    for t in range(args.trials):
        pair = simuldecode.MacCodePair.sample(
            d1, d2, args.L, args.M,
            2 * (args.seed + t), 2 * (args.seed + t) + 1,
        )
        report, _ = simuldecode.run_mac_experiment(
            channel, pair, args.mode, args.delta
        )
        reports.append(report)
    out = reports[0].to_json()
    if args.trials > 1:
        # codebook-level averages over the per-trial exact figures
        for key in ("avg_error", "max_error_randomized", "epsilon_measured"):
            out[key] = sum(r.to_json()[key] for r in reports) / args.trials
        out["error_terms"] = {
            term: sum(r.breakdown[term] for r in reports) / args.trials
            for term in reports[0].breakdown
        }
        out["seeds"] = [args.seed]
    out["trials"] = args.trials
    emit_json(out)
    return 0


def cmd_ea_region(args) -> int:
    channel = _load_channel(args.channel)
    if not channel.is_mac:
        raise ValueError("ea-region needs a two-sender channel")
    da, db = channel.in_space.dims
    phi = _shared_state(args.phi, da, channel.in_space.labels[0], "A")
    psi = _shared_state(args.psi, db, channel.in_space.labels[1], "B")
    if args.kind == "cc":
        emit_json(info.ea_cc_region(channel, phi, psi).to_json())
    elif args.kind == "q":
        emit_json(info.ea_q_region(channel, phi, psi).to_json())
    elif args.kind == "lsd":
        region = info.lsd_q_region(channel, phi, psi)
        out = region.to_json()
        out["raw_bounds"] = list(region.raw_bounds)
        emit_json(out)
    else:
        raise ValueError(f"unknown region kind {args.kind!r}")
    return 0


def cmd_check(args) -> int:
    failures = 0

    def report(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        line = f"[{'PASS' if ok else 'FAIL'}] {name}"
        if detail:
            line += f" ({detail})"
        print(line)
        if not ok:
            failures += 1

    # closed form vs numeric oracle on a coarse grid
    worst = 0.0
    for eta in (0.1, 0.5, 0.9):
        for nsa in (0.5, 10.0):
            for nsb in (1.0, 100.0):
                p = BosonicMacParams(eta, nsa, nsb)
                c = gaussian.ea_bosonic_region(p).bounds()
                o = gaussian.ea_bosonic_region_numeric(p).bounds()
                worst = max(worst, max(abs(x - y) for x, y in zip(c, o)))
    report("bosonic region closed form vs numeric oracle", worst < 1e-9,
           f"max deviation {worst:.2e}")

    # symplectic hand check
    v = gaussian.bosonic_output_state(
        BosonicMacParams(0.5, 1.0, 1.0)
    ).marginal(("A", "C"))
    nus = gaussian.symplectic_eigenvalues(v)
    ok = max(abs(nu - math.sqrt(5)) for nu in nus) < 1e-10
    report("two-mode symplectic spectrum {sqrt5, sqrt5}", ok)

    # sum-rate gap positivity on a deterministic random sample
    rng = np.random.default_rng(20260810)
    gaps = []
    for _ in range(1000):
        p = BosonicMacParams(float(rng.uniform()), float(rng.uniform(0, 50)),
                             float(rng.uniform(0, 50)))
        gaps.append(gaussian.compare_regions(p)["sum_gap"])
    report("sum-rate gap nonnegative", min(gaps) >= -1e-9,
           f"min {min(gaps):.2e}")

    # transpose trick
    phi = _shared_state("0.7,0.3", 2, "Ap", "A")
    decomp = eacode.type_decompose(phi, 2)
    worst = 0.0
    for i, s in enumerate(eacode.enumerate_indices(decomp)):
        if i >= 16:
            break
        worst = max(worst, eacode.transpose_trick_residual(s, decomp))
    report("transpose trick residual", worst < 1e-10, f"max {worst:.2e}")

    # Hayashi-Nagaoka inequality on random qualifying pairs
    ok = True
    for k in range(40):
        dim = int(rng.integers(2, 7))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        s = a @ a.conj().T
        s = s / (np.linalg.eigvalsh(s).max() * (1 + rng.uniform()))
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        t = (b @ b.conj().T) * rng.uniform()
        holds, _ = simuldecode.hayashi_nagaoka_check(s, t)
        ok = ok and holds
    report("Hayashi-Nagaoka operator inequality", ok)

    # randomization identity and POVM completeness on a small instance
    bell = _shared_state("bell", 2, "Ap", "A")
    bell2 = _shared_state("bell", 2, "Bp", "B")
    channel = qmat.named_channel("cnot-mac")
    pair = simuldecode.MacCodePair.sample(
        eacode.type_decompose(bell, 1), eacode.type_decompose(bell2, 1),
        2, 2, 11, 12,
    )
    rep, povm = simuldecode.run_mac_experiment(channel, pair, "simultaneous", 1.0)
    ok = abs(rep.max_error_randomized - rep.avg_error) < 1e-12
    report("shift-randomized max error equals average error", ok,
           f"difference {abs(rep.max_error_randomized - rep.avg_error):.2e}")
    gap = np.linalg.eigvalsh(np.eye(povm.space.dim) - povm.total()).min()
    report("POVM completeness", gap >= -1e-9, f"min identity gap {gap:.2e}")

    print(f"{'all checks passed' if failures == 0 else f'{failures} check(s) failed'}")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmac",
        description=(
            "Entanglement-assisted communication numerics: bosonic rate "
            "regions and finite-dimensional decoder experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gaussian-region",
                       help="closed-form and oracle regions at one grid point")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--nsa", type=float, required=True)
    p.add_argument("--nsb", type=float, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gaussian_region)

    p = sub.add_parser("gaussian-sweep",
                       help="rate regions on a transmissivity grid, as CSV")
    p.add_argument("--nsa", type=float, required=True)
    p.add_argument("--nsb", type=float, required=True)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gaussian_sweep)

    p = sub.add_parser("compare-ys",
                       help="assisted region vs the unassisted outer bound")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--nsa", type=float, required=True)
    p.add_argument("--nsb", type=float, required=True)
    p.set_defaults(func=cmd_compare_ys)

    p = sub.add_parser("simulate-seq",
                       help="sequential decoding over a single-sender channel")
    p.add_argument("--channel", required=True,
                   help="named channel (identity:d, depolarizing:p, "
                        "amplitude-damping:g) or a .json spec path")
    p.add_argument("--phi", default="bell",
                   help='"bell" or comma-separated Schmidt weights')
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--messages", type=int, default=2)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate_seq)

    p = sub.add_parser("simulate-mac",
                       help="successive or simultaneous decoding over a MAC")
    p.add_argument("--channel", required=True,
                   help="cnot-mac, adder-mac, or a .json spec path")
    p.add_argument("--phi", default="bell")
    p.add_argument("--psi", default="bell")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--L", type=int, default=2)
    p.add_argument("--M", type=int, default=2)
    p.add_argument("--mode", choices=("successive", "simultaneous"),
                   default="simultaneous")
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--trials", type=int, default=1,
                   help="codebook pairs to average over")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate_mac)

    p = sub.add_parser("ea-region",
                       help="finite-dimensional assisted region of a MAC")
    p.add_argument("--channel", required=True)
    p.add_argument("--phi", default="bell")
    p.add_argument("--psi", default="bell")
    p.add_argument("--kind", choices=("cc", "q", "lsd"), default="cc")
    p.set_defaults(func=cmd_ea_region)

    p = sub.add_parser("check", help="run the fast invariant suite")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DimensionCapError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except MemoryError:
        print(f"error: {args.command}: the instance is too large for memory",
              file=sys.stderr)
        return 4
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
