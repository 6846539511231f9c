"""The benchmark's workloads: generated argv, output checks, pinned figures.

Each op is one ``qmac`` CLI command.  The workload seed drives a
``random.Random`` that yields each op's codebook seed or photon numbers;
qmac itself only sees the generated argv.  Checks parse every output
strictly and test it against an independent path; they run outside the
timed region.  This module imports qmac only inside the Gaussian check, so
run.py can import it for the workload names alone.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

TOL = 1e-9
# An error term is a trace of a PSD operator against a state, which can
# round to about -1e-16 (the abort term does on some MAC codebooks).
ROUNDING_SLACK = 1e-12


class CheckError(Exception):
    """An op's output failed its correctness check."""


def strict_json(text: str):
    """Parse JSON, rejecting NaN, Infinity and floats that overflow."""
    def constant(name):
        raise CheckError(f"non-finite number {name} in output")

    def finite(s):
        x = float(s)
        if not math.isfinite(x):
            raise CheckError(f"non-finite number {s} in output")
        return x

    try:
        return json.loads(text, parse_constant=constant, parse_float=finite)
    except json.JSONDecodeError as e:
        raise CheckError(f"output is not JSON: {e}") from None


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _in_unit_interval(x, what: str, slack: float = 0.0) -> None:
    _require(-slack <= x <= 1.0 + slack, f"{what} = {x} outside [0, 1]")


def compare_figures(got, want, where: str = "figures") -> None:
    """Numbers within TOL, everything else equal, recursively."""
    if isinstance(want, dict):
        _require(isinstance(got, dict) and got.keys() == want.keys(),
                 f"{where}: keys differ")
        for k in want:
            compare_figures(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        _require(isinstance(got, list) and len(got) == len(want),
                 f"{where}: lengths differ")
        for i, (g, w) in enumerate(zip(got, want)):
            compare_figures(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        _require(isinstance(got, (int, float)) and abs(got - want) <= TOL,
                 f"{where}: {got} differs from reference {want} by more than {TOL}")
    else:
        _require(got == want, f"{where}: {got!r} != reference {want!r}")


# ---------------------------------------------------------------------------
# mac-simultaneous
# ---------------------------------------------------------------------------

MAC_ARGV = ["simulate-mac", "--channel", "cnot-mac", "--n", "2",
            "--L", "4", "--M", "4", "--mode", "simultaneous"]


def mac_argv(rng: random.Random) -> list[str]:
    return MAC_ARGV + ["--seed", str(rng.randrange(1 << 20))]


def check_mac(argv, stdout: str, out_path) -> dict:
    rep = strict_json(stdout)
    seed = int(argv[argv.index("--seed") + 1])
    _require((rep["n"], rep["L"], rep["M"], rep["trials"]) == (2, 4, 4, 1),
             "report echoes the wrong n, L, M or trials")
    _require(rep["seeds"] == [2 * seed, 2 * seed + 1], "report echoes wrong seeds")
    for key in ("avg_error", "max_error_randomized", "epsilon_measured"):
        _in_unit_interval(rep[key], key)
    terms = rep["error_terms"]
    for key, value in terms.items():
        _in_unit_interval(value, f"error_terms.{key}", ROUNDING_SLACK)
    # the breakdown sums off-diagonal and abort weights; avg_error is 1 minus
    # the diagonal: two paths to one number
    _require(abs(terms["total"] - rep["avg_error"]) <= TOL,
             f"error_terms.total {terms['total']} != avg_error {rep['avg_error']}")
    # shift randomization leaves every pair at the average error
    _require(abs(rep["max_error_randomized"] - rep["avg_error"]) <= TOL,
             "max_error_randomized differs from avg_error")
    _require(rep["epsilon_measured"] >= rep["avg_error"] - TOL,
             "worst pairwise error below the average error")
    return {k: rep[k] for k in ("avg_error", "max_error_randomized",
                                "epsilon_measured", "error_terms")}


# ---------------------------------------------------------------------------
# seq-packing
# ---------------------------------------------------------------------------

SEQ_ARGV = ["simulate-seq", "--channel", "amplitude-damping:0.3",
            "--phi", "0.7,0.3", "--n", "3", "--messages", "4", "--trials", "5"]


def seq_argv(rng: random.Random) -> list[str]:
    return SEQ_ARGV + ["--seed", str(rng.randrange(1 << 20))]


def check_seq(argv, stdout: str, out_path) -> dict:
    rep = strict_json(stdout)
    seed = int(argv[argv.index("--seed") + 1])
    _require((rep["n"], rep["message_count"], rep["trials"], rep["seed"])
             == (3, 4, 5, seed), "report echoes the wrong n, messages, trials or seed")
    _in_unit_interval(rep["success_mean"], "success_mean")
    _in_unit_interval(rep["bound"], "bound")
    _require(rep["success_stderr"] >= 0, "negative success_stderr")
    for key in ("epsilon", "d", "D"):
        _require(isinstance(rep[key], float) and math.isfinite(rep[key]),
                 f"{key} is not a finite number")
    return {k: rep[k] for k in ("success_mean", "success_stderr", "bound",
                                "bound_condition_holds", "epsilon", "d", "D")}


# ---------------------------------------------------------------------------
# gaussian-sweep
# ---------------------------------------------------------------------------

GAUSS_STEPS = 100001
GAUSS_ARGV = ["gaussian-sweep", "--steps", str(GAUSS_STEPS)]
GAUSS_HEADER = "eta,r1,r2,sum,ys_r1,ys_r2,ys_sum,sum_gap"
GAUSS_SAMPLES = 256        # interior rows per op checked against the oracle
GAUSS_PINNED_EVERY = 1000  # rows kept as figures: 0, 1000, ..., 100000
# The symplectic oracle loses accuracy where the AC or BC marginal is nearly
# pure: against 50-digit arithmetic it is off by up to 2e-8 at eta = 0 or 1
# and 2e-9 one grid step inside, while the closed form stays within 3e-12.
# Oracle rows are therefore drawn from eta in [0.001, 0.999], where its
# error was below 1e-10, and the two end rows are checked against the exact
# pure-marginal reduction instead.
GAUSS_ORACLE_MARGIN = 0.001


def gauss_argv(rng: random.Random) -> list[str]:
    nsa = 10 ** rng.uniform(0.0, 3.0)
    nsb = 10 ** rng.uniform(0.0, 2.0)
    return GAUSS_ARGV + ["--nsa", f"{nsa:.6g}", "--nsb", f"{nsb:.6g}"]


def _close(row, want, where: str) -> None:
    worst = max(abs(a - b) for a, b in zip(row, want))
    _require(worst <= TOL, f"{where}: region differs by {worst:.3e}")


def check_gauss(argv, stdout: str, out_path) -> dict:
    from qmac import gaussian

    g = gaussian.g_entropy
    _require(stdout == "", "gaussian-sweep --out printed to stdout")
    _require(out_path is not None, "no CSV written")
    nsa = float(argv[argv.index("--nsa") + 1])
    nsb = float(argv[argv.index("--nsb") + 1])
    steps = int(argv[argv.index("--steps") + 1])
    last = steps - 1
    margin = round(GAUSS_ORACLE_MARGIN * last)
    picker = random.Random(" ".join(argv[:argv.index("--out")]))
    picks = set(picker.sample(range(margin, last - margin + 1),
                              min(GAUSS_SAMPLES, last - 2 * margin + 1)))
    pinned, oracle_rows, ends = [], {}, {}
    ga, gb = g(nsa), g(nsb)
    with open(out_path) as f:
        _require(f.readline() == GAUSS_HEADER + "\n", "wrong CSV header")
        count = 0
        for i, line in enumerate(f):
            count += 1
            vals = [float(x) for x in line.split(",")]
            _require(len(vals) == 8 and all(map(math.isfinite, vals)),
                     f"row {i} malformed or non-finite")
            eta, _, _, _, ys_r1, ys_r2, ys_sum, gap = vals
            _require(abs(eta - i / last) <= 1e-12, f"row {i}: eta off grid")
            # the unassisted bound and the sum gap, row by row
            if not (abs(ys_r1 - ga) <= TOL and abs(ys_r2 - gb) <= TOL
                    and abs(ys_sum - g(eta * nsa + (1 - eta) * nsb)) <= TOL
                    and abs(gap - (ga + gb - g(eta * nsb + (1 - eta) * nsa))) <= TOL):
                raise CheckError(f"row {i}: outer bound or sum gap differs from g")
            _require(gap >= -TOL, f"row {i}: sum_gap {gap} < -{TOL}")
            if i % GAUSS_PINNED_EVERY == 0:
                pinned.append(vals)
            if i in picks:
                oracle_rows[i] = vals
            if i in (0, last):
                ends[i] = vals
    _require(count == steps, f"{count} rows, expected {steps}")
    for i, vals in sorted(oracle_rows.items()):
        params = gaussian.BosonicMacParams(i / last, nsa, nsb)
        _close(vals[1:4], gaussian.ea_bosonic_region_numeric(params).bounds(),
               f"row {i} against the symplectic oracle")
    # eta = 1 sends A' to the receiver and B' to the environment, so AC is
    # pure and r1 = sum = 2 g(nsa), r2 = 0; eta = 0 swaps the senders
    _close(ends[0][1:4], (0.0, 2 * gb, 2 * gb), "row 0 against eta = 0 reduction")
    _close(ends[last][1:4], (2 * ga, 0.0, 2 * ga),
           f"row {last} against eta = 1 reduction")
    return {"rows": pinned}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    make_argv: Callable[[random.Random], list]
    check: Callable[..., dict]     # (argv, stdout, CSV path or None) -> figures
    writes_file: bool = False
    codewords_per_op: int = 0
    # the op whose calls the traced run counts twice, by wrapper and by a
    # trace hook that slows every Python call; defaults to the pinned op
    verify_argv: tuple = ()


WORKLOADS = {
    w.name: w for w in (
        Workload("mac-simultaneous", mac_argv, check_mac, codewords_per_op=16),
        Workload("seq-packing", seq_argv, check_seq),
        Workload("gaussian-sweep", gauss_argv, check_gauss, writes_file=True,
                 verify_argv=("gaussian-sweep", "--steps", "1001",
                              "--nsa", "1000", "--nsb", "10")),
    )
}
