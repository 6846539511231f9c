"""One workload run, in its own process; started by run.py.

    python3 perfbench/child.py --workload NAME --seed N --seconds S
        --trace 0|1 --role main|setup --t0 MONOTONIC

The child imports qmac from ``src/`` and runs the workload's pinned
reference op untimed as the warm-up; set-up ends there.  In the ``main``
role it checks that op against reference.json and runs generated ops back
to back until their summed wall time reaches ``--seconds``.  Each op is
one in-process ``qmac.cli.main(argv)`` call with stdout captured; its check
runs after its timer stops.  The last stdout line is one JSON object for
run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(np, qmat) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "QMAC_DIM_CAP": os.environ.get("QMAC_DIM_CAP"),
        "dimension_cap": qmat.dimension_cap(),
    }


def run_op(cli, argv):
    """(error or None, wall seconds, captured stdout) of one CLI call."""
    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            error = f"exit code {code}"
    except (Exception, SystemExit) as e:
        error = f"raised {type(e).__name__}: {e}"
    return error, time.perf_counter() - start, buf.getvalue()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--role", choices=("main", "setup"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from qmac import cli, eacode, gaussian, qmat, seqdecode, simuldecode, typicality

    import spans
    from workloads import WORKLOADS, CheckError, compare_figures

    wl = WORKLOADS[args.workload]
    with open(HERE / "reference.json") as f:
        reference = json.load(f)[wl.name]
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"out-{os.getpid()}.csv"
    out_args = ["--out", str(out_path)] if wl.writes_file else []
    problems = []

    def inspect(argv, error, stdout):
        """Hash and check one op's output: (error or None, output, figures).

        ``output`` is the SHA-256 and byte count of stdout plus any CSV.
        """
        written = out_path if wl.writes_file and out_path.exists() else None
        digest = hashlib.sha256(stdout.encode())
        size = len(stdout.encode())
        if written is not None:
            with open(written, "rb") as f:
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    digest.update(chunk)
                    size += len(chunk)
        figures = None
        if error is None:
            try:
                figures = wl.check(argv, stdout, written)
            except (CheckError, KeyError, TypeError, ValueError) as e:
                error = f"check failed: {type(e).__name__}: {e}"
        if wl.writes_file:
            out_path.unlink(missing_ok=True)
        return error, (digest.hexdigest(), size), figures

    def attempt(argv, tracer=None, op=None):
        """Run and inspect one op: (error or None, seconds, output).

        With a tracer, its wrappers are bound for this op alone and its
        spans are tagged ``op``.
        """
        if tracer is not None:
            tracer.op = op
            tracer.attach()
        try:
            error, elapsed, stdout = run_op(cli, argv)
        finally:
            if tracer is not None:
                tracer.detach()
        error, output, _ = inspect(argv, error, stdout)
        return error, elapsed, output

    try:
        # the warm-up is the pinned op; set-up ends when it returns, before
        # its output is checked
        ref_argv = reference["argv"] + out_args
        error, _, stdout = run_op(cli, ref_argv)
        result = {"setup_s": time.monotonic() - args.t0, "problems": problems,
                  "provenance": provenance(np, qmat)}
        if args.role == "setup":
            if error is not None:
                problems.append(f"warm-up op: {error}")
            print(json.dumps(result))
            return 0
        error, ref_output, figures = inspect(ref_argv, error, stdout)
        if error is None:
            try:
                compare_figures(figures, reference["figures"])
            except CheckError as e:
                error = str(e)
        if error is not None:
            problems.append(f"reference op: {error}")

        tracer = None
        if args.trace:
            bad = spans.check_self_time_arithmetic()
            if bad:
                problems.append(f"self-time arithmetic: {bad}")
            tracer = spans.Tracer()
            tracer.wrap({"cli": cli, "qmat": qmat, "eacode": eacode,
                         "typicality": typicality, "seqdecode": seqdecode,
                         "simuldecode": simuldecode, "gaussian": gaussian})
            error, _, traced_output = attempt(ref_argv, tracer, -1)
            if error is not None or traced_output != ref_output:
                problems.append(f"traced reference op output differs from "
                                f"untraced ({error or 'bytes differ'})")
            tracer.reset()
            tracer.verify_calls = True
            error, _, _ = attempt(
                list(wl.verify_argv or reference["argv"]) + out_args, tracer, -2)
            tracer.verify_calls = False
            if error is not None:
                problems.append(f"call-count op: {error}")
            problems += [f"wrapper missed calls: {m}" for m in tracer.missed_calls(-2)]
            tracer.reset()

        # With tracing, even ops are traced and odd ops run bare; the two
        # medians give the tracing overhead on the same inputs and machine.
        rng = random.Random(args.seed)
        ops = []
        traced_bytes = 0
        timed = 0.0
        while timed < args.seconds or (tracer is not None and len(ops) < 2):
            argv = wl.make_argv(rng) + out_args
            traced = tracer is not None and len(ops) % 2 == 0
            error, elapsed, output = attempt(
                argv, tracer if traced else None, len(ops))
            timed += elapsed
            if traced:
                traced_bytes += output[1]
            if error is not None:
                print(f"op {len(ops)} {argv}: {error}", file=sys.stderr)
            ops.append([elapsed, error is None, traced])
        result["ops"] = ops

        if tracer is not None:
            traced_s = [t for t, _, tr in ops if tr]
            bare_s = [t for t, _, tr in ops if not tr]
            result["layers"] = spans.layer_metrics(
                tracer, len(traced_s), wl.codewords_per_op, traced_bytes,
                statistics.median(traced_s) / statistics.median(bare_s) - 1.0)
            tracer.write(OUT_DIR / f"spans-{wl.name}.tsv")
    finally:
        out_path.unlink(missing_ok=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
