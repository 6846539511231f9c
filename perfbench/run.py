"""qmac benchmark: fixed CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload mac-simultaneous --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Run from anywhere inside a source checkout; qmac is imported from its
``src/``.  One run is a closed loop with a single client in one child
process (child.py).  With ``--trace 0`` two more children run only the
set-up, so ``setup_s`` is a median of three.  With ``--trace 1`` the child
wraps qmac's layers in spans (spans.py) and the run reports per-layer
metrics instead.  The last stdout line is the result as JSON; the lines
before it give provenance and every metric by name with its unit.  The
exit code is 0 only when every correctness check passed.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from spans import metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def git_revision():
    """HEAD of the checkout's own .git, read from files; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qmac").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def spawn(args, role: str, deadline: float):
    """Run child.py to completion; returns (parsed last line or None, max RSS KiB)."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role, "--t0", repr(t0)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env)
    chunks = []
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                print(f"error: {role} child overran the run limit", file=sys.stderr)
                proc.kill()
                break
            if sel.select(left):
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    # wait4 on this pid alone: its max RSS, not the maximum over all children
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    lines = b"".join(chunks).decode().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: {role} child exited with {proc.returncode}", file=sys.stderr)
        return None, usage.ru_maxrss
    return json.loads(lines[-1]), usage.ru_maxrss


def run_workload(args) -> tuple[dict | None, list[str]]:
    """Run one workload; returns (result JSON or None, human-readable lines)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = []
    problems = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            res, _ = spawn(args, "setup", deadline)
            if res is None:
                return None, []
            setups.append(res["setup_s"])
            problems += res["problems"]
    main, rss_kib = spawn(args, "main", deadline)
    if main is None:
        return None, []
    problems += main["problems"]
    setups.append(main["setup_s"])

    ops = main["ops"]
    attempted = len(ops)
    failed = sum(1 for _, ok, _ in ops if not ok)
    timed = sum(t for t, _, _ in ops)
    prov = dict(main["provenance"], git_revision=git_revision(),
                src_sha256=source_digest(), workload=args.workload,
                seed=args.seed, seconds=args.seconds, trace=args.trace,
                ops=attempted, timed_s=timed, op_s=[t for t, _, _ in ops],
                setup_samples=setups)
    lines = [f"provenance {json.dumps(prov)}"]
    lines += [f"problem: {p}" for p in problems]
    if args.trace:
        units = metric_units()
        values = main["layers"]
        metrics = {k: {"value": values[k], "unit": units[k][0]} for k in units}
    else:
        values = {
            "ops_per_s": (attempted - failed) / timed,
            "op_s_p50": statistics.median(t for t, _, _ in ops),
            "peak_rss_mb": rss_kib / 1024.0,
            "setup_s": statistics.median(setups),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    for name, m in metrics.items():
        lines.append(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    lines.append(f"{args.workload}  failed_frac = {failed / attempted:.6g} ratio "
                 f"({failed} of {attempted} ops, {timed:.2f} s timed)")
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qmac" / "cli.py").is_file():
        print(f"error: no qmac sources under {ROOT / 'src'}; run from a "
              "qmac checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        args.workload = name
        result, lines = run_workload(args)
        if result is None:
            return 1
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        all_correct = all_correct and result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
