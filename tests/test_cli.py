"""Command-line interface: determinism, formats, exit codes."""

import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from qmac import cli, eacode, gaussian, qmat, seqdecode, simuldecode, typicality


GOLDEN_MAC_N2_SEED0 = """\
{
  "n": 2,
  "L": 4,
  "M": 4,
  "mode": "simultaneous",
  "avg_error": 0.90625,
  "max_error_randomized": 0.90625,
  "epsilon_measured": 0.90625,
  "seeds": [
    0,
    1
  ],
  "error_terms": {
    "wrong_alice": 0.15625,
    "wrong_bob": 0.28125,
    "wrong_both": 0.46875,
    "abort": -4.4408920985e-16,
    "total": 0.90625
  },
  "trials": 1
}
"""

GOLDEN_SEQ_N3_SEED0 = """\
{
  "success_mean": 0.52811886645,
  "success_stderr": 0.0173007718574,
  "bound": 0.0,
  "bound_condition_holds": false,
  "epsilon": 0.022842,
  "d": 13.4175958352,
  "D": 2.91545189504,
  "n": 3,
  "message_count": 4,
  "seed": 0,
  "trials": 5
}
"""


# The successive decoder pinned byte for byte.  The dense POVM printed each
# of these identically, except that the abort term of the cnot-mac n = 2
# run, an exact zero, printed 0.0 there and its rounding residual here.  The
# adder-mac n = 3 run is the dense POVM's output, which took 38 s and 1.8 GB.
GOLDEN_SUCCESSIVE = {
    ("--channel", "cnot-mac", "--n", "2", "--L", "2", "--M", "3",
     "--seed", "5"): """\
{
  "n": 2,
  "L": 2,
  "M": 3,
  "mode": "successive",
  "avg_error": 0.75,
  "max_error_randomized": 0.75,
  "epsilon_measured": 1.0,
  "seeds": [
    10,
    11
  ],
  "error_terms": {
    "wrong_alice": 0.0833333333333,
    "wrong_bob": 0.5,
    "wrong_both": 0.166666666667,
    "abort": -2.22044604925e-16,
    "total": 0.75
  },
  "trials": 1
}
""",
    ("--channel", "adder-mac", "--n", "1", "--L", "3", "--M", "2",
     "--delta", "1.5", "--seed", "5"): """\
{
  "n": 1,
  "L": 3,
  "M": 2,
  "mode": "successive",
  "avg_error": 0.833333333333,
  "max_error_randomized": 0.833333333333,
  "epsilon_measured": 1.0,
  "seeds": [
    10,
    11
  ],
  "error_terms": {
    "wrong_alice": 0.333333333333,
    "wrong_bob": 0.166666666667,
    "wrong_both": 0.333333333333,
    "abort": 0.0,
    "total": 0.833333333333
  },
  "trials": 1
}
""",
    ("--channel", "adder-mac", "--n", "3", "--L", "2", "--M", "2"): """\
{
  "n": 3,
  "L": 2,
  "M": 2,
  "mode": "successive",
  "avg_error": 0.5625,
  "max_error_randomized": 0.5625,
  "epsilon_measured": 0.90625,
  "seeds": [
    0,
    1
  ],
  "error_terms": {
    "wrong_alice": 0.21484375,
    "wrong_bob": 0.203125,
    "wrong_both": 0.109375,
    "abort": 0.03515625,
    "total": 0.5625
  },
  "trials": 1
}
""",
}

# Region commands pinned byte for byte: each output must equal
# json.dumps(figures, indent=2) plus a newline, the figures printed at 12
# significant digits.  Together they cover the pentagon vertices (five-,
# three-, four- and one-vertex regions), the clamping of negative bounds and
# the raw bounds of the catalytic region.
GOLDEN_REGIONS = {
    ("gaussian-region", "--eta", "0.5", "--nsa", "10", "--nsb", "10"): {
        "eta": 0.5, "nsa": 10.0, "nsb": 10.0,
        "ea_region": {
            "r1": 8.67111367031, "r2": 8.67111367031, "sum": 9.66893371227,
            "vertices": [[0.0, 0.0], [8.67111367031, 0.0],
                         [8.67111367031, 0.997820041966],
                         [0.997820041966, 8.67111367031],
                         [0.0, 8.67111367031]],
        },
        "ea_region_numeric": {
            "r1": 8.67111367031, "r2": 8.67111367031, "sum": 9.66893371227,
            "vertices": [[0.0, 0.0], [8.67111367031, 0.0],
                         [8.67111367031, 0.997820041966],
                         [0.997820041966, 8.67111367031],
                         [0.0, 8.67111367031]],
        },
        "yen_shapiro": {
            "r1": 4.83446685614, "r2": 4.83446685614, "sum": 4.83446685614,
            "vertices": [[0.0, 0.0], [4.83446685614, 0.0],
                         [0.0, 4.83446685614]],
        },
        "sum_gap": 4.83446685614,
        "ea_contains_ys": True,
    },
    ("compare-ys", "--eta", "0.95", "--nsa", "1", "--nsb", "1"): {
        "eta": 0.95, "nsa": 1.0, "nsb": 1.0,
        "sum_gap": 2.0,
        "ea_contains_ys": False,
        "ea_region": {
            "r1": 3.93174174403, "r2": 0.907877012359, "sum": 4.0,
            "vertices": [[0.0, 0.0], [3.93174174403, 0.0],
                         [3.93174174403, 0.0682582559705],
                         [3.09212298764, 0.907877012359],
                         [0.0, 0.907877012359]],
        },
        "yen_shapiro": {
            "r1": 2.0, "r2": 2.0, "sum": 2.0,
            "vertices": [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]],
        },
        "vertices": [{"vertex": [0.0, 0.0], "inside_ea": True},
                     {"vertex": [2.0, 0.0], "inside_ea": True},
                     {"vertex": [0.0, 2.0], "inside_ea": False}],
    },
    ("ea-region", "--channel", "cnot-mac", "--kind", "cc"): {
        "r1": 1.0, "r2": 1.0, "sum": 2.0,
        "vertices": [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
    },
    ("ea-region", "--channel", "cnot-mac", "--kind", "lsd"): {
        "r1": 0.0, "r2": 0.0, "sum": 0.0,
        "vertices": [[0.0, 0.0]],
        "raw_bounds": [0.0, 0.0, 0.0],
    },
    ("ea-region", "--channel", "adder-mac", "--kind", "lsd",
     "--phi", "0.7,0.3"): {
        "r1": 0.0, "r2": 0.0, "sum": 0.0,
        "vertices": [[0.0, 0.0]],
        "raw_bounds": [0.0, 0.0, -0.440645449615],
    },
}


# gaussian-sweep CSVs pinned byte for byte.  The rows cover eta = 0 and
# eta = 1, and r1 at (0, 7), which is exactly zero: the difference form of g
# printed residuals of 4.9e-15 and 2.7e-14 at eta = 0.2 and 0.9.  The clamp
# of a negative residual is pinned by test_gaussian's
# test_negative_residuals_clamp_to_zero.
GOLDEN_SWEEPS = {
    ("1000", "10"): """\
eta,r1,r2,sum,ys_r1,ys_r2,ys_sum,sum_gap
0,0,9.66893371227,9.66893371227,11.4092004327,4.83446685614,4.83446685614,4.83446685614
0.1,13.0722670496,9.66725494752,13.2022657276,11.4092004327,4.83446685614,8.21747708703,4.98478864052
0.2,14.2399786887,9.66515924525,14.2992119909,11.4092004327,4.83446685614,9.14659723156,5.15261475932
0.3,15.014854024,9.66246925324,15.0497027616,11.4092004327,4.83446685614,9.70713700538,5.34256575621
0.4,15.6486805687,9.65889041096,15.6711801024,11.4092004327,4.83446685614,10.1098062192,5.56137388324
0.5,16.2286285326,9.65389495601,16.2436672889,11.4092004327,4.83446685614,10.4242620875,5.81940520133
0.6,16.806111174,9.6464341786,16.8161544753,11.4092004327,4.83446685614,10.6822934056,6.1338610697
0.7,17.4311673571,9.63408497472,17.4376318162,11.4092004327,4.83446685614,10.9011015327,6.53653028349
0.8,18.1843481199,9.60970041012,18.1881225869,11.4092004327,4.83446685614,11.0910525296,7.09707005732
0.9,19.2833900855,9.53893503427,19.2850688502,11.4092004327,4.83446685614,11.2588786484,8.02619020185
1,22.8184008655,0,22.8184008655,11.4092004327,4.83446685614,11.4092004327,11.4092004327
""",
    ("0", "7"): """\
eta,r1,r2,sum,ys_r1,ys_r2,ys_sum,sum_gap
0,0,8.69703109119,8.69703109119,0,4.3485155456,4.3485155456,4.3485155456
0.1,0,6.89383292269,6.89383292269,0,4.3485155456,4.20692766689,2.6869052558
0.2,0,6.04671605899,6.04671605899,0,4.3485155456,4.04988552936,1.99683052963
0.3,0,5.4098893263,5.4098893263,0,4.3485155456,3.87358766018,1.53630166612
0.4,0,4.86153813494,4.86153813494,0,4.3485155456,3.67262526378,1.18891287116
0.5,0,4.3485155456,4.3485155456,0,4.3485155456,3.43892027929,0.909595266308
0.6,0,3.83549295626,3.83549295626,0,4.3485155456,3.15960267444,0.675890281821
0.7,0,3.28714176489,3.28714176489,0,4.3485155456,2.81221387948,0.474927885414
0.8,0,2.6503150322,2.6503150322,0,4.3485155456,2.35168501596,0.298630016241
0.9,0,1.80319816851,1.80319816851,0,4.3485155456,1.6616102898,0.141587878709
1,0,0,0,0,4.3485155456,0,0
""",
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEmitJson:
    def test_refuses_non_finite(self, capsys):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                cli.emit_json({"x": bad})
        assert capsys.readouterr().out == ""


class TestGoldenRegions:
    @pytest.mark.parametrize("argv", list(GOLDEN_REGIONS), ids=" ".join)
    def test_output(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == json.dumps(GOLDEN_REGIONS[argv], indent=2) + "\n"


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv, named", [
        (("gaussian-sweep", "--nsa", "1", "--nsb", "nan"), "nsb"),
        (("gaussian-sweep", "--nsa", "inf", "--nsb", "1"), "nsa"),
        (("gaussian-region", "--eta", "0.5", "--nsa", "nan", "--nsb", "1"),
         "nsa"),
        (("gaussian-region", "--eta", "nan", "--nsa", "1", "--nsb", "1"),
         "eta"),
        (("gaussian-region", "--format", "csv", "--eta", "nan", "--nsa", "1",
          "--nsb", "1"), "eta"),
        (("compare-ys", "--eta", "0.5", "--nsa", "1", "--nsb", "inf"), "nsb"),
        (("simulate-seq", "--channel", "identity:2", "--phi", "0.5,nan"),
         "0.5,nan"),
        (("simulate-mac", "--channel", "cnot-mac", "--psi", "inf,0.5"),
         "inf,0.5"),
        (("ea-region", "--channel", "cnot-mac", "--phi", "nan,0.5"),
         "nan,0.5"),
    ], ids=lambda x: " ".join(x) if isinstance(x, tuple) else x)
    def test_exit_2_names_input(self, capsys, argv, named):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert named in err


class TestSeedRange:
    # the codebook generator takes keys in [0, 2^128): seed + t for
    # simulate-seq, 2 (seed + t) and 2 (seed + t) + 1 for simulate-mac
    @pytest.mark.parametrize("argv", [
        ("simulate-seq", "--channel", "identity:2", "--seed", "-1"),
        ("simulate-seq", "--channel", "identity:2", "--seed", str(2**128)),
        ("simulate-mac", "--channel", "cnot-mac", "--seed", "-1"),
        ("simulate-mac", "--channel", "cnot-mac", "--seed", str(2**128)),
        # the second trial's keys are 2^128 and 2^128 + 1
        ("simulate-mac", "--channel", "cnot-mac", "--trials", "2",
         "--seed", str(2**127 - 1)),
    ], ids=" ".join)
    def test_exit_2_names_seed(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "--seed" in err

    def test_largest_seq_seed_runs(self, capsys):
        code, out, _ = run(capsys, "simulate-seq", "--channel", "identity:2",
                           "--trials", "2", "--seed", str(2**128 - 2))
        assert code == 0
        assert json.loads(out)["seed"] == 2**128 - 2


class TestOutOfRangeSpec:
    @pytest.mark.parametrize("spec", [
        "depolarizing:nan", "identity:0", "amplitude-damping:2",
    ])
    def test_exit_2_names_spec(self, capsys, spec):
        code, out, err = run(capsys, "simulate-seq", "--channel", spec)
        assert code == 2 and out == ""
        assert f"named channel {spec!r}:" in err


class TestNonNumericSpec:
    @pytest.mark.parametrize("argv, named", [
        (("simulate-seq", "--channel", "depolarizing:abc"),
         "named channel 'depolarizing:abc'"),
        (("simulate-seq", "--channel", "identity:x"), "named channel 'identity:x'"),
        (("simulate-mac", "--channel", "cnot-mac", "--phi", "0.5,abc"),
         "state spec '0.5,abc'"),
    ], ids=["depolarizing:abc", "identity:x", "phi 0.5,abc"])
    def test_exit_2_names_spec(self, capsys, argv, named):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert named in err


class TestGaussianRegion:
    def test_symmetric_sum(self, capsys):
        code, out, _ = run(capsys, "gaussian-region", "--eta", "0.5",
                           "--nsa", "10", "--nsb", "10")
        assert code == 0
        obj = json.loads(out)
        assert np.isclose(obj["ea_region"]["sum"],
                          2 * gaussian.g_entropy(10.0), atol=1e-9)
        assert obj["ea_contains_ys"] in (True, False)

    def test_validation_exit_2(self, capsys):
        code, _, err = run(capsys, "gaussian-region", "--eta", "1.2",
                           "--nsa", "1", "--nsb", "1")
        assert code == 2
        assert "eta" in err

    def test_fig2a_contains_flag(self, capsys):
        code, out, _ = run(capsys, "gaussian-region", "--eta", "0.5",
                           "--nsa", "10", "--nsb", "8")
        assert code == 0
        assert json.loads(out)["ea_contains_ys"] is True

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "gaussian-region", "--eta", "0.3",
                        "--nsa", "2", "--nsb", "7")
        parsed = json.loads(out)
        capsys.readouterr()
        cli.emit_json(parsed)
        again = capsys.readouterr().out
        assert again == out

    def test_csv_format_single_row(self, capsys):
        code, out, _ = run(capsys, "gaussian-region", "--eta", "0.25",
                           "--nsa", "3", "--nsb", "4", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == gaussian.SWEEP_CSV_HEADER
        assert len(lines) == 2 and lines[1].startswith("0.25,")

    def test_oracle_failure_names_the_photon_numbers(self, capsys):
        # the oracle's covariance fails its symmetry check at Na = 10^6
        code, out, err = run(capsys, "gaussian-region", "--nsa", "1e6",
                             "--nsb", "1", "--eta", "0.3")
        assert code == 2 and out == ""
        assert "nsa = 1000000.0" in err and "nsb = 1.0" in err
        assert "not symmetric" in err


def estimated_bytes(monkeypatch, *argv) -> int:
    """The byte estimate of an admitted ``simulate-*`` run: the count of its
    last check before the decoder forms V (:func:`qmat.require_bytes`),
    taken by running it in process up to that check.  The command checks
    up front and the decoder on entry; the simultaneous decoder checks once
    more, with the real q."""
    class Estimated(Exception):
        pass

    last = 3 if argv[0] == "simulate-mac" and "successive" not in argv else 2
    require, needs = qmat.require_bytes, []

    def record(need):
        needs.append(require(need))
        if len(needs) == last:
            raise Estimated(max(needs))
        return need

    with monkeypatch.context() as m:
        m.setattr(qmat, "require_bytes", record)
        with pytest.raises(Estimated) as caught:
            cli.main(list(argv))
    return caught.value.args[0]


def run_under_address_limit(limit: int, *argv):
    """Run ``python -m qmac *argv`` in a child with a soft RLIMIT_AS."""
    def set_limit():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "qmac", *argv], env=env,
                          preexec_fn=set_limit, capture_output=True,
                          text=True, timeout=120)


class TestParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_reused_parser_prints_what_a_fresh_process_prints(self, capsys):
        # main twice in one process, around an argv that exits 2, prints the
        # bytes of a fresh run
        good = ("simulate-seq", "--channel", "identity:2", "--n", "2",
                "--trials", "3")
        bad = ("simulate-seq", "--channel", "identity:2", "--n", "two")
        limit = resource.getrlimit(resource.RLIMIT_AS)[0]
        fresh_good = run_under_address_limit(limit, *good)
        fresh_bad = run_under_address_limit(limit, *bad)
        assert (fresh_good.returncode, fresh_bad.returncode) == (0, 2)
        code, first, _ = run(capsys, *good)
        with pytest.raises(SystemExit) as caught:
            cli.main(list(bad))
        assert caught.value.code == 2
        assert capsys.readouterr().err == fresh_bad.stderr
        again, second, _ = run(capsys, *good)
        assert code == again == 0
        assert first == second == fresh_good.stdout


class TestGaussianSweep:
    def test_two_steps_two_rows(self, capsys):
        code, out, _ = run(capsys, "gaussian-sweep", "--nsa", "1",
                           "--nsb", "2", "--steps", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == gaussian.SWEEP_CSV_HEADER
        assert len(lines) == 3

    def test_steps_validation(self, capsys):
        code, _, err = run(capsys, "gaussian-sweep", "--nsa", "1",
                           "--nsb", "1", "--steps", "1")
        assert code == 2 and "steps" in err

    def test_file_regenerated_bit_identically(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "gaussian-sweep", "--nsa", "1000",
                         "--nsb", "10", "--steps", "101",
                         "--out", str(target))
        assert code == 0
        first = target.read_bytes()
        assert len(first.decode().strip().split("\n")) == 102
        code, _, _ = run(capsys, "gaussian-sweep", "--nsa", "1000",
                         "--nsb", "10", "--steps", "101",
                         "--out", str(target))
        assert code == 0
        assert target.read_bytes() == first

    def test_unwritable_path_exit_3(self, capsys, tmp_path):
        bogus = tmp_path / "missing" / "sweep.csv"
        code, _, err = run(capsys, "gaussian-sweep", "--nsa", "1",
                           "--nsb", "1", "--steps", "2", "--out", str(bogus))
        assert code == 3

    def test_spot_row_matches_region_command(self, capsys):
        _, sweep_out, _ = run(capsys, "gaussian-sweep", "--nsa", "1000",
                              "--nsb", "10", "--steps", "3")
        row = sweep_out.strip().split("\n")[2].split(",")  # eta = 0.5
        _, reg_out, _ = run(capsys, "gaussian-region", "--eta", "0.5",
                            "--nsa", "1000", "--nsb", "10")
        obj = json.loads(reg_out)
        assert float(row[0]) == 0.5
        assert float(row[1]) == obj["ea_region"]["r1"]
        assert float(row[7]) == obj["sum_gap"]

    @pytest.mark.parametrize("steps", [
        2, cli.SWEEP_BLOCK_ROWS - 1, cli.SWEEP_BLOCK_ROWS,
        cli.SWEEP_BLOCK_ROWS + 1, 2 * cli.SWEEP_BLOCK_ROWS + 1])
    def test_blocks_write_the_one_grid_csv(self, capsys, tmp_path, steps):
        # written block by block, the CSV is that of one sweep over the grid
        want = gaussian.sweep_csv(gaussian.region_sweep(
            37.2, 5.1, np.arange(steps) / (steps - 1)))
        argv = ("gaussian-sweep", "--nsa", "37.2", "--nsb", "5.1",
                "--steps", str(steps))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == want
        target = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_bytes() == want.encode()

    @pytest.mark.parametrize("flag, value", [
        ("--nsa", "nan"), ("--nsa", "-1"), ("--nsb", "inf"), ("--nsb", "-2"),
        ("--steps", "1"), ("--steps", "-5")])
    def test_bad_input_prints_nothing_and_creates_no_file(
            self, capsys, tmp_path, flag, value):
        argv = {"--nsa": "1", "--nsb": "1", "--steps": "20000", flag: value}
        target = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "gaussian-sweep",
                             *[x for kv in argv.items() for x in kv],
                             "--out", str(target))
        assert code == 2 and out == "" and err.startswith("error: ")
        assert not target.exists()

    def test_runs_under_an_address_space_limit(self, tmp_path):
        # streamed in blocks, the sweep's memory does not grow with --steps;
        # an up-front estimate of 1,000 B per step refused this run
        target = tmp_path / "sweep.csv"
        proc = run_under_address_limit(
            256 << 20, "gaussian-sweep", "--nsa", "1", "--nsb", "1",
            "--steps", "300000", "--out", str(target))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""
        with open(target) as f:
            assert f.readline() == gaussian.SWEEP_CSV_HEADER + "\n"
            assert sum(1 for _ in f) == 300000

    @pytest.mark.parametrize("nsa, nsb", list(GOLDEN_SWEEPS), ids="-".join)
    def test_golden_csv(self, capsys, nsa, nsb):
        code, out, _ = run(capsys, "gaussian-sweep", "--steps", "11",
                           "--nsa", nsa, "--nsb", nsb)
        assert code == 0
        assert out == GOLDEN_SWEEPS[nsa, nsb]


    def test_large_photon_number(self, capsys):
        # g(10^16) = 54.5935445591 at 50 digits; the textbook difference
        # printed ys_r1 = 0 and sum_gap = -62
        code, out, _ = run(capsys, "gaussian-sweep", "--nsa", "1e16",
                           "--nsb", "1", "--steps", "3")
        assert code == 0
        rows = [[float(x) for x in line.split(",")]
                for line in out.strip().split("\n")[1:]]
        assert len(rows) == 3
        for row in rows:
            assert abs(row[4] - 54.5935445591) <= 1e-9
            assert row[7] >= 0

    @pytest.mark.parametrize("flag", ["--nsa", "--nsb"])
    def test_overflow_exits_2_naming_the_input(self, capsys, flag):
        argv = {"--nsa": "1", "--nsb": "1", flag: "1e155"}
        code, out, err = run(capsys, "gaussian-sweep", "--steps", "3",
                             *[x for kv in argv.items() for x in kv])
        assert code == 2 and out == ""
        assert "nsa = " in err and "nsb = " in err and "1e+155" in err


class TestCompareYs:
    def test_large_photon_number_contained(self, capsys):
        code, out, _ = run(capsys, "compare-ys", "--eta", "0.5",
                           "--nsa", "1e16", "--nsb", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["ea_contains_ys"] is True
        assert abs(obj["sum_gap"] - 3.0) <= 1e-9

    def test_fig2b_not_contained(self, capsys):
        code, out, _ = run(capsys, "compare-ys", "--eta", "0.95",
                           "--nsa", "1", "--nsb", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["ea_contains_ys"] is False
        assert obj["sum_gap"] >= -1e-9


class TestSimulateSeq:
    def test_single_message_perfect(self, capsys):
        code, out, _ = run(capsys, "simulate-seq", "--channel", "identity:2",
                           "--n", "1", "--messages", "1", "--trials", "2",
                           "--seed", "9")
        assert code == 0
        obj = json.loads(out)
        assert np.isclose(obj["success_mean"], 1.0, atol=1e-9)

    def test_depolarizing_uniform_guessing(self, capsys):
        code, out, _ = run(capsys, "simulate-seq", "--channel",
                           "depolarizing:1", "--messages", "4",
                           "--trials", "5", "--seed", "1")
        assert code == 0
        assert np.isclose(json.loads(out)["success_mean"], 0.25, atol=1e-9)

    def test_byte_identical_reruns(self, capsys):
        args = ("simulate-seq", "--channel", "amplitude-damping:0.3",
                "--phi", "0.7,0.3", "--n", "2", "--messages", "2",
                "--trials", "4", "--seed", "31")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        # report JSON round-trips through parse and re-emission
        cli.emit_json(json.loads(out1))
        assert capsys.readouterr().out == out1

    def test_mac_channel_rejected(self, capsys):
        code, _, err = run(capsys, "simulate-seq", "--channel", "cnot-mac")
        assert code == 2 and "single-sender" in err

    @pytest.mark.parametrize("entry", ["NaN", "Infinity"])
    def test_non_finite_channel_file_exit_2(self, capsys, tmp_path, entry):
        # json reads NaN and Infinity; the channel must refuse them and name
        # the file and the matrix, before any eigensolver sees them
        obj = qmat.channel_to_json(qmat.named_channel("amplitude-damping:0.3"))
        text = json.dumps(obj).replace("0.0", entry, 1)
        spec = tmp_path / "damping.json"
        spec.write_text(text)
        code, out, err = run(capsys, "simulate-seq", "--channel", str(spec))
        assert code == 2 and out == ""
        assert str(spec) in err and "Kraus matrix 0" in err

    @pytest.mark.parametrize("text, named", [
        ('{"in_dims": [2]}', "out_dims"),
        ('{"in_dims": [1, 2]}', "out_dims"),
        ("[1, 2]", "object"),
        ('{"in_dims": [2], "out_dims": [2], "kraus": 5}', "kraus"),
        ('{"in_dims": [2.5], "out_dims": [2], "kraus": []}', "in_dims"),
        ('{"in_dims": [2], "out_dims": [2], "kraus": [{"a": 1}]}',
         "Kraus matrix 0"),
    ], ids=["no out_dims", "mac without out_dims", "a list", "kraus not a list",
            "fractional dimension", "kraus entry an object"])
    def test_not_a_channel_object_exit_2(self, capsys, tmp_path, text, named):
        # valid JSON that is not a channel object names the file and the key
        spec = tmp_path / "shape.json"
        spec.write_text(text)
        code, out, err = run(capsys, "simulate-seq", "--channel", str(spec))
        assert code == 2 and out == ""
        assert f"channel file {spec}:" in err and named in err

    @pytest.mark.parametrize("delta", ["nan", "inf", "-0.5"])
    def test_bad_delta_exit_2(self, capsys, delta):
        code, out, err = run(capsys, "simulate-seq", "--channel", "identity:2",
                             "--n", "2", "--delta", delta)
        assert code == 2 and out == ""
        assert "--delta" in err

    def test_empty_projector_exit_2(self, capsys):
        # at delta = 0.01 no type is typical, so Pi_AB and Pi_A are empty
        code, out, err = run(capsys, "simulate-seq", "--channel",
                             "amplitude-damping:0.3", "--phi", "0.7,0.3",
                             "--n", "2", "--delta", "0.01")
        assert code == 2 and out == ""
        assert "delta" in err and "empty" in err

    def test_golden_n3_output(self, capsys):
        # pinned byte for byte; the figures match the benchmark's reference op
        code, out, _ = run(capsys, "simulate-seq", "--channel",
                           "amplitude-damping:0.3", "--phi", "0.7,0.3",
                           "--n", "3", "--messages", "4", "--trials", "5",
                           "--seed", "0")
        assert code == 0
        assert out == GOLDEN_SEQ_N3_SEED0

    def test_large_delta_keeps_rounding_eigenvalues_out(self, capsys):
        # a zero eigenvalue of the pure rho_AB rounds to 5.08e-17, which
        # delta > 54 would count as typical, making d infinite
        code, out, _ = run(capsys, "simulate-seq", "--channel", "identity:3",
                           "--delta", "60")
        assert code == 0
        _, want, _ = run(capsys, "simulate-seq", "--channel", "identity:3",
                         "--delta", "50")
        assert out == want
        assert json.loads(out)["d"] == 1.0

    def test_bound_exponent_overflow(self, capsys):
        # d |M| / D = 750, where e^x overflows a float: the bound is 0
        code, out, _ = run(capsys, "simulate-seq", "--channel", "identity:2",
                           "--messages", "1500", "--trials", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["d"] * obj["message_count"] / obj["D"] == 750
        assert obj["bound"] == 0.0 and obj["bound_condition_holds"] is False

    def test_blocklength_eight_runs_by_default(self, capsys):
        # d = 65,536, above the dense cap: no decode step forms a d x d matrix
        code, out, _ = run(capsys, "simulate-seq", "--channel", "identity:2",
                           "--n", "8", "--messages", "4", "--trials", "10")
        assert code == 0
        assert json.loads(out)["n"] == 8

    @pytest.mark.parametrize("argv", [
        ("--channel", "identity:2", "--n", "9"),
        ("--channel", "amplitude-damping:0.3", "--n", "6"),
    ], ids=" ".join)
    def test_runs_under_a_limit_just_above_its_estimate(self, monkeypatch,
                                                        argv):
        argv = ("simulate-seq", *argv, "--messages", "4", "--trials", "10")
        limit = estimated_bytes(monkeypatch, *argv) + (1 << 20)
        proc = run_under_address_limit(limit, *argv)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["message_count"] == 4

    def test_stacked_trials_run_under_a_limit_just_above_the_estimate(
            self, monkeypatch):
        # one trial's V is 256 x 64 complex entries, 256 KiB, so the 64
        # trials run in four stacks of 16, which the estimate counts
        argv = ("simulate-seq", "--channel", "amplitude-damping:0.3", "--n",
                "4", "--messages", "4", "--trials", "64")
        assert seqdecode.trial_group(16 * 256 * 16 * 4, 4, 64) == 16
        limit = estimated_bytes(monkeypatch, *argv) + (1 << 20)
        proc = run_under_address_limit(limit, *argv)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["success_mean"] == 0.824567703767

    def test_many_messages_run_under_a_limit_just_above_the_estimate(
            self, monkeypatch):
        # 1,024 codewords on d = 4: the 8 MiB (k + 1) x k table, which the
        # decoder fills in place, not V, sets the peak
        argv = ("simulate-seq", "--channel", "identity:2", "--n", "1",
                "--messages", "1024", "--trials", "40")
        limit = estimated_bytes(monkeypatch, *argv) + (1 << 20)
        proc = run_under_address_limit(limit, *argv)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["success_mean"] == 0.001953125

    def test_n4_beyond_index_set_cap(self, capsys):
        # |S| = 294912 on d = 256: the protocol never enumerates S
        code, out, _ = run(capsys, "simulate-seq", "--channel",
                           "amplitude-damping:0.3", "--phi", "0.7,0.3",
                           "--n", "4", "--messages", "2", "--trials", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 4
        for key in ("success_mean", "bound", "epsilon", "d", "D"):
            assert math.isfinite(obj[key]), key


REFERENCE_ARGV = {
    name: tuple(w["argv"]) for name, w in json.loads(
        (Path(__file__).resolve().parent.parent / "perfbench"
         / "reference.json").read_text()).items()}


class TestNoOracleCalls:
    # books are draw arrays with index maps, and types are table rows, on
    # every command path: the benchmark's commands, successive decoding and
    # a sequential run at d_s = 256 build no dense d_s x d_s encoder from
    # an index row and list no type's sequences one by one
    @pytest.mark.parametrize("argv", list(REFERENCE_ARGV.values()) + [
        ("simulate-mac", "--channel", "cnot-mac", "--n", "2",
         "--mode", "successive", "--phi", "0.7,0.3"),
        ("simulate-seq", "--channel", "identity:2", "--n", "8")],
        ids=" ".join)
    def test_command_calls_no_oracle(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("a dense encoder or a type's sequence list "
                                 "was built")

        for name in ("hw_transpose_unitary", "_block_matrix",
                     "receiver_encoder"):
            monkeypatch.setattr(eacode, name, refuse)
        monkeypatch.setattr(typicality, "type_sequences", refuse)
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert out


class TestSimulateMac:
    def test_modes_both_report(self, capsys):
        for mode in ("simultaneous", "successive"):
            code, out, _ = run(capsys, "simulate-mac", "--channel", "cnot-mac",
                               "--n", "1", "--L", "2", "--M", "2",
                               "--mode", mode, "--seed", "2")
            assert code == 0
            obj = json.loads(out)
            assert obj["mode"] == mode
            assert -1e-9 <= obj["avg_error"] <= 1 + 1e-9
            assert set(obj["error_terms"]) == {
                "wrong_alice", "wrong_bob", "wrong_both", "abort", "total"
            }

    @pytest.mark.parametrize("mode", ["successive", "simultaneous"])
    def test_parallel_qubits_from_json(self, capsys, tmp_path, mode):
        # two noiseless qubits: Alice's test Pi_B Pi_AC does not commute
        # with the code projector, so a successive family without Pi in
        # front sums beyond the identity and its abort weights go negative
        spec = tmp_path / "parallel.json"
        eye = [[float(i == j), 0.0] for i in range(4) for j in range(4)]
        spec.write_text(json.dumps(
            {"in_dims": [2, 2], "out_dims": [4], "kraus": [eye]}))
        code, out, err = run(capsys, "simulate-mac", "--channel", str(spec),
                             "--phi", "0.7,0.3", "--psi", "0.7,0.3",
                             "--n", "1", "--L", "2", "--M", "2",
                             "--mode", mode)
        assert code == 0, err
        obj = json.loads(out)
        assert obj["error_terms"]["abort"] >= -1e-9
        assert -1e-9 <= obj["avg_error"] <= 1 + 1e-9

    def test_exact_value_matches_library(self, capsys):
        # oracle: the in-process experiment with the same seeds
        from qmac import eacode, simuldecode
        from conftest import bell_state

        code, out, _ = run(capsys, "simulate-mac", "--channel", "cnot-mac",
                           "--n", "1", "--L", "2", "--M", "2",
                           "--mode", "simultaneous", "--seed", "7")
        assert code == 0
        obj = json.loads(out)
        ch = qmat.named_channel("cnot-mac")
        decomps = [eacode.type_decompose(bell_state(s, r), 1)
                   for s, r in (("Ap", "A"), ("Bp", "B"))]
        books = [eacode.sample_code(d, 2, seed)
                 for d, seed in zip(decomps, (14, 15))]
        report = simuldecode.run_mac_experiment(
            eacode.channel_output_factor(ch, decomps), books, "simultaneous",
            simuldecode.mac_typical_projectors(ch, decomps, 1.0))
        assert np.isclose(obj["avg_error"], report.avg_error, atol=1e-9)

    def test_single_sender_rejected(self, capsys):
        code, _, err = run(capsys, "simulate-mac", "--channel", "identity:2")
        assert code == 2 and "two-sender" in err

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_bad_delta_exit_2(self, capsys, delta):
        code, out, err = run(capsys, "simulate-mac", "--channel", "cnot-mac",
                             "--delta", delta)
        assert code == 2 and out == ""
        assert "--delta" in err

    def test_empty_projector_exit_2(self, capsys):
        # at delta = 0 no type of the 0.7/0.3 Schmidt weights is typical
        code, out, err = run(capsys, "simulate-mac", "--channel", "cnot-mac",
                             "--phi", "0.7,0.3", "--n", "2", "--delta", "0")
        assert code == 2 and out == ""
        assert "delta" in err and "empty" in err

    def test_byte_identical_reruns(self, capsys):
        args = ("simulate-mac", "--channel", "adder-mac", "--n", "1",
                "--L", "2", "--M", "2", "--mode", "successive",
                "--seed", "13", "--delta", "1.5")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        cli.emit_json(json.loads(out1))
        assert capsys.readouterr().out == out1

    def test_out_of_memory_exit_4(self, capsys, monkeypatch):
        from qmac import simuldecode

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(simuldecode, "run_mac_experiment", exhausted)
        code, out, err = run(capsys, "simulate-mac", "--channel", "cnot-mac")
        assert code == 4 and out == ""
        assert "simulate-mac" in err and "too large for memory" in err

    def test_oversized_run_refused_up_front(self, capsys):
        # 10^10 codeword pairs: refused before the books are sampled or the
        # pairs listed, where the out-of-memory killer used to end the run
        start = time.perf_counter()
        code, out, err = run(capsys, "simulate-mac", "--channel", "cnot-mac",
                             "--n", "2", "--L", "100000", "--M", "100000")
        assert time.perf_counter() - start < 1
        assert code == 4 and out == ""
        assert "simulate-mac" in err and "estimated" in err
        assert "GiB for the codeword stack" in err and "memory limit" in err

    def test_oversized_sequential_run_refused_up_front(self, capsys):
        # 3 * 10^6 messages: the (K + 1) x K table alone is about 72 TB
        start = time.perf_counter()
        code, out, err = run(capsys, "simulate-seq", "--channel", "identity:2",
                             "--messages", "3000000", "--trials", "1")
        assert time.perf_counter() - start < 1
        assert code == 4 and out == ""
        assert "simulate-seq" in err and "estimated" in err
        assert "GiB for the codeword stack" in err and "memory limit" in err

    @pytest.mark.parametrize("argv", [
        ("simulate-seq", "--channel", "identity:2", "--n", "1000"),
        ("simulate-mac", "--channel", "cnot-mac", "--n", "300"),
    ], ids=" ".join)
    def test_estimate_beyond_a_float_refused(self, capsys, argv):
        # the estimates exceed 2^1024 bytes, which a float division overflows
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 4 and out == ""
        assert f"{argv[0]}: the run needs an estimated" in err
        assert "e+" in err and "memory limit" in err

    def test_n4_successive_refused_under_1_gib(self):
        # below R and one 1 GiB codeword stack, which the command counts
        # before the shared states are decomposed
        start = time.perf_counter()
        proc = run_under_address_limit(
            1 << 30, "simulate-mac", "--channel", "cnot-mac", "--n", "4",
            "--L", "2", "--M", "2", "--mode", "successive")
        assert time.perf_counter() - start < 1
        assert proc.returncode == 4 and proc.stdout == ""
        assert "simulate-mac: the run needs an estimated" in proc.stderr
        assert "over the memory limit of 1 GiB" in proc.stderr

    # the shapes of cnot-mac's bases at n = 4 (d = 65,536), where R is
    # 65,536 x 256; the simultaneous decoder's Z has q = 416 columns and
    # its G' rank 624
    N4_SHAPES = {"A": (16, 16), "B": (16, 16), "C": (256, 256),
                 "AB": (256, 256), "AC": (4096, 256), "ABC": (65536, 256)}

    @classmethod
    def n4_estimate(cls, count) -> int:
        args = cli.build_parser().parse_args(
            ["simulate-mac", "--channel", "cnot-mac", "--n", "4"])
        held = cli._check_memory(qmat.named_channel("cnot-mac"), args, 4)
        return held + 16 * 65536 * 256 + 16 * sum(
            d * r for d, r in cls.N4_SHAPES.values()) + count

    def test_n4_simultaneous_estimated_within_a_quarter(self):
        # its address space peaks at 3,645 MiB: the estimate covers it, and
        # its part above 184 MiB is within 25% of the peak's
        need = self.n4_estimate(simuldecode.gram_bytes(
            65536, 256, 2, 2, self.N4_SHAPES, 416, 624))
        assert 3645 << 20 < need < (184 + 1.25 * (3645 - 184)) * 2**20

    def test_n4_successive_estimated_within_a_quarter(self):
        # its address space peaks at 3,904 MiB, estimated at 3,967.0 MiB
        # (three copies of the 1 GiB codeword stack, R and the bases);
        # admitted on an 8 GB host, refused up front under 1 GiB (above)
        need = self.n4_estimate(seqdecode.successive_bytes(
            65536, 256, 2, 2, self.N4_SHAPES))
        assert 3904 << 20 < need < (184 + 1.25 * (3904 - 184)) * 2**20

    def test_identity_n12_admitted_with_books_as_index_maps(self):
        # on 7.83 GiB of physical memory n = 12 (d_s = 4,096, d = 2^24) is
        # estimated at about 5.3 GiB and admitted: Pi_A and Pi_B are full
        # rank and Pi_AB has rank 1, and the 4 entries of each of its two
        # books hold index maps, under 1 MiB in all, where dense d_s x d_s
        # encoders took 2 GiB and the run was refused at 8.68 GiB
        args = cli.build_parser().parse_args(
            ["simulate-seq", "--channel", "identity:2", "--n", "12",
             "--messages", "4"])
        held = cli._check_memory(qmat.named_channel("identity:2"), args, 4)
        shapes = {"A": (4096, 4096), "B": (4096, 4096), "AB": (1 << 24, 1)}
        # R and the bases of Pi_A, Pi_B and Pi_AB, 2^24 entries each
        need = held + 16 * (1 << 24) * 4 + seqdecode.sequential_bytes(
            1 << 24, 1, 4, 1, shapes)
        assert 5067 << 20 < need < int(7.83 * 2**30)
        assert 2 * 4 * cli._entry_bytes(2, 12) < 1 << 20

    @pytest.mark.parametrize("argv, single", [
        (("simulate-mac", "--channel", "cnot-mac", "--n", "2", "--L", "4",
          "--M", "4", "--mode", "simultaneous"), 16),
        (("simulate-seq", "--channel", "amplitude-damping:0.3", "--phi",
          "0.7,0.3", "--n", "3", "--messages", "4", "--trials", "5"), 4),
    ], ids=lambda a: a[0] if isinstance(a, tuple) else str(a))
    def test_dense_check_sees_only_the_single_copy_state(
            self, capsys, monkeypatch, argv, single):
        # the benchmark's runs: the dense cap is asked once, for the
        # single-copy code state of info.ea_code_state, never for a space
        # of n copies
        checked = []
        require = qmat.require_dense

        def spy(space):
            checked.append(space.dim)
            require(space)

        monkeypatch.setattr(qmat, "require_dense", spy)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert checked == [single]

    def test_refused_under_an_address_space_limit(self):
        # under a 3 GiB address-space limit this run used to fail inside
        # OpenBLAS's allocator with exit 1
        proc = run_under_address_limit(
            3 << 30, "simulate-mac", "--channel", "cnot-mac", "--n", "2",
            "--L", "300", "--M", "300")
        assert proc.returncode == 4 and proc.stdout == ""
        assert "over the memory limit of 3 GiB" in proc.stderr

    @pytest.mark.parametrize("mode, code", [("successive", 4),
                                            ("simultaneous", 0)])
    def test_each_decoder_has_its_own_estimate(self, mode, code):
        # at n = 3, L = M = 4 the successive decoder is estimated at 476.7
        # MiB (its address space peaks at 403 MiB) and the simultaneous one
        # at 404.4 MiB; the successive run used to pass its estimate and
        # fail mid-run on an allocation
        proc = run_under_address_limit(
            440 << 20, "simulate-mac", "--channel", "cnot-mac", "--n", "3",
            "--L", "4", "--M", "4", "--mode", mode)
        assert proc.returncode == code, proc.stderr
        if code == 4:
            assert proc.stdout == ""
            assert "simulate-mac: the run needs an estimated" in proc.stderr
            assert "over the memory limit of 0.43 GiB" in proc.stderr
        else:
            assert json.loads(proc.stdout)["mode"] == mode

    def test_many_codewords_run_under_a_limit_just_above_the_estimate(
            self, monkeypatch):
        # 1,024 codeword pairs: the estimate counts the simultaneous
        # decoder's Lq x kc blocks X' with the real q, where it once counted
        # a kc x kc table (12.4 GiB) that the decoder does not form
        argv = ("simulate-mac", "--channel", "cnot-mac", "--n", "2",
                "--L", "32", "--M", "32")
        limit = estimated_bytes(monkeypatch, *argv) + (1 << 20)
        proc = run_under_address_limit(limit, *argv)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["avg_error"] == 0.997802734375

    def test_many_codewords_run_under_1_gib(self):
        # the estimate counts X' with the real q = 24, where it bounded q by
        # min(d, M c) = 256 and refused this run at 4.4 GiB
        proc = run_under_address_limit(
            1 << 30, "simulate-mac", "--channel", "cnot-mac", "--n", "2",
            "--L", "32", "--M", "32")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["avg_error"] == 0.997802734375

    def test_refused_with_the_real_q_before_v(self, monkeypatch):
        # just under the estimate, which only the decoder's count with the
        # real q reaches, the run is refused before V is formed
        argv = ("simulate-mac", "--channel", "cnot-mac", "--n", "2",
                "--L", "32", "--M", "32")
        limit = estimated_bytes(monkeypatch, *argv) - (1 << 20)
        start = time.perf_counter()
        proc = run_under_address_limit(limit, *argv)
        assert time.perf_counter() - start < 1
        assert proc.returncode == 4 and proc.stdout == ""
        assert "simulate-mac: the run needs an estimated 0.709 GiB" in (
            proc.stderr)
        assert f"over the memory limit of {limit / 2**30:.3g} GiB" in (
            proc.stderr)

    def test_typical_projectors_built_once_per_command(self, capsys,
                                                       monkeypatch):
        from qmac import simuldecode

        builds = []
        original = simuldecode.mac_typical_projectors

        def counted(*args, **kwargs):
            builds.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(simuldecode, "mac_typical_projectors", counted)
        code, out, _ = run(capsys, "simulate-mac", "--channel", "cnot-mac",
                           "--n", "2", "--trials", "3")
        assert code == 0 and json.loads(out)["trials"] == 3
        assert len(builds) == 1

    @pytest.mark.parametrize("argv", [
        ("simulate-mac", "--channel", "cnot-mac", "--n", "2", "--trials", "3"),
        ("simulate-mac", "--channel", "cnot-mac", "--n", "2", "--trials", "3",
         "--mode", "successive"),
        ("simulate-seq", "--channel", "identity:2", "--n", "2", "--trials",
         "3"),
    ], ids=lambda a: " ".join(a[:1] + a[-2:]))
    def test_output_factor_built_once_per_command(self, capsys, monkeypatch,
                                                  argv):
        # R does not depend on the codebooks: every trial's decoder reads
        # the one factor that the command builds
        from qmac import eacode

        builds = []
        original = eacode.channel_output_factor

        def counted(*args, **kwargs):
            builds.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(eacode, "channel_output_factor", counted)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["trials"] == 3
        assert len(builds) == 1

    def test_blocklength_three_headline(self, capsys):
        # d = 4096: the two-sender experiment at n = 3 runs in Gram form
        code, out, _ = run(capsys, "simulate-mac", "--channel", "cnot-mac",
                           "--n", "3", "--L", "4", "--M", "4", "--seed", "0")
        assert code == 0
        obj = json.loads(out)
        assert abs(obj["avg_error"] - 0.767578125) < 1e-12
        assert obj["error_terms"]["total"] == obj["avg_error"]

    def test_golden_n2_output(self, capsys):
        # pinned byte for byte; the figures match the benchmark's reference op
        code, out, _ = run(capsys, "simulate-mac", "--channel", "cnot-mac",
                           "--n", "2", "--L", "4", "--M", "4",
                           "--mode", "simultaneous", "--seed", "0")
        assert code == 0
        assert out == GOLDEN_MAC_N2_SEED0
        # the abort term is a rounding residual of an exact zero here; a
        # real abort weight would not fit under this bound
        assert abs(json.loads(out)["error_terms"]["abort"]) <= 1e-14

    @pytest.mark.parametrize("argv", list(GOLDEN_SUCCESSIVE), ids=" ".join)
    def test_golden_successive_output(self, capsys, argv):
        code, out, _ = run(capsys, "simulate-mac", "--mode", "successive",
                           *argv)
        assert code == 0
        assert out == GOLDEN_SUCCESSIVE[argv]
        # an abort weight is at least a rounding residual below zero
        assert json.loads(out)["error_terms"]["abort"] >= -1e-14

    def test_trials_average(self, capsys):
        base = ("simulate-mac", "--channel", "cnot-mac", "--n", "1",
                "--L", "2", "--M", "2", "--mode", "simultaneous")
        singles = []
        for seed in (20, 21, 22):
            _, out, _ = run(capsys, *base, "--seed", str(seed))
            singles.append(json.loads(out)["avg_error"])
        _, out, _ = run(capsys, *base, "--seed", "20", "--trials", "3")
        obj = json.loads(out)
        assert obj["trials"] == 3
        assert np.isclose(obj["avg_error"], np.mean(singles), atol=1e-9)


class TestEaRegion:
    def test_dense_cap_exit_4(self, capsys, monkeypatch):
        # the cnot-mac code state is 16-dimensional and dense
        monkeypatch.setattr(qmat, "DEFAULT_DIM_CAP", 8)
        code, out, err = run(capsys, "ea-region", "--channel", "cnot-mac")
        assert code == 4 and out == ""
        assert "dimension 16, exceeding the cap 8" in err

    def test_cnot_mac_region(self, capsys):
        code, out, _ = run(capsys, "ea-region", "--channel", "cnot-mac")
        assert code == 0
        obj = json.loads(out)
        assert np.allclose((obj["r1"], obj["r2"], obj["sum"]),
                           (1.0, 1.0, 2.0), atol=1e-9)

    def test_lsd_kind_reports_raw(self, capsys):
        code, out, _ = run(capsys, "ea-region", "--channel", "cnot-mac",
                           "--kind", "lsd")
        assert code == 0
        assert "raw_bounds" in json.loads(out)

    def test_json_channel_spec(self, capsys, tmp_path):
        spec = tmp_path / "parallel.json"
        spec.write_text(json.dumps(
            qmat.channel_to_json(qmat.KrausChannel(
                qmat.FactorSpace(("Ap", "Bp"), (2, 2)),
                qmat.FactorSpace(("C",), (4,)),
                [np.eye(4)],
            ))
        ))
        code, out, _ = run(capsys, "ea-region", "--channel", str(spec))
        assert code == 0
        obj = json.loads(out)
        assert np.allclose((obj["r1"], obj["r2"], obj["sum"]),
                           (2.0, 2.0, 4.0), atol=1e-9)

    def test_bad_phi_spec(self, capsys):
        code, _, err = run(capsys, "ea-region", "--channel", "cnot-mac",
                           "--phi", "0.7,0.2")
        assert code == 2 and "sum" in err


class TestCheck:
    def test_check_passes(self, capsys):
        code, out, _ = run(capsys, "check")
        assert code == 0
        assert "[FAIL]" not in out
        assert out.count("[PASS]") >= 8
        assert "[PASS] Gram-form table equals the dense POVM's table" in out
        for decoder in ("sequential", "successive"):
            assert (f"[PASS] factored {decoder} table equals the dense "
                    f"{decoder} POVM's") in out
