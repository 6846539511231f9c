"""Command-line interface: determinism, formats, exit codes."""

import json
import math

import numpy as np
import pytest

from qmac import cli, gaussian, qmat


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
    "abort": -1.11022302463e-16,
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
# eta = 1, and the clamp at zero: the unclamped r1 at (0, 7), eta = 0.1 is
# -4.4e-16.
GOLDEN_SWEEPS = {
    ("1000", "10"): """\
eta,r1,r2,sum,ys_r1,ys_r2,ys_sum,sum_gap
0,0,9.66893371227,9.66893371227,11.4092004327,4.83446685614,4.83446685614,4.83446685614
0.1,13.0722670496,9.66725494752,13.2022657275,11.4092004327,4.83446685614,8.21747708703,4.98478864052
0.2,14.2399786887,9.66515924525,14.2992119909,11.4092004327,4.83446685614,9.14659723156,5.15261475932
0.3,15.014854024,9.66246925323,15.0497027616,11.4092004327,4.83446685614,9.70713700538,5.34256575621
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
0.2,4.88498130835e-15,6.04671605899,6.04671605899,0,4.3485155456,4.04988552936,1.99683052963
0.3,0,5.4098893263,5.4098893263,0,4.3485155456,3.87358766018,1.53630166612
0.4,0,4.86153813494,4.86153813494,0,4.3485155456,3.67262526378,1.18891287116
0.5,0,4.3485155456,4.3485155456,0,4.3485155456,3.43892027929,0.909595266308
0.6,0,3.83549295626,3.83549295626,0,4.3485155456,3.15960267444,0.675890281821
0.7,0,3.28714176489,3.28714176489,0,4.3485155456,2.81221387948,0.474927885414
0.8,0,2.6503150322,2.6503150322,0,4.3485155456,2.35168501596,0.298630016241
0.9,2.6645352591e-14,1.80319816851,1.80319816851,0,4.3485155456,1.6616102898,0.141587878709
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

    @pytest.mark.parametrize("nsa, nsb", list(GOLDEN_SWEEPS), ids="-".join)
    def test_golden_csv(self, capsys, nsa, nsb):
        code, out, _ = run(capsys, "gaussian-sweep", "--steps", "11",
                           "--nsa", nsa, "--nsb", nsb)
        assert code == 0
        assert out == GOLDEN_SWEEPS[nsa, nsb]


class TestCompareYs:
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

    def test_cap_exit_4(self, capsys, monkeypatch):
        monkeypatch.setenv("QMAC_DIM_CAP", "8")
        code, _, err = run(capsys, "simulate-seq", "--channel", "identity:2",
                           "--n", "2", "--messages", "2")
        assert code == 4
        assert "cap" in err or "dimension" in err

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

    def test_bad_cap_variable_named(self, capsys, monkeypatch):
        monkeypatch.setenv("QMAC_DIM_CAP", "abc")
        code, _, err = run(capsys, "simulate-seq", "--channel", "identity:2")
        assert code == 2
        assert "QMAC_DIM_CAP" in err and "abc" in err

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

    def test_exact_value_matches_library(self, capsys):
        # oracle: the in-process experiment with the same seeds
        from qmac import eacode, simuldecode
        from conftest import bell_state

        code, out, _ = run(capsys, "simulate-mac", "--channel", "cnot-mac",
                           "--n", "1", "--L", "2", "--M", "2",
                           "--mode", "simultaneous", "--seed", "7")
        assert code == 0
        obj = json.loads(out)
        d1 = eacode.type_decompose(bell_state("Ap", "A"), 1)
        d2 = eacode.type_decompose(bell_state("Bp", "B"), 1)
        pair = simuldecode.MacCodePair.sample(d1, d2, 2, 2, 14, 15)
        report, _ = simuldecode.run_mac_experiment(
            qmat.named_channel("cnot-mac"), pair, "simultaneous", 1.0
        )
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

    def test_golden_n2_output(self, capsys):
        # pinned byte for byte; the figures match the benchmark's reference op
        code, out, _ = run(capsys, "simulate-mac", "--channel", "cnot-mac",
                           "--n", "2", "--L", "4", "--M", "4",
                           "--mode", "simultaneous", "--seed", "0")
        assert code == 0
        assert out == GOLDEN_MAC_N2_SEED0

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
        assert out.count("[PASS]") >= 7
