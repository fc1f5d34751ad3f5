import csv
import json

import numpy as np
import pytest

from tissuemix import cli, model
from tissuemix.oracles import brute_force_evaluate
from tissuemix import boolnet


def run(argv):
    return cli.main(argv)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def synth_file(tmp_path):
    out = tmp_path / "ds.csv"
    rc = run(
        [
            "synth", "--genes", "300", "--true-k", "0.1,0.3", "--rho", "100",
            "--lambda", "default", "--seed", "5", "--out", str(out),
        ]
    )
    assert rc == 0
    return out


def repr_writer(path, header, rows):
    """The per-value CSV writer that cli._write_csv must match byte for byte."""

    def fmt(x):
        if isinstance(x, (bool, np.bool_)):
            return x
        if isinstance(x, (int, np.integer)):
            return int(x)
        if isinstance(x, (float, np.floating)):
            return repr(float(x))
        return x

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(x) for x in row])


def test_write_csv_matches_repr_writer(tmp_path):
    columns = [
        np.array([-0.0, 1e-300, 5e-324, np.inf, np.nan, 0.1, -2.5e17]),
        np.array([2**62, -(2**63), 0, 7, 1, -1, 123456789012], dtype=np.int64),
        np.array([True, False, True, True, False, False, True]),
        np.array([1.5, -0.0, 3.0, 1e-310, 2.0**-30, 1e16, 33.3], dtype=np.float32),
        [2**70, 3, 4, 5, 6, 7, 8],
        ["serial", "parallel", "a", "b", "c", "d", "e"],
    ]
    header = ["f64", "i64", "bool", "f32", "bigint", "text"]
    cli._write_csv(str(tmp_path / "new.csv"), header, columns)
    repr_writer(str(tmp_path / "old.csv"), header, zip(*columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestSynth:
    def test_zero_genes_is_usage_error(self, tmp_path):
        rc = run(["synth", "--genes", "0", "--true-k", "0.1,0.3", "--out", str(tmp_path / "x.csv")])
        assert rc == cli.EXIT_USAGE

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["synth", "--genes", "100", "--true-k", "0.2,0.2", "--seed", "9"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert read_json(str(a) + ".truth.json")["K"] == [0.2, 0.2]

    def test_truth_sidecar_contents(self, synth_file):
        truth = read_json(str(synth_file) + ".truth.json")
        assert truth["V"] == 300 and truth["N"] == 3
        assert truth["full_weights"] == [0.1, 0.3, pytest.approx(0.6)]
        np.testing.assert_allclose(truth["Lambda"], np.linalg.inv(model.REFERENCE_LAMBDA_INV))

    def test_roundtrip_through_loader(self, synth_file, tmp_path):
        ds = cli.read_dataset_csv(str(synth_file))
        assert ds.V == 300 and ds.n_networks == 3
        back = tmp_path / "back.csv"
        cli.write_dataset_csv(str(back), ds)
        assert back.read_bytes() == synth_file.read_bytes()

    @pytest.mark.parametrize(
        "body",
        [
            "r,d_1,d_2,d_3\n0.5,1,0,0\n0.25,0,1\n",  # one short row
            "r,d_1,d_2,d_3\n0.5,1,0,0,1\n",  # one long row
            "r,d_1,d_2,d_3\n0.5,1,0\n0.25,0,1\n",  # every row short
            "r,d_1,d_2,d_3\nnan,1,0,0\n",
            "r,d_1,d_2,d_3\n0.5,1,inf,0\n",
            "r,d_1,d_2,d_3\n0.5,1,x,0\n",
            "r,d_1,d_2,d_3\n",  # header only
            "r,d_1\n0.5,1\n",  # one network
            "",
        ],
    )
    def test_malformed_dataset_is_usage_error(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(ValueError):
            cli.read_dataset_csv(str(path))
        rc = run(["fit", "--method", "em", "--dataset", str(path), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_USAGE

    def test_inconsistent_networks_flag(self, tmp_path):
        rc = run(
            ["synth", "--genes", "10", "--true-k", "0.1,0.3", "--networks", "4", "--out", str(tmp_path / "x.csv")]
        )
        assert rc == cli.EXIT_USAGE


class TestFit:
    def test_em_fit_artifacts(self, synth_file, tmp_path):
        out = tmp_path / "em"
        rc = run(["fit", "--method", "em", "--dataset", str(synth_file), "--out", str(out), "--seed", "1"])
        assert rc == 0
        report = read_json(out / "report.json")
        assert report["method"] == "em"
        assert len(report["estimates"]["full_weights"]) == 3
        assert (out / "trace.csv").exists()

    def test_vb_fit_artifacts(self, synth_file, tmp_path):
        out = tmp_path / "vb"
        rc = run(
            ["fit", "--method", "vb", "--dataset", str(synth_file), "--out", str(out),
             "--seed", "1", "--samples", "500", "--max-iter", "80"]
        )
        assert rc == 0
        with open(out / "samples.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["K1", "K2", "rho"]
        assert len(rows) - 1 == 500
        with open(out / "trace.csv", newline="") as fh:
            sweeps = [int(row[0]) for row in list(csv.reader(fh))[1:]]
        report = read_json(out / "report.json")
        # iterations counts sweep evaluations; trace rows are numbered by them
        assert sweeps == sorted(set(sweeps)) and sweeps[-1] <= report["iterations"]
        assert report["iterations"] <= len(sweeps) + report["rejected_steps"] <= 80
        assert report["stop_reason"] in ("tolerance", "max_iter")

    def test_vb_zero_samples_is_usage_error_before_reading(self, tmp_path):
        # the dataset does not exist: reading it first would exit 4
        out = tmp_path / "vb"
        rc = run(["fit", "--method", "vb", "--dataset", str(tmp_path / "nope.csv"), "--out", str(out),
                  "--samples", "0"])
        assert rc == cli.EXIT_USAGE
        assert not out.exists()

    def test_vb_fifty_samples_gives_fifty_rows(self, synth_file, tmp_path):
        out = tmp_path / "vb"
        rc = run(["fit", "--method", "vb", "--dataset", str(synth_file), "--out", str(out),
                  "--samples", "50", "--max-iter", "40"])
        assert rc == 0
        with open(out / "samples.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) - 1 == 50
        estimates = read_json(out / "report.json")["estimates"]
        assert estimates["summary"]["full_weights"]["mode_vector"] == estimates["full_weights"]

    def test_gibbs_ten_iterations_gives_ten_rows(self, synth_file, tmp_path):
        out = tmp_path / "g"
        rc = run(
            ["fit", "--method", "gibbs", "--dataset", str(synth_file), "--out", str(out),
             "--seed", "1", "--iterations", "10"]
        )
        assert rc == 0
        with open(out / "samples.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == 10  # no burn-in on short chains by default

    @pytest.mark.parametrize(
        "extra, reason", [(["--max-iter", "3", "--rel-tol", "0"], "max_iter"), (["--rel-tol", "1e-4"], "tolerance")]
    )
    def test_em_report_says_why_it_stopped(self, synth_file, tmp_path, extra, reason):
        out = tmp_path / "em"
        rc = run(["fit", "--method", "em", "--dataset", str(synth_file), "--out", str(out)] + extra)
        assert rc == 0
        report = read_json(out / "report.json")
        assert report["stop_reason"] == reason
        assert report["converged"] is (reason == "tolerance")
        if reason == "max_iter":
            assert report["iterations"] == 3
        else:
            assert report["iterations"] < 300

    def test_missing_dataset_is_io_error(self, tmp_path):
        rc = run(["fit", "--method", "em", "--dataset", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_IO

    def test_non_spd_hyperparams_is_numeric_error(self, synth_file, tmp_path):
        hp_path = tmp_path / "hp.json"
        hp_path.write_text(
            json.dumps(
                {
                    "a0": 0.5, "b0": 0.5, "q0": 0.001, "n0": 1,
                    "K0": [0.33, 0.33],
                    "Lambda0": [[1.0, 2.0], [2.0, 1.0]],
                }
            )
        )
        rc = run(
            ["fit", "--method", "em", "--dataset", str(synth_file), "--out", str(tmp_path / "o"),
             "--hyperparams", str(hp_path)]
        )
        assert rc == cli.EXIT_NUMERIC

    def test_hyperparams_missing_key_is_usage_error(self, synth_file, tmp_path, capsys):
        hp_path = tmp_path / "hp.json"
        hp_path.write_text(json.dumps({"a0": 0.5, "b0": 0.5, "n0": 1, "K0": [0.33, 0.33],
                                       "Lambda0": [[100.0, 0.0], [0.0, 100.0]]}))
        rc = run(
            ["fit", "--method", "em", "--dataset", str(synth_file), "--out", str(tmp_path / "o"),
             "--hyperparams", str(hp_path)]
        )
        assert rc == cli.EXIT_USAGE
        assert "'q0'" in capsys.readouterr().err

    def test_replay_byte_identical_modulo_wall_clock(self, synth_file, tmp_path):
        outs = []
        for tag in ("r1", "r2"):
            out = tmp_path / tag
            rc = run(
                ["fit", "--method", "vb", "--dataset", str(synth_file), "--out", str(out),
                 "--seed", "3", "--samples", "300", "--max-iter", "40"]
            )
            assert rc == 0
            outs.append(out)
        assert (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()
        assert (outs[0] / "samples.csv").read_bytes() == (outs[1] / "samples.csv").read_bytes()
        r1 = read_json(outs[0] / "report.json")
        r2 = read_json(outs[1] / "report.json")
        for r in (r1, r2):
            r.pop("wall_clock_sec")
            r.pop("timings")
        # the echoed config carries the out dir, which legitimately differs
        assert r1["config"].pop("out") != r2["config"].pop("out")
        assert r1 == r2

    @pytest.mark.parametrize("method", ["vb", "em", "gibbs"])
    def test_report_times_read_fit_and_write(self, synth_file, tmp_path, method):
        out = tmp_path / method
        extra = {"vb": ["--samples", "50", "--max-iter", "20"], "em": ["--max-iter", "5"],
                 "gibbs": ["--iterations", "10"]}[method]
        rc = run(["fit", "--method", method, "--dataset", str(synth_file), "--out", str(out)] + extra)
        assert rc == 0
        report = read_json(out / "report.json")
        timings = report["timings"]
        assert sorted(timings) == ["fit_s", "read_s", "write_s"]
        for value in timings.values():
            assert isinstance(value, float) and value >= 0.0
        if method == "em":
            want = len(np.unique(cli.read_dataset_csv(str(synth_file)).D, axis=0))
            assert report["profile_classes"] == want == 7
        else:
            assert "profile_classes" not in report

    def test_config_echo_is_rerunnable(self, synth_file, tmp_path):
        out = tmp_path / "echo"
        assert run(
            ["fit", "--method", "em", "--dataset", str(synth_file), "--out", str(out), "--seed", "4"]
        ) == 0
        cfg = read_json(out / "report.json")["config"]
        out2 = tmp_path / "echo2"
        argv = ["fit", "--method", cfg["method"], "--dataset", cfg["dataset"], "--out", str(out2),
                "--seed", str(cfg["seed"]), "--max-iter", str(cfg["max_iter"]),
                "--rel-tol", str(cfg["rel_tol"])]
        assert run(argv) == 0
        a = read_json(out / "report.json")["estimates"]
        b = read_json(out2 / "report.json")["estimates"]
        assert a == b


class TestDensity:
    def test_density_outputs(self, synth_file, tmp_path):
        fit_out = tmp_path / "vb"
        assert run(
            ["fit", "--method", "vb", "--dataset", str(synth_file), "--out", str(fit_out),
             "--seed", "2", "--samples", "400", "--max-iter", "60"]
        ) == 0
        dens_out = tmp_path / "dens"
        rc = run(["density", "--samples", str(fit_out / "samples.csv"), "--out", str(dens_out)])
        assert rc == 0
        modes = read_json(dens_out / "modes.json")
        assert set(modes) == {"K1", "K2", "rho", "w1", "w2", "w3"}
        with open(dens_out / "density_w3.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "density"]
        assert len(rows) > 500


class TestProfilesCommand:
    NETLIST = """
    input egf
    input serum
    gate act = AND(egf, serum)
    gate tf = BUF(act)
    gate inhib = NOT(act)
    output tf
    output inhib
    """

    def write_bundle(self, tmp_path):
        (tmp_path / "net.txt").write_text(self.NETLIST)
        (tmp_path / "f1.txt").write_text("stuck act 1\n")
        (tmp_path / "f2.txt").write_text("stuck act 0\n")
        (tmp_path / "f3.txt").write_text("# none\n")
        (tmp_path / "stim.txt").write_text("set egf 1\nset serum 0\n")

    def test_profiles_match_truth_table(self, tmp_path):
        self.write_bundle(tmp_path)
        out = tmp_path / "prof.csv"
        rc = run(
            ["profiles", "--netlist", str(tmp_path / "net.txt"),
             "--fault", str(tmp_path / "f1.txt"), "--fault", str(tmp_path / "f2.txt"),
             "--fault", str(tmp_path / "f3.txt"), "--stimulus", str(tmp_path / "stim.txt"),
             "--out", str(out)]
        )
        assert rc == 0
        profiles = cli.read_profiles_csv(str(out))
        assert len(profiles) == 2  # one per output
        assert all(p.n_networks == 3 for p in profiles)
        net = boolnet.parse_netlist(self.NETLIST)
        faults = [boolnet.parse_fault((tmp_path / f).read_text()) for f in ("f1.txt", "f2.txt", "f3.txt")]
        stim = boolnet.parse_stimulus((tmp_path / "stim.txt").read_text())
        for prof in profiles:
            want = [brute_force_evaluate(net, f, stim)[prof.gene] for f in faults]
            np.testing.assert_array_equal(prof.d, want)

    def test_empty_fault_list_usage_error(self, tmp_path):
        self.write_bundle(tmp_path)
        rc = run(
            ["profiles", "--netlist", str(tmp_path / "net.txt"),
             "--stimulus", str(tmp_path / "stim.txt"), "--out", str(tmp_path / "p.csv")]
        )
        assert rc == cli.EXIT_USAGE

    def test_netlist_parse_error_reports_line(self, tmp_path, capsys):
        (tmp_path / "bad.txt").write_text("input a\ngate y = FROB(a)\noutput y\n")
        (tmp_path / "f.txt").write_text("stuck a 1\n")
        (tmp_path / "s.txt").write_text("set a 0\n")
        rc = run(
            ["profiles", "--netlist", str(tmp_path / "bad.txt"), "--fault", str(tmp_path / "f.txt"),
             "--stimulus", str(tmp_path / "s.txt"), "--out", str(tmp_path / "p.csv")]
        )
        assert rc == cli.EXIT_USAGE
        assert "line 2" in capsys.readouterr().err

    def test_synth_consumes_profiles_file(self, tmp_path):
        self.write_bundle(tmp_path)
        prof = tmp_path / "prof.csv"
        assert run(
            ["profiles", "--netlist", str(tmp_path / "net.txt"),
             "--fault", str(tmp_path / "f1.txt"), "--fault", str(tmp_path / "f2.txt"),
             "--fault", str(tmp_path / "f3.txt"), "--stimulus", str(tmp_path / "stim.txt"),
             "--out", str(prof)]
        ) == 0
        ds_path = tmp_path / "ds.csv"
        rc = run(
            ["synth", "--genes", "50", "--true-k", "0.1,0.3", "--profiles", str(prof),
             "--seed", "6", "--out", str(ds_path)]
        )
        assert rc == 0
        ds = cli.read_dataset_csv(str(ds_path))
        assert ds.V == 50 and ds.n_networks == 3


class TestBench:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = run(
            ["bench", "--sizes", "200,400", "--method", "vb", "--iterations", "10",
             "--reps", "2", "--modes", "serial,parallel", "--workers", "2", "--out", str(out)]
        )
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["size", "mode", "seconds", "speedup_vs_serial"]
        assert len(rows) - 1 == 4

    def test_mismatch_exit_code(self, tmp_path, monkeypatch):
        calls = {"n": 0}

        def fake_bench_once(ds, hp, args, workers):
            calls["n"] += 1
            return 0.01, {"K": np.array([0.1, 0.3 + (0.1 if workers > 1 else 0.0)]), "rho": 1.0}

        monkeypatch.setattr(cli, "_bench_once", fake_bench_once)
        rc = run(["bench", "--sizes", "100", "--method", "vb", "--iterations", "2",
                  "--reps", "1", "--workers", "2", "--out", str(tmp_path / "b.csv")])
        assert rc == cli.EXIT_BENCH_MISMATCH

    def test_unknown_mode_usage_error(self, tmp_path):
        rc = run(["bench", "--sizes", "100", "--modes", "serial,warp", "--out", str(tmp_path / "b.csv")])
        assert rc == cli.EXIT_USAGE


class TestUsage:
    def test_help_exits_zero(self):
        assert run(["--help"]) == 0

    def test_unknown_command_usage(self):
        assert run(["frobnicate"]) == cli.EXIT_USAGE

    def test_workers_env_honored(self, synth_file, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.WORKERS_ENV, "2")
        out = tmp_path / "envw"
        rc = run(
            ["fit", "--method", "em", "--dataset", str(synth_file), "--out", str(out),
             "--seed", "1", "--parallel", "parallel"]
        )
        assert rc == 0
        assert read_json(out / "report.json")["config"]["parallel"] == "parallel"
