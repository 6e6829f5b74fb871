import json
from pathlib import Path

import numpy as np
import pytest

from freemp import contour
from freemp.cli import (CliConfig, UsageError, dispatch, main, parse_config)
from freemp.measures import UniformLaw
from freemp.verify import run_clt_experiment


class TestParseConfig:
    def test_edges_flags(self):
        cfg = parse_config(["edges", "--gamma0", "0.25", "--nu", "dirac:1"])
        assert cfg.subcommand == "edges"
        assert cfg.parameters["gamma0"] == 0.25
        assert cfg.parameters["nu"].value == 1.0
        assert cfg.seed == 0

    def test_clt_flags(self):
        cfg = parse_config(["clt", "--gamma0", "0.5", "--nu", "uniform:0.5,1",
                            "--f", "poly:0,1", "--n", "400", "--reps", "2000",
                            "--seed", "7"])
        assert cfg.parameters["n"] == 400
        assert cfg.parameters["reps"] == 2000
        assert cfg.seed == 7
        assert cfg.parameters["entry_law"] == "gaussian"

    def test_file_provides_and_flag_overrides(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# demo\ngamma0=0.25\nnu=dirac:1\nseed=3\n")
        cfg = parse_config(["edges", "--config", str(config)])
        assert cfg.parameters["gamma0"] == 0.25 and cfg.seed == 3
        cfg = parse_config(["edges", "--config", str(config),
                            "--gamma0", "0.5"])
        assert cfg.parameters["gamma0"] == 0.5

    def test_errors_name_the_key(self, tmp_path):
        with pytest.raises(UsageError, match="gamma0"):
            parse_config(["edges", "--nu", "dirac:1"])
        with pytest.raises(UsageError, match="'n'"):
            parse_config(["clt", "--gamma0", "0.5", "--nu", "dirac:1",
                          "--f", "poly:0,1", "--n", "many", "--reps", "100"])
        with pytest.raises(UsageError, match="badkey"):
            config = tmp_path / "bad.cfg"
            config.write_text("badkey=1\n")
            parse_config(["edges", "--config", str(config)])
        with pytest.raises(UsageError, match="--format"):   # no such flag
            parse_config(["edges", "--gamma0", "0.25", "--nu", "dirac:1",
                          "--format", "csv"])
        with pytest.raises(UsageError):
            parse_config(["edges", "--config", str(tmp_path / "nope.cfg")])

    def test_malformed_file_line(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("gamma0 0.25\n")
        with pytest.raises(UsageError, match="key=value"):
            parse_config(["edges", "--config", str(config)])


class TestDispatch:
    def test_edges_closed_form(self, tmp_path):
        code = main(["edges", "--gamma0", "0.25", "--nu", "dirac:1",
                     "--output", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "edges.json").read_text())
        assert doc["L_minus"] == pytest.approx(0.25, abs=1e-8)
        assert doc["L_plus"] == pytest.approx(2.25, abs=1e-8)
        assert doc["x_plus"] == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert doc["config"]["nu"] == "dirac:1.0"
        assert doc["config"]["seed"] == 0

    def test_density_mass(self, tmp_path):
        code = main(["density", "--gamma0", "0.25", "--nu", "dirac:1",
                     "--points", "200", "--output", str(tmp_path)])
        assert code == 0
        rows = [line for line in
                (tmp_path / "density.csv").read_text().splitlines()
                if not line.startswith("#")]
        assert rows[0] == "x,rho"
        data = np.array([[float(tok) for tok in row.split(",")]
                         for row in rows[1:]])
        assert data.shape == (200, 2)
        mass = np.trapezoid(data[:, 1], data[:, 0])
        assert mass == pytest.approx(0.25, abs=1e-3)

    def test_density_at_point_mass_is_an_error(self, tmp_path, capsys):
        code = main(["density", "--gamma0", "0.5", "--nu", "uniform:0.5,1",
                     "--xmin", "0", "--output", str(tmp_path)])
        assert code == 1
        assert "x = 0" in capsys.readouterr().err
        assert not (tmp_path / "density.csv").exists()

    def test_nonpositive_points_rejected(self, tmp_path, capsys):
        for points in ("0", "-3"):
            code = main(["density", "--gamma0", "0.5", "--nu", "uniform:0.5,1",
                         "--points", points, "--output", str(tmp_path)])
            assert code == 1
            assert "usage error: key 'points'" in capsys.readouterr().err
        assert not (tmp_path / "density.csv").exists()

    @pytest.mark.parametrize("args", [
        ["simulate", "--n", "50"], ["locallaw", "--n", "50"],
        ["rate", "--n_list", "50,60,70", "--reps", "2"]],
        ids=["simulate", "locallaw", "rate"])
    def test_seed_out_of_range_rejected(self, tmp_path, capsys, args):
        for seed in ("-1", str(2 ** 64)):
            code = main(args + ["--gamma0", "0.5", "--nu", "uniform:0.5,1",
                                "--seed", seed, "--output", str(tmp_path)])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error: key 'seed' expects ")
            assert len(err.strip().splitlines()) == 1
        assert not any(tmp_path.iterdir())
        top = parse_config(args + ["--gamma0", "0.5", "--nu", "uniform:0.5,1",
                                   "--seed", str(2 ** 64 - 1)])
        assert top.seed == 2 ** 64 - 1

    def test_variance_artifact(self, tmp_path):
        code = main(["variance", "--gamma0", "0.5", "--nu", "uniform:0.5,1",
                     "--f", "poly:0,1", "--output", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "variance.json").read_text())
        assert doc["V_derivation"] == pytest.approx(1.0 / 96.0, abs=1e-8)
        assert doc["contour_params"]["d"] > 0.0
        assert doc["config"]["d"] == doc["contour_params"]["d"]

    def test_simulate_artifact(self, tmp_path):
        code = main(["simulate", "--gamma0", "0.5", "--nu", "uniform:0.5,1",
                     "--n", "100", "--seed", "5", "--output", str(tmp_path)])
        assert code == 0
        rows = [line for line in
                (tmp_path / "simulate.csv").read_text().splitlines()
                if not line.startswith("#")]
        assert rows[0] == "index,eigenvalue"
        values = [float(row.split(",")[1]) for row in rows[1:]]
        assert len(values) == 100
        assert values == sorted(values, reverse=True)
        # exactly N - M zeros padded in
        assert sum(1 for v in values if v == 0.0) == 50

    def test_simulate_deterministic(self, tmp_path):
        args = ["simulate", "--gamma0", "0.5", "--nu", "uniform:0.5,1",
                "--n", "80", "--seed", "11"]
        main(args + ["--output", str(tmp_path / "a")])
        main(args + ["--output", str(tmp_path / "b")])
        assert (tmp_path / "a" / "simulate.csv").read_bytes() == \
               (tmp_path / "b" / "simulate.csv").read_bytes()

    def test_gamma_one_rejected(self, tmp_path, capsys):
        code = main(["clt", "--gamma0", "1.0", "--nu", "dirac:1",
                     "--f", "poly:0,1", "--n", "100", "--reps", "100",
                     "--output", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "DomainError" in err and "freemp" in err

    def test_unknown_subcommand_is_error(self):
        assert main(["frobnicate"]) == 1

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("occupied\n")
        for out in (blocker, blocker / "sub"):
            code = main(["edges", "--gamma0", "0.25", "--nu", "dirac:1",
                         "--output", str(out)])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error: cannot write ")
            assert str(out / "edges.json") in err
            assert len(err.strip().splitlines()) == 1
        assert blocker.read_text() == "occupied\n"

    def test_unsettled_variance_exits_one(self, tmp_path, capsys,
                                          monkeypatch):
        # ratio 0.999 does not settle at the default margin; a small node
        # cap reaches the same failure quickly
        monkeypatch.setattr(contour, "MAX_CIRCLE_NODES",
                            contour.CIRCLE_NODES)
        code = main(["variance", "--gamma0", "0.999", "--nu", "uniform:0.5,1",
                     "--f", "poly:0,0,1", "--output", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "ContourError" in err and "not settled" in err
        assert not (tmp_path / "variance.json").exists()


class TestCltCommand:
    def test_run_and_artifacts(self, tmp_path):
        code = main(["clt", "--gamma0", "0.5", "--nu", "uniform:0.5,1",
                     "--f", "poly:0,1", "--n", "100", "--reps", "120",
                     "--seed", "42", "--output", str(tmp_path)])
        doc = json.loads((tmp_path / "clt.json").read_text())
        assert code == (0 if doc["pass"] else 2)
        assert len(doc["samples"]) == 120
        csv_rows = [line for line in
                    (tmp_path / "clt.csv").read_text().splitlines()
                    if not line.startswith("#")]
        assert csv_rows[0] == "replicate,seed,statistic"
        assert len(csv_rows) == 121

    def test_embedded_config_reproduces_run(self, tmp_path):
        out1 = tmp_path / "one"
        main(["clt", "--gamma0", "0.5", "--nu", "uniform:0.5,1",
              "--f", "poly:0,1", "--n", "100", "--reps", "120",
              "--seed", "42", "--output", str(out1)])
        doc = json.loads((out1 / "clt.json").read_text())
        # rebuild the command line from the artifact's embedded config
        conf = doc["config"]
        out2 = tmp_path / "two"
        main(["clt", "--gamma0", str(conf["gamma0"]), "--nu", conf["nu"],
              "--f", conf["f"], "--n", str(conf["N"]),
              "--reps", str(conf["replicates"]),
              "--entry_law", conf["entry_law"], "--d", str(conf["d"]),
              "--seed", str(doc["seed"]), "--output", str(out2)])
        assert (out1 / "clt.json").read_bytes() == \
               (out2 / "clt.json").read_bytes()
        assert (out1 / "clt.csv").read_bytes() == \
               (out2 / "clt.csv").read_bytes()


class TestShippedConfig:
    def test_parses_to_expected_experiment(self):
        path = Path(__file__).resolve().parents[1] / "configs/clt_default.cfg"
        cfg = parse_config(["clt", "--config", str(path)])
        assert cfg.parameters["gamma0"] == 0.5
        assert cfg.parameters["nu"] == UniformLaw(0.5, 1.0)
        assert cfg.parameters["f"].coeffs == (0.0, 0.0, 1.0)
        assert cfg.parameters["reps"] == 500
        assert cfg.seed > 0
