import json
import os
from pathlib import Path

import numpy as np
import pytest

from freemp import contour, verify
from freemp.cli import (CliConfig, UsageError, dispatch, main, parse_config)
from freemp.errors import ConvergenceError, DomainError
from freemp.freeconv import FreeConvolution, SupportEdges
from freemp.grammar import format_func, parse_func, parse_law
from freemp.measures import LinearLaw, sample_population
from freemp.rmt import (ENTRY_LAWS, DataMatrixSpec, eigenvalues,
                        sample_data_matrix)
from freemp.verify import json_artifact, run_clt_experiment

from oracles import precise_edges, strict_json


class TestParseConfig:
    def test_edges_flags(self):
        cfg = parse_config(["edges", "--gamma0", "0.25", "--nu", "dirac:1"])
        assert cfg.subcommand == "edges"
        assert cfg.parameters["gamma0"] == 0.25
        assert cfg.parameters["nu"].locs.tolist() == [1.0]
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

    # argparse alone reads only plain decimals such as -0.5 as negative
    # numbers; an exponent or a bare trailing point must not turn the value
    # into an unknown option
    @pytest.mark.parametrize("raw", ["-1e-3", "-1.", "-0.001", "-2E+1"])
    def test_negative_real_after_flag(self, raw):
        args = ["density", "--gamma0", "0.5", "--nu", "uniform:0.5,1"]
        assert parse_config(args + ["--xmin", raw]).parameters["xmin"] == \
            parse_config(args + [f"--xmin={raw}"]).parameters["xmin"] == \
            float(raw)

    def test_malformed_file_line(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("gamma0 0.25\n")
        with pytest.raises(UsageError, match="key=value"):
            parse_config(["edges", "--config", str(config)])

    # a fork pool starts every worker at its first task, so the count is
    # capped at parse time; only parse_config runs here, never a pool
    @pytest.mark.parametrize("cmd", [
        ["rate", "--n_list", "100,200,800", "--reps", "3"],
        ["clt", "--f", "poly:0,1", "--n", "100", "--reps", "100"]],
        ids=["rate", "clt"])
    def test_workers_capped_at_cpu_count(self, monkeypatch, cmd):
        args = cmd + ["--gamma0", "0.5", "--nu", "uniform:0.5,1", "--workers"]
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert parse_config(args + ["2"]).parameters["workers"] == 2
        for bad in ("3", "5000", "0"):
            with pytest.raises(UsageError, match="key 'workers'"):
                parse_config(args + [bad])
        monkeypatch.setattr(os, "cpu_count", lambda: None)   # unknown: 1
        assert parse_config(args + ["1"]).parameters["workers"] == 1
        with pytest.raises(UsageError, match="key 'workers'"):
            parse_config(args + ["2"])

    # NaN passes every comparison-based check downstream, so the grammar
    # rejects it (and infinities) itself, quoting the spec
    @pytest.mark.parametrize("parse, spec", [
        (parse_law, "linear:0.2,1,nan"), (parse_func, "poly:nan"),
        (parse_func, "poly:1,inf"), (parse_func, "exp:inf"),
        (parse_func, "ratshift:nan")])
    def test_non_finite_spec_argument_rejected(self, parse, spec):
        with pytest.raises(DomainError,
                           match=f"spec '{spec}' has a non-finite argument"):
            parse(spec)

    # each refusal of the grammar names what is wrong with its input
    @pytest.mark.parametrize("call, arg, fragment", [
        (parse_law, "uniform", "must look like name:args"),
        (parse_law, "uniform:a,b", "non-numeric argument"),
        (parse_law, "uniform:0.5", "takes 2 argument\\(s\\), got 1"),
        (parse_func, "exp:1,2", "takes 1 argument\\(s\\), got 2"),
        (parse_law, "gamma:1", "unknown law 'gamma'"),
        (parse_func, "sin:1", "unknown function 'sin'"),
        (format_func, contour.TestFunction(),
         "function TestFunction has no spec form")],
        ids=["no-colon", "non-numeric", "law-arity", "function-arity",
             "unknown-law", "unknown-function", "no-spec-form"])
    def test_grammar_refusals_name_the_fault(self, call, arg, fragment):
        with pytest.raises(DomainError, match=fragment):
            call(arg)


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

    # at ratio 1e300 the roots lie near -+1e-150 and the support is
    # narrower than the float spacing of its edges, which round to one value
    def test_edges_at_huge_ratio(self, tmp_path):
        code = main(["edges", "--gamma0", "1e300", "--nu", "uniform:0.5,1",
                     "--output", str(tmp_path)])
        assert code == 0
        doc = strict_json((tmp_path / "edges.json").read_text())
        want = precise_edges(LinearLaw(0.5, 1.0), 1e300)
        assert 1e-151 < doc["x_plus"] < 1e-149
        for key in ("x_minus", "x_plus", "L_minus", "L_plus"):
            assert doc[key] == pytest.approx(getattr(want, key), rel=1e-15)
        assert doc["L_minus"] <= doc["L_plus"]

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

    @pytest.mark.parametrize("gamma0,law,f", [
        ("0.5", "uniform:0.5,1", "poly:0,0,1"),
        ("2", "linear:0.2,1,1", "exp:1"),
        ("0.5", "uniform:0.5,1", "ratshift:-0.5")])
    def test_variance_default_d_is_explicit_default(self, tmp_path, gamma0,
                                                    law, f):
        # omitting --d and passing the default margin write the same bytes
        args = ["variance", "--gamma0", gamma0, "--nu", law, "--f", f]
        fc = FreeConvolution(parse_law(law), float(gamma0))
        d = contour.default_contour(fc).d
        assert main(args + ["--output", str(tmp_path / "a")]) == 0
        assert main(args + ["--d", repr(d),
                            "--output", str(tmp_path / "b")]) == 0
        text = (tmp_path / "a" / "variance.json").read_bytes()
        assert text == (tmp_path / "b" / "variance.json").read_bytes()
        params = json.loads(text)["contour_params"]
        assert list(params) == ["d", "L_minus", "L_plus"]
        assert params["d"] == d

    # exp(800 x) overflows on the circle: one freemp error line, no numpy
    # warning
    def test_overflowing_variance_exits_one(self, tmp_path, capsys):
        code = main(["variance", "--gamma0", "0.5", "--nu", "uniform:0.5,1",
                     "--f", "exp:800", "--output", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: freemp.errors.NearSingularityError: ")
        assert len(err.strip().splitlines()) == 1 and "np." not in err
        assert not (tmp_path / "variance.json").exists()

    # exp(30 x) stays finite on the circle, but F(sigma) near 1e169
    # squares past the float range: one freemp error line, no numpy
    # warning and no "V_derivation": Infinity, which is not JSON
    def test_non_finite_variance_exits_one(self, tmp_path, capsys):
        code = main(["variance", "--gamma0", "10", "--nu", "uniform:0.5,1",
                     "--f", "exp:30", "--output", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: freemp.errors.ContourError: clt "
                              "variance is not finite")
        assert len(err.strip().splitlines()) == 1 and "np." not in err
        assert not (tmp_path / "variance.json").exists()

    # a wide population and a ratio next to 1, where the circle of the
    # rectangle's crossings did not settle
    @pytest.mark.parametrize("gamma0, law, f, want", [
        ("0.5", "uniform:0.001,1", "poly:0,1", 0.041583375),
        ("0.99", "uniform:0.5,1", "poly:0,0,1", None)])
    def test_hard_variances_run(self, tmp_path, gamma0, law, f, want):
        code = main(["variance", "--gamma0", gamma0, "--nu", law, "--f", f,
                     "--output", str(tmp_path)])
        assert code == 0
        v = json.loads((tmp_path / "variance.json").read_text())[
            "V_derivation"]
        assert v > 0.0
        if want is not None:
            assert abs(v - want) <= 1e-10 * want

    # a solve that skips every lattice point leaves a max over nothing:
    # the artifact writes null, not Infinity, and the run fails with exit 2
    def test_all_skipped_locallaw_is_strict_json(self, tmp_path,
                                                 monkeypatch, capsys):
        solve = verify.stieltjes_batch

        def refuse(fc, z, **kwargs):
            if z.size:
                raise ConvergenceError("no point settled", z=z)
            return solve(fc, z, **kwargs)

        monkeypatch.setattr(verify, "stieltjes_batch", refuse)
        code = main(["locallaw", "--gamma0", "0.5", "--nu", "uniform:0.5,1",
                     "--n", "50", "--output", str(tmp_path)])
        assert code == 2
        assert "max ratio inf over 0 points" in capsys.readouterr().out
        doc = strict_json((tmp_path / "locallaw.json").read_text())
        assert doc["max_ratio"] is None and doc["points"] == 0
        assert not doc["pass"] and len(doc["skipped"]) > 0

    # strict JSON has no Infinity or NaN: an artifact holding one is
    # refused with its name, and the command exits 1 without writing it
    def test_non_finite_artifact_refused(self, tmp_path, monkeypatch,
                                         capsys):
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(DomainError, match="rate.json is not strict"):
                json_artifact({}, {"slope": bad}, "rate.json")
        monkeypatch.setattr("freemp.cli.support_edges",
                            lambda fc: SupportEdges(*[float("nan")] * 4))
        code = main(["edges", "--gamma0", "0.5", "--nu", "uniform:0.5,1",
                     "--output", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: freemp.errors.DomainError: edges.json "
                              "is not strict JSON")
        assert not (tmp_path / "edges.json").exists()

    @pytest.mark.parametrize("args, name, keys", [
        (["locallaw", "--n", "100"], "locallaw.json",
         ["config", "max_ratio", "pass", "points", "skipped"]),
        (["rate", "--n_list", "100,200,800", "--reps", "3"], "rate.json",
         ["config", "N_values", "averages", "slope", "pass"])],
        ids=["locallaw", "rate"])
    def test_check_artifact(self, tmp_path, args, name, keys):
        args = args + ["--gamma0", "0.5", "--nu", "uniform:0.5,1"]
        code = main(args + ["--output", str(tmp_path / "a")])
        text = (tmp_path / "a" / name).read_bytes()
        doc = json.loads(text)
        assert list(doc) == keys
        assert code == (0 if doc["pass"] else 2)
        if name == "rate.json":
            assert doc["config"]["n_list"] == "100,200,800"
            assert doc["N_values"] == [100, 200, 800]
        else:
            assert doc["points"] + len(doc["skipped"]) == 800
        assert main(args + ["--output", str(tmp_path / "b")]) == code
        assert (tmp_path / "b" / name).read_bytes() == text

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

    @pytest.mark.parametrize("entry_law", ENTRY_LAWS)
    @pytest.mark.parametrize("gamma0", [0.5, 2.0])
    def test_simulate_rows_are_the_two_step_spectrum(self, tmp_path,
                                                     entry_law, gamma0):
        # the one-array draw must write the spectrum of
        # eigenvalues(sigma, sample_data_matrix(spec, rng)) bit for bit
        main(["simulate", "--gamma0", str(gamma0), "--nu", "uniform:0.5,1",
              "--n", "60", "--entry_law", entry_law, "--seed", "13",
              "--output", str(tmp_path)])
        rows = [line for line in
                (tmp_path / "simulate.csv").read_text().splitlines()
                if not line.startswith("#")][1:]
        spec = DataMatrixSpec.from_ratio(gamma0, 60, entry_law)
        rng = np.random.default_rng(13)
        sigma = sample_population(LinearLaw(0.5, 1.0), spec.M, rng)
        values = eigenvalues(sigma, sample_data_matrix(spec, rng)).values
        assert rows == [f"{i},{float(v)!r}" for i, v in enumerate(values)]

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

    # real-valued keys and spec arguments alike: NaN would pass every
    # comparison downstream, and inf would reach the solver or the artifact;
    # so would a law below the support floor, whose edge arithmetic
    # overflows
    @pytest.mark.parametrize("args, key", [
        (["edges", "--gamma0", "0.5", "--nu", "linear:0.2,1,nan"], "nu"),
        (["variance", "--gamma0", "0.5", "--nu", "uniform:0.5,1",
          "--f", "poly:nan"], "f"),
        (["edges", "--gamma0", "nan", "--nu", "uniform:0.5,1"], "gamma0"),
        (["edges", "--gamma0", "inf", "--nu", "uniform:0.5,1"], "gamma0"),
        (["variance", "--gamma0", "0.5", "--nu", "uniform:0.5,1",
          "--f", "poly:0,0,1", "--d", "inf"], "d"),
        (["density", "--gamma0", "0.5", "--nu", "uniform:0.5,1",
          "--xmin", "nan"], "xmin"),
        (["density", "--gamma0", "0.5", "--nu", "uniform:0.5,1",
          "--xmax", "inf"], "xmax"),
        (["density", "--gamma0", "0.5", "--nu", "uniform:0.5,1",
          "--xmin=-inf"], "xmin"),
        (["density", "--gamma0", "0.5", "--nu", "uniform:0.5,1",
          "--xmin", "-inf"], "xmin"),
        (["locallaw", "--gamma0", "0.5", "--nu", "uniform:0.5,1",
          "--n", "100", "--tau", "nan"], "tau"),
        (["locallaw", "--gamma0", "0.5", "--nu", "uniform:0.5,1",
          "--n", "100", "--eps", "inf"], "eps"),
        (["edges", "--gamma0", "0.5", "--nu", "dirac:1e-300"], "nu"),
        (["density", "--gamma0", "0.5", "--nu", "uniform:1e-200,2e-200"],
         "nu"),
        (["edges", "--gamma0", "0.5", "--nu", "uniform:1e-103,1"], "nu")],
        ids=["edges", "variance", "gamma0-nan", "gamma0-inf", "d", "xmin",
             "xmax", "xmin-neg-inf", "xmin-neg-inf-word", "tau", "eps",
             "tiny-dirac", "tiny-uniform", "tiny-lo"])
    def test_non_finite_spec_is_usage_error(self, tmp_path, capsys, args, key):
        code = main(args + ["--output", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"usage error: key '{key}'")
        assert not any(tmp_path.iterdir())

    def test_unsettled_variance_exits_one(self, tmp_path, capsys,
                                          monkeypatch):
        # a node cap below the first comparison of two levels
        monkeypatch.setattr(contour, "MAX_CIRCLE_NODES",
                            contour.CIRCLE_NODES)
        code = main(["variance", "--gamma0", "0.999", "--nu", "uniform:0.5,1",
                     "--f", "poly:0,0,1", "--output", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "ContourError" in err and "not settled" in err
        assert not (tmp_path / "variance.json").exists()

    # every Gauss-Legendre rule comes from measures._leggauss's recurrence:
    # neither the variance's law rules nor the rate check's rectangle
    # import numpy.polynomial, a few ms of every fresh interpreter
    def test_rules_import_no_numpy_polynomial(self, run_at_threads,
                                              tmp_path):
        code = f"""\
import sys
from freemp.cli import main
out = {str(tmp_path)!r}
law = ["--nu", "uniform:0.5,1", "--gamma0", "0.5", "--output", out]
assert main(["variance", "--f", "poly:0,0,1"] + law) == 0
assert main(["rate", "--n_list", "100,200,800", "--reps", "2"] + law) in (0, 2)
print("numpy.polynomial" in sys.modules)
"""
        assert run_at_threads(code, 1).splitlines()[-1] == "False"
        assert {p.name for p in tmp_path.iterdir()} == {"variance.json",
                                                        "rate.json"}


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
        assert cfg.parameters["nu"] == LinearLaw(0.5, 1.0)
        assert cfg.parameters["f"].coeffs == (0.0, 0.0, 1.0)
        assert cfg.parameters["reps"] == 500
        assert cfg.seed > 0
