"""Command-line front end.

Subcommands compute limiting-law quantities (density, edges, variance),
draw finite-size spectra (simulate), or run the Monte Carlo checks
(clt, locallaw, rate).  Parameters come from flags and/or a flat
key=value config file; flags win.  Artifacts are CSV or JSON, embed the
resolved configuration and seed, and contain no timestamps, so a given
configuration always produces identical bytes.

Exit codes: 0 pass, 1 error, 2 gate failure.
"""

import argparse
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .contour import build_contour, clt_variance
from .errors import DomainError, FreempError
from .freeconv import FreeConvolution, density_batch, support_edges
from .grammar import format_func, format_law, parse_func, parse_law
from .measures import sample_population
from .rmt import ENTRY_LAWS, DataMatrixSpec, draw_sample, sample_data_matrix
from .verify import (ExperimentConfig, check_hat_rate, check_local_law,
                     csv_artifact, json_artifact, report_to_csv,
                     report_to_json, run_clt_experiment)

REQUIRED = object()


class UsageError(FreempError):
    """Bad command line or config file; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems, which would collide
    # with the gate-failure code; surface them as exceptions instead
    def error(self, message):
        raise UsageError(message)

    # argparse reads only plain decimals such as -0.5 as negative numbers,
    # so -1e-3 or -inf after a flag would be taken for an unknown option;
    # any token float() parses is a value
    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


@dataclass(frozen=True)
class Key:
    """One config key: how to parse it and what to say when that fails."""

    convert: Callable[[str], object]
    expected: str
    default: object = REQUIRED
    help: str = ""


@dataclass(frozen=True)
class CliConfig:
    """Resolved invocation: subcommand plus fully typed parameters."""

    subcommand: str
    parameters: dict
    output: str
    seed: int


def _int(raw: str) -> int:
    return int(raw, 10)


def _positive_int(raw: str) -> int:
    value = _int(raw)
    if value < 1:
        raise ValueError(value)
    return value


def _seed(raw: str) -> int:
    value = _int(raw)
    if not 0 <= value < 2 ** 64:
        raise ValueError(value)
    return value


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(tok, 10) for tok in raw.split(","))


def _finite(raw: str) -> float:
    # NaN passes every comparison-based check downstream, so it stops here
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(value)
    return value


def _workers(raw: str) -> int:
    # a fork pool starts all its processes at once, so cap them here,
    # before any pool exists
    value = _positive_int(raw)
    cpus = os.cpu_count() or 1
    if value > cpus:
        raise DomainError(f"{value} workers exceed the {cpus} CPU(s)")
    return value


_COMMON = {
    "gamma0": Key(_finite, "a positive real != 1",
                  help="dimension ratio M/N limit"),
    "nu": Key(parse_law, "a law spec dirac:c | uniform:a,b | linear:a,b,slope",
              help="population spectral law"),
    "output": Key(str, "a directory path", default=".",
                  help="directory artifacts are written into"),
    "seed": Key(_seed, "an integer in [0, 2**64)", default=0,
                help="root seed for every random draw"),
}

_F_KEY = Key(parse_func, "a function spec poly:c0,c1,... | exp:s | ratshift:p",
             help="test function applied to the eigenvalues")
_D_KEY = Key(_finite, "a positive real", default=None,
             help="contour margin (default: min(L_minus/20, 0.05))")
_ENTRY_KEY = Key(str, "one of " + "|".join(ENTRY_LAWS), default="gaussian",
                 help="entry distribution of the data matrix")
_WORKERS_KEY = Key(_workers, "a positive integer", default=None,
                   help="worker processes, at most the CPU count "
                        "(default: 1)")

SUBCOMMAND_KEYS = {
    "density": {
        **_COMMON,
        "points": Key(_positive_int, "a positive integer", default=200,
                      help="grid size"),
        "xmin": Key(_finite, "a real", default=None,
                    help="grid start (default: lower support edge)"),
        "xmax": Key(_finite, "a real", default=None,
                    help="grid end (default: upper support edge)"),
    },
    "edges": {**_COMMON},
    "variance": {**_COMMON, "f": _F_KEY, "d": _D_KEY},
    "simulate": {
        **_COMMON,
        "n": Key(_int, "an integer >= 2", help="matrix dimension N"),
        "entry_law": _ENTRY_KEY,
    },
    "clt": {
        **_COMMON,
        "f": _F_KEY,
        "n": Key(_int, "an integer >= 50", help="matrix dimension N"),
        "reps": Key(_int, "an integer >= 100", help="Monte Carlo replicates"),
        "entry_law": _ENTRY_KEY,
        "d": _D_KEY,
        "workers": _WORKERS_KEY,
    },
    "locallaw": {
        **_COMMON,
        "n": Key(_int, "an integer >= 2", help="matrix dimension N"),
        "tau": Key(_finite, "a real in (0, 0.5)", default=0.1,
                   help="spectral-domain parameter"),
        "eps": Key(_finite, "a positive real", default=0.1,
                   help="deviation exponent"),
        "entry_law": _ENTRY_KEY,
    },
    "rate": {
        **_COMMON,
        "n_list": Key(_int_list, "comma-separated integers, e.g. 250,500,2000",
                      help="matrix dimensions to fit the decay against"),
        "reps": Key(_int, "a positive integer", help="replicates per size"),
        "workers": _WORKERS_KEY,
    },
}

# keys whose values echo through artifacts; workers is excluded so that
# the worker count can never change artifact bytes
_NO_ECHO = {"workers", "output"}


def _build_parser() -> _Parser:
    parser = _Parser(prog="freemp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, table in SUBCOMMAND_KEYS.items():
        sub = subparsers.add_parser(name, prog=f"freemp {name}")
        sub.add_argument("--config", default=None, metavar="FILE",
                         help="flat key=value file; flags override it")
        for key, spec in table.items():
            sub.add_argument(f"--{key}", default=None, metavar=key.upper(),
                             help=spec.help or spec.expected)
    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(
                f"{path}:{lineno}: expected key=value, got {line!r}")
        values[key.strip()] = value.strip()
    return values


def parse_config(argv) -> CliConfig:
    """Resolve argv (plus any --config file) into a typed CliConfig."""
    namespace = _build_parser().parse_args(argv)
    name = namespace.subcommand
    table = SUBCOMMAND_KEYS[name]

    raw = {}
    if namespace.config is not None:
        raw.update(_read_config_file(namespace.config))
    for key in table:
        flag = getattr(namespace, key)
        if flag is not None:
            raw[key] = flag

    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise UsageError(f"unknown key(s) for {name}: {', '.join(unknown)}")

    parameters = {}
    for key, spec in table.items():
        if key in raw:
            try:
                parameters[key] = spec.convert(raw[key])
            except FreempError as exc:
                raise UsageError(f"key '{key}': {exc}")
            except (ValueError, TypeError):
                raise UsageError(
                    f"key '{key}' expects {spec.expected}, got {raw[key]!r}")
        elif spec.default is REQUIRED:
            raise UsageError(
                f"missing required key '{key}' ({spec.expected}) for {name}")
        else:
            parameters[key] = spec.default
    return CliConfig(subcommand=name, parameters=parameters,
                     output=parameters["output"], seed=parameters["seed"])


def _echo(parameters: dict) -> dict:
    """Artifact form of the resolved parameters, in stable key order."""
    out = {}
    for key in sorted(parameters):
        if key in _NO_ECHO or parameters[key] is None:
            continue
        value = parameters[key]
        if key == "nu":
            out[key] = format_law(value)
        elif key == "f":
            out[key] = format_func(value)
        elif isinstance(value, tuple):
            out[key] = ",".join(str(v) for v in value)
        else:
            out[key] = value
    return out


def _write(out_dir: str, filename: str, text: str) -> str:
    path = os.path.join(out_dir, filename)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}")
    print(f"wrote {path}")
    return path


def _write_json(out_dir: str, filename: str, config: dict, body: dict) -> str:
    return _write(out_dir, filename, json_artifact(config, body, filename))


def _cmd_density(cfg: CliConfig) -> int:
    p = cfg.parameters
    fc = FreeConvolution(p["nu"], p["gamma0"])
    edges = support_edges(fc)
    resolved = dict(p)
    resolved["xmin"] = float(edges.L_minus if p["xmin"] is None else p["xmin"])
    resolved["xmax"] = float(edges.L_plus if p["xmax"] is None else p["xmax"])
    grid = np.linspace(resolved["xmin"], resolved["xmax"], p["points"])
    rho = density_batch(fc, grid)
    rows = (f"{float(x)!r},{float(r)!r}" for x, r in zip(grid, rho))
    _write(cfg.output, "density.csv",
           csv_artifact(_echo(resolved), "x,rho", rows))
    return 0


def _cmd_edges(cfg: CliConfig) -> int:
    p = cfg.parameters
    fc = FreeConvolution(p["nu"], p["gamma0"])
    edges = support_edges(fc)
    body = {"L_minus": edges.L_minus, "L_plus": edges.L_plus,
            "x_plus": edges.x_plus, "x_minus": edges.x_minus}
    _write_json(cfg.output, "edges.json", _echo(p), body)
    return 0


def _cmd_variance(cfg: CliConfig) -> int:
    p = cfg.parameters
    fc = FreeConvolution(p["nu"], p["gamma0"])
    contour = build_contour(support_edges(fc), d=p["d"])
    v = clt_variance(fc, p["f"])
    resolved = dict(p)
    resolved["d"] = contour.d
    body = {"V_derivation": v, "contour_params": asdict(contour)}
    _write_json(cfg.output, "variance.json", _echo(resolved), body)
    return 0


def _cmd_simulate(cfg: CliConfig) -> int:
    p = cfg.parameters
    spec = DataMatrixSpec.from_ratio(p["gamma0"], p["n"], p["entry_law"])
    rng = np.random.default_rng(cfg.seed)
    sigma = sample_population(p["nu"], spec.M, rng)
    sample = draw_sample(sigma, spec, rng)
    rows = (f"{i},{float(v)!r}" for i, v in enumerate(sample.values))
    _write(cfg.output, "simulate.csv",
           csv_artifact(_echo(p), "index,eigenvalue", rows))
    return 0


def _cmd_clt(cfg: CliConfig) -> int:
    p = cfg.parameters
    experiment = ExperimentConfig(
        gamma0=p["gamma0"], nu=p["nu"], f=p["f"], N_list=(p["n"],),
        replicates=p["reps"], seed=cfg.seed, entry_law=p["entry_law"],
        d=p["d"], output_path=cfg.output)
    report = run_clt_experiment(experiment, workers=p["workers"])
    _write(cfg.output, "clt.json", report_to_json(experiment, report))
    _write(cfg.output, "clt.csv", report_to_csv(experiment, report))
    print(f"clt: {'pass' if report.passed else 'FAIL'} "
          f"(empirical {report.empirical_variance:.6g}, "
          f"predicted {report.theoretical_variance:.6g}, "
          f"ks p {report.ks_pvalue:.4g}, mean {report.mean:.4g})")
    return 0 if report.passed else 2


def _cmd_locallaw(cfg: CliConfig) -> int:
    p = cfg.parameters
    spec = DataMatrixSpec.from_ratio(p["gamma0"], p["n"], p["entry_law"])
    rng = np.random.default_rng(cfg.seed)
    sigma = sample_population(p["nu"], spec.M, rng)
    X = sample_data_matrix(spec, rng)
    report = check_local_law(sigma, X, p["tau"], p["eps"])
    body = {
        # the max over no solved point is inf, which strict JSON has no
        # number for
        "max_ratio": report.max_ratio if report.points else None,
        "pass": report.passed,
        "points": report.points,
        "skipped": [{"z_real": z.real, "z_imag": z.imag, "error": msg}
                    for z, msg in report.skipped],
    }
    _write_json(cfg.output, "locallaw.json", _echo(p), body)
    print(f"locallaw: {'pass' if report.passed else 'FAIL'} "
          f"(max ratio {report.max_ratio:.4g} over {report.points} points)")
    return 0 if report.passed else 2


def _cmd_rate(cfg: CliConfig) -> int:
    p = cfg.parameters
    report = check_hat_rate(p["nu"], p["gamma0"], p["n_list"], p["reps"],
                            cfg.seed, workers=p["workers"])
    body = {
        "N_values": list(report.N_values),
        "averages": list(report.averages),
        "slope": report.slope,
        "pass": report.passed,
    }
    _write_json(cfg.output, "rate.json", _echo(p), body)
    print(f"rate: {'pass' if report.passed else 'FAIL'} "
          f"(slope {report.slope:.4f})")
    return 0 if report.passed else 2


_DISPATCH = {
    "density": _cmd_density,
    "edges": _cmd_edges,
    "variance": _cmd_variance,
    "simulate": _cmd_simulate,
    "clt": _cmd_clt,
    "locallaw": _cmd_locallaw,
    "rate": _cmd_rate,
}


def dispatch(cfg: CliConfig) -> int:
    return _DISPATCH[cfg.subcommand](cfg)


def main(argv=None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
        return dispatch(cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FreempError as exc:
        kind = type(exc)
        print(f"error: {kind.__module__}.{kind.__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
