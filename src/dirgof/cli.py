"""Command line front end.

One flat command with a ``--command`` selector, so a run is fully described
by a flat key=value config file; command line flags override file keys.
Outputs are self-describing (config echo embedded) and byte-identical
across reruns with a fixed seed and worker count.

Exit codes: 0 success, 2 data or configuration error (any ``ValueError``),
3 numeric failure; ``main`` alone maps exceptions to them.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import os
import re
import sys
from math import isfinite, sqrt
from pathlib import Path

import numpy as np

from . import goftest, parfit, simsuite
from .kernels import BandwidthOverflowError
from .sphere import unit_rows

EXIT_DATA_ERROR = 2
EXIT_NUMERIC_ERROR = 3
# the flags behind the inputs whose derived constants leave the float range
_OVERFLOW_CAUSES = {BandwidthOverflowError: " (set by --h or --h-grid)",
                    simsuite.NoiseOverflowError: " (set by --sigma2 or --noise-sd)"}

_FAMILY_BUILDERS = {
    "constant": lambda q, constraint: parfit.constant_family(),
    "linear": lambda q, constraint: parfit.linear_family(q),
    "trig-s3": lambda q, constraint: parfit.trig_family(q),
    "damped-sine-s4": lambda q, constraint: parfit.damped_sine_family(q),
    "constrained-linear": lambda q, constraint: parfit.constrained_linear_family(
        constraint, q
    ),
}


# an inline scenario's keys: its null, which test reads too, and the rest
_NULL_KEYS = ("family", "constraint", "theta0")
_SCENARIO_KEYS = ("design", "noise", "noise_sd", "deviation", "deviation_coef")
# the commands that read each flag some command ignores; the bandwidth pair,
# the inline-scenario keys and --sigma2 have their own checks in _validate.
# test accepts --workers unread, so one pool size may go to every command
_READERS = {
    "data": ("test",), "hypothesis": ("test",), "B": ("test", "trace", "power"),
    "scenario": ("trace", "power", "qqcheck"), "n": ("trace", "power", "qqcheck"),
    "M": ("trace", "power", "qqcheck"), "alpha_list": ("trace", "power"), "local_alt": ("power",),
}
# the default of each flag that has one, applied once the flags as given pass _validate
_DEFAULTS = {
    "n": 100, "M": 500, "B": 200, "p": 0, "seed": 0, "workers": 1,
    "alpha_list": "0.01,0.05,0.10", "family": "linear", "hypothesis": "composite",
    "noise": "hom", "noise_sd": 0.5, "deviation": "none", "deviation_coef": 0.0,
    # 20 log-spaced bandwidths, at the 6 significant digits a trace writes
    "h_grid": ",".join(f"{v:.6g}" for v in np.geomspace(0.1, 1.5, 20)),
}


class DataError(ValueError):
    """Malformed input data or configuration."""


class _Parser(argparse.ArgumentParser):
    """Argument errors raise DataError, so flags and file keys fail alike."""

    def error(self, message):
        raise DataError(message)


def _number(kind, low=None):
    """Argparse type: a finite ``kind`` value, at least ``low`` when given."""

    def parse(text: str):
        value = kind(text)
        if not isfinite(value) or (low is not None and value < low):
            bound = "" if low is None else f" >= {low}"
            raise argparse.ArgumentTypeError(f"expected finite {kind.__name__}{bound}, got {text}")
        return value

    parse.__name__ = kind.__name__  # names the type in argparse's "invalid int value"
    return parse


def _yes_no(text: str) -> bool:
    """Argparse type for the optional value of --local-alt (``local_alt = yes``)."""
    if text.lower() in ("1", "true", "yes", "0", "false", "no"):
        return text.lower() in ("1", "true", "yes")
    raise argparse.ArgumentTypeError(f"expected yes or no, got {text!r}")


def _build_parser(allow_abbrev: bool = True) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dirgof",
        description="Goodness-of-fit testing for regression models with "
        "predictors on the unit sphere.",
        allow_abbrev=allow_abbrev,
    )
    parser.add_argument("--config", help="flat key=value config file; flags override")
    parser.add_argument(
        "--command", choices=["test", "trace", "power", "qqcheck"], help="what to run"
    )
    parser.add_argument("--data", help="input CSV with header x1..x{q+1},y (test only)")
    parser.add_argument(
        "--scenario",
        choices=[*simsuite.SCENARIO_IDS, "QQ", "custom"],
        help="scenario id, or 'custom' for an inline definition built "
        "from --family/--theta0/--design/--noise/--deviation keys",
    )
    parser.add_argument(
        "--design",
        help="design density: a named model (M1, M4s, M12s, M20s, M16s) or "
        "mixture components 'weight:kappa:mu1,..,mud; ...'",
    )
    parser.add_argument("--noise", choices=["hom", "het"], help="noise model of a custom scenario")
    parser.add_argument("--noise-sd", type=_number(float), help="noise sd of a custom scenario")
    parser.add_argument(
        "--deviation", choices=["none", "d1", "d2"], help="deviation shape of a custom scenario"
    )
    parser.add_argument(
        "--deviation-coef", type=_number(float), help="deviation coefficient of a custom scenario"
    )
    parser.add_argument(
        "--q", type=_number(int, 1), help="sphere dimension (scenarios default to 1)"
    )
    parser.add_argument("--n", type=_number(int, 1), help="sample size per Monte Carlo trial")
    parser.add_argument("--p", type=int, choices=[0, 1], help="local fit degree")
    parser.add_argument("--h", type=_number(float), help="bandwidth")
    parser.add_argument("--h-grid", help="comma separated bandwidth grid (default 20 "
                        "log-spaced bandwidths in [0.1, 1.5])")
    parser.add_argument("--B", type=_number(int, 1), help="bootstrap replicates")
    parser.add_argument("--M", type=_number(int, 1), help="Monte Carlo trials")
    parser.add_argument("--alpha-list", help="comma separated significance levels")
    parser.add_argument("--quad-res", type=_number(int, 8), help="quadrature resolution")
    parser.add_argument("--seed", type=int, help="root seed")
    parser.add_argument("--workers", type=_number(int, 1), help="parallel workers")
    parser.add_argument("--out", help="output path (JSON for test, CSV otherwise)")
    parser.add_argument("--family", choices=sorted(_FAMILY_BUILDERS), help="null family")
    parser.add_argument("--constraint", help="CSV of the constraint matrix rows")
    parser.add_argument("--hypothesis", choices=["composite", "simple"], help="null type of test")
    parser.add_argument("--theta0", help="comma separated parameter (simple null; custom truth)")
    parser.add_argument(
        "--sigma2", type=_number(float), help="noise variance (qqcheck --scenario QQ; preset 0.5)"
    )
    parser.add_argument(
        "--local-alt", nargs="?", const=True, default=False, type=_yes_no,
        help="scale the deviation at the critical drift rate (power)",
    )
    for action in parser._actions:
        if action.dest in _DEFAULTS and action.dest != "h_grid":
            action.help += f" (default {_DEFAULTS[action.dest]})"
    return parser


def _join_negative_values(argv) -> list[str]:
    """``--theta0 -1,0.5`` as ``--theta0=-1,0.5``: argparse reads a separate
    value that starts with a minus sign as an option unless it is one number."""
    joined = []
    for arg in argv:
        if joined and re.match(r"--[^=]+$", joined[-1]) and re.match(r"-\.?\d", arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def _merge(argv) -> dict:
    """File keys first, command line flags on top, both checked as _build_parser declares.

    Each file line ``key = value`` is parsed as the flag ``--key=value``, one
    line at a time so an error names its line; keys must be exact option
    names (abbreviations are refused) other than ``config``.
    """
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    path = parser.parse_args(argv).config
    namespace = argparse.Namespace()
    if path is not None:
        if not Path(path).is_file():
            raise DataError(f"config file not found: {path}")
        file_parser = _build_parser(allow_abbrev=False)
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            flag = "--" + key.replace("_", "-")
            try:
                if not sep:
                    raise DataError(f"expected key = value, got {line!r}")
                if flag == "--config":
                    raise DataError("config files do not nest")
                if file_parser.parse_known_args([f"{flag}={value}"], namespace)[1]:
                    raise DataError(f"unknown key {key!r}")
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
    return vars(parser.parse_args(argv, namespace))


def _float_list(text: str, name: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise DataError(f"bad {name}: {exc}") from exc
    if not values:
        raise DataError(f"{name} is empty")
    if not all(map(isfinite, values)):
        raise DataError(f"{name} has a non-finite entry: {text}")
    return values


def _validate(cfg: dict) -> dict:
    if cfg["command"] is None:
        raise DataError("--command is required (test, trace, power or qqcheck)")
    if cfg["out"] is None:
        raise DataError("--out is required")
    for key, readers in _READERS.items():  # unset is None, and False for --local-alt: 0 is set
        if cfg[key] is not None and cfg[key] is not False and cfg["command"] not in readers:
            flag = "--" + key.replace("_", "-")
            raise DataError(f"{flag} applies to {', '.join(readers)} only, not {cfg['command']}")
    if cfg["seed"] is not None and cfg["seed"] < 0:  # numpy seeds are non-negative
        raise DataError(f"argument --seed: expected int >= 0, got {cfg['seed']}")
    cpus = os.cpu_count() or 1  # each worker holds a trial's arrays
    if cfg["workers"] is not None and cfg["workers"] > cpus:
        raise DataError(f"argument --workers: expected int <= {cpus} (CPUs), got {cfg['workers']}")
    for path_key in ("data", "constraint"):
        if cfg[path_key] is not None and not Path(cfg[path_key]).is_file():
            raise DataError(f"{path_key} file not found: {cfg[path_key]}")
    if cfg["command"] == "test":
        if cfg["data"] is None:
            raise DataError("test needs --data")
    elif cfg["scenario"] is None:
        raise DataError(f"{cfg['command']} needs --scenario")
    # each command reads one bandwidth flag and one set of scenario keys
    one_h = cfg["command"] in ("test", "qqcheck")
    if cfg["h_grid" if one_h else "h"] is not None:
        read, unread = ("--h", "--h-grid") if one_h else ("--h-grid", "--h")
        raise DataError(f"{cfg['command']} reads {read}, not {unread}")
    if cfg["command"] == "test":
        unread = _SCENARIO_KEYS
    else:
        unread = () if cfg["scenario"] == "custom" else _NULL_KEYS + _SCENARIO_KEYS
    for key in unread:
        if cfg[key] is not None:
            raise DataError(f"--{key.replace('_', '-')} applies to --scenario custom only")
    if cfg["command"] == "test" and cfg["theta0"] is not None and cfg["hypothesis"] != "simple":
        raise DataError("test reads --theta0 under --hypothesis simple only")
    if one_h and cfg["h"] is None:
        raise DataError(f"{cfg['command']} needs --h")
    if cfg["sigma2"] is not None and (cfg["command"], cfg["scenario"]) != ("qqcheck", "QQ"):
        hint = "; custom scenarios take --noise-sd" if cfg["scenario"] == "custom" else ""
        raise DataError(f"--sigma2 applies to qqcheck --scenario QQ only{hint}")
    return cfg | {key: value for key, value in _DEFAULTS.items() if cfg[key] is None}


def _read_data_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as stream:
        reader = csv.reader(stream)
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise DataError(f"{path}: empty file (0 rows, expected header + data)")
    header = [cell.strip() for cell in rows[0]]
    if len(header) < 3 or header[-1] != "y" or header[:-1] != [
        f"x{i + 1}" for i in range(len(header) - 1)
    ]:
        raise DataError(
            f"{path}: header must be x1..x{{q+1}},y with q >= 1, got {header}"
        )
    if len(rows) == 1:
        raise DataError(f"{path}: no data rows (1 header row, 0 data rows)")
    for number, row in enumerate(rows[1:], 1):
        if len(row) != len(header):
            raise DataError(f"{path}: data row {number} has {len(row)} cells, not {len(header)}")
    try:
        body = np.array([[float(cell) for cell in row] for row in rows[1:]])
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric cell: {exc}") from exc
    if not np.all(np.isfinite(body)):
        row, col = np.argwhere(~np.isfinite(body))[0]
        raise DataError(
            f"{path}: non-finite cell {body[row, col]} in data row {row + 1}, "
            f"column {header[col]}"
        )
    try:
        predictors = unit_rows(body[:, :-1], atol=1e-6)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return predictors, body[:, -1]


def _family_from_config(cfg: dict, q: int) -> parfit.ParametricFamily:
    family = cfg["family"]
    if cfg["constraint"] is not None and family != "constrained-linear":
        raise DataError("--constraint applies to --family constrained-linear only")
    constraint = None
    if cfg["constraint"]:
        try:
            constraint = np.loadtxt(cfg["constraint"], delimiter=",", ndmin=2)
        except ValueError as exc:
            raise DataError(f"{cfg['constraint']}: {exc}") from exc
    if family == "constrained-linear" and constraint is None:
        raise DataError("constrained-linear needs --constraint")
    return _FAMILY_BUILDERS[family](q, constraint)


def _theta0(cfg: dict, family: parfit.ParametricFamily, missing: str) -> np.ndarray:
    """--theta0 as a parameter of ``family``; ``missing`` is the error without it."""
    if cfg["theta0"] is None:
        raise DataError(missing)
    theta0 = np.array(_float_list(cfg["theta0"], "theta0"))
    if theta0.size != family.dim_theta:
        raise DataError(f"theta0 needs {family.dim_theta} entries, got {theta0.size}")
    return theta0


def _write_bytes(path: str, payload: str) -> None:
    with open(path, "w", newline="\n") as stream:
        stream.write(payload)


def cmd_test(cfg: dict) -> int:
    predictors, responses = _read_data_csv(cfg["data"])
    q = predictors.shape[1] - 1
    if cfg["q"] is not None and cfg["q"] != q:
        raise DataError(f"--q {cfg['q']} contradicts the {q + 1} predictor columns")
    family = _family_from_config(cfg, q)
    theta0 = None
    if cfg["hypothesis"] == "simple":
        theta0 = _theta0(cfg, family, "simple hypothesis needs --theta0")
    (gof_cfg,) = goftest.bandwidth_configs(q, [cfg["h"]], cfg["p"], cfg["quad_res"], cfg["seed"])
    gof_cfg = dataclasses.replace(gof_cfg, bootstrap=cfg["B"], seed=cfg["seed"], theta0=theta0)
    result = goftest.bootstrap_test(predictors, responses, family, gof_cfg)
    _write_bytes(cfg["out"], result.to_json() + "\n")
    return 0


def _parse_design(text: str, q: int):
    """Named design density or explicit 'weight:kappa:mu,...' components."""
    from . import density

    if ":" not in text:
        return density.named_model(text.strip(), q)
    components = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 3:
            raise DataError(
                f"design component {chunk!r} is not 'weight:kappa:mu1,..,mud'"
            )
        try:
            weight, kappa = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise DataError(f"bad design component {chunk!r}: {exc}") from exc
        mu = np.array(_float_list(parts[2], "design mean"))
        if mu.size != q + 1:
            raise DataError(f"design mean needs {q + 1} entries, got {mu.size}")
        components.append((mu / np.linalg.norm(mu), kappa, weight))
    try:
        return density.mixture_model(components)
    except ValueError as exc:
        raise DataError(f"bad design mixture: {exc}") from exc


def _scenario_from_config(cfg: dict) -> simsuite.Scenario:
    q = 1 if cfg["q"] is None else cfg["q"]
    if cfg["scenario"] != "custom":
        return simsuite.make_scenario(cfg["scenario"], q)
    family = _family_from_config(cfg, q)
    theta0 = _theta0(cfg, family, "custom scenarios need --theta0 (the true parameter)")
    design = _parse_design(cfg["design"], q) if cfg["design"] else None
    if design is None:
        raise DataError("custom scenarios need --design")
    if cfg["noise_sd"] <= 0:
        raise DataError("noise-sd must be positive")
    return simsuite.Scenario(
        id="custom",
        q=q,
        family=family,
        theta0=theta0,
        design=design,
        noise=cfg["noise"],
        deviation=None if cfg["deviation"] == "none" else cfg["deviation"],
        deviation_coef=cfg["deviation_coef"],
        noise_sd=cfg["noise_sd"],
    )


def cmd_trace(cfg: dict, under_null: bool) -> int:
    scenario = _scenario_from_config(cfg)
    result = simsuite.significance_trace(
        scenario,
        n=cfg["n"],
        h_grid=_float_list(cfg["h_grid"], "h-grid"),
        trials=cfg["M"],
        bootstrap=cfg["B"],
        alphas=_float_list(cfg["alpha_list"], "alpha-list"),
        seed=cfg["seed"],
        degree=cfg["p"],
        under_null=under_null,
        local_alternative=cfg["local_alt"],
        quad_resolution=cfg["quad_res"],
        workers=cfg["workers"],
    )
    buffer = io.StringIO()
    result.write_csv(buffer)
    _write_bytes(cfg["out"], buffer.getvalue())
    return 0


def cmd_qqcheck(cfg: dict) -> int:
    scenario = _scenario_from_config(cfg)
    if cfg["sigma2"] is not None:  # _validate lets it through with QQ only
        if cfg["sigma2"] <= 0:
            raise DataError("sigma2 must be positive")
        scenario = dataclasses.replace(scenario, noise_sd=sqrt(cfg["sigma2"]))
    result = simsuite.qq_experiment(
        scenario,
        n=cfg["n"],
        h=cfg["h"],
        trials=cfg["M"],
        seed=cfg["seed"],
        degree=cfg["p"],
        quad_resolution=cfg["quad_res"],
        workers=cfg["workers"],
    )
    lines = ["rep,t_std"]
    for i, value in enumerate(result.values):
        lines.append(f"{i},{value:.17g}")
    if result.values.size >= 8:
        from scipy import stats

        ks_p = stats.kstest(result.values, "norm").pvalue
        sw_p = stats.shapiro(result.values).pvalue
        lines.append(f"ks_pvalue,{ks_p:.17g}")
        lines.append(f"sw_pvalue,{sw_p:.17g}")
    else:
        lines.append("notice,normality tests skipped (fewer than 8 replicates)")
    for key in ("scenario_id", "q", "n", "h", "seed", "degree", "center", "scale"):
        value = getattr(result, key)
        lines.append(f"{key},{value:.17g}" if isinstance(value, float) else f"{key},{value}")
    _write_bytes(cfg["out"], "\n".join(lines) + "\n")
    return 0


def main(argv=None) -> int:
    try:
        cfg = _validate(_merge(argv))
        if cfg["command"] == "test":
            return cmd_test(cfg)
        if cfg["command"] == "trace":
            return cmd_trace(cfg, under_null=True)
        if cfg["command"] == "power":
            return cmd_trace(cfg, under_null=False)
        return cmd_qqcheck(cfg)
    # first: LinAlgError is a ValueError, and ArithmeticError covers the
    # OverflowError and ZeroDivisionError of Python float arithmetic
    except (ArithmeticError, RuntimeError, np.linalg.LinAlgError) as exc:
        cause = _OVERFLOW_CAUSES.get(type(exc), "")
        print(f"dirgof: numeric failure: {exc}{cause}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    except ValueError as exc:
        print(f"dirgof: error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
