"""Command line front end.

One flat command with a ``--command`` selector, so a run is fully described
by a flat key=value config file; command line flags override file keys.
Outputs are self-describing (config echo embedded) and byte-identical
across reruns with a fixed seed and worker count.

Exit codes: 0 success, 2 data or configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import sys
from math import isfinite, sqrt
from pathlib import Path

import numpy as np

from . import goftest, parfit, simsuite
from .kernels import QuadratureError
from .locreg import LocalFitConfig, SingularGramError
from .sphere import unit_rows

EXIT_DATA_ERROR = 2
EXIT_NUMERIC_ERROR = 3

_FAMILY_BUILDERS = {
    "constant": lambda q, constraint: parfit.constant_family(),
    "linear": lambda q, constraint: parfit.linear_family(q),
    "trig-s3": lambda q, constraint: parfit.trig_family(q),
    "damped-sine-s4": lambda q, constraint: parfit.damped_sine_family(q),
    "constrained-linear": lambda q, constraint: parfit.constrained_linear_family(
        constraint, q
    ),
}


class DataError(ValueError):
    """Malformed input data or configuration."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirgof",
        description="Goodness-of-fit testing for regression models with "
        "predictors on the unit sphere.",
    )
    parser.add_argument("--config", help="flat key=value config file; flags override")
    parser.add_argument(
        "--command", choices=["test", "trace", "power", "qqcheck"], help="what to run"
    )
    parser.add_argument("--data", help="input CSV with header x1..x{q+1},y (test only)")
    parser.add_argument(
        "--scenario",
        help="scenario id (S1..S4, QQ) or 'custom' for an inline definition built "
        "from --family/--theta0/--design/--noise/--deviation keys",
    )
    parser.add_argument(
        "--design",
        help="design density: a named model (M1, M4s, M12s, M20s, M16s) or "
        "mixture components 'weight:kappa:mu1,..,mud; ...'",
    )
    parser.add_argument("--noise", choices=["hom", "het"], help="noise model (custom)")
    parser.add_argument("--noise-sd", type=float, help="homoscedastic noise sd (custom)")
    parser.add_argument(
        "--deviation", choices=["none", "d1", "d2"], help="deviation shape (custom)"
    )
    parser.add_argument("--deviation-coef", type=float, help="deviation coefficient")
    parser.add_argument("--q", type=int, help="sphere dimension")
    parser.add_argument("--n", type=int, help="sample size per Monte Carlo trial")
    parser.add_argument("--p", type=int, choices=[0, 1], help="local fit degree")
    parser.add_argument("--h", type=float, help="bandwidth")
    parser.add_argument("--h-grid", help="comma separated bandwidth grid")
    parser.add_argument("--B", type=int, help="bootstrap replicates")
    parser.add_argument("--M", type=int, help="Monte Carlo trials")
    parser.add_argument("--alpha-list", help="comma separated significance levels")
    parser.add_argument("--quad-res", type=int, help="quadrature resolution")
    parser.add_argument("--seed", type=int, help="root seed")
    parser.add_argument("--workers", type=int, help="parallel workers")
    parser.add_argument("--out", help="output path (JSON for test, CSV otherwise)")
    parser.add_argument("--family", choices=sorted(_FAMILY_BUILDERS), help="null family")
    parser.add_argument("--constraint", help="CSV of the constraint matrix rows")
    parser.add_argument(
        "--hypothesis", choices=["composite", "simple"], help="null type"
    )
    parser.add_argument("--theta0", help="comma separated parameter for simple nulls")
    parser.add_argument("--sigma2", type=float, help="noise variance for qqcheck")
    parser.add_argument("--local-alt", action="store_true", default=None,
                        help="scale the deviation at the critical drift rate (power)")
    return parser


_TYPED_KEYS = {
    "q": int, "n": int, "p": int, "B": int, "M": int, "quad_res": int,
    "seed": int, "workers": int, "h": float, "sigma2": float,
    "noise_sd": float, "deviation_coef": float,
    "local_alt": lambda v: v.lower() in ("1", "true", "yes"),
}

_STRING_KEYS = {
    "command", "data", "scenario", "h_grid", "alpha_list", "out", "family",
    "constraint", "hypothesis", "theta0", "design", "noise", "deviation",
}


def _read_config_file(path: str) -> dict:
    text = Path(path).read_text()
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _TYPED_KEYS and key not in _STRING_KEYS:
            raise DataError(f"{path}:{lineno}: unknown key {key!r}")
        caster = _TYPED_KEYS.get(key, str)
        try:
            out[key] = caster(value)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return out


def _merge(args: argparse.Namespace) -> dict:
    """File keys first, command line flags on top."""
    merged = {
        "command": None, "data": None, "scenario": None, "q": 1, "n": 100,
        "p": 0, "h": None, "h_grid": None, "B": 200, "M": 500,
        "alpha_list": "0.01,0.05,0.10", "quad_res": None, "seed": 0,
        "workers": 1, "out": None, "family": "linear", "constraint": None,
        "hypothesis": "composite", "theta0": None, "sigma2": 0.5,
        "local_alt": False, "design": None, "noise": "hom", "noise_sd": 0.5,
        "deviation": "none", "deviation_coef": 0.0,
    }
    provided = set()
    if args.config:
        if not Path(args.config).is_file():
            raise DataError(f"config file not found: {args.config}")
        file_keys = _read_config_file(args.config)
        merged.update(file_keys)
        provided.update(file_keys)
    for key, value in vars(args).items():
        if key != "config" and value is not None:
            merged[key] = value
            provided.add(key)
    merged["_provided"] = provided
    return merged


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
    if cfg["q"] < 1:
        raise DataError(f"q must be >= 1, got {cfg['q']}")
    if cfg["n"] < 1 or cfg["B"] < 1 or cfg["M"] < 1:
        raise DataError("n, B and M must be >= 1")
    if cfg["p"] not in (0, 1):
        raise DataError(f"p must be 0 or 1, got {cfg['p']}")
    if cfg["workers"] < 1:
        raise DataError("workers must be >= 1")
    if cfg["quad_res"] is not None and cfg["quad_res"] < 8:
        raise DataError("quad-res must be >= 8")
    for key, caster in _TYPED_KEYS.items():
        if caster is float and cfg[key] is not None and not isfinite(cfg[key]):
            raise DataError(f"{key.replace('_', '-')} must be finite, got {cfg[key]}")
    for path_key in ("data", "constraint"):
        if cfg[path_key] is not None and not Path(cfg[path_key]).is_file():
            raise DataError(f"{path_key} file not found: {cfg[path_key]}")
    if cfg["command"] == "test":
        if cfg["data"] is None:
            raise DataError("test needs --data")
        if cfg["h"] is None or cfg["h"] <= 0:
            raise DataError("test needs a positive --h")
    else:
        if cfg["scenario"] is None:
            raise DataError(f"{cfg['command']} needs --scenario")
    if cfg["command"] in ("trace", "power") and cfg["h_grid"] is None:
        # default grid per the suite conventions: 20 log-spaced bandwidths
        cfg["h_grid"] = ",".join(f"{v:.6g}" for v in np.geomspace(0.1, 1.5, 20))
    if cfg["command"] == "qqcheck" and (cfg["h"] is None or cfg["h"] <= 0):
        raise DataError("qqcheck needs a positive --h")
    return cfg


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
    try:
        body = np.array([[float(cell) for cell in row] for row in rows[1:]])
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric cell: {exc}") from exc
    if body.shape[1] != len(header):
        raise DataError(f"{path}: ragged rows")
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
    constraint = None
    if cfg["constraint"]:
        try:
            constraint = np.loadtxt(cfg["constraint"], delimiter=",", ndmin=2)
        except ValueError as exc:
            raise DataError(f"{cfg['constraint']}: {exc}") from exc
    if cfg["family"] == "constrained-linear" and constraint is None:
        raise DataError("constrained-linear needs --constraint")
    try:
        return _FAMILY_BUILDERS[cfg["family"]](q, constraint)
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def _write_bytes(path: str, payload: str) -> None:
    with open(path, "w", newline="\n") as stream:
        stream.write(payload)


def cmd_test(cfg: dict) -> int:
    predictors, responses = _read_data_csv(cfg["data"])
    q = predictors.shape[1] - 1
    if "q" in cfg["_provided"] and cfg["q"] != q:
        raise DataError(f"--q {cfg['q']} contradicts the {q + 1} predictor columns")
    family = _family_from_config(cfg, q)
    theta0 = None
    if cfg["hypothesis"] == "simple":
        if cfg["theta0"] is None:
            raise DataError("simple hypothesis needs --theta0")
        theta0 = np.array(_float_list(cfg["theta0"], "theta0"))
        if theta0.size != family.dim_theta:
            raise DataError(
                f"theta0 needs {family.dim_theta} entries, got {theta0.size}"
            )
    if len(predictors) < max(family.dim_theta, cfg["p"] * (q + 2)):
        raise DataError(
            f"sample of {len(predictors)} rows is too small for this configuration"
        )
    gof_cfg = goftest.GofConfig(
        fit=LocalFitConfig(degree=cfg["p"], bandwidth=cfg["h"]),
        quadrature=goftest.default_quadrature(q, cfg["quad_res"], seed=cfg["seed"]),
        bootstrap=cfg["B"],
        seed=cfg["seed"],
        hypothesis=cfg["hypothesis"],
        theta0=theta0,
    )
    result = goftest.bootstrap_test(predictors, responses, family, gof_cfg)
    _write_bytes(cfg["out"], result.to_json() + "\n")
    return 0


def _parse_design(text: str, q: int):
    """Named design density or explicit 'weight:kappa:mu,...' components."""
    from . import density

    if ":" not in text:
        try:
            return density.named_model(text.strip(), q)
        except ValueError as exc:
            raise DataError(str(exc)) from exc
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
    if cfg["scenario"] != "custom":
        try:
            return simsuite.make_scenario(cfg["scenario"], cfg["q"])
        except ValueError as exc:
            raise DataError(str(exc)) from exc
    q = cfg["q"]
    family = _family_from_config(cfg, q)
    if cfg["theta0"] is None:
        raise DataError("custom scenarios need --theta0 (the true parameter)")
    theta0 = np.array(_float_list(cfg["theta0"], "theta0"))
    if theta0.size != family.dim_theta:
        raise DataError(f"theta0 needs {family.dim_theta} entries, got {theta0.size}")
    design = _parse_design(cfg["design"], q) if cfg["design"] else None
    if design is None:
        raise DataError("custom scenarios need --design")
    deviation = None if cfg["deviation"] == "none" else cfg["deviation"]
    if cfg["noise_sd"] <= 0:
        raise DataError("noise-sd must be positive")
    return simsuite.Scenario(
        id="custom",
        q=q,
        family=family,
        theta0=theta0,
        design=design,
        noise=cfg["noise"],
        deviation=deviation,
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
        local_alternative=bool(cfg["local_alt"]) and not under_null,
        quad_resolution=cfg["quad_res"],
        workers=cfg["workers"],
    )
    buffer = io.StringIO()
    result.write_csv(buffer)
    _write_bytes(cfg["out"], buffer.getvalue())
    return 0


def cmd_qqcheck(cfg: dict) -> int:
    scenario = _scenario_from_config(cfg)
    if scenario.noise != "hom":
        raise DataError(
            f"qqcheck needs a homoscedastic scenario, {scenario.id} is not"
        )
    if cfg["scenario"] == "QQ" and cfg["sigma2"] is not None:
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
    args = _build_parser().parse_args(argv)
    try:
        cfg = _validate(_merge(args))
        if cfg["command"] == "test":
            return cmd_test(cfg)
        if cfg["command"] == "trace":
            return cmd_trace(cfg, under_null=True)
        if cfg["command"] == "power":
            return cmd_trace(cfg, under_null=False)
        return cmd_qqcheck(cfg)
    except DataError as exc:
        print(f"dirgof: error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except (QuadratureError, SingularGramError, parfit.RankDeficientError,
            RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"dirgof: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
