import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dirgof import cli, simsuite


def write_sample_csv(path, scenario_id="S2", q=1, n=100, seed=17):
    rng = np.random.default_rng(seed)
    scenario = simsuite.make_scenario(scenario_id, q)
    predictors, responses = simsuite.generate(scenario, n, rng)
    with open(path, "w") as stream:
        stream.write(",".join([f"x{i + 1}" for i in range(q + 1)] + ["y"]) + "\n")
        for row, y in zip(predictors, responses):
            cells = [f"{float(v)!r}" for v in row] + [f"{float(y)!r}"]
            stream.write(",".join(cells) + "\n")


def run_main(*args):
    return cli.main(list(args))


def test_cmd_test_contract(tmp_path):
    data = tmp_path / "s2.csv"
    out = tmp_path / "result.json"
    write_sample_csv(data)
    rc = run_main(
        "--command", "test", "--data", str(data), "--family", "linear",
        "--h", "0.5", "--B", "200", "--seed", "3", "--out", str(out),
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert 0.0 <= payload["p_value"] <= 1.0
    assert payload["config"]["family"] == "linear"
    assert len(payload["theta_hat"]) == 3


@pytest.mark.parametrize(
    "h, p, extra, nodes",
    [
        ("0.3", "0", [], 2304),
        ("0.7", "0", [], 1024),
        ("0.9", "0", [], 576),
        ("0.9", "0", ["--quad-res", "48"], 2304),
        ("0.9", "1", [], 2304),
    ],
)
def test_cmd_test_echoes_the_tier_node_count(tmp_path, h, p, extra, nodes):
    data, out = tmp_path / "s2.csv", tmp_path / "result.json"
    write_sample_csv(data, q=2, n=40)
    rc = run_main(
        "--command", "test", "--data", str(data), "--h", h, "--p", p, "--B", "10",
        "--out", str(out), *extra,
    )
    assert rc == 0
    assert json.loads(out.read_text())["config"]["quadrature"]["nodes"] == nodes


def test_cmd_test_rejects_wrong_model(tmp_path):
    """The constant family misses the linear signal at n=500."""
    rejected = 0
    for seed in range(10):
        data = tmp_path / f"s2_{seed}.csv"
        out = tmp_path / f"out_{seed}.json"
        write_sample_csv(data, n=500, seed=100 + seed)
        rc = run_main(
            "--command", "test", "--data", str(data), "--family", "constant",
            "--h", "0.5", "--B", "500", "--seed", str(seed), "--out", str(out),
        )
        assert rc == 0
        if json.loads(out.read_text())["p_value"] < 0.05:
            rejected += 1
    assert rejected >= 9


def test_cmd_test_empty_file(tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text("")
    rc = run_main("--command", "test", "--data", str(data), "--h", "0.5",
                  "--out", str(tmp_path / "o.json"))
    assert rc == cli.EXIT_DATA_ERROR
    assert "0 rows" in capsys.readouterr().err


def test_cmd_test_bad_header_and_norms(tmp_path):
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("a,b,y\n1,0,2\n")
    assert run_main("--command", "test", "--data", str(bad_header), "--h", "0.5",
                    "--out", str(tmp_path / "o.json")) == cli.EXIT_DATA_ERROR
    off_sphere = tmp_path / "off.csv"
    off_sphere.write_text("x1,x2,y\n0.5,0.5,1.0\n0.0,1.0,2.0\n")
    assert run_main("--command", "test", "--data", str(off_sphere), "--h", "0.5",
                    "--out", str(tmp_path / "o.json")) == cli.EXIT_DATA_ERROR


def test_cmd_test_missing_arguments(tmp_path):
    assert run_main("--command", "test", "--out", str(tmp_path / "o.json")) == 2
    assert run_main("--out", str(tmp_path / "o.json")) == 2


def test_simple_hypothesis_via_cli(tmp_path):
    data = tmp_path / "s2.csv"
    out = tmp_path / "res.json"
    write_sample_csv(data)
    rc = run_main(
        "--command", "test", "--data", str(data), "--family", "linear",
        "--hypothesis", "simple", "--theta0", "1,-1.5,0.5",
        "--h", "0.5", "--B", "100", "--out", str(out),
    )
    assert rc == 0
    assert json.loads(out.read_text())["config"]["hypothesis"] == "simple"


def test_negative_list_value_in_both_spellings(tmp_path):
    """A value that starts with a minus sign may follow its flag or be joined by '='."""
    data = tmp_path / "s2.csv"
    write_sample_csv(data)
    base = ["--command", "test", "--data", str(data), "--family", "linear",
            "--hypothesis", "simple", "--h", "0.5", "--B", "50"]
    outs = [tmp_path / "separate.json", tmp_path / "joined.json"]
    assert run_main(*base, "--theta0", "-1,-1.5,0.5", "--out", str(outs[0])) == 0
    assert run_main(*base, "--theta0=-1,-1.5,0.5", "--out", str(outs[1])) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert cli._merge(["--theta0", "-.5,2", "--seed", "-3"])["theta0"] == "-.5,2"
    assert cli._merge(["--deviation-coef", "-0.25"])["deviation_coef"] == -0.25


def test_trace_row_count_and_determinism(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    base = [
        "--command", "trace", "--scenario", "S1", "--q", "1", "--n", "40",
        "--M", "8", "--B", "25", "--h-grid", "0.4,0.8,1.2",
        "--alpha-list", "0.05,0.10", "--seed", "6",
    ]
    assert run_main(*base, "--out", str(first)) == 0
    assert run_main(*base, "--workers", "2", "--out", str(second)) == 0
    lines = first.read_text().strip().splitlines()
    assert len(lines) == 1 + 3 * 2
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("q, p", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_trace_survives_empty_and_rank_deficient_nodes(tmp_path, q, p):
    """At h = 0.04 the S4 design leaves nodes with no kernel mass (211 at
    q=2, 22 at q=1) and, at degree 1, nodes that fall back to local constant;
    the trace runs through, and its h = 0.5 rows match a run of that h alone,
    as data, multipliers and null refits are drawn before the h loop."""
    base = ["--command", "trace", "--scenario", "S4", "--q", str(q), "--p", str(p),
            "--n", "250", "--B", "50", "--M", "2", "--seed", "1"]
    both, alone = tmp_path / "both.csv", tmp_path / "alone.csv"
    assert run_main(*base, "--h-grid", "0.04,0.5", "--out", str(both)) == 0
    assert run_main(*base, "--h-grid", "0.5", "--out", str(alone)) == 0
    rows = both.read_text().splitlines()
    assert len(rows) == 1 + 2 * 3
    assert [rows[0]] + [row for row in rows if row.split(",")[3] == "0.5"] == (
        alone.read_text().splitlines()
    )


def test_test_with_no_node_near_the_data_is_a_numeric_failure(tmp_path, capsys):
    """Data near the angle pi/8 sit at least 0.34 from every node of the
    8-node circle rule: at h = 0.008 no node has kernel mass."""
    angles = np.pi / 8 + np.linspace(-0.03, 0.03, 10)
    data = tmp_path / "cluster.csv"
    data.write_text("x1,x2,y\n" + "".join(
        f"{float(np.cos(a))!r},{float(np.sin(a))!r},{i % 3}\n" for i, a in enumerate(angles)
    ))
    rc = run_main("--command", "test", "--data", str(data), "--family", "constant",
                  "--h", "0.008", "--quad-res", "8", "--B", "10", "--out", str(tmp_path / "o.json"))
    assert rc == 3
    assert "all 8 nodes have all-zero kernel weights" in capsys.readouterr().err


def test_power_command_runs(tmp_path):
    out = tmp_path / "power.csv"
    rc = run_main(
        "--command", "power", "--scenario", "S1", "--q", "1", "--n", "40",
        "--M", "5", "--B", "20", "--h-grid", "0.5", "--seed", "2",
        "--out", str(out),
    )
    assert rc == 0
    assert len(out.read_text().strip().splitlines()) == 4


def test_qqcheck_small_run_skips_tests(tmp_path):
    out = tmp_path / "qq.csv"
    rc = run_main(
        "--command", "qqcheck", "--scenario", "QQ", "--q", "1", "--n", "60",
        "--M", "2", "--h", "0.3", "--seed", "4", "--out", str(out),
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "rep,t_std"
    assert lines[1].startswith("0,") and lines[2].startswith("1,")
    assert any("skipped" in line for line in lines)


def test_qqcheck_heteroskedastic_scenario_refused(tmp_path):
    rc = run_main(
        "--command", "qqcheck", "--scenario", "S1", "--q", "1", "--n", "60",
        "--M", "4", "--h", "0.3", "--out", str(tmp_path / "o.csv"),
    )
    assert rc == cli.EXIT_DATA_ERROR


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    out = tmp_path / "t.csv"
    cfgfile.write_text(
        "command = trace\nscenario = S1\nq = 1\nn = 40\nM = 4\nB = 10\n"
        "h-grid = 0.5\nseed = 9\n# comment line\n"
    )
    rc = run_main("--config", str(cfgfile), "--M", "2", "--out", str(out))
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[1].split(",")[6] == "2"  # M column reflects the override


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("command trace\n")
    assert run_main("--config", str(bad), "--out", "x.csv") == cli.EXIT_DATA_ERROR
    assert run_main("--config", str(tmp_path / "none.cfg"), "--out", "x.csv") == cli.EXIT_DATA_ERROR
    typo = tmp_path / "typo.cfg"
    typo.write_text("command = trace\nscenari = S1\n")
    assert run_main("--config", str(typo), "--out", "x.csv") == cli.EXIT_DATA_ERROR
    badnum = tmp_path / "badnum.cfg"
    badnum.write_text("command = trace\nn = ten\n")
    assert run_main("--config", str(badnum), "--out", "x.csv") == cli.EXIT_DATA_ERROR
    # every value the matching flag refuses is refused in a file, at its line
    for line in ("command = bogus", "family = bogus", "hypothesis = simpl",
                 "noise = homo", "h = nan", "config = other.cfg", "local_alt = maybe"):
        cfgfile = tmp_path / "c.cfg"
        cfgfile.write_text(f"scenario = S1\n# comment\n{line}\n")
        capsys.readouterr()
        assert run_main("--config", str(cfgfile), "--out", "x.csv") == cli.EXIT_DATA_ERROR, line
        assert f"{cfgfile}:3: " in capsys.readouterr().err, line


def test_local_alt_flag_and_file_line(tmp_path):
    assert cli._merge(["--local-alt"])["local_alt"] is True
    assert cli._merge([])["local_alt"] is False
    cfgfile = tmp_path / "alt.cfg"
    for value, expected in (("yes", True), ("no", False)):
        cfgfile.write_text(f"local_alt = {value}\n")
        assert cli._merge(["--config", str(cfgfile)])["local_alt"] is expected


@pytest.mark.parametrize(
    "preset", sorted((Path(__file__).parents[1] / "scripts" / "presets").glob("*.cfg")),
    ids=lambda path: path.stem,
)
def test_preset_config_matches_flags(preset):
    """A config file merges to the same run as the flags its lines spell."""
    flags = []
    for line in preset.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            flags += [f"--{key.replace('_', '-')}", value]
    from_file = cli._merge(["--config", str(preset)])
    from_flags = cli._merge(flags)
    assert from_file.pop("config") == str(preset)
    assert from_flags.pop("config") is None
    assert from_file == from_flags


def test_custom_inline_scenario(tmp_path):
    out = tmp_path / "custom.csv"
    rc = run_main(
        "--command", "trace", "--scenario", "custom", "--q", "1", "--n", "50",
        "--family", "constant", "--theta0", "0.5",
        "--design", "0.7:2.0:0,1; 0.3:0:1,0",
        "--noise", "hom", "--noise-sd", "0.4",
        "--M", "4", "--B", "10", "--h-grid", "0.5", "--seed", "3",
        "--out", str(out),
    )
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[1].split(",")[0] == "custom"


def test_custom_scenario_validation(tmp_path):
    base = ["--command", "trace", "--scenario", "custom", "--q", "1", "--n", "50",
            "--family", "constant", "--M", "2", "--B", "5", "--h-grid", "0.5",
            "--out", str(tmp_path / "o.csv")]
    assert run_main(*base) == cli.EXIT_DATA_ERROR  # no theta0
    assert run_main(*base, "--theta0", "0.5") == cli.EXIT_DATA_ERROR  # no design
    assert run_main(*base, "--theta0", "0.5", "--design", "1.0:2.0:0,1,0") == cli.EXIT_DATA_ERROR
    assert run_main(*base, "--theta0", "0.5", "--design", "x:1:0,1") == cli.EXIT_DATA_ERROR
    wide = tmp_path / "wide.csv"
    wide.write_text("1,0,0\n")
    words = tmp_path / "words.csv"
    words.write_text("1,a\n")
    for constraint in (wide, words):
        assert run_main(
            *base, "--family", "constrained-linear", "--constraint", str(constraint),
            "--theta0", "0.5,0.5", "--design", "M1",
        ) == cli.EXIT_DATA_ERROR


def test_trace_default_grid_emits_full_rows(tmp_path):
    out = tmp_path / "grid.csv"
    rc = run_main(
        "--command", "trace", "--scenario", "S1", "--q", "1", "--n", "30",
        "--M", "2", "--B", "5", "--seed", "1", "--out", str(out),
    )
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 20 * 3


def test_console_entry_point(tmp_path):
    data = tmp_path / "d.csv"
    write_sample_csv(data, n=60)
    out = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    base = [sys.executable, "-m", "dirgof", "--command", "test", "--data", str(data),
            "--family", "linear", "--h", "0.6", "--B", "50", "--seed", "11"]
    first = subprocess.run([*base, "--out", str(out)], capture_output=True)
    second = subprocess.run([*base, "--out", str(out2)], capture_output=True)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0
    assert out.read_bytes() == out2.read_bytes()


def test_import_leaves_scipy_stats_unloaded():
    """Only qqcheck needs scipy.stats, so importing the CLI must not pay for it."""
    code = "import sys, dirgof.cli; sys.exit(int('scipy.stats' in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert proc.returncode == 0, proc.stderr


def test_test_and_trace_load_no_scipy(tmp_path):
    """A default-kernel test call and S1/S2 trace trials import no scipy module.

    With one worker they load no process-pool module either.

    The paths that need scipy import it where they run: the test-variance
    factor (Gauss-Jacobi nodes), custom-kernel constants (adaptive
    quadrature) and the constrained-linear fit (null space).
    """
    data = tmp_path / "d.csv"
    write_sample_csv(data, n=60)
    out = tmp_path / "r.json"
    code = f"""
import sys
from math import pi
import numpy as np
from dirgof import cli, kernels, parfit, simsuite

rc = cli.main(["--command", "test", "--data", {str(data)!r}, "--family", "linear",
               "--h", "0.6", "--B", "20", "--seed", "5", "--out", {str(out)!r}])
assert rc == 0, rc
for scenario_id, q, degree in (("S1", 2, 0), ("S2", 3, 1)):
    simsuite.significance_trace(simsuite.make_scenario(scenario_id, q), n=40,
                                h_grid=[0.5], trials=1, bootstrap=10, degree=degree)
loaded = [name for name in sys.modules if name.startswith("scipy")]
assert not loaded, loaded
assert "concurrent.futures.process" not in sys.modules

variance = kernels.gof_asymptotic_variance(kernels.VON_MISES, 2, 1.0)
assert abs(variance * 8.0 * pi - 1.0) < 1e-6, variance
custom = kernels.directional_kernel(lambda r: np.exp(-2.0 * r), decay=(1.0, 2.0))
assert kernels.kernel_constants(custom, 2).scale > 0
family = parfit.constrained_linear_family(np.array([[1.0, 0.0]]), 1)
points = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
est = parfit.fit(family, points, 2.0 + 3.0 * points[:, 1])
assert np.allclose(est.residuals, 0.0, atol=1e-12)
assert "scipy.integrate" in sys.modules and "scipy.linalg" in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["p_value"] >= 0.0


def test_overflowing_response_is_a_numeric_failure(tmp_path):
    """A finite response too large to square exits 3 instead of writing Infinity."""
    data = tmp_path / "d.csv"
    write_sample_csv(data, n=60)
    lines = data.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0] + ",1e200"
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "r.json"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = run_main("--command", "test", "--data", str(data), "--h", "0.5", "--B", "20",
                      "--out", str(out))
    assert rc == cli.EXIT_NUMERIC_ERROR
    assert not out.exists()


@pytest.mark.parametrize(
    "command, extra",
    [
        ("trace", ["--theta0", "1e200,1e200,0"]),
        ("power", ["--theta0", "0,0,0", "--deviation", "d1", "--deviation-coef", "1e200"]),
    ],
)
def test_overflowing_trace_is_a_numeric_failure(tmp_path, command, extra):
    """A simulated response too large to square exits 3 instead of writing
    rejection rates computed from infinite statistics."""
    out = tmp_path / "t.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = run_main("--command", command, "--scenario", "custom", "--family", "linear",
                      *extra, "--design", "M1", "--q", "1", "--n", "60", "--B", "20",
                      "--M", "2", "--h-grid", "0.3,0.6", "--out", str(out))
    assert rc == cli.EXIT_NUMERIC_ERROR
    assert not out.exists()


def test_non_finite_inputs_are_data_errors(tmp_path, capsys):
    """NaN cells and non-finite bandwidths exit 2 instead of rejecting with p 0."""
    data = tmp_path / "d.csv"
    write_sample_csv(data, n=60)
    lines = data.read_text().splitlines()
    lines[7] = lines[7].rsplit(",", 1)[0] + ",nan"
    holed = tmp_path / "holed.csv"
    holed.write_text("\n".join(lines) + "\n")
    out = tmp_path / "r.json"
    base = ["--command", "test", "--family", "linear", "--B", "20", "--out", str(out)]
    assert run_main(*base, "--data", str(holed), "--h", "0.6") == cli.EXIT_DATA_ERROR
    assert "non-finite cell nan in data row 7, column y" in capsys.readouterr().err
    for h in ("nan", "inf"):
        assert run_main(*base, "--data", str(data), "--h", h) == cli.EXIT_DATA_ERROR
    assert not out.exists()
    trace = tmp_path / "t.csv"
    base = ["--command", "trace", "--scenario", "S1", "--q", "1", "--n", "30",
            "--M", "2", "--B", "5", "--out", str(trace)]
    for grid in ("0.3,nan", "0.3,inf"):
        assert run_main(*base, "--h-grid", grid) == cli.EXIT_DATA_ERROR
    assert run_main(*base, "--h-grid", "0.3", "--alpha-list", "0.05,nan") == cli.EXIT_DATA_ERROR
    assert not trace.exists()


@pytest.mark.parametrize("design", ["nan:2:0,1", "1:inf:0,1", "1:nan:0,1"])
def test_non_finite_design_components_are_data_errors(tmp_path, capsys, design):
    out = tmp_path / "o.csv"
    rc = run_main("--command", "trace", "--scenario", "custom", "--q", "1", "--n", "30",
                  "--family", "constant", "--theta0", "0.5", "--design", design,
                  "--M", "2", "--B", "5", "--h-grid", "0.5", "--out", str(out))
    assert rc == cli.EXIT_DATA_ERROR
    assert "dirgof: error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra",
    [
        ["--q", "3", "--n", "4", "--p", "1"],
        ["--q", "3", "--n", "4", "--p", "1", "--workers", "2"],
    ],
)
def test_qqcheck_argument_errors_are_data_errors(tmp_path, capsys, extra):
    """Samples too small for the fit, which ``simsuite.qq_experiment``
    refuses, exit 2 from one worker or a pool."""
    out = tmp_path / "q.csv"
    rc = run_main("--command", "qqcheck", "--scenario", "QQ", "--q", "1", "--n", "30",
                  "--M", "2", "--h", "0.5", *extra, "--out", str(out))
    assert rc == cli.EXIT_DATA_ERROR
    assert "dirgof: error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra",
    [
        ["--h-grid", "-0.5,0.3"],
        ["--h-grid", "0.3,0.3"],
        ["--h-grid", "0"],
        ["--command", "power", "--scenario", "QQ", "--h-grid", "0.3"],
        ["--h-grid", "0.3", "--scenario", "S2", "--q", "3", "--n", "4", "--p", "1"],
        ["--h-grid", "0.3", "--seed", "-1"],
        ["--h-grid", "0.3", "--alpha-list", "1.5"],
        ["--h-grid", "0.3", "--alpha-list", "-2"],
        ["--h-grid", "0.3", "--alpha-list", "0.05,0.05"],
        ["--local-alt"],
    ],
)
def test_trace_argument_errors_are_data_errors(tmp_path, capsys, extra):
    """Grids, scenarios, sample sizes and significance levels that
    ``simsuite.significance_trace`` refuses, negative seeds and --local-alt
    outside power exit 2."""
    out = tmp_path / "t.csv"
    rc = run_main("--command", "trace", "--scenario", "S1", "--q", "1", "--n", "30",
                  "--M", "2", "--B", "5", *extra, "--out", str(out))
    assert rc == cli.EXIT_DATA_ERROR
    err = capsys.readouterr().err
    assert "dirgof: error:" in err
    assert "--seed" not in extra or "argument --seed:" in err
    assert "--local-alt" not in extra or "--local-alt" in err
    assert not out.exists()


def test_negative_seed_is_a_data_error(tmp_path, capsys):
    """A negative seed exits 2 naming --seed from every command, flag or file line."""
    data, cfgfile, out = tmp_path / "s2.csv", tmp_path / "seed.cfg", tmp_path / "o"
    write_sample_csv(data, n=30)
    cfgfile.write_text("seed = -1\n")
    qq = ["--command", "qqcheck", "--scenario", "QQ", "--n", "30", "--M", "2", "--h", "0.5"]
    for args in (
        ["--command", "test", "--data", str(data), "--h", "0.5", "--B", "20", "--seed", "-1"],
        [*qq, "--seed", "-1"],
        [*qq, "--config", str(cfgfile)],
    ):
        assert run_main(*args, "--out", str(out)) == cli.EXIT_DATA_ERROR, args
        assert "dirgof: error: argument --seed:" in capsys.readouterr().err, args
        assert not out.exists()


@pytest.mark.parametrize("command", ["test", "trace", "qqcheck"])
def test_bandwidths_out_of_range_are_data_errors(tmp_path, capsys, command):
    """Bandwidths whose square overflows or underflows exit 2 from every
    command, while the edges of the range still run; a noise variance too
    large to square is a numeric failure."""
    data, out = tmp_path / "d.csv", tmp_path / "o"
    write_sample_csv(data, n=30)
    base, flag = {
        "test": (["--data", str(data), "--B", "5"], "--h"),
        "trace": (["--scenario", "S1", "--n", "30", "--M", "2", "--B", "5"], "--h-grid"),
        "qqcheck": (["--scenario", "QQ", "--n", "30", "--M", "2"], "--h"),
    }[command]
    base = ["--command", command, *base, "--out", str(out)]
    for h in ("1e155", "1e200", "1e-154", "1e-200"):
        assert run_main(*base, flag, h) == cli.EXIT_DATA_ERROR, h
        assert f"bandwidth must lie in [1e-150, 1e+150], got {float(h)}" in capsys.readouterr().err
        assert not out.exists()
    assert run_main(*base, flag, "1e-150") == cli.EXIT_NUMERIC_ERROR
    assert "all-zero kernel weights" in capsys.readouterr().err
    assert run_main(*base, flag, "1e150") == 0
    if command == "qqcheck":
        out.unlink()
        assert run_main(*base, "--h", "0.5", "--sigma2", "1e308") == cli.EXIT_NUMERIC_ERROR
        assert "dirgof: numeric failure:" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "command, extra",
    [
        ("test", ["--h", "0.5", "--B", "5"]),
        ("trace", ["--scenario", "S1", "--h-grid", "0.5"]),
        ("power", ["--scenario", "S1", "--h-grid", "0.5"]),
        ("qqcheck", ["--scenario", "QQ", "--h", "0.5"]),
    ],
    ids=["test", "trace", "power", "qqcheck"],
)
def test_linalg_errors_are_numeric_failures(tmp_path, capsys, monkeypatch, command, extra):
    """numpy's LinAlgError is a ValueError, yet it exits 3 from every command."""
    from dirgof import goftest

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(goftest, "streamed_statistic", fail)
    data, out = tmp_path / "d.csv", tmp_path / "o"
    write_sample_csv(data, n=30)
    rc = run_main("--command", command, "--data", str(data), "--n", "30", "--M", "2",
                  "--B", "5", *extra, "--out", str(out))
    assert rc == cli.EXIT_NUMERIC_ERROR
    assert "dirgof: numeric failure: SVD did not converge" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--family", "linear"], "need n >= 3 observations, got 2"),
        (["--family", "constant", "--p", "1"], "local linear fit needs n >= q+2 = 3, got 2"),
    ],
    ids=["null-fit", "local-linear"],
)
def test_samples_too_small_for_the_fit_name_the_rule(tmp_path, capsys, extra, message):
    """The library's own size rules reach the user of ``test`` as data errors."""
    data, out = tmp_path / "d.csv", tmp_path / "o.json"
    write_sample_csv(data, n=2)
    rc = run_main("--command", "test", "--data", str(data), "--h", "0.5", "--B", "5",
                  *extra, "--out", str(out))
    assert rc == cli.EXIT_DATA_ERROR
    assert f"dirgof: error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_design_too_concentrated_to_sample_is_a_data_error(tmp_path, capsys):
    out = tmp_path / "t.csv"
    rc = run_main("--command", "trace", "--scenario", "custom", "--q", "2", "--n", "20",
                  "--family", "linear", "--theta0", "0,0,0,0", "--design", "1:1e4:0,0,1",
                  "--M", "1", "--B", "5", "--h-grid", "0.5", "--out", str(out))
    assert rc == cli.EXIT_DATA_ERROR
    assert "concentration 10000 is above 200" in capsys.readouterr().err
    assert not out.exists()


def test_sigma2_applies_to_qqcheck_qq_only(tmp_path, capsys):
    """--sigma2 sets the QQ noise variance, default 0.5 as the preset; any
    other command or scenario refuses it rather than ignoring it."""
    data, out = tmp_path / "d.csv", tmp_path / "o"
    write_sample_csv(data, n=30)
    qq = ["--command", "qqcheck", "--scenario", "QQ", "--q", "1", "--n", "40", "--M", "3",
          "--h", "0.5"]
    files = {}
    for extra in ([], ["--sigma2", "0.5"], ["--sigma2", "2.0"]):
        files[tuple(extra)] = tmp_path / f"qq{len(files)}.csv"
        assert run_main(*qq, *extra, "--out", str(files[tuple(extra)])) == 0
    assert files[()].read_bytes() == files["--sigma2", "0.5"].read_bytes()
    assert files[()].read_bytes() != files["--sigma2", "2.0"].read_bytes()
    custom = ["--scenario", "custom", "--family", "constant", "--theta0", "1", "--design", "M1"]
    for args in (
        ["--command", "qqcheck", "--scenario", "S3", "--q", "1", "--n", "40", "--M", "3",
         "--h", "0.5"],
        ["--command", "qqcheck", *custom, "--n", "40", "--M", "3", "--h", "0.5"],
        ["--command", "test", "--data", str(data), "--h", "0.5", "--B", "5"],
        ["--command", "trace", "--scenario", "QQ", "--n", "30", "--M", "1", "--B", "5",
         "--h-grid", "0.5"],
        ["--command", "power", *custom, "--n", "30", "--M", "1", "--B", "5", "--h-grid", "0.5"],
    ):
        assert run_main(*args, "--sigma2", "2.0", "--out", str(out)) == cli.EXIT_DATA_ERROR, args
        err = capsys.readouterr().err
        assert "--sigma2 applies to qqcheck --scenario QQ only" in err, args
        assert ("--noise-sd" in err) == ("custom" in args), args
        assert not out.exists()


@pytest.mark.parametrize(
    "command, q, extra, words",
    [
        ("qqcheck", 1, ["--scenario", "QQ", "--h", "0.5", "--sigma2", "1e200"],
         ["sigma^4", "--sigma2"]),
        ("qqcheck", 3, ["--scenario", "QQ", "--h", "1e150"], ["h^q", "--h"]),
        ("test", 3, ["--h", "1e-120"], ["kernel normalizer", "--h"]),
        ("test", 4, ["--h", "1e-120"], ["kernel normalizer", "--h"]),
    ],
    ids=["sigma4", "h-power", "normalizer-q3", "normalizer-q4"],
)
def test_overflows_inside_the_ranges_name_their_cause(tmp_path, capsys, command, q, extra, words):
    """Flag values inside their ranges whose derived constants leave the
    float range at this q exit 3 naming the quantity, the flag and q, with
    no RuntimeWarning on the way."""
    data, out = tmp_path / "d.csv", tmp_path / "o"
    write_sample_csv(data, q=q, n=30)
    rc = run_main("--command", command, "--data", str(data), "--q", str(q), "--n", "30",
                  "--M", "2", "--B", "5", *extra, "--out", str(out))
    assert rc == cli.EXIT_NUMERIC_ERROR
    err = capsys.readouterr().err
    assert err.startswith("dirgof: numeric failure:")
    assert all(word in err for word in words) and f"q={q}" in err, err
    assert not out.exists()


def test_largest_bandwidths_run_at_q4(tmp_path):
    """At q=4 the kernel normalizer stays finite up to the top of the
    bandwidth range, where its closed form's two factors underflow."""
    out = tmp_path / "t.csv"
    rc = run_main("--command", "trace", "--scenario", "S1", "--q", "4", "--n", "30", "--M", "2",
                  "--B", "5", "--h-grid", "1e140,1e150", "--workers", "2", "--out", str(out))
    assert rc == 0
    assert len(out.read_text().splitlines()) == 1 + 2 * 3


@pytest.mark.parametrize(
    "args, message",
    [
        (["--command", "trace", "--scenario", "S1", "--h", "0.3"], "trace reads --h-grid, not --h"),
        (["--command", "power", "--scenario", "S1", "--h", "0.3", "--h-grid", "0.3"],
         "power reads --h-grid, not --h"),
        (["--command", "test", "--data", "{data}", "--h", "0.5", "--h-grid", "0.3,0.5"],
         "test reads --h, not --h-grid"),
        (["--command", "qqcheck", "--scenario", "QQ", "--h-grid", "0.5"],
         "qqcheck reads --h, not --h-grid"),
        (["--command", "trace", "--scenario", "S1", "--h-grid", "0.5", "--hypothesis", "simple"],
         "--hypothesis applies to test only, not trace"),
        (["--command", "qqcheck", "--scenario", "QQ", "--h", "0.5", "--hypothesis", "composite"],
         "--hypothesis applies to test only, not qqcheck"),
        (["--command", "test", "--data", "{data}", "--h", "0.5", "--theta0", "1,2,3"],
         "test reads --theta0 under --hypothesis simple only"),
        (["--command", "test", "--data", "{data}", "--h", "0.5", "--hypothesis", "composite",
          "--theta0", "1,2,3"], "test reads --theta0 under --hypothesis simple only"),
        *[(["--command", "trace", "--scenario", "S1", "--h-grid", "0.5", flag, value],
           f"{flag} applies to --scenario custom only")
          for flag, value in (("--family", "constant"), ("--constraint", "{csv}"),
                              ("--theta0", "5"), ("--design", "M4s"), ("--noise", "hom"),
                              ("--noise-sd", "9"), ("--deviation", "d2"),
                              ("--deviation-coef", "3"))],
        (["--command", "power", "--scenario", "S2", "--h-grid", "0.5", "--deviation", "none"],
         "--deviation applies to --scenario custom only"),
        (["--command", "qqcheck", "--scenario", "QQ", "--h", "0.5", "--noise-sd", "0.5"],
         "--noise-sd applies to --scenario custom only"),
        *[(["--command", "test", "--data", "{data}", "--h", "0.5", flag, value],
           f"{flag} applies to --scenario custom only")
          for flag, value in (("--design", "M1"), ("--noise", "het"), ("--noise-sd", "1"),
                              ("--deviation", "d1"), ("--deviation-coef", "0"))],
    ],
)
def test_flags_a_command_ignores_are_refused(tmp_path, capsys, args, message):
    """A bandwidth flag, null flag or scenario key that the command would
    not read exits 2 naming it, rather than running as if it were absent."""
    data, csv_path, out = tmp_path / "d.csv", tmp_path / "c.csv", tmp_path / "o"
    write_sample_csv(data, n=30)
    csv_path.write_text("1,0,0\n")
    paths = {"{data}": str(data), "{csv}": str(csv_path)}
    args = [paths.get(arg, arg) for arg in args]
    assert run_main(*args, "--n", "30", "--M", "1", "--B", "5", "--out", str(out)) == 2
    assert f"dirgof: error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, content, message",
    [
        (["--command", "trace", "--scenario", "S1", "--h-grid", "0.3,abc", "--out", "{out}"],
         None, "bad h-grid: could not convert"),
        (["--command", "trace", "--scenario", "S1", "--h-grid", ",", "--out", "{out}"],
         None, "h-grid is empty"),
        (["--command", "trace", "--scenario", "S1", "--h-grid", "0.3"], None, "--out is required"),
        (["--command", "test", "--data", "{tmp}/none.csv", "--h", "0.5", "--out", "{out}"],
         None, "data file not found"),
        (["--command", "power", "--h-grid", "0.3", "--out", "{out}"],
         None, "power needs --scenario"),
        (["--command", "qqcheck", "--scenario", "QQ", "--out", "{out}"], None, "qqcheck needs --h"),
        (["--command", "test", "--data", "{csv}", "--h", "0.5", "--out", "{out}"],
         "x1,x2,y\n", "no data rows"),
        (["--command", "test", "--data", "{csv}", "--h", "0.5", "--out", "{out}"],
         "x1,x2,y\n1,0,abc\n", "non-numeric cell"),
        (["--command", "test", "--data", "{csv}", "--h", "0.5", "--out", "{out}"],
         "x1,x2,y\n1,0,2\n0,1\n1,0,3\n", "data row 2 has 2 cells, not 3"),
        (["--command", "test", "--data", "{csv}", "--h", "0.5", "--out", "{out}"],
         "x1,x2,y\n1,0,2,5\n0,1,3,6\n", "data row 1 has 4 cells, not 3"),
        (["--command", "test", "--data", "{data}", "--family", "constrained-linear", "--h", "0.5",
          "--out", "{out}"], None, "constrained-linear needs --constraint"),
        (["--command", "test", "--data", "{data}", "--hypothesis", "simple", "--theta0", "1,2",
          "--h", "0.5", "--out", "{out}"], None, "theta0 needs 3 entries, got 2"),
        (["--command", "test", "--data", "{data}", "--q", "2", "--h", "0.5", "--out", "{out}"],
         None, "--q 2 contradicts the 2 predictor columns"),
        (["--command", "trace", "--scenario", "custom", "--family", "constant", "--theta0", "1",
          "--design", "1:2", "--h-grid", "0.5", "--out", "{out}"],
         None, "design component '1:2' is not 'weight:kappa:mu1,..,mud'"),
        (["--command", "trace", "--scenario", "custom", "--family", "constant", "--theta0", "1",
          "--design", "M1", "--noise-sd", "-1", "--h-grid", "0.5", "--out", "{out}"],
         None, "noise-sd must be positive"),
        (["--command", "qqcheck", "--scenario", "QQ", "--h", "0.5", "--sigma2", "0",
          "--out", "{out}"], None, "sigma2 must be positive"),
    ],
    ids=["bad-list", "empty-list", "no-out", "no-file", "no-scenario", "no-h", "no-rows",
         "non-numeric", "ragged", "all-wide", "no-constraint", "theta0-size", "q-mismatch",
         "design-component", "noise-sd", "sigma2"],
)
def test_cli_refusals_name_the_input(tmp_path, capsys, args, content, message):
    """Every input the CLI itself refuses exits 2 with its reason and
    writes nothing."""
    data, csv_path, out = tmp_path / "d.csv", tmp_path / "c.csv", tmp_path / "o"
    write_sample_csv(data, n=30)
    if content is not None:
        csv_path.write_text(content)
    paths = {"{out}": str(out), "{data}": str(data), "{csv}": str(csv_path)}
    args = [paths.get(arg, arg.replace("{tmp}", str(tmp_path))) for arg in args]
    assert run_main(*args, "--n", "30", "--M", "1", "--B", "5") == cli.EXIT_DATA_ERROR
    assert f"dirgof: error: {message}" in capsys.readouterr().err.replace(f"{csv_path}: ", "")
    assert not out.exists()
