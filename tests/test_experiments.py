"""scripts/run_experiments.py: each sweep cell writes the CLI's own file."""

import importlib.util
from pathlib import Path

import pytest
from scipy import stats

from dirgof import cli, simsuite

SCRIPT = Path(__file__).parents[1] / "scripts" / "run_experiments.py"
TRACE_CELL = ["--q", "1", "--n", "30", "--M", "3", "--B", "10", "--seed", "8"]


@pytest.fixture
def experiments():
    """The sweep script with a desk table small enough for the suite."""
    spec = importlib.util.spec_from_file_location("run_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.DESK = {"size": (("S1", "S2"), (1,), (30,), 3, 10),
                   "power": (("S1",), (1,), (30,), 3, 10)}
    return module


def cli_bytes(tmp_path, *args):
    out = tmp_path / "cli.out"
    assert cli.main([*args, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize(
    "argv, cells",
    [
        (["size"], {"size_S1_q1_n30.csv": ["--command", "trace", "--scenario", "S1"],
                    "size_S2_q1_n30.csv": ["--command", "trace", "--scenario", "S2"]}),
        (["power"], {"power_S1_q1_n30.csv": ["--command", "power", "--scenario", "S1"]}),
        (["power", "--local-alt"],
         {"localalt_S1_q1_n30.csv": ["--command", "power", "--scenario", "S1", "--local-alt"]}),
    ],
)
def test_trace_sweeps_write_the_cli_files(experiments, tmp_path, argv, cells):
    out = tmp_path / "sweep"
    assert experiments.main([*argv, "--out-dir", str(out)]) == 0
    assert sorted(path.name for path in out.iterdir()) == sorted(cells)
    for name, args in cells.items():
        assert (out / name).read_bytes() == cli_bytes(tmp_path, *args, *TRACE_CELL), name


def test_qq_sweep_writes_the_cli_files(experiments, tmp_path):
    """Each file holds the values and p-values of the normality experiment
    at h = 0.5 n^(-r), then the CLI's config lines."""
    out = tmp_path / "sweep"
    assert experiments.main(["qq", "--sizes", "40", "--trials", "8", "--out-dir", str(out)]) == 0
    assert sorted(path.name for path in out.iterdir()) == ["qq_n40_r13.csv", "qq_n40_r15.csv"]
    for label, exponent in (("r13", 1.0 / 3.0), ("r15", 1.0 / 5.0)):
        h = 0.5 * 40**-exponent
        written = (out / f"qq_n40_{label}.csv").read_bytes()
        assert written == cli_bytes(tmp_path, "--command", "qqcheck", "--scenario", "QQ", "--q",
                                    "1", "--n", "40", "--M", "8", "--h", repr(h), "--seed", "606")
        values = simsuite.qq_experiment(
            simsuite.make_scenario("QQ", 1), n=40, h=h, trials=8, seed=606
        ).values
        head = ["rep,t_std", *(f"{i},{value:.17g}" for i, value in enumerate(values)),
                f"ks_pvalue,{stats.kstest(values, 'norm').pvalue:.17g}",
                f"sw_pvalue,{stats.shapiro(values).pvalue:.17g}", "scenario_id,QQ", ""]
        assert written.decode().startswith("\n".join(head))


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["qq", "--workers", "0"], "--workers"),
        (["qq", "--sizes", "4.5,40"], "--n"),
        (["qq", "--trials", "-8"], "--M"),
        (["size", "--seed", "-1"], "--seed"),
    ],
)
def test_bad_values_exit_with_the_cli_message(experiments, tmp_path, capsys, argv, flag):
    out = tmp_path / "sweep"
    assert experiments.main([*argv, "--out-dir", str(out)]) == cli.EXIT_DATA_ERROR
    assert f"dirgof: error: argument {flag}:" in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "argv", [["size", "--local-alt"], ["qq", "--full"], ["power", "--trials", "8"]]
)
def test_each_experiment_takes_only_its_own_flags(experiments, argv):
    with pytest.raises(SystemExit) as exit_info:
        experiments.main(argv)
    assert exit_info.value.code == 2
