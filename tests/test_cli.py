import argparse
import json
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from qspeedup import bound_state, cli
from qspeedup.bound_state import find_bound_state
from qspeedup.cli import CSV_HEADER, EXIT_NUMERICAL, _rows_csv, _rows_json, _write_json, main
from qspeedup.dynamics import amplitude, excited_population
from qspeedup.measures import evaluate_point
from qspeedup.spectral import AtomKind, ModelParams
from qspeedup.sweep import figure_preset, run_sweep

from test_sweep import table_rows


class TestArgvHandling:
    def test_missing_required_flag_is_a_usage_error(self, capsys):
        assert main(["bound-state", "--lambda", "2"]) == 1
        assert "gamma0" in capsys.readouterr().err

    def test_model_validation_is_a_usage_error(self, capsys):
        code = main(["bound-state", "--gamma0", "1", "--lambda", "2", "--n", "0"])
        assert code == 1
        assert "n_atoms" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,fragment", [
        (["qsl", "--gamma0", "nan", "--lambda", "2"], "gamma0"),
        (["qsl", "--gamma0", "inf", "--lambda", "2"], "gamma0"),
        (["qsl", "--gamma0", "1", "--lambda", "nan"], "lam"),
        (["qsl", "--gamma0", "1", "--lambda", "2", "--tau", "nan"], "tau"),
        (["qsl", "--gamma0", "1", "--lambda", "2", "--tau", "inf"], "tau"),
        (["dynamics", "--gamma0", "1", "--lambda", "2", "--tau", "nan"], "tau"),
        (["dynamics", "--gamma0", "1", "--lambda", "2", "--tau", "inf"], "tau"),
        (["qsl", "--gamma0", "1e308", "--lambda", "2"], "channel constant"),
        (["bound-state", "--gamma0", "1", "--lambda", "1e-308"], "reservoir constant"),
        (["qsl", "--gamma0", "1", "--lambda", "1e-310"], "lam"),
        (["bound-state", "--gamma0", "1", "--lambda", "2", "--n", str(10 ** 400)],
         "n_atoms"),
        # omega0 is the unit, not a flag
        (["bound-state", "--gamma0", "1", "--lambda", "2", "--omega0", "2"],
         "unrecognized arguments: --omega0 2"),
        (["qsl", "--gamma0", "1", "--lambda", "2", "--omega0", "2"],
         "unrecognized arguments: --omega0 2"),
        (["dynamics", "--gamma0", "1", "--lambda", "2", "--omega0", "2"],
         "unrecognized arguments: --omega0 2"),
    ])
    def test_non_finite_values_are_usage_errors(self, capsys, argv, fragment):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert fragment in captured.err
        assert "ratio" not in captured.out
        assert "population" not in captured.out

    @pytest.mark.parametrize("argv", [
        ["qsl", "--gamma0", "1e200", "--lambda", "2"],
        ["qsl", "--gamma0", "1", "--lambda", "2", "--n", str(10 ** 21)],
    ])
    def test_windows_of_many_envelope_periods_have_answers(self, capsys, argv):
        # about 1.6e100 and 3e10 envelope periods in the default window
        assert main(argv) == 0
        values = {key.strip(): value for key, value in (
            line.split(" = ") for line in capsys.readouterr().out.splitlines())}
        ratio, nonmarkov = float(values["ratio"]), float(values["nonmarkov"])
        assert 0.0 <= ratio <= 1.0 and math.isfinite(nonmarkov)
        assert values["status"] == "normal"

    def test_stalled_bisection_is_a_numerical_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(bound_state, "MAX_STEPS", 2)
        assert main(["bound-state", "--gamma0", "2", "--lambda", "2",
                     "--n", "3"]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert "root search stalled" in captured.err
        assert "energy" not in captured.out

    def test_unphysical_state_is_a_numerical_failure(self, skew_envelope, capsys):
        # an envelope starting at 1.5 lifts the population above 1
        skew_envelope(lambda lam: 1.5)
        assert main(["dynamics", "--gamma0", "1", "--lambda", "2",
                     "--n", "3"]) == EXIT_NUMERICAL
        assert "population" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["qsl", "dynamics"])
    def test_non_finite_results_are_numerical_failures(self, capsys, command):
        # lam**2 overflows, so the envelope would be NaN from the first
        # sample on: refused up front as a usage error
        assert main([command, "--gamma0", "1", "--lambda", "1e300"]) == 1
        captured = capsys.readouterr()
        assert "not finite" in captured.err
        assert "nan" not in captured.out

    def test_unknown_command_is_a_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_parser_is_built_once_per_process(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["bound-state", "--gamma0", "2", "--lambda", "2"]) == 0
        assert main(["validate", "--bogus"]) == 1
        assert built == []

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "bound-state" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,fields", [
        (["bound-state", "--kind", "three-level-v", "--n", "4", "--theta", "0.3",
          "--gamma0", "1.7", "--lambda", "2.5"],
         dict(command="bound-state", run=cli.cmd_bound_state, kind="three-level-v",
              n_atoms=4, theta=0.3, gamma0=1.7, lam=2.5)),
        (["dynamics", "--gamma0", "2.0", "--lambda", "2.0", "--tau", "7.5",
          "--steps", "8192", "--output", "traj.json", "--format", "json", "--force"],
         dict(command="dynamics", run=cli.cmd_dynamics, kind="two-level", n_atoms=1,
              theta=0.0, gamma0=2.0, lam=2.0, tau=7.5, steps=8192,
              output="traj.json", fmt="json", force=True)),
        (["qsl", "--n", "8", "--gamma0", "3", "--lambda", "2", "--tau", "4",
          "--output", "report.json"],
         dict(command="qsl", run=cli.cmd_qsl, kind="two-level", n_atoms=8, theta=0.0,
              gamma0=3.0, lam=2.0, tau=4.0, output="report.json",
              force=False)),
        (["sweep", "--figure", "3", "--output", "rows.csv", "--svg", "rows.svg",
          "--force"],
         dict(command="sweep", run=cli.cmd_sweep, figure=3, output="rows.csv",
              fmt="csv", force=True, svg="rows.svg")),
        (["validate", "--quick"], dict(command="validate", run=cli.cmd_validate,
                                       quick=True)),
    ], ids=["bound-state", "dynamics", "qsl", "sweep", "validate"])
    def test_parse_args_reads_every_command(self, argv, fields):
        assert vars(cli._PARSER.parse_args(argv)) == fields


# Numbers as text: any float (finite, non-finite, huge or subnormal) and a
# few hand-picked edges and non-numeric strings.
_REAL = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "1e200", "5e-324",
                     "2.2250738585072014e-308", "-0.0", "0", "1e-300"]),
    st.text(alphabet="0123456789.e+-xn", max_size=5),
)
_COUNT = st.one_of(
    st.integers(min_value=-2, max_value=40).map(str),
    st.integers(min_value=10 ** 15).map(str),
    st.sampled_from([str(10 ** 400), "2.5", "x", ""]),
)
# a sample count is requested output size, not a defect: capped at 4096
_STEPS = st.one_of(st.integers(min_value=-1, max_value=4096).map(str),
                   st.sampled_from(["x", "1e3"]))
_OUTPUTS = st.sampled_from(["{tmp}/out.csv", "{tmp}/out.json",
                            "{tmp}/missing/out.csv"])


@st.composite
def _model_argv(draw):
    command = draw(st.sampled_from(["bound-state", "qsl", "dynamics"]))
    argv = [command, "--kind", draw(st.sampled_from(["two-level", "three-level-v"])),
            "--gamma0", draw(_REAL), "--lambda", draw(_REAL)]
    flags = [("--n", _COUNT), ("--theta", _REAL)]
    if command != "bound-state":
        flags += [("--tau", _REAL), ("--output", _OUTPUTS)]
    if command == "dynamics":
        flags += [("--steps", _STEPS), ("--format", st.sampled_from(["csv", "json"]))]
    for flag, values in flags:
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    if command != "bound-state" and draw(st.booleans()):
        argv.append("--force")
    return argv


class TestArgvFuzz:
    @settings(max_examples=60,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=_model_argv())
    @example(argv=["qsl", "--gamma0", "1e308", "--lambda", "2"])
    @example(argv=["qsl", "--gamma0", "1", "--lambda", "2", "--n", str(10 ** 21)])
    @example(argv=["bound-state", "--gamma0", "1", "--lambda", "2",
                   "--n", str(10 ** 400)])
    @example(argv=["qsl", "--gamma0", "1", "--lambda", "1e300"])
    @example(argv=["dynamics", "--gamma0", "1", "--lambda", "1e300"])
    @example(argv=["dynamics", "--gamma0", "1", "--lambda", "2",
                   "--output", "{tmp}/missing/out.csv"])
    def test_main_exits_cleanly(self, tmp_path, capsys, argv):
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        code = main(argv)  # an exception escaping main fails the test
        out = capsys.readouterr().out.lower()
        assert code in {0, 1, 2, 3, 4}
        if code == 0:
            assert "nan" not in out and "inf" not in out
        assert not (tmp_path / "missing").exists()
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


class TestOutputFiles:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--figure", "2"],
        ["dynamics", "--gamma0", "1", "--lambda", "2"],
        ["qsl", "--gamma0", "1", "--lambda", "2"],
    ])
    def test_missing_directory_is_a_usage_error(self, tmp_path, capsys, argv):
        target = tmp_path / "missing" / "out.csv"
        assert main(argv + ["--output", str(target)]) == 1
        assert f"error: [Errno 2] No such file or directory: '{target}'" \
            in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_replace_leaves_no_file(self, tmp_path, capsys, monkeypatch,
                                           existing):
        target = tmp_path / "traj.csv"
        if existing:
            target.write_text("old\n")

        def fail(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", fail)
        assert main(["dynamics", "--gamma0", "1", "--lambda", "2",
                     "--output", str(target), "--force"]) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert os.listdir(tmp_path) == (["traj.csv"] if existing else [])
        if existing:
            assert target.read_text() == "old\n"

    def test_written_file_has_the_plain_open_mode(self, tmp_path):
        target = tmp_path / "report.json"
        plain = tmp_path / "plain"
        plain.write_text("")
        assert main(["qsl", "--gamma0", "1", "--lambda", "2",
                     "--output", str(target)]) == 0
        assert target.stat().st_mode == plain.stat().st_mode
        assert sorted(os.listdir(tmp_path)) == ["plain", "report.json"]


class TestBoundStateCommand:
    def test_prints_solution_round_trippable_to_solver(self, capsys):
        assert main(["bound-state", "--gamma0", "2", "--lambda", "2",
                     "--n", "3"]) == 0
        out = capsys.readouterr().out
        printed = float(out.splitlines()[0].split("=")[1])
        exact = find_bound_state(ModelParams(gamma0=2.0, n_atoms=3)).energy
        assert printed == pytest.approx(exact, rel=1e-11)
        assert "residual" in out and "bracket" in out

    def test_zero_coupling(self, capsys):
        assert main(["bound-state", "--gamma0", "0", "--lambda", "2"]) == 0
        assert "no bound state" in capsys.readouterr().out

    def test_probe_floor_exit_code(self, capsys):
        assert main(["bound-state", "--gamma0", "0.1", "--lambda", "2"]) == 2
        assert "probe floor" in capsys.readouterr().err


class TestDynamicsCommand:
    def test_summary_mode(self, capsys):
        assert main(["dynamics", "--gamma0", "1", "--lambda", "2",
                     "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "grid points      = 4097" in out
        assert "final population" in out

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert main(["dynamics", "--gamma0", "1", "--lambda", "2", "--n", "3",
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4098
        assert lines[0] == "t,amplitude_re,amplitude_im,population,population_rate"
        first = lines[1].split(",")
        assert [float(v) for v in first] == [0.0, 1.0, 0.0, 1.0, 0.0]

    def test_json_output(self, tmp_path):
        out = tmp_path / "traj.json"
        assert main(["dynamics", "--gamma0", "1", "--lambda", "2", "--n", "3",
                     "--steps", "4096", "--output", str(out),
                     "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == 1
        assert payload["config"]["n_atoms"] == 3
        assert payload["config"]["steps"] == 4096
        assert len(payload["rows"]) == 4097
        assert payload["rows"][0]["population"] == 1.0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_population_column_is_excited_population(self, tmp_path, fmt):
        # N = 3: the division by N rounds, so the columns show which
        # arithmetic produced them; the t = 0 rate is written as 0.0, and the
        # real amplitude's imaginary column always reads 0.0
        out = tmp_path / f"traj.{fmt}"
        assert main(["dynamics", "--gamma0", "1.3", "--lambda", "2", "--n", "3",
                     "--steps", "600", "--output", str(out), "--format", fmt]) == 0
        text = out.read_text()
        if fmt == "csv":
            header, *lines = text.splitlines()
            rows = [dict(zip(header.split(","), map(float, line.split(","))))
                    for line in lines]
        else:
            rows = json.loads(text)["rows"]
        assert rows[0]["population_rate"] == 0.0
        assert not [v for row in rows for v in row.values()
                    if v == 0.0 and math.copysign(1.0, v) < 0.0]  # no -0.0
        times = np.array([row["t"] for row in rows])
        params = ModelParams(gamma0=1.3, n_atoms=3)
        expected = np.clip(excited_population(times, params), 0.0, 1.0)
        assert [row["population"].hex() for row in rows] == [
            p.hex() for p in expected.tolist()]
        assert [row["amplitude_re"].hex() for row in rows] == [
            a.hex() for a in amplitude(times, params).tolist()]
        assert {row["amplitude_im"].hex() for row in rows} == {(0.0).hex()}

    def test_overwrite_refused_without_force(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        args = ["dynamics", "--gamma0", "1", "--lambda", "2",
                "--output", str(out)]
        assert main(args) == 0
        assert main(args) == 1
        assert "refusing to overwrite" in capsys.readouterr().err
        assert main(args + ["--force"]) == 0


class TestQslCommand:
    def test_report_lines(self, capsys):
        assert main(["qsl", "--gamma0", "3", "--lambda", "2", "--n", "1"]) == 0
        out = capsys.readouterr().out
        values = {line.split("=")[0].strip(): line.split("=")[1].strip()
                  for line in out.splitlines() if "=" in line}
        report = evaluate_point(ModelParams(gamma0=3.0, n_atoms=1), 5.0)
        assert float(values["ratio"]) == pytest.approx(report.ratio, rel=1e-11)
        assert float(values["nonmarkov"]) == pytest.approx(report.nonmarkov,
                                                           rel=1e-11)
        assert values["status"] == "normal"

    def test_underflow_is_reported_but_not_fatal(self, capsys):
        assert main(["qsl", "--gamma0", "0.1", "--lambda", "2"]) == 0
        out = capsys.readouterr().out
        assert "bound_energy     = none" in out
        assert "note: " in out

    def test_json_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["qsl", "--gamma0", "2", "--lambda", "2", "--n", "8",
                     "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        report = evaluate_point(ModelParams(gamma0=2.0, n_atoms=8), 5.0)
        assert payload["report"]["ratio"] == report.ratio
        assert payload["report"]["bound_energy"] == pytest.approx(
            find_bound_state(ModelParams(gamma0=2.0, n_atoms=8)).energy)
        assert payload["config"]["kind"] == "two-level"

    def test_format_is_refused(self, tmp_path, capsys):
        # the report is JSON only: a CSV request must not yield a JSON file
        out = tmp_path / "report.csv"
        assert main(["qsl", "--gamma0", "2", "--lambda", "2", "--format", "csv",
                     "--output", str(out)]) == 1
        assert "unrecognized arguments: --format csv" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestSweepCommand:
    def test_survey_csv_and_panels(self, tmp_path, capsys):
        csv_path = tmp_path / "fig2.csv"
        svg_path = tmp_path / "fig2.svg"
        assert main(["sweep", "--figure", "2", "--output", str(csv_path),
                     "--svg", str(svg_path)]) == 0
        text = csv_path.read_text()
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 4 * 401
        assert text.endswith("\n")
        statuses = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert statuses == {"stationary", "bound-underflow", "normal"}

        svg = svg_path.read_text()
        assert svg.count("<polyline") == 8
        assert 'version="1.1"' in svg and "viewBox" in svg
        assert "γ₀/ω₀" in svg

    def test_fields_parse_back_to_reports(self, tmp_path):
        csv_path = tmp_path / "fig4.csv"
        assert main(["sweep", "--figure", "4", "--output", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()[1:]
        # spot-check a handful of rows against direct evaluation
        for line in lines[:: len(lines) // 7]:
            g0, n, theta, ratio, nonmarkov, _, _ = line.split(",")
            params = ModelParams(gamma0=float(g0), n_atoms=int(n),
                                 theta=float(theta),
                                 kind=AtomKind.THREE_LEVEL_V)
            report = evaluate_point(params, 5.0)
            assert float(ratio) == report.ratio
            assert float(nonmarkov) == report.nonmarkov


def _per_row_csv(rows) -> str:
    lines = [CSV_HEADER] + [",".join([
        repr(g0), str(n), repr(theta), repr(ratio), repr(backflow),
        "" if bound is None else repr(bound), status])
        for g0, n, theta, ratio, backflow, bound, status in rows]
    return "\n".join(lines) + "\n"


def _per_row_json(rows, config: dict) -> str:
    payload = {"schema": 1, "config": config,
               "rows": [dict(zip(CSV_HEADER.split(","), r)) for r in rows]}
    return json.dumps(payload, indent=2) + "\n"


class TestSweepWriters:
    @pytest.mark.parametrize("figure", [3, 5])
    def test_writers_equal_a_per_row_formatter(self, tmp_path, figure):
        table = run_sweep(figure_preset(figure).config)
        rows = table_rows(table)
        assert {r[-1] for r in rows} == {"stationary", "bound-underflow", "normal"}
        assert _rows_csv(table) == _per_row_csv(rows)
        echo = {"figure": figure, "lam": 2.0}
        _write_json(tmp_path / "rows.json", False, echo, rows=_rows_json(table))
        assert (tmp_path / "rows.json").read_text() == _per_row_json(rows, echo)


class TestValidateCommand:
    def test_quick_suite_passes(self, capsys):
        assert main(["validate", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_detects_perturbed_envelope(self, skew_envelope, capsys):
        # a 0.1% skew of the decay envelope must trip the cross-checks
        skew_envelope(lambda lam: 1.001)
        assert main(["validate", "--quick"]) == 3
        out = capsys.readouterr().out
        assert "FAIL" in out and "checks failed" in out
