"""The command line's text, byte for byte: printed reports and JSON headers.

The other CLI tests parse values back out of the output; these pin the
exact characters (labels, padding, number formats, note lines, JSON key
order and indentation), so a refactor of the CLI cannot reword or reorder
what a user or a script reads.
"""

import pytest

from qspeedup.cli import main

QSL_NORMAL = """\
tau              = 5
tau_qsl          = 4.88375575803
ratio            = 0.976751151605
nonmarkov        = 0.0119003247174
final_population = 6.60957550238e-05
bound_energy     = -0.226821257401
status           = normal
"""

QSL_UNDERFLOW = """\
tau              = 5
tau_qsl          = 5
ratio            = 1
nonmarkov        = 0
final_population = 0.631411787599
bound_energy     = none
status           = normal
note: no sign change of K(E) - E above the probe floor -1e-16; coupling \
gamma0=0.1 is too weak for the root to be representable
"""

BOUND_STATE = """\
energy     = -0.652699376979
residual   = 7.772e-16
iterations = 5
bracket    = [-0.652699377027, -1e-16]
"""

DYNAMICS_SUMMARY = """\
grid points      = 4097
final population = 0.448065090454
min population   = 0.397550150635
"""

QSL_V_TYPE = """\
tau              = 4
tau_qsl          = 1.3858946656
ratio            = 0.3464736664
nonmarkov        = 0.217759255728
final_population = 0.769105409084
bound_energy     = -2.24006399898
status           = normal
wrote report to {path}
"""

QSL_JSON = """\
{
  "schema": 1,
  "config": {
    "kind": "three-level-v",
    "n_atoms": 8,
    "theta": 0.4,
    "gamma0": 2.0,
    "lam": 2.0,
    "omega0": 1.0,
    "tau": 4.0
  },
  "report": {
    "tau": 4.0,
    "tau_qsl": 1.3858946656011948,
    "ratio": 0.3464736664002987,
    "nonmarkov": 0.21775925572795066,
    "final_population": 0.769105409084015,
    "bound_energy": -2.2400639989758804,
    "status": "normal"
  }
}
"""

DYNAMICS_JSON_HEAD = """\
{
  "schema": 1,
  "config": {
    "kind": "three-level-v",
    "n_atoms": 3,
    "theta": 0.5,
    "gamma0": 1.3,
    "lam": 2.0,
    "omega0": 1.0,
    "tau": 5.0,
    "steps": 8
  },
  "rows": [
"""

SWEEP_JSON_HEAD = """\
{
  "schema": 1,
  "config": {
    "figure": 3,
    "kind": "two-level",
    "n_atoms_list": [
      1,
      3,
      8,
      30
    ],
    "theta_list": [
      0.0
    ],
    "gamma0_grid": [
      0.0,
      4.0,
      401
    ],
    "lam": 2.0,
    "omega0": 1.0,
    "tau": 5.0
  },
  "rows": [
"""


@pytest.mark.parametrize("argv,expected", [
    (["qsl", "--gamma0", "3", "--lambda", "2", "--n", "1"], QSL_NORMAL),
    (["qsl", "--gamma0", "0.1", "--lambda", "2"], QSL_UNDERFLOW),
    (["bound-state", "--gamma0", "2", "--lambda", "2", "--n", "3"], BOUND_STATE),
    (["dynamics", "--gamma0", "1", "--lambda", "2", "--n", "3"], DYNAMICS_SUMMARY),
], ids=["qsl", "qsl-underflow", "bound-state", "dynamics"])
def test_printed_reports(capsys, argv, expected):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


def test_qsl_json_report(tmp_path, capsys):
    path = tmp_path / "q.json"
    assert main(["qsl", "--kind", "three-level-v", "--n", "8", "--theta", "0.4",
                 "--gamma0", "2", "--lambda", "2", "--tau", "4",
                 "--output", str(path)]) == 0
    assert capsys.readouterr().out == QSL_V_TYPE.format(path=path)
    assert path.read_text() == QSL_JSON


@pytest.mark.parametrize("argv,head,printed", [
    (["dynamics", "--kind", "three-level-v", "--n", "3", "--theta", "0.5",
      "--gamma0", "1.3", "--lambda", "2", "--steps", "8"],
     DYNAMICS_JSON_HEAD, "wrote 9 samples to {path}\n"),
    (["sweep", "--figure", "3"], SWEEP_JSON_HEAD, "wrote 1604 rows to {path}\n"),
], ids=["dynamics", "sweep"])
def test_json_config_blocks(tmp_path, capsys, argv, head, printed):
    path = tmp_path / "out.json"
    assert main(argv + ["--output", str(path), "--format", "json"]) == 0
    assert capsys.readouterr().out == printed.format(path=path)
    text = path.read_text()
    assert text[:text.index("\n    {\n")] + "\n" == head
