import importlib.util
import pathlib

from qspeedup import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "reproduce_figures.py"


def _load_script(path=SCRIPT):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_figures_writes_the_cli_outputs(tmp_path, capsys):
    script = _load_script()
    outdir = tmp_path / "figures"
    assert script.main(["--outdir", str(outdir), "--figures", "2", "5"]) == 0
    assert sorted(p.name for p in outdir.iterdir()) == [
        "fig2.csv", "fig2.svg", "fig5.csv", "fig5.svg"]
    for k in (2, 5):
        csv_path, svg_path = tmp_path / f"cli{k}.csv", tmp_path / f"cli{k}.svg"
        assert cli.main(["sweep", "--figure", str(k), "--output", str(csv_path),
                         "--svg", str(svg_path)]) == 0
        assert (outdir / f"fig{k}.csv").read_bytes() == csv_path.read_bytes()
        assert (outdir / f"fig{k}.svg").read_bytes() == svg_path.read_bytes()
    # a rebuild overwrites the earlier files, as the CLI does with --force
    assert script.main(["--outdir", str(outdir), "--figures", "2"]) == 0
    assert "fig2:" in capsys.readouterr().out


def test_reproduce_figures_uses_only_the_public_cli():
    text = SCRIPT.read_text(encoding="utf-8")
    assert "_rows_csv" not in text and "render_figure" not in text


def test_every_mutation_still_applies_once():
    mutants = _load_script(ROOT / "scripts" / "mutants.py")
    assert len({m.name for m in mutants.MUTATIONS}) == len(mutants.MUTATIONS)
    for mutation in mutants.MUTATIONS:
        assert mutation.old != mutation.new
        assert not mutants.is_stale(mutation, ROOT / "src"), mutation.name
