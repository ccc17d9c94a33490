#!/usr/bin/env python3
"""Run `qspeedup validate` against a fixed list of one-line source mutations.

For each mutation the script copies `src/` to a temporary directory,
replaces the mutation's exact old text (which must occur once in its file)
by the new text, runs `qspeedup validate` on the copy in a fresh
interpreter and prints one row: the mutation, then `killed` or `survived`,
then the checks that failed.  A mutation whose old text no longer occurs
exactly once is reported as `stale` and not run.  The unmutated source
runs first and must pass.  Stdlib only:

    python3 scripts/mutants.py

To find the first tier-1 test that fails on a mutant, apply it to a copy
of the whole repository and run there

    PYTHONPATH=src python -m pytest -x -q \
        --deselect tests/test_scripts.py::test_every_mutation_still_applies_once

The deselected test reads the mutated text as stale.  It sorts before
test_spectral.py, test_svg.py and test_sweep.py, so `-x` would otherwise
stop at it before the tests of those modules run.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
VALIDATE = "import sys; from qspeedup.cli import main; sys.exit(main(['validate']))"


class Mutation(NamedTuple):
    name: str
    file: str  # under src/qspeedup
    old: str
    new: str


MUTATIONS = (
    Mutation("reservoir slope x (1 + 1e-6)", "spectral.py",
             "self.slope = angle / lam", "self.slope = angle / lam * (1.0 + 1e-6)"),
    Mutation("backflow R x 1.5", "measures.py",
             "rate_abs = loss + 2.0 * backflow",
             "backflow *= 1.5; rate_abs = loss + 2.0 * backflow"),
    Mutation("odd-K partial rise dropped", "measures.py",
             "return rises + odd * np.maximum(", "return rises + 0.0 * odd * np.maximum("),
    Mutation("N = 1 rise after the last zero dropped", "measures.py",
             "return rises + final * (", "return rises + 0.0 * final * ("),
    Mutation("unit amplitude fall x (1 + 1e-3)", "dynamics.py",
             "return 1.0 + (g - 1.0) / n, dg", "return 1.0 + (g - 1.0) / n * 1.001, dg"),
    Mutation("one-point amplitude drops 1/sqrt(m)", "dynamics.py",
             "return _shaped(math.sqrt(1.0 / m) * amp, t)", "return _shaped(amp, t)"),
    Mutation("bound-state stop 1e6 x looser", "bound_state.py",
             "done = np.maximum(0.01 * RESIDUAL_TOL,", "done = np.maximum(1e4 * RESIDUAL_TOL,"),
    Mutation("V-type oracle weight 1 + theta/2", "oracle.py",
             "p.lam * (1.0 + p.theta)", "p.lam * (1.0 + 0.5 * p.theta)"),
    Mutation("speedup onset fires at ratio <= 1", "sweep.py",
             "return ratio < 1.0", "return ratio <= 1.0"),
    Mutation("onset walk takes the wrong half", "sweep.py",
             "a, b = (a, m) if fired[m - 1] else (m, b)",
             "a, b = (m, b) if fired[m - 1] else (a, m)"),
    Mutation("lockstep walk reads the next search's slice", "sweep.py",
             "part = slice(k * width, (k + 1) * width)",
             "part = slice((k + 1) % len(searches) * width, "
             "((k + 1) % len(searches) + 1) * width)"),
    Mutation("generic QSL divides by the largest rate", "measures.py",
             "/ min(r for r in rates if r > 0.0)", "/ max(rates)"),
    Mutation("Bures angle without the fidelity's root", "measures.py",
             "return math.acos(math.sqrt(fid))", "return math.acos(fid)"),
    Mutation("SVG y-range without padding", "svg.py",
             "pad = 0.05 * (hi - lo)", "pad = 0.0"),
    Mutation("SVG near-tie re-rounding dropped", "svg.py",
             'k.flat[i] = int(f"{v.flat[i]:.2f}".replace(".", ""))', "pass"),
    Mutation("SVG leading-zero blank off by one", "svg.py",
             "out[..., 4] *= q >= 10", "out[..., 4] *= q > 10"),
    Mutation("envelope phase x (1 + 1e-6)", "dynamics.py",
             "phase = 0.5 * b * t", "phase = 0.5 * b * t * (1.0 + 1e-6)"),
    Mutation("reservoir offset + 1e-6", "spectral.py",
             "self.offset = np.log(np.hypot(omega0, lam))",
             "self.offset = np.log(np.hypot(omega0, lam)) + 1e-6"),
    Mutation("reservoir dI/du without the slope term", "spectral.py",
             "* num - self.slope) - 1.0)", "* num) - 1.0)"),
    Mutation("Newton seed is the larger limiting root", "bound_state.py",
             "e = -np.exp(np.minimum(", "e = -np.exp(np.maximum("),
    Mutation("Newton settles on steps 1e3 x longer", "bound_state.py",
             "settled = active & (np.abs(step) <= SETTLE)",
             "settled = active & (np.abs(step) <= 1e3 * SETTLE)"),
    Mutation("N >= 2 alternating sum sign flipped", "measures.py",
             "rises = (up2 - (up2 + alternating) / n) / n",
             "rises = (up2 - (up2 - alternating) / n) / n"),
    Mutation("RK4 Horner h**4 coefficient 1/30", "oracle.py",
             "(eye + b / 4.0)", "(eye + b / 5.0)"),
    Mutation("oracle LTE estimate 100 x smaller", "oracle.py",
             "np.abs(error).max(axis=(1, 2)) / 15.0", "np.abs(error).max(axis=(1, 2)) / 1500.0"),
    Mutation("sweep underflow rows read normal", "sweep.py",
             'np.where(lost, "bound-underflow",', 'np.where(lost, "normal",'),
    Mutation("CSV row swaps ratio and nonmarkov", "cli.py",
             "{r!r},{m!r},", "{m!r},{r!r},"),
    Mutation("sweep deals grid points to the curves in turn", "sweep.py",
             "column.reshape(len(pairs), -1).tolist()",
             "column.reshape(-1, len(pairs)).T.tolist()"),
)


def is_stale(mutation: Mutation, src: pathlib.Path) -> bool:
    """True unless the old text occurs exactly once in the file under src."""
    text = (src / "qspeedup" / mutation.file).read_text(encoding="utf-8")
    return text.count(mutation.old) != 1


def run_validate(src: pathlib.Path) -> tuple[int, list[str]]:
    """Exit code and failing check names of `qspeedup validate` on src."""
    proc = subprocess.run([sys.executable, "-c", VALIDATE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src),
                               "PYTHONDONTWRITEBYTECODE": "1"}, timeout=600)
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAIL ")]
    return proc.returncode, failed


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp) / "src"
        code, failed = run_validate(ROOT / "src")
        if code != 0:
            print(f"unmutated validate exits {code}, failing {failed}; nothing to compare")
            return 1
        width = max(len(m.name) for m in MUTATIONS)
        tally = {"killed": 0, "survived": 0, "stale": 0}
        for mutation in MUTATIONS:
            if is_stale(mutation, ROOT / "src"):
                tally["stale"] += 1
                print(f"{mutation.name:<{width}}  stale")
                continue
            shutil.rmtree(src, ignore_errors=True)
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            path = src / "qspeedup" / mutation.file
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(mutation.old, mutation.new), encoding="utf-8")
            code, failed = run_validate(src)
            verdict = "survived" if code == 0 else "killed"
            tally[verdict] += 1
            note = ", ".join(failed) if failed else ("" if code == 0 else f"exit {code}")
            print(f"{mutation.name:<{width}}  {verdict:<8}  {note}".rstrip())
        print(", ".join(f"{count} {verdict}" for verdict, count in tally.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
