#!/usr/bin/env python3
"""Regenerate the four survey figures (CSV data plus SVG panels).

Runs `qspeedup sweep --figure K --output DIR/figK.csv --svg DIR/figK.svg
--force` for each K = 2..5 through the CLI, so a single command rebuilds
everything:

    python3 scripts/reproduce_figures.py --outdir figures
"""

import argparse
import pathlib
import sys
import time

from qspeedup import cli


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="figures",
                    help="directory for figK.csv / figK.svg (default: figures)")
    ap.add_argument("--figures", type=int, nargs="+", default=[2, 3, 4, 5],
                    choices=(2, 3, 4, 5), help="which presets to rebuild")
    args = ap.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for fig in args.figures:
        t0 = time.perf_counter()
        code = cli.main(["sweep", "--figure", str(fig),
                         "--output", str(outdir / f"fig{fig}.csv"),
                         "--svg", str(outdir / f"fig{fig}.svg"), "--force"])
        if code != cli.EXIT_OK:
            return code
        print(f"fig{fig}: {(time.perf_counter() - t0) * 1e3:.0f} ms")
    return cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
