"""Command-line interface.

Commands
--------
bound-state   solve K(E) = E for one parameter point
dynamics      sample a trajectory and write it as a table
qsl           speed-limit / backflow report for one parameter point
sweep         regenerate a preset coupling-strength survey (figures 2-5)
validate      run the built-in consistency checks

Exit codes: 0 success, 1 usage or output-file error, 2 bracket failure,
3 validation failure, 4 numerical failure (the bound-state search stalled
above its residual target, or a computed state was not finite or left its
physical range).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bound_state import BisectionStallError, BracketFailureError, find_bound_state
from .checks import run_checks
from .dynamics import trajectory
from .measures import evaluate_point
from .spectral import AtomKind, ModelParams
from .svg import render_figure
from .sweep import SweepTable, figure_preset, run_sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BRACKET = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

CSV_HEADER = "gamma0,n_atoms,theta,ratio,nonmarkov,bound_energy,status"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_model_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--kind", choices=[k.value for k in AtomKind],
                    default=AtomKind.TWO_LEVEL.value, help="emitter kind")
    sp.add_argument("--n", dest="n_atoms", type=int, default=1,
                    help="number of emitters")
    sp.add_argument("--theta", type=float, default=0.0,
                    help="dipole angle cosine (V-type only)")
    sp.add_argument("--gamma0", type=float, required=True,
                    help="coupling strength in units of omega0")
    sp.add_argument("--lambda", dest="lam", type=float, required=True,
                    help="reservoir width in units of omega0")


def _add_output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--output", default=None, help="write results to this path")
    sp.add_argument("--force", action="store_true",
                    help="overwrite an existing output file")


def _build_params(args: argparse.Namespace) -> ModelParams:
    return ModelParams(gamma0=args.gamma0, lam=args.lam, n_atoms=args.n_atoms,
                       theta=args.theta, kind=AtomKind(args.kind))


def _write_text(path: str, text: str, force: bool) -> None:
    """Write a temporary file beside path with plain open() (so the usual
    umask mode), then rename it over path: a failed write leaves neither."""
    if os.path.exists(path) and not force:
        raise UsageError(f"refusing to overwrite {path} (pass --force)")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="")
    except OSError as exc:
        exc.filename = path  # name the target, not the temporary file
        raise
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_json(path: str, force: bool, config: dict, **body) -> None:
    payload = {"schema": 1, "config": config, **body}
    _write_text(path, json.dumps(payload, indent=2) + "\n", force)


def _config_echo(args: argparse.Namespace) -> dict:
    return {
        "kind": args.kind,
        "n_atoms": args.n_atoms,
        "theta": args.theta,
        "gamma0": args.gamma0,
        "lam": args.lam,
        "omega0": 1.0,  # the unit, echoed so schema 1 keeps its keys
        "tau": args.tau,
    }


def _rows_csv(table: SweepTable) -> str:
    # the columns hold plain floats, so !r is their shortest round trip
    g0 = list(map(repr, table.gamma0))
    lines = [CSV_HEADER]
    for n, theta, *values in table.curves:
        key = f"{n},{theta!r}"
        lines += [f"{g},{key},{r!r},{m!r},{'' if b is None else repr(b)},{s}"
                  for g, r, m, b, s in zip(g0, *values)]
    return "\n".join(lines) + "\n"


def _rows_json(table: SweepTable) -> list[dict]:
    rows = []
    for n, theta, *values in table.curves:
        rows += [{
            "gamma0": g,
            "n_atoms": n,
            "theta": theta,
            "ratio": r,
            "nonmarkov": m,
            "bound_energy": b,
            "status": s,
        } for g, r, m, b, s in zip(table.gamma0, *values)]
    return rows


def cmd_bound_state(args: argparse.Namespace) -> int:
    result = find_bound_state(_build_params(args))
    if not result.exists:
        print("no bound state (zero coupling)")
        return EXIT_OK
    print(f"energy     = {result.energy:.12g}")
    print(f"residual   = {result.residual:.3e}")
    print(f"iterations = {result.iterations}")
    print(f"bracket    = [{result.bracket[0]:.12g}, {result.bracket[1]:.12g}]")
    return EXIT_OK


def cmd_dynamics(args: argparse.Namespace) -> int:
    traj = trajectory(_build_params(args), args.tau, args.steps)
    if args.output is None:
        print(f"grid points      = {len(traj)}")
        print(f"final population = {traj.population[-1]:.12g}")
        print(f"min population   = {traj.population.min():.12g}")
        return EXIT_OK
    # plain floats (tolist), so !r is their shortest round-trip decimal
    samples = list(zip(traj.times.tolist(), traj.amplitude.tolist(),
                       traj.population.tolist(), traj.population_rate.tolist()))
    if args.fmt == "csv":
        lines = ["t,amplitude_re,amplitude_im,population,population_rate"]
        lines += [f"{t!r},{a!r},0.0,{p!r},{r!r}" for t, a, p, r in samples]
        _write_text(args.output, "\n".join(lines) + "\n", args.force)
    else:
        _write_json(args.output, args.force, _config_echo(args) | {"steps": args.steps},
                    rows=[{"t": t, "amplitude_re": a, "amplitude_im": 0.0,
                           "population": p, "population_rate": r}
                          for t, a, p, r in samples])
    print(f"wrote {len(traj)} samples to {args.output}")
    return EXIT_OK


def cmd_qsl(args: argparse.Namespace) -> int:
    params = _build_params(args)
    point = evaluate_point(params, args.tau)
    bound_note = None
    bound = None
    try:
        state = find_bound_state(params)
        bound = state.energy if state.exists else None
    except BracketFailureError as exc:
        bound_note = str(exc)
    report = {
        "tau": point.tau,
        "tau_qsl": point.tau_qsl,
        "ratio": point.ratio,
        "nonmarkov": point.nonmarkov,
        "final_population": point.final_population,
        "bound_energy": bound,
        "status": point.status.value,
    }
    for key, value in report.items():
        text = ("none" if value is None else value if isinstance(value, str)
                else f"{value:.12g}")
        print(f"{key:<16} = {text}")
    if bound_note:
        print(f"note: {bound_note}")
    if args.output is not None:
        _write_json(args.output, args.force, _config_echo(args), report=report)
        print(f"wrote report to {args.output}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    preset = figure_preset(args.figure)
    sc = preset.config
    table = run_sweep(sc)
    out = args.output or f"fig{args.figure}.{args.fmt}"
    if args.fmt == "csv":
        _write_text(out, _rows_csv(table), args.force)
    else:
        config = {
            "figure": preset.figure,
            "kind": sc.kind.value,
            "n_atoms_list": list(sc.n_atoms_list),
            "theta_list": list(sc.theta_list),
            "gamma0_grid": list(sc.gamma0_grid),
            "lam": sc.lam,
            "omega0": 1.0,
            "tau": sc.tau,
        }
        _write_json(out, args.force, config, rows=_rows_json(table))
    print(f"wrote {len(table)} rows to {out}")
    if args.svg:
        _write_text(args.svg, render_figure(table, preset.right_axis), args.force)
        print(f"wrote panels to {args.svg}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    results = run_checks(quick=args.quick)
    width = max(len(r.name) for r in results)
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        print(f"{verdict} {r.name:<{width}}  worst={r.worst:.3e} "
              f"tol={r.tolerance:.1e}  {r.detail}")
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed")
        return EXIT_VALIDATION
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def _build_parser() -> _Parser:
    p = _Parser(prog="qspeedup",
                description="Collective decay in a shared Lorentzian reservoir")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bound-state", help="solve K(E) = E")
    _add_model_flags(sp)
    sp.set_defaults(run=cmd_bound_state)

    sp = sub.add_parser("dynamics", help="sample a trajectory")
    _add_model_flags(sp)
    sp.add_argument("--tau", type=float, default=5.0, help="time window")
    sp.add_argument("--steps", type=int, default=4096, help="grid steps")
    _add_output_flags(sp)
    sp.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    sp.set_defaults(run=cmd_dynamics)

    sp = sub.add_parser("qsl", help="speed-limit report")
    _add_model_flags(sp)
    sp.add_argument("--tau", type=float, default=5.0, help="time window")
    _add_output_flags(sp)  # the report is JSON only
    sp.set_defaults(run=cmd_qsl)

    sp = sub.add_parser("sweep", help="regenerate a survey grid")
    sp.add_argument("--figure", type=int, choices=(2, 3, 4, 5), required=True)
    _add_output_flags(sp)
    sp.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    sp.add_argument("--svg", default=None, help="also draw the panels to this path")
    sp.set_defaults(run=cmd_sweep)

    sp = sub.add_parser("validate", help="run the consistency checks")
    sp.add_argument("--quick", action="store_true", help="reduced grids")
    sp.set_defaults(run=cmd_validate)
    return p


# built once: argparse parsers are reusable, and building one costs ~2 ms
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)  # None reads sys.argv[1:]
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BracketFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BRACKET
    except (BisectionStallError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
