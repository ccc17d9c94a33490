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
from dataclasses import dataclass

from .bound_state import BisectionStallError, BracketFailureError, find_bound_state
from .checks import run_checks
from .dynamics import trajectory
from .measures import evaluate_point
from .spectral import AtomKind, ModelParams
from .svg import Panel, Series, render_figure
from .sweep import FigurePreset, SweepTable, figure_preset, run_sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BRACKET = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

CSV_HEADER = "gamma0,n_atoms,theta,ratio,nonmarkov,bound_energy,status"
BOUND_PLOT_FLOOR = 1e-4
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation, as parse_args() reads it."""

    command: str
    kind: AtomKind = AtomKind.TWO_LEVEL
    n_atoms: int = 1
    theta: float = 0.0
    gamma0: float = 1.0
    lam: float = 2.0
    omega0: float = 1.0
    tau: float = 5.0
    steps: int = 4096
    figure: int | None = None
    output: str | None = None
    fmt: str = "csv"
    svg: str | None = None
    force: bool = False
    quick: bool = False


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
    sp.add_argument("--omega0", type=float, default=1.0,
                    help="transition frequency (sets the unit)")


def _add_output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--output", default=None, help="write results to this path")
    sp.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    sp.add_argument("--force", action="store_true",
                    help="overwrite an existing output file")


def build_parser() -> _Parser:
    p = _Parser(prog="qspeedup",
                description="Collective decay in a shared Lorentzian reservoir")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("bound-state", help="solve K(E) = E")
    _add_model_flags(sp)

    sp = sub.add_parser("dynamics", help="sample a trajectory")
    _add_model_flags(sp)
    sp.add_argument("--tau", type=float, default=5.0, help="time window")
    sp.add_argument("--steps", type=int, default=4096, help="grid steps")
    _add_output_flags(sp)

    sp = sub.add_parser("qsl", help="speed-limit report")
    _add_model_flags(sp)
    sp.add_argument("--tau", type=float, default=5.0, help="time window")
    _add_output_flags(sp)

    sp = sub.add_parser("sweep", help="regenerate a survey grid")
    sp.add_argument("--figure", type=int, choices=(2, 3, 4, 5), required=True)
    _add_output_flags(sp)
    sp.add_argument("--svg", default=None, help="also draw the panels to this path")

    sp = sub.add_parser("validate", help="run the consistency checks")
    sp.add_argument("--quick", action="store_true", help="reduced grids, < 5 s")
    return p


def parse_args(argv) -> RunConfig:
    ns = build_parser().parse_args(argv)
    fields = {k: v for k, v in vars(ns).items() if v is not None or k in
              ("figure", "output", "svg")}
    if "kind" in fields:
        fields["kind"] = AtomKind(fields["kind"])
    return RunConfig(**fields)


def _build_params(cfg: RunConfig) -> ModelParams:
    return ModelParams(gamma0=cfg.gamma0, lam=cfg.lam, n_atoms=cfg.n_atoms,
                       theta=cfg.theta, omega0=cfg.omega0, kind=cfg.kind)


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


def _config_echo(cfg: RunConfig, preset: FigurePreset | None = None) -> dict:
    if preset is not None:
        sc = preset.config
        return {
            "figure": preset.figure,
            "kind": sc.kind.value,
            "n_atoms_list": list(sc.n_atoms_list),
            "theta_list": list(sc.theta_list),
            "gamma0_grid": list(sc.gamma0_grid),
            "lam": sc.lam,
            "omega0": sc.omega0,
            "tau": sc.tau,
        }
    return {
        "kind": cfg.kind.value,
        "n_atoms": cfg.n_atoms,
        "theta": cfg.theta,
        "gamma0": cfg.gamma0,
        "lam": cfg.lam,
        "omega0": cfg.omega0,
        "tau": cfg.tau,
    }


def _rows_csv(table: SweepTable) -> str:
    # the columns hold plain floats, so !r is their shortest round trip
    g0 = list(map(repr, table.gamma0))
    lines = [CSV_HEADER]
    for n, theta, *values in table.curve_columns():
        key = f"{n},{theta!r}"
        lines += [f"{g},{key},{r!r},{m!r},{'' if b is None else repr(b)},{s}"
                  for g, r, m, b, s in zip(g0, *values)]
    return "\n".join(lines) + "\n"


def _rows_json(table: SweepTable, config: dict) -> str:
    rows = []
    for n, theta, *values in table.curve_columns():
        rows += [{
            "gamma0": g,
            "n_atoms": n,
            "theta": theta,
            "ratio": r,
            "nonmarkov": m,
            "bound_energy": b,
            "status": s,
        } for g, r, m, b, s in zip(table.gamma0, *values)]
    payload = {"schema": 1, "config": config, "rows": rows}
    return json.dumps(payload, indent=2) + "\n"


def _sweep_panels(table: SweepTable, preset: FigurePreset) -> list[Panel]:
    sc = preset.config
    right_label = "ℜ" if preset.right_axis == "nonmarkov" else "E_b/ω₀"
    xs = tuple(table.gamma0)  # every series of every panel shares it
    curves = table.curve_columns()
    panels = []
    for n in sc.n_atoms_list:
        series = []
        for k, theta in enumerate(sc.theta_list):
            _, _, ratio, nonmarkov, bound_energy, _ = next(curves)
            suffix = f", θ={theta:g}" if len(sc.theta_list) > 1 else ""
            series.append(Series(
                x=xs, y=tuple(ratio),
                label="τ_QSL/τ" + suffix, color=PALETTE[k % len(PALETTE)]))
            if preset.right_axis == "nonmarkov":
                ys = tuple(nonmarkov)
            else:
                # presentation floor: energies under the plot resolution read 0
                ys = tuple(0.0 if b is None or abs(b) < BOUND_PLOT_FLOOR else b
                           for b in bound_energy)
            series.append(Series(
                x=xs, y=ys, label=right_label + suffix,
                color=PALETTE[(k + 2) % len(PALETTE)], dashed=True, axis="right"))
        panels.append(Panel(title=f"N = {n}", series=tuple(series),
                            y_left_label="τ_QSL/τ", y_right_label=right_label))
    return panels


def cmd_bound_state(cfg: RunConfig) -> int:
    params = _build_params(cfg)
    result = find_bound_state(params)
    if not result.exists:
        print("no bound state (zero coupling)")
        return EXIT_OK
    print(f"energy     = {result.energy:.12g}")
    print(f"residual   = {result.residual:.3e}")
    print(f"iterations = {result.iterations}")
    print(f"bracket    = [{result.bracket[0]:.12g}, {result.bracket[1]:.12g}]")
    return EXIT_OK


def cmd_dynamics(cfg: RunConfig) -> int:
    params = _build_params(cfg)
    traj = trajectory(params, cfg.tau, cfg.steps)
    if cfg.output is None:
        print(f"grid points      = {len(traj)}")
        print(f"final population = {traj.population[-1]:.12g}")
        print(f"min population   = {traj.population.min():.12g}")
        return EXIT_OK
    # plain floats (tolist), so !r is their shortest round-trip decimal
    samples = list(zip(traj.times.tolist(), traj.amplitude.tolist(),
                       traj.population.tolist(), traj.population_rate.tolist()))
    if cfg.fmt == "csv":
        lines = ["t,amplitude_re,amplitude_im,population,population_rate"]
        lines += [f"{t!r},{a.real!r},{a.imag!r},{p!r},{r!r}" for t, a, p, r in samples]
        _write_text(cfg.output, "\n".join(lines) + "\n", cfg.force)
    else:
        payload = {
            "schema": 1,
            "config": _config_echo(cfg) | {"steps": cfg.steps},
            "rows": [{"t": t, "amplitude_re": a.real, "amplitude_im": a.imag,
                      "population": p, "population_rate": r} for t, a, p, r in samples],
        }
        _write_text(cfg.output, json.dumps(payload, indent=2) + "\n", cfg.force)
    print(f"wrote {len(traj)} samples to {cfg.output}")
    return EXIT_OK


def cmd_qsl(cfg: RunConfig) -> int:
    params = _build_params(cfg)
    report = evaluate_point(params, cfg.tau)
    bound_note = None
    bound = None
    try:
        state = find_bound_state(params)
        bound = state.energy if state.exists else None
    except BracketFailureError as exc:
        bound_note = str(exc)
    print(f"tau              = {report.tau:.12g}")
    print(f"tau_qsl          = {report.tau_qsl:.12g}")
    print(f"ratio            = {report.ratio:.12g}")
    print(f"nonmarkov        = {report.nonmarkov:.12g}")
    print(f"final_population = {report.final_population:.12g}")
    print(f"bound_energy     = "
          + ("none" if bound is None else f"{bound:.12g}"))
    print(f"status           = {report.status.value}")
    if bound_note:
        print(f"note: {bound_note}")
    if cfg.output is not None:
        payload = {
            "schema": 1,
            "config": _config_echo(cfg),
            "report": {
                "tau": report.tau,
                "tau_qsl": report.tau_qsl,
                "ratio": report.ratio,
                "nonmarkov": report.nonmarkov,
                "final_population": report.final_population,
                "bound_energy": bound,
                "status": report.status.value,
            },
        }
        _write_text(cfg.output, json.dumps(payload, indent=2) + "\n", cfg.force)
        print(f"wrote report to {cfg.output}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    preset = figure_preset(cfg.figure)
    table = run_sweep(preset.config)
    out = cfg.output or f"fig{cfg.figure}.{cfg.fmt}"
    if cfg.fmt == "csv":
        _write_text(out, _rows_csv(table), cfg.force)
    else:
        _write_text(out, _rows_json(table, _config_echo(cfg, preset)), cfg.force)
    print(f"wrote {len(table)} rows to {out}")
    if cfg.svg:
        _write_text(cfg.svg, render_figure(_sweep_panels(table, preset)), cfg.force)
        print(f"wrote panels to {cfg.svg}")
    return EXIT_OK


def cmd_validate(cfg: RunConfig) -> int:
    results = run_checks(quick=cfg.quick)
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


_COMMANDS = {
    "bound-state": cmd_bound_state,
    "dynamics": cmd_dynamics,
    "qsl": cmd_qsl,
    "sweep": cmd_sweep,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else list(argv))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[cfg.command](cfg)
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
