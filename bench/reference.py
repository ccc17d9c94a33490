"""Correctness references the benchmark checks outputs against.

* `dense_reference` recomputes the backflow R and the speed-limit ratio of
  one parameter point from `excited_population` alone: a uniform scan with
  64 samples per oscillation period 2*pi/|d|, every turning point of the
  population refined by golden-section search, and R summed as the rises of
  p between consecutive turning points (the Breuer-Laine-Piilo measure for
  these states).  It never calls `population_rate` or the library's segment
  machinery.
* `known_defect` names the two known ways the library goes wrong on long
  windows: its 4096-interval rate grid can miss pairs of rate zeros
  ("aliasing"), and in the overdamped regime cosh(d*t/2) overflows once
  d*tau/2 passes the float range, so the report turns NaN ("overflow").
  Failures at such points are still failures; the classification only
  separates them from unexplained ones.
* The survey reference is the CSV of preset figures 2 and 4, committed
  gzipped under `reference/`.  Figures 3 and 5 sweep the same grids, so
  their rows are checked against the same files.
"""

from __future__ import annotations

import gzip
import math
import pathlib

import numpy as np

SAMPLES_PER_PERIOD = 64
GOLDEN_STEPS = 40
LIBRARY_GRID = 4096
REL_TOL = 1e-7
SURVEY_FLOAT_TOL = 1e-9
COSH_OVERFLOW = math.log(np.finfo(float).max) + math.log(2.0)
SURVEY_DIR = pathlib.Path(__file__).resolve().parent / "reference"

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _d_squared(params) -> float:
    """d**2 = lam**2 - 2*w*lam of the excited (symmetric) channel."""
    return params.lam ** 2 - 2.0 * params.lam * params.gamma0 * params.collective_factor()


def oscillation_rate(params) -> float:
    """|d| of the excited channel, 0 when the envelope does not oscillate."""
    d2 = _d_squared(params)
    return math.sqrt(-d2) if d2 < 0.0 else 0.0


def dense_reference(params, tau: float, excited_population) -> tuple[float, float]:
    """(backflow, ratio) of one point from a refined dense scan of p(t)."""
    tau = float(tau)
    periods = tau * oscillation_rate(params) / (2.0 * math.pi)
    n = max(LIBRARY_GRID, math.ceil(periods * SAMPLES_PER_PERIOD))
    t = np.linspace(0.0, tau, n + 1)
    p = np.asarray(excited_population(t, params), dtype=float)
    step = np.diff(p)
    turn = np.nonzero(step[:-1] * step[1:] < 0.0)[0] + 1
    # minimise sign * p: sign = -1 at a maximum, +1 at a minimum
    sign = np.where(step[turn - 1] > 0.0, -1.0, 1.0)

    def f(x):
        return sign * np.asarray(excited_population(x, params), dtype=float)

    a, b = t[turn - 1], t[turn + 1]
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(GOLDEN_STEPS):
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a))
        fx = f(x)
        c, fc, d, fd = (np.where(left, x, d), np.where(left, fx, fd),
                        np.where(left, c, x), np.where(left, fc, fx))
    p_turn = sign * np.minimum(fc, fd)
    path = np.concatenate([[p[0]], p_turn, [p[-1]]])
    backflow = float(np.maximum(np.diff(path), 0.0).sum())
    loss = 1.0 - p[-1]
    total = loss + 2.0 * backflow
    return backflow, (float(loss / total) if total > 0.0 else 1.0)


def matches_reference(report, backflow: float, ratio: float) -> bool:
    return (abs(report.nonmarkov - backflow) <= REL_TOL * max(1.0, backflow)
            and abs(report.ratio - ratio) <= REL_TOL)


def known_defect(params, tau: float) -> str | None:
    """'aliasing', 'overflow' or None: which known defect a point can hit."""
    d2 = _d_squared(params)
    if d2 > 0.0 and 0.5 * math.sqrt(d2) * float(tau) > COSH_OVERFLOW:
        return "overflow"
    return "aliasing" if aliased(params, tau) else None


def aliased(params, tau: float) -> bool:
    """Whether two rate zeros can share one interval of the library's grid.

    dp/dt vanishes where g'(t) does, t = 2*pi*k/|d|, and for a single
    emitter also where the amplitude g(t) does, t = 2*(pi*k - atan(|d|/lam))/|d|.
    A grid interval holding two zeros shows no sign change, and the first
    interval is never searched.
    """
    rate = oscillation_rate(params)
    if rate == 0.0:
        return False
    tau = float(tau)
    kmax = int(tau * rate / (2.0 * math.pi)) + 2
    k = np.arange(1, kmax + 1, dtype=float)
    zeros = [2.0 * math.pi * k / rate]
    if params.n_atoms == 1:
        zeros.append(2.0 * (math.pi * k - math.atan(rate / params.lam)) / rate)
    z = np.concatenate(zeros)
    z = z[(z > 0.0) & (z < tau)]
    if z.size == 0:
        return False
    counts = np.bincount((z / (tau / LIBRARY_GRID)).astype(int))
    return bool(counts[0] > 0 or (counts[1:] >= 2).any())


def load_survey(figure: int) -> list[str]:
    grid = {2: 2, 3: 2, 4: 4, 5: 4}[figure]
    with gzip.open(SURVEY_DIR / f"fig{grid}.csv.gz", "rt", encoding="utf-8") as fh:
        return fh.read().splitlines()


def survey_mismatches(text: str, reference: list[str]) -> int:
    """Rows of a survey CSV that differ from the reference.

    Header, row order, n_atoms and status must match exactly; gamma0, theta,
    ratio, nonmarkov and bound_energy within SURVEY_FLOAT_TOL.  Missing or
    extra rows count as mismatches.
    """
    lines = text.splitlines()
    if not lines or lines[0] != reference[0]:
        return max(len(lines), len(reference)) - 1
    bad = abs(len(lines) - len(reference))
    for got, want in zip(lines[1:], reference[1:]):
        bad += not _row_matches(got.split(","), want.split(","))
    return bad


def _row_matches(got: list[str], want: list[str]) -> bool:
    if len(got) != 7 or len(want) != 7:
        return False
    if got[1] != want[1] or got[6] != want[6]:
        return False
    for i in (0, 2, 3, 4, 5):
        if (got[i] == "") != (want[i] == ""):
            return False
        if got[i] and not abs(float(got[i]) - float(want[i])) <= SURVEY_FLOAT_TOL:
            return False
    return True
