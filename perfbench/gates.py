"""Per-op correctness gates.

Each gate returns a list of failure messages; an empty list means the op is
correct.  Certificates, fixed points, distances and envelopes are
recomputed here from the case and the paper's formulas rather than read
back from the library, so a wrong iterate, distance, certificate or
envelope each fail the gate.
"""

from __future__ import annotations

import math

import numpy as np

RESIDUAL_MAX = 1e-14      # criterion 7: every accepted inner solve
ENVELOPE_SLACK = 1e-10    # criterion 3: d(x_n, p) <= envelope_n + slack
ORACLE_TOL = 5e-14        # criterion 2: float trace vs exact rationals
SCHEMES = ("implicit-s", "implicit-ishikawa", "implicit-mann")


def distance(kind: str, x, y) -> float:
    """Metric of the space a solve case lives on, written out independently."""
    if kind in ("halving", "affine"):
        return float(np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)))
    if kind == "tripod-radial":
        (rx, a), (ry, b) = x, y
        return abs(a - b) if (rx == ry or a == 0.0 or b == 0.0) else a + b
    (x1, y1), (x2, y2) = x, y
    return 2.0 * math.asinh(math.hypot(x1 - x2, y1 - y2) / (2.0 * math.sqrt(y1 * y2)))


def certificate(case):
    """(delta, fixed point) of a solve case, derived from the case itself."""
    if case.kind == "halving":
        return 0.5, np.zeros(1)
    if case.kind == "affine":
        A, b = np.array(case.A), np.array(case.b)
        return float(np.linalg.norm(A, 2)), np.linalg.solve(np.eye(len(b)) - A, b)
    if case.kind == "tripod-radial":
        return case.factor, ("A", 0.0)
    return case.factor, (0.0, 1.0)


def step_factors(scheme: str, alpha: np.ndarray, beta: np.ndarray, delta: float) -> np.ndarray:
    """Per-step contraction factors D_k of the three implicit schemes."""
    if scheme == "implicit-mann":
        return alpha / (1.0 - (1.0 - alpha) * delta)
    den = 1.0 - (1.0 - alpha) * delta * (beta + (1.0 - beta) * delta)
    return alpha * (delta if scheme == "implicit-s" else 1.0) / den


def envelope(scheme: str, schedule, delta: float, d0: float, n_max: int) -> np.ndarray:
    """Cumulative envelope prod_{k=2..n} D_k * d0 for n = 2..n_max."""
    ns = range(2, n_max + 1)
    alpha = np.array([schedule.alpha(n) for n in ns], dtype=float)
    beta = np.array([schedule.beta(n) for n in ns], dtype=float)
    return np.cumprod(step_factors(scheme, alpha, beta, delta)) * d0


def check_race(case, schedule, race, n_max: int, oracle=None) -> list:
    """Criteria 2, 3, 4 (envelope verdicts) and 7 on one rate race."""
    bad = []
    delta, p = certificate(case)
    for scheme in SCHEMES:
        trace = race.traces.get(scheme)
        if trace is None or len(trace.records) != n_max:
            bad.append(f"{scheme}: trace missing or not {n_max} records")
            continue
        recs = trace.records
        worst_res = max(r.inner_residual for r in recs[1:])
        if not worst_res <= RESIDUAL_MAX:
            bad.append(f"{scheme}: inner residual {worst_res!r} > {RESIDUAL_MAX}")
        dist = np.array([distance(case.kind, r.x, p) for r in recs])
        env = envelope(scheme, schedule, delta, dist[0], n_max)
        over = dist[1:] - env
        if not np.all(over <= ENVELOPE_SLACK):
            n = int(np.argmax(over)) + 2
            bad.append(f"{scheme}: d(x_{n}, p) exceeds its envelope by {over.max()!r}")
        if oracle is not None:
            err = max(abs(float(np.atleast_1d(r.x)[0]) - exact)
                      for r, exact in zip(recs, oracle[scheme]))
            if not err <= ORACLE_TOL:
                bad.append(f"{scheme}: {err!r} from the rational oracle")
    for pair, verdict in race.envelope_verdicts.items():
        if not verdict.faster:
            bad.append(f"envelope verdict {pair}: {verdict.verdict}")
    return bad


def check_datadep(case, report) -> list:
    """Criterion 5: d(p, q) within 2*eps/(1-delta)^2, margin > 0, Lemma 1 holds."""
    bad = []
    delta, p = certificate(case)
    observed = distance(case.kind, p, report.q)
    bound = 2.0 * float(np.linalg.norm(case.offset)) / (1.0 - delta) ** 2
    if not (report.holds and report.margin > 0.0 and observed < bound):
        bad.append(f"datadep: d(p, q) = {observed!r} not below bound {bound!r}")
    if report.lemma1 is None or not report.lemma1.hypothesis_ok:
        bad.append("datadep: Lemma 1 hypothesis violated")
    return bad


def check_axioms(case, report, n_samples: int) -> list:
    """Criterion 6: the five spaces pass, broken-demo is flagged."""
    if report.n_samples == n_samples and report.passed == case.expect_pass:
        return []
    return [f"{case.space}: passed={report.passed}, expected {case.expect_pass}"
            f" (failing {report.failing()})"]


def check_cli(case, code: int, out: str, err: str) -> list:
    """Exit 0 plus a content check per subcommand."""
    if code != 0:
        return [f"{case.command}: exit {code}: {err.strip()[-200:]}"]
    lines = out.splitlines()
    if case.command == "table":
        ok = "verify: all table cells match" in err and len(lines) == 15
    elif case.command == "compare":
        ok = len(lines) == 4 and all(": faster" in ln for ln in lines)
    elif case.command == "bounds":
        ok = len(lines) == 100 and _bounds_csv_ok(lines)
    elif case.command == "datadep":
        ok = "holds=True" in lines and "converged=True" in lines
    else:
        ok = len(lines) == 6 and sum(ln.endswith("[pass]") for ln in lines) == 5
    return [] if ok else [f"{case.command}: unexpected output"]


def _bounds_csv_ok(lines) -> bool:
    """Each scheme's distance stays within its own envelope column."""
    if lines[0] != "n,a_n,b_n,c_n,dist_s,dist_mann,dist_ishikawa":
        return False
    for row in lines[1:]:
        _, a, b, c, ds, dm, di = (float(v) for v in row.split(","))
        if ds > a + ENVELOPE_SLACK or dm > b + ENVELOPE_SLACK or di > c + ENVELOPE_SLACK:
            return False
    return True
