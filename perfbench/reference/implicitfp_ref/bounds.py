"""Theoretical error envelopes, rate comparison and the averaging lemma.

Per-step contraction factors (delta in [0,1), schedule entries a_k, b_k):

    implicit-s:        D_k = a_k*delta / (1 - (1-a_k)*delta*[b_k + (1-b_k)*delta])
    implicit-ishikawa: D_k = a_k       / (1 - (1-a_k)*delta*[b_k + (1-b_k)*delta])
    implicit-mann:     D_k = a_k       / (1 - (1-a_k)*delta)

Envelopes are cumulative products prod_{k=2..n} D_k * d0, the form the
step-by-step inequality chains actually produce; the literal (D_n)^n * d0
variant is kept behind `literal=True` for comparison.  The exponential
envelope uses exp{-sum (1-a_i)(1-delta)} (the sign required for decay;
the printed positive exponent is an erratum, see README).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import CertificateError, DegenerateComparisonError
from .schemes import Schedule


def _require_delta(delta: float):
    if not (0.0 <= delta < 1.0):
        raise CertificateError(f"delta must lie in [0, 1), got {delta}")


def step_factor_s(alpha: float, beta: float, delta: float) -> float:
    den = 1.0 - (1.0 - alpha) * delta * (beta + (1.0 - beta) * delta)
    if den <= 0.0:
        raise CertificateError("nonpositive denominator in implicit-s factor")
    return alpha * delta / den


def step_factor_ishikawa(alpha: float, beta: float, delta: float) -> float:
    den = 1.0 - (1.0 - alpha) * delta * (beta + (1.0 - beta) * delta)
    if den <= 0.0:
        raise CertificateError("nonpositive denominator in ishikawa factor")
    return alpha / den


def step_factor_mann(alpha: float, delta: float) -> float:
    den = 1.0 - (1.0 - alpha) * delta
    if den <= 0.0:
        raise CertificateError("nonpositive denominator in mann factor")
    return alpha / den


def _envelope(factor, schedule: Schedule, delta: float, d0: float, n: int,
              literal: bool) -> float:
    _require_delta(delta)
    if n < 2:
        return d0
    if literal:
        return factor(n) ** n * d0
    prod = 1.0
    for k in range(2, n + 1):
        prod *= factor(k)
    return prod * d0


def envelope_s(schedule: Schedule, delta: float, d0: float, n: int,
               literal: bool = False) -> float:
    """Implicit-S envelope a_n."""
    return _envelope(
        lambda k: step_factor_s(schedule.alpha_at(k), schedule.beta_at(k), delta),
        schedule, delta, d0, n, literal)


def envelope_mann(schedule: Schedule, delta: float, d0: float, n: int,
                  literal: bool = False) -> float:
    """Implicit-Mann envelope b_n."""
    return _envelope(
        lambda k: step_factor_mann(schedule.alpha_at(k), delta),
        schedule, delta, d0, n, literal)


def envelope_ishikawa(schedule: Schedule, delta: float, d0: float, n: int,
                      literal: bool = False) -> float:
    """Implicit-Ishikawa envelope c_n."""
    return _envelope(
        lambda k: step_factor_ishikawa(schedule.alpha_at(k), schedule.beta_at(k), delta),
        schedule, delta, d0, n, literal)


def exp_envelope(schedule: Schedule, delta: float, d0: float, n: int) -> float:
    """exp{-sum_{i=2..n} (1-alpha_i)(1-delta)} * d0."""
    _require_delta(delta)
    total = sum((1.0 - schedule.alpha_at(i)) * (1.0 - delta)
                for i in range(2, n + 1))
    return math.exp(-total) * d0


@dataclass
class BoundSequences:
    """Envelopes a_n (implicit-S), b_n (Mann), c_n (Ishikawa), n = 2..n_max."""

    a: list
    b: list
    c: list
    d0: float
    n_start: int = 2

    @classmethod
    def compute(cls, schedule: Schedule, delta: float, d0: float, n_max: int,
                literal: bool = False) -> "BoundSequences":
        _require_delta(delta)
        ns = range(2, n_max + 1)
        if literal:
            return cls([envelope_s(schedule, delta, d0, n, True) for n in ns],
                       [envelope_mann(schedule, delta, d0, n, True) for n in ns],
                       [envelope_ishikawa(schedule, delta, d0, n, True) for n in ns],
                       d0)
        pa = pb = pc = 1.0
        a, b, c = [], [], []
        for n in ns:
            al, be = schedule.alpha_at(n), schedule.beta_at(n)
            pa *= step_factor_s(al, be, delta)
            pb *= step_factor_mann(al, delta)
            pc *= step_factor_ishikawa(al, be, delta)
            a.append(pa * d0)
            b.append(pb * d0)
            c.append(pc * d0)
        return cls(a, b, c, d0)


# ---------------------------------------------------------------------------
# rate comparison


@dataclass
class RateVerdict:
    verdict: str  # "faster" | "not-established"
    final_ratio: Optional[float]
    horizon: int
    threshold: float
    ratios: list = field(default_factory=list, repr=False)

    @property
    def faster(self) -> bool:
        return self.verdict == "faster"


def berinde_compare(a, b, horizon: int = 200, threshold: float = 1e-6) -> RateVerdict:
    """Decide a_n/b_n -> 0 at a finite horizon.

    `a` and `b` are aligned sequences (lists).  Verdict is `faster` iff the
    ratio at the horizon is below the threshold AND the ratio decreased
    monotonically (nonincreasing) over the final quarter of the horizon.
    """
    h = min(horizon, len(a), len(b))
    if h < 2:
        raise DegenerateComparisonError("need at least two comparison points")
    if any(v <= 0.0 for v in b[:h]):
        raise DegenerateComparisonError("reference sequence vanishes before the horizon")
    ratios = [a[i] / b[i] for i in range(h)]
    tail = ratios[h - max(2, h // 4):]
    monotone = all(tail[i + 1] <= tail[i] for i in range(len(tail) - 1))
    ok = ratios[-1] < threshold and monotone
    return RateVerdict("faster" if ok else "not-established",
                       ratios[-1], h, threshold, ratios)


# ---------------------------------------------------------------------------
# averaging lemma


@dataclass
class Lemma1Report:
    hypothesis_ok: bool
    first_violation_index: Optional[int]
    max_hypothesis_violation: float
    conclusion_ok: bool
    tail_sup_a: float
    tail_sup_eta: float


def check_lemma1(a, mu, eta, horizon: Optional[int] = None,
                 tol: float = 1e-10) -> Lemma1Report:
    """Check a_{n+1} <= (1-mu_n) a_n + mu_n eta_n index by index.

    Sequences are aligned from n = 1 (a must have one extra entry).  The
    conclusion check compares sup of a over the last decile against sup of
    eta over the last decile, within tol.
    """
    h = horizon if horizon is not None else min(len(a) - 1, len(mu), len(eta))
    if h < 1:
        raise ValueError("need at least one index to check")
    if len(a) < h + 1:
        raise ValueError("sequence a must cover indices 1..horizon+1")
    for n in range(h):
        m = mu[n]
        if not (0.0 < m < 1.0):
            raise ValueError(f"mu_{n + 1} = {m} outside (0, 1)")
        if eta[n] < 0.0:
            raise ValueError(f"eta_{n + 1} = {eta[n]} negative")

    first_bad, worst = None, 0.0
    for n in range(h):
        gap = a[n + 1] - ((1.0 - mu[n]) * a[n] + mu[n] * eta[n])
        if gap > worst:
            worst = gap
        if gap > tol and first_bad is None:
            first_bad = n + 1  # 1-based index of the hypothesis instance
    decile = max(1, h // 10)
    tail_a = max(a[h + 1 - decile: h + 1])
    tail_eta = max(eta[h - decile: h])
    return Lemma1Report(first_bad is None, first_bad, worst,
                        tail_a <= tail_eta + tol, tail_a, tail_eta)


def datadep_bound(epsilon: float, delta: float) -> float:
    """Fixed-point displacement bound 2*epsilon/(1-delta)^2."""
    if epsilon < 0:
        raise CertificateError(f"epsilon must be >= 0, got {epsilon}")
    _require_delta(delta)
    return 2.0 * epsilon / (1.0 - delta) ** 2
