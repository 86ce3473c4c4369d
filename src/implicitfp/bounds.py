"""Theoretical error envelopes, rate comparison and the averaging lemma.

The per-step contraction factors (delta in [0,1), schedule entries a_k, b_k)
are one formula,

    D_k = s * a_k / (1 - (1-a_k)*delta*[b_k + (1-b_k)*delta])

with s = delta for implicit-s and s = 1 for implicit-ishikawa; implicit-mann
is implicit-ishikawa at b_k = 1, i.e. D_k = a_k / (1 - (1-a_k)*delta).

Envelopes are cumulative products prod_{k=2..n} D_k * d0, the form the
step-by-step inequality chains actually produce; the literal (D_n)^n * d0
variant is kept behind `literal=True` for comparison.  Both are computed in
the weights' own arithmetic: floats multiply in order, with the bits of
numpy's cumprod, and Fractions stay exact.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

from .errors import CertificateError


def _require_delta(delta: float):
    if not (0.0 <= delta < 1.0):
        raise CertificateError(f"delta must lie in [0, 1), got {delta}")


def step_factors(weights: list, delta) -> tuple:
    """Per-step factors D_k, one per (alpha_k, beta_k) in weights, as three
    lists (implicit-s, mann, ishikawa).

    One formula serves all three: Mann's factor is Ishikawa's at beta = 1, and
    S's is delta times Ishikawa's, computed as (alpha*delta)/den.  With delta
    in [0, 1) and alpha, beta in [0, 1], den >= 1 - delta > 0.  The constants
    are integers, so Fraction weights give exact factors.
    """
    _require_delta(delta)

    def factor(alpha, beta, scale):
        return alpha * scale / (1 - (1 - alpha) * delta * (beta + (1 - beta) * delta))

    return ([factor(a, b, delta) for a, b in weights],
            [factor(a, 1, 1) for a, _ in weights],
            [factor(a, b, 1) for a, b in weights])


@dataclass
class BoundSequences:
    """Envelopes a_n (implicit-S), b_n (Mann), c_n (Ishikawa), n = 2..n_max,
    computed from a checked weights list, `Schedule.weights(n_max)`."""

    a: list
    b: list
    c: list
    d0: float

    @classmethod
    def compute(cls, weights: list, delta: float, d0: float,
                literal: bool = False) -> "BoundSequences":
        rows = step_factors(weights, delta)
        if literal:
            a, b, c = ([f ** n * d0 for n, f in enumerate(row, start=2)] for row in rows)
        else:
            a, b, c = ([f * d0 for f in accumulate(row, operator.mul)] for row in rows)
        return cls(a, b, c, d0)


# ---------------------------------------------------------------------------
# rate comparison


@dataclass
class RateVerdict:
    verdict: str  # "faster" | "not-established" | "degenerate"
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
    Where fewer than two points lie within the horizon, or `b` reaches 0
    there, or a term of `a` or `b` there is not finite (d0 overflowed), no
    ratio can be judged: the verdict is `degenerate`, with no ratio.
    """
    h = min(horizon, len(a), len(b))
    isfinite = math.isfinite
    if (h < 2 or any(v <= 0.0 for v in b[:h]) or not all(map(isfinite, a[:h]))
            or not all(map(isfinite, b[:h]))):
        return RateVerdict("degenerate", None, horizon, threshold)
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


def check_lemma1(a, mu, eta, tol: float = 1e-10) -> Lemma1Report:
    """Check a_{n+1} <= (1-mu_n) a_n + mu_n eta_n index by index.

    Sequences are aligned from n = 1 (a must have one extra entry).  The
    conclusion check compares sup of a over the last decile against sup of
    eta over the last decile, within tol.
    """
    h = min(len(a) - 1, len(mu), len(eta))
    if h < 1:
        raise ValueError("need at least one index to check")
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
