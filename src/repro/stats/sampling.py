"""Deterministic heavy-tail samplers for the demand model.

The paper's demand observations are heavy-tailed at every level: a few
countries dominate global cellular demand (Figure 11), a few ASes
dominate their countries (Figure 7), and a handful of CGN /24s carry
nearly all of an operator's cellular traffic (Figure 8).  These helpers
produce normalized weight vectors with those shapes from a seeded
``random.Random`` so worlds are reproducible.
"""

from __future__ import annotations

import math
import random
from typing import List


def zipf_weights(count: int, exponent: float = 1.0) -> List[float]:
    """Normalized Zipf weights ``1/rank**exponent`` for ranks 1..count.

    >>> weights = zipf_weights(3, exponent=1.0)
    >>> round(weights[0] / weights[2], 2)
    3.0
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    raw = [1.0 / (rank ** exponent) for rank in range(1, count + 1)]
    total = sum(raw)
    return [value / total for value in raw]


def lognormal_weights(
    rng: random.Random, count: int, sigma: float = 1.5
) -> List[float]:
    """Normalized lognormal weights; larger sigma = heavier skew."""
    if count <= 0:
        raise ValueError("count must be positive")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    raw = [rng.lognormvariate(0.0, sigma) for _ in range(count)]
    total = sum(raw)
    return [value / total for value in raw]


def bounded_pareto(
    rng: random.Random, alpha: float, low: float, high: float
) -> float:
    """One draw from a Pareto distribution truncated to [low, high].

    Uses inverse-transform sampling on the truncated CDF.
    """
    if not 0 < low < high:
        raise ValueError("need 0 < low < high")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    u = rng.random()
    low_pow = low ** alpha
    high_pow = high ** alpha
    denominator = 1.0 - u * (1.0 - low_pow / high_pow)
    return low / (denominator ** (1.0 / alpha))


def dirichlet_like(
    rng: random.Random, base: List[float], concentration: float = 50.0
) -> List[float]:
    """Jitter a normalized weight vector while keeping it normalized.

    Approximates a Dirichlet draw centred on ``base`` using independent
    gamma draws; ``concentration`` controls how tightly samples hug the
    base (higher = tighter).  Used to perturb calibrated country/AS
    shares so repeated worlds are not identical.
    """
    if concentration <= 0:
        raise ValueError("concentration must be positive")
    if not base:
        raise ValueError("base must be non-empty")
    total = sum(base)
    if total <= 0:
        raise ValueError("base weights must sum to a positive value")
    draws = []
    for weight in base:
        shape = max(weight / total, 1e-9) * concentration
        draws.append(rng.gammavariate(shape, 1.0))
    draw_total = sum(draws)
    if draw_total <= 0:  # pathological but possible with tiny shapes
        return [weight / total for weight in base]
    return [value / draw_total for value in draws]


def binomial(rng: random.Random, n: int, p: float) -> int:
    """One Binomial(n, p) draw.

    Exact Bernoulli summation for small n; Poisson approximation for
    rare events; normal approximation for large n -- the generator
    draws one of these per (subnet, browser), so this must not loop
    over millions of trials.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    if n == 0 or p == 0.0:
        return 0
    if p == 1.0:
        return n
    mean = n * p
    variance = mean * (1.0 - p)
    if n <= 64:
        successes = 0
        for _ in range(n):
            if rng.random() < p:
                successes += 1
        return successes
    if mean <= 12.0:
        # Rare events: Poisson(mean), clipped to n.
        return min(_poisson(rng, mean), n)
    if variance <= 12.0:
        # Rare non-events, mirrored.
        return n - min(_poisson(rng, n - mean), n)
    draw = round(rng.gauss(mean, math.sqrt(variance)))
    return min(max(draw, 0), n)


def _poisson(rng: random.Random, mean: float) -> int:
    """Knuth's algorithm; fine for the small means used here."""
    threshold = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


def poisson(rng: random.Random, mean: float) -> int:
    """One Poisson(mean) draw, normal-approximated for large means."""
    if mean < 0:
        raise ValueError("mean must be non-negative")
    if mean == 0:
        return 0
    if mean > 64.0:
        return max(0, round(rng.gauss(mean, math.sqrt(mean))))
    return _poisson(rng, mean)


def split_integer(rng: random.Random, total: int, weights: List[float]) -> List[int]:
    """Split integer ``total`` into parts proportional to ``weights``.

    Largest-remainder rounding, so the parts always sum to ``total``
    and every positive weight gets its fair floor first.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if not weights:
        raise ValueError("weights must be non-empty")
    weight_sum = sum(weights)
    if weight_sum <= 0:
        raise ValueError("weights must sum to a positive value")
    exact = [total * weight / weight_sum for weight in weights]
    parts = [int(math.floor(value)) for value in exact]
    remainder = total - sum(parts)
    fractional = sorted(
        range(len(weights)),
        key=lambda index: (exact[index] - parts[index], rng.random()),
        reverse=True,
    )
    for index in fractional[:remainder]:
        parts[index] += 1
    return parts
