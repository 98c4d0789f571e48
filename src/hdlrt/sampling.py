"""Entry-distribution sampling and the standard normal CDF.

Data matrices are filled with i.i.d. mean-zero, variance-one entries from
one of three families: standard normal, standardized Student t (the raw t
variate divided by sqrt(df / (df - 2)), so the variance is exactly one),
and centered exponential (a standard exponential draw minus one, which
has mean zero and variance one).  Standardizing an exponential draw
removes its rate, so the family has a single member.

Reproducibility contract: every draw is keyed by a (seed, stream) pair
feeding a counter-based Philox generator, so the output is a pure function
of the key, independent of scheduling, thread count, and platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, _as_integer, _as_word


@dataclass(frozen=True)
class DistributionSpec:
    """One of the three supported i.i.d. entry distributions.

    ``kind`` is "normal", "t" (with an integer ``df`` of degrees of
    freedom, at least 5 so the fourth moment margin required by the normal
    approximations holds) or "exponential" (no parameter: the standardized
    law is the same for every rate).
    """

    kind: str
    df: int | None = None

    def __post_init__(self):
        if self.kind in ("normal", "exponential"):
            if self.df is not None:
                raise ValueError(f"{self.kind} takes no parameters")
        elif self.kind == "t":
            df = _as_integer("df", self.df, ValueError)
            if df < 5:
                raise ValueError("standardized t requires df >= 5")
            object.__setattr__(self, "df", df)
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")

    @classmethod
    def normal(cls) -> "DistributionSpec":
        return cls("normal")

    @classmethod
    def standardized_t(cls, df: int = 15) -> "DistributionSpec":
        return cls("t", df=df)

    @classmethod
    def centered_exponential(cls) -> "DistributionSpec":
        return cls("exponential")

    @classmethod
    def parse(cls, name: str) -> "DistributionSpec":
        """Parse CLI-style names: "normal", "t15", "exp1" (alias "exp")."""
        text = name.strip().lower() if isinstance(name, str) else ""  # matches no name
        if text in ("normal", "gaussian"):
            return cls.normal()
        if text.startswith("t") and text[1:].isdigit():
            return cls.standardized_t(int(text[1:]))
        if text in ("exp", "exp1"):
            return cls.centered_exponential()
        raise ValueError(f"cannot parse distribution name {name!r}")

    @property
    def label(self) -> str:
        if self.kind == "normal":
            return "normal"
        if self.kind == "t":
            return f"t{self.df}"
        return "exp1"


def _as_distribution(value, error: type[Exception]) -> DistributionSpec:
    """The package's distribution-type rule: ``value`` must be a
    ``DistributionSpec``; raises the error class its caller names."""
    if not isinstance(value, DistributionSpec):
        raise error(f"dist must be a DistributionSpec, got {value!r}")
    return value


def entry_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for the (seed, stream) pair.

    Distinct streams under the same seed are statistically independent;
    the same pair always reproduces the same draws.  Both are integers in
    [0, 2**64); anything else raises ValueError.
    """
    key = _as_word("seed", seed, ValueError) | _as_word("stream", stream, ValueError) << 64
    return np.random.Generator(np.random.Philox(key=key))


def draw_entries(rng: np.random.Generator, n: int, p: int, dist: DistributionSpec) -> np.ndarray:
    """Draw an n x p matrix of i.i.d. standardized entries from ``rng``.

    The t variate is generated as a normal draw over sqrt(chisq/df) and
    then scaled to unit variance; the exponential by inverse-CDF sampling.
    Both are exact samplers, keeping the moment structure intact.
    """
    n, p = _as_integer("n", n, ValueError), _as_integer("p", p, ValueError)
    if n < 1 or p < 1:
        raise ValueError(f"matrix dimensions must be positive, got {n} x {p}")
    if _as_distribution(dist, ValueError).kind == "normal":
        return rng.standard_normal((n, p))
    if dist.kind == "t":
        df = dist.df
        z = rng.standard_normal((n, p))
        w = rng.chisquare(df, (n, p))
        return z / np.sqrt(w / df) / math.sqrt(df / (df - 2.0))
    # exponential: inverse CDF, standardized to mean 0 / variance 1
    u = rng.random((n, p))
    return -np.log1p(-u) - 1.0


def apply_root(data, root) -> np.ndarray:
    """Transform each observation row x_k of ``data`` to root @ x_k.

    Used to impose a target covariance root^2 on white data.  With the
    identity root it returns the input unchanged.  ``data`` is n x p, or a
    stack (k, n, p) whose slices are transformed bit for bit as each would
    be on its own.
    """
    a = np.asarray(data, dtype=np.float64)
    r = np.asarray(root, dtype=np.float64)
    if (a.ndim not in (2, 3) or r.ndim != 2 or r.shape[0] != r.shape[1]
            or r.shape[0] != a.shape[-1]):
        raise DimensionMismatch(
            f"root of shape {r.shape} does not match data of shape {a.shape}"
        )
    return a @ r.T


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))
