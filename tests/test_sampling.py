"""Entry-distribution moments, stream determinism, and normal utilities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdlrt.errors import DimensionMismatch, InvalidAlpha
from hdlrt.linalg import compound_symmetry_sqrt
from hdlrt.oracle import normal_quantile
from hdlrt.sampling import (
    DistributionSpec,
    apply_root,
    draw_entries,
    entry_generator,
    normal_cdf,
)

BIG = 1_000_000


# ---------------------------------------------------------------------------
# DistributionSpec
# ---------------------------------------------------------------------------

def test_spec_parse_round_trip():
    assert DistributionSpec.parse("normal") == DistributionSpec.normal()
    assert DistributionSpec.parse("t15") == DistributionSpec.standardized_t(15)
    assert DistributionSpec.parse("exp1") == DistributionSpec.centered_exponential()
    assert DistributionSpec.parse("t15").label == "t15"
    assert DistributionSpec.parse("exp1").label == "exp1"


def test_spec_rejects_low_df():
    # below df = 5 the fourth-moment margin the approximations need is gone
    with pytest.raises(ValueError):
        DistributionSpec.standardized_t(4)


@pytest.mark.parametrize("df, shown", [(float("inf"), "inf"), (5.5, "5.5"), (15.0, "15.0"),
                                       ("15", "'15'"), (None, "None")],
                         ids=["inf", "5_5", "float_15", "str", "none"])
def test_spec_rejects_non_integer_df(df, shown):
    # inf used to be accepted and drew NaN everywhere; 5.5 gave the label
    # "t5.5", which parse cannot read back
    with pytest.raises(ValueError) as info:
        DistributionSpec.standardized_t(df)
    assert str(info.value) == f"df must be an integer, got {shown}"


def test_spec_stores_numpy_integer_df_as_int():
    spec = DistributionSpec.standardized_t(np.int64(15))
    assert type(spec.df) is int
    assert spec == DistributionSpec.parse("t15")
    assert DistributionSpec.parse(spec.label) == spec


@pytest.mark.parametrize("kwargs, message", [
    (dict(kind="normal", df=3), "normal takes no parameters"),
    (dict(kind="cauchy"), "unknown distribution kind 'cauchy'"),
], ids=["normal_with_df", "cauchy"])
def test_spec_constructor_refusals(kwargs, message):
    with pytest.raises(ValueError) as exc:
        DistributionSpec(**kwargs)
    assert str(exc.value) == message


def test_spec_rejects_unknown():
    # exponential names carry no rate, so "expinf" is no distribution
    for name in ("cauchy", "expinf"):
        with pytest.raises(ValueError):
            DistributionSpec.parse(name)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_same_key_bit_identical():
    a = draw_entries(entry_generator(42, 3), 50, 7, DistributionSpec.standardized_t(15))
    b = draw_entries(entry_generator(42, 3), 50, 7, DistributionSpec.standardized_t(15))
    assert np.array_equal(a, b)


def test_different_streams_differ():
    a = draw_entries(entry_generator(42, 0), 20, 4, DistributionSpec.normal())
    b = draw_entries(entry_generator(42, 1), 20, 4, DistributionSpec.normal())
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed, stream, message", [
    (-1, 0, "seed must be in [0, 2**64), got -1"),
    (2 ** 64, 0, f"seed must be in [0, 2**64), got {2 ** 64}"),
    (3.5, 0, "seed must be an integer, got 3.5"),
    (0, -1, "stream must be in [0, 2**64), got -1"),
    (0, 2.0, "stream must be an integer, got 2.0"),
], ids=["seed_negative", "seed_2_64", "seed_float", "stream_negative", "stream_float"])
def test_entry_generator_rejects_keys_outside_64_bits(seed, stream, message):
    # they used to be masked to 64 bits: seed -1 drew the stream of 2**64 - 1
    with pytest.raises(ValueError) as exc:
        entry_generator(seed, stream)
    assert str(exc.value) == message


@pytest.mark.parametrize("seed, stream", [(0, 0), (42, 3), (2 ** 64 - 1, 2 ** 64 - 1),
                                          (np.uint64(2 ** 64 - 1), np.int64(5))])
def test_entry_generator_key_is_seed_then_stream(seed, stream):
    expected = np.random.Generator(np.random.Philox(key=int(seed) | int(stream) << 64))
    assert np.array_equal(entry_generator(seed, stream).random(4), expected.random(4))


def test_stream_cross_correlation_small():
    n, p = 200, 50
    a = draw_entries(entry_generator(9, 1), n, p, DistributionSpec.normal()).ravel()
    b = draw_entries(entry_generator(9, 2), n, p, DistributionSpec.normal()).ravel()
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 4.0 / math.sqrt(n * p)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("label,spec,nu4", [
    ("normal", DistributionSpec.normal(), 3.0),
    ("t15", DistributionSpec.standardized_t(15), 3.0 * 13.0 / 11.0),
    ("exp1", DistributionSpec.centered_exponential(), 9.0),
])
def test_mean_and_variance_standardized(label, spec, nu4):
    x = draw_entries(entry_generator(101), BIG, 1, spec).ravel()
    se_mean = 1.0 / math.sqrt(BIG)
    assert abs(x.mean()) <= 4.0 * se_mean
    se_var = math.sqrt((nu4 - 1.0) / BIG)
    assert abs(np.mean(x * x) - 1.0) <= 4.0 * se_var


def test_t15_variance_tight():
    # fourth moment of the unit-variance t(15) is 3*(15-2)/(15-4) = 39/11,
    # so the second-moment estimator has SE sqrt((39/11 - 1)/N)
    x = draw_entries(entry_generator(202), BIG, 1, DistributionSpec.standardized_t(15)).ravel()
    se = math.sqrt((39.0 / 11.0 - 1.0) / BIG)
    assert abs(np.mean(x * x) - 1.0) <= 1.01 * 3.0 * se


def test_t15_kurtosis():
    x = draw_entries(entry_generator(203), BIG, 1, DistributionSpec.standardized_t(15)).ravel()
    assert abs(np.mean(x ** 4) - 39.0 / 11.0) <= 0.08


def test_exponential_moments():
    x = draw_entries(entry_generator(303), BIG, 1, DistributionSpec.centered_exponential()).ravel()
    assert abs(x.mean()) <= 3e-3
    # centered moments of the standard exponential: m3 = 2, m4 = 9
    skew = np.mean(x ** 3) / np.mean(x * x) ** 1.5
    assert abs(skew - 2.0) <= 0.06
    assert x.min() > -1.0 - 1e-12  # support bound of the shifted exponential


def test_exponential_rate_free_after_standardizing():
    # standardizing removes the rate, so there is one exponential spec and
    # a name that claims another rate is not accepted
    specs = [DistributionSpec.parse("exp"), DistributionSpec.parse("exp1"),
             DistributionSpec.centered_exponential()]
    assert specs[0] == specs[1] == specs[2]
    a, b, c = (draw_entries(entry_generator(7), 100, 3, spec) for spec in specs)
    assert np.array_equal(a, b) and np.array_equal(a, c)
    with pytest.raises(ValueError):
        DistributionSpec.parse("exp2")


# ---------------------------------------------------------------------------
# apply_root
# ---------------------------------------------------------------------------

def test_apply_root_identity_exact(rng):
    data = rng.standard_normal((30, 6))
    assert np.array_equal(apply_root(data, np.eye(6)), data)


def test_apply_root_diagonal_scaling():
    data = np.array([[1.0, -1.0], [2.0, 0.5]])
    got = apply_root(data, np.diag([2.0, 3.0]))
    assert np.array_equal(got, np.array([[2.0, -3.0], [4.0, 1.5]]))


def test_apply_root_shape_mismatch(rng):
    with pytest.raises(DimensionMismatch):
        apply_root(rng.standard_normal((5, 3)), np.eye(4))


def test_apply_root_stack_equals_its_slices_bit_for_bit(rng):
    stack = rng.standard_normal((3, 90, 60))
    root = compound_symmetry_sqrt(0.02, 60)
    got = apply_root(stack, root)
    assert got.shape == stack.shape
    assert np.array_equal(got, [apply_root(x, root) for x in stack])
    with pytest.raises(DimensionMismatch):
        apply_root(stack[None], root)


def test_apply_root_reaches_target_covariance():
    delta, p, n = 0.3, 4, 200_000
    root = compound_symmetry_sqrt(delta, p)
    x = draw_entries(entry_generator(404), n, p, DistributionSpec.normal())
    y = apply_root(x, root)
    cov = y.T @ y / n
    target = (1 - delta) * np.eye(p) + delta * np.ones((p, p))
    # entrywise 3*SE bound; for normal data Var(y_i y_j) = s_ii s_jj + s_ij^2
    se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target ** 2) / n)
    assert np.all(np.abs(cov - target) <= 3.0 * se)


# ---------------------------------------------------------------------------
# normal cdf / quantile
# ---------------------------------------------------------------------------

def test_cdf_center_and_symmetry():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(1.0) + normal_cdf(-1.0) == pytest.approx(1.0, abs=1e-15)
    assert normal_cdf(1.6448536269514722) == pytest.approx(0.95, abs=1e-12)


def test_quantile_center():
    assert normal_quantile(0.5) == 0.0


def test_quantile_reference_value():
    # frozen from a 200-step bisection of the erfc-based CDF
    assert normal_quantile(0.05) == pytest.approx(-1.6448536269514727, abs=1e-12)


def test_quantile_matches_bisection_oracle():
    for alpha in (0.001, 0.025, 0.05, 0.2, 0.5, 0.8, 0.975, 0.999):
        lo, hi = -10.0, 10.0
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if normal_cdf(mid) < alpha:
                lo = mid
            else:
                hi = mid
        assert normal_quantile(alpha) == pytest.approx((lo + hi) / 2.0, abs=1e-10)


def test_quantile_stays_on_inclusive_side():
    for alpha in (0.01, 0.025, 0.05, 0.1, 0.5, 0.9, 0.99):
        assert normal_cdf(normal_quantile(alpha)) <= alpha


@given(st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
@settings(max_examples=200, deadline=None)
def test_cdf_quantile_round_trip(alpha):
    assert normal_cdf(normal_quantile(alpha)) == pytest.approx(alpha, abs=1e-10)


def test_quantile_far_tails():
    u = normal_quantile(1e-12)
    assert -7.1 < u < -6.9  # Phi(-7.03...) ~ 1e-12
    assert normal_cdf(u) == pytest.approx(1e-12, abs=1e-13)


def test_quantile_rejects_bad_alpha():
    for alpha in (0.0, 1.0, -0.2, 1.5, float("nan")):
        with pytest.raises(InvalidAlpha):
            normal_quantile(alpha)


def test_draw_entries_shares_generator_stream():
    # drawing twice from one generator equals one keyed draw of each shape
    gen = entry_generator(5, 9)
    a = draw_entries(gen, 10, 3, DistributionSpec.normal())
    b = draw_entries(gen, 4, 3, DistributionSpec.normal())
    gen2 = entry_generator(5, 9)
    a2 = draw_entries(gen2, 10, 3, DistributionSpec.normal())
    b2 = draw_entries(gen2, 4, 3, DistributionSpec.normal())
    assert np.array_equal(a, a2) and np.array_equal(b, b2)


def test_draw_entries_rejects_an_empty_shape():
    with pytest.raises(ValueError, match=r"^matrix dimensions must be positive, got 0 x 3$"):
        draw_entries(entry_generator(1), 0, 3, DistributionSpec.normal())
