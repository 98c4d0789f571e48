"""The integer rule has one owner, ``hdlrt.errors._as_integer``: every size,
count, seed and degree of freedom the package takes is refused with
"<name> must be an integer, got <value>", in the error class of its caller.
The significance level, the compound-symmetry delta, the partition type,
the distribution type and the data rule have one owner each too:
``hdlrt.errors._as_alpha``, ``hdlrt.errors._as_delta``,
``hdlrt.linalg._as_partition``, ``hdlrt.sampling._as_distribution`` and
``hdlrt.linalg._as_data_matrix``."""

import math

import numpy as np
import pytest

from hdlrt.blocktest import (block_constants, block_test, correlation_constants,
                             correlation_test, log_vn)
from hdlrt.eqcov import GroupedSample, eqcov_constants, eqcov_test, log_lambda2
from hdlrt.errors import DimensionMismatch, HdlrtError, InvalidAlpha, InvalidDesign, InvalidPlan
from hdlrt.linalg import BlockPartition, compound_symmetry_sqrt
from hdlrt.montecarlo import SimulationPlan, run_level, scenario_partition
from hdlrt.oracle import normal_quantile
from hdlrt.sampling import DistributionSpec, draw_entries, entry_generator

from conftest import near_overflow

PART = BlockPartition((2, 2))
BLOCK = {"test": "block", "p": 4, "n": 20, "partition": PART, "reps": 3}
EQCOV = {"test": "eqcov", "p": 3, "n_sizes": (10, 10), "reps": 3}
NORMAL = DistributionSpec.normal()

# owner: (name in the message, error class, call with the value under test)
OWNERS = {
    "partition_size": ("block size", ValueError, lambda v: BlockPartition((2, v))),
    "partition_uniform_q": ("q", ValueError, lambda v: BlockPartition.uniform(v, 3)),
    "partition_unit_p": ("p", ValueError, BlockPartition.unit),
    "plan_scenario": ("scenario", InvalidPlan,
                      lambda v: SimulationPlan(test="block", p=6, n=20, scenario=v)),
    "t_df": ("df", ValueError, DistributionSpec.standardized_t),
    "plan_p": ("p", InvalidPlan, lambda v: SimulationPlan(**{**BLOCK, "p": v})),
    "plan_n": ("n", InvalidPlan, lambda v: SimulationPlan(**{**BLOCK, "n": v})),
    "plan_n_j": ("n_j", InvalidPlan, lambda v: SimulationPlan(**{**EQCOV, "n_sizes": (10, v)})),
    "plan_reps": ("reps", InvalidPlan, lambda v: SimulationPlan(**{**BLOCK, "reps": v})),
    "plan_seed": ("seed", InvalidPlan, lambda v: SimulationPlan(**{**BLOCK, "seed": v})),
    "block_constants_n": ("n", InvalidDesign, lambda v: block_constants(v, PART)),
    "correlation_constants_n": ("n", InvalidDesign, lambda v: correlation_constants(v, 4)),
    "correlation_constants_p": ("p", InvalidDesign, lambda v: correlation_constants(20, v)),
    "eqcov_constants_n_j": ("n_j", InvalidDesign, lambda v: eqcov_constants((10, v), 3)),
    "eqcov_constants_p": ("p", InvalidDesign, lambda v: eqcov_constants((10, 10), v)),
    "threads": ("threads", InvalidPlan, lambda v: run_level(SimulationPlan(**BLOCK), threads=v)),
    "compound_symmetry_sqrt_p": ("p", ValueError, lambda v: compound_symmetry_sqrt(0.1, v)),
    "draw_entries_n": ("n", ValueError, lambda v: draw_entries(entry_generator(0), v, 3, NORMAL)),
    "draw_entries_p": ("p", ValueError, lambda v: draw_entries(entry_generator(0), 3, v, NORMAL)),
    "scenario_partition_p": ("p", InvalidPlan, lambda v: scenario_partition(1, v)),
}


@pytest.mark.parametrize("value, shown", [(2.0, "2.0"), ("2", "'2'")], ids=["float", "str"])
@pytest.mark.parametrize("owner", list(OWNERS))
def test_every_integer_owner_refuses_a_non_integer(owner, value, shown):
    name, error, call = OWNERS[owner]
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value) == f"{name} must be an integer, got {shown}"


@pytest.mark.parametrize("message, error, call", [
    ("block sizes must be a sequence of integers, got 3", ValueError,
     lambda: BlockPartition(3)),
    ("n_sizes must be a sequence of integers, got 100", InvalidPlan,
     lambda: SimulationPlan(**{**EQCOV, "n_sizes": 100})),
    ("n_sizes must be a sequence of integers, got 100", InvalidDesign,
     lambda: eqcov_constants(100, 4)),
], ids=["partition", "plan", "eqcov_constants"])
def test_a_bare_number_for_a_list_of_sizes_is_refused(message, error, call):
    # the plan and the constants used to raise "TypeError: 'int' object is
    # not iterable"
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("value, shown", [(3, "3"), ("ab", "'ab'")], ids=["int", "str"])
@pytest.mark.parametrize("call", [GroupedSample, lambda v: eqcov_test(v, 0.05), log_lambda2],
                         ids=["GroupedSample", "eqcov_test", "log_lambda2"])
def test_a_bare_value_for_the_groups_is_refused(call, value, shown):
    # 3 used to raise "TypeError: 'int' object is not iterable", and "ab" to
    # be read one character at a time
    with pytest.raises(DimensionMismatch) as info:
        call(value)
    assert str(info.value) == f"groups must be a sequence of data matrices, got {shown}"


@pytest.mark.parametrize("message, error, call", [
    ("dist must be a DistributionSpec, got 't15'", InvalidPlan,
     lambda: SimulationPlan(**{**BLOCK, "dist": "t15"})),
    ("dist must be a DistributionSpec, got 'normal'", ValueError,
     lambda: draw_entries(entry_generator(0), 3, 3, "normal")),
    ("cannot parse distribution name 3", ValueError, lambda: DistributionSpec.parse(3)),
], ids=["plan", "draw_entries", "parse"])
def test_every_distribution_owner_refuses_a_name_or_number(message, error, call):
    # draw_entries and parse used to raise an AttributeError ("'str' object
    # has no attribute 'kind'", "'int' object has no attribute 'strip'")
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


DATA = np.random.default_rng(0).standard_normal((20, 4))

# owner: (error class, call with the level under test)
ALPHA_OWNERS = {
    "block_test": (InvalidAlpha, lambda a: block_test(DATA, PART, a)),
    "correlation_test": (InvalidAlpha, lambda a: correlation_test(DATA, a)),
    "eqcov_test": (InvalidAlpha, lambda a: eqcov_test((DATA[:10, :3], DATA[10:, :3]), a)),
    "plan": (InvalidPlan, lambda a: SimulationPlan(**{**BLOCK, "alpha": a})),
    "normal_quantile": (InvalidAlpha, normal_quantile),
}


@pytest.mark.parametrize("value, message", [
    ("0.05", "alpha must be a number, got '0.05'"),
    (math.nan, "alpha must be in (0, 1), got nan"),
    (0.0, "alpha must be in (0, 1), got 0.0"),
    (1.0, "alpha must be in (0, 1), got 1.0"),
], ids=["str", "nan", "zero", "one"])
@pytest.mark.parametrize("owner", list(ALPHA_OWNERS))
def test_every_alpha_owner_refuses_the_same_levels(owner, value, message):
    # the reports used to run a numeric string such as "0.05", which a plan refused
    error, call = ALPHA_OWNERS[owner]
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("owner", list(ALPHA_OWNERS))
def test_every_alpha_owner_takes_a_numpy_level(owner):
    # normal_quantile used to refuse np.float32(0.05), which the reports ran
    _, call = ALPHA_OWNERS[owner]
    call(np.float32(0.05))


# owner: (error class, call with the delta under test)
DELTA_OWNERS = {
    "plan": (InvalidPlan, lambda d: SimulationPlan(**{**BLOCK, "delta": d})),
    "compound_symmetry_sqrt": (ValueError, lambda d: compound_symmetry_sqrt(d, 3)),
}


@pytest.mark.parametrize("value, message", [
    ("0.1", "delta must be a number, got '0.1'"),
    (math.nan, "delta must be in [0, 1), got nan"),
    (-0.1, "delta must be in [0, 1), got -0.1"),
    (1.0, "delta must be in [0, 1), got 1.0"),
], ids=["str", "nan", "negative", "one"])
@pytest.mark.parametrize("owner", list(DELTA_OWNERS))
def test_every_delta_owner_refuses_the_same_deltas(owner, value, message):
    # compound_symmetry_sqrt used to raise a bare TypeError on "0.1"
    error, call = DELTA_OWNERS[owner]
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value) == message


# owner: (error class, call with the partition under test)
PARTITION_OWNERS = {
    "plan": (InvalidPlan, lambda part: SimulationPlan(**{**BLOCK, "partition": part})),
    "block_constants": (InvalidDesign, lambda part: block_constants(20, part)),
    "log_vn": (DimensionMismatch, lambda part: log_vn(DATA, part)),
    "block_test": (DimensionMismatch, lambda part: block_test(DATA, part, 0.05)),
}


@pytest.mark.parametrize("owner", list(PARTITION_OWNERS))
def test_every_partition_owner_refuses_a_tuple(owner):
    # all but the plan used to raise "AttributeError: 'tuple' object has no
    # attribute 'p'"
    error, call = PARTITION_OWNERS[owner]
    with pytest.raises(error) as info:
        call((2, 2))
    assert type(info.value) is error
    assert str(info.value) == "partition must be a BlockPartition, got (2, 2)"


HALVES = BlockPartition((3, 3))


@pytest.mark.parametrize("rows, top, call", [
    (40, 2.2e153, lambda top: block_test(near_overflow(top, columns=1), HALVES, 0.05)),
    (40, 2.2e153, lambda top: block_test(near_overflow(top), HALVES, 0.05)),
    (40, 2.2e153, lambda top: correlation_test(near_overflow(top), 0.05)),
    (40, 2.2e153, lambda top: log_vn(np.stack([near_overflow(1.0),
                                               near_overflow(top, columns=1)]), HALVES)),
    # each group of 40 is below the bound; the pooled scatter of 120 is not
    (120, 1.3e153, lambda top: eqcov_test([near_overflow(top, seed=s) for s in range(3)], 0.05)),
], ids=["block_test_one_column", "block_test", "correlation_test", "log_vn_stack",
        "eqcov_pooled"])
def test_every_data_owner_refuses_data_whose_scatter_overflows(rows, top, call):
    # block_test and log_vn used to return NaN (one column) or call a column
    # dependent, correlation_test to raise ZeroVariance, and eqcov_test to
    # call the pooled scatter non-finite
    with pytest.raises(HdlrtError) as info:
        call(top)
    assert str(info.value) == (f"data entries up to {top:.3g} in magnitude overflow the "
                               f"scatter matrix of {rows} observations")
