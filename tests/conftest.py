import pytest

from msjlab import (CtmcSpec, JobTypeSpec, ParamSet, SystemConfig,
                    make_param_set, snf_allocation_fn)
from msjlab import verify


@pytest.fixture(scope="session")
def set_one_64():
    return make_param_set(ParamSet.ONE, 64)


@pytest.fixture(scope="session")
def mm2():
    return verify.MM2


@pytest.fixture(scope="session")
def whole_machine():
    # every job occupies the full machine: M/M/1 with rho = 0.5
    return SystemConfig(n=4, types=(JobTypeSpec(0.5, 1.0, 4),))


@pytest.fixture(scope="session")
def two_type():
    return verify.TWO_TYPE


@pytest.fixture(scope="session")
def box_spec():
    # the three-type SNF box of the benchmark's oracle workload (9,261 states)
    box = SystemConfig(n=8, types=(JobTypeSpec(1.2, 1.0, 1),
                                   JobTypeSpec(0.6, 1.0, 2),
                                   JobTypeSpec(0.25, 1.0, 4)))
    return CtmcSpec(config=box, allocation=snf_allocation_fn(box), cap=(20, 20, 20))
