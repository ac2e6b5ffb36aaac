"""The type rule of the scalar arguments: a value that is not a real number
raises TypeError naming the argument, from errors._real."""

import numpy as np
import pytest

from vcseval import (InstanceMetricSpec, TrainConfig, VcsConfig, finite_difference_check,
                     soft_nn_distance, vca_penalty, vcs, weighted_soft_t)
from vcseval.errors import _real

TIMES = np.array([0.0, 1.0, 2.0, 5.0])


def square(stack):
    return (stack**2).sum(axis=1), 2 * stack[0]


CALLS = {
    "subsample_fraction": lambda v: VcsConfig(subsample_fraction=v),
    "gamma": lambda v: TrainConfig(gamma=v),
    "vca_penalty gamma": lambda v: vca_penalty(0.3, v),
    "beta": lambda v: soft_nn_distance(TIMES, 0, v),
    "weighted_soft_t beta": lambda v: weighted_soft_t(TIMES, np.ones(4), [1.5], v),
    "period end": lambda v: vcs(TIMES, (0.0, v)),
    "step": lambda v: finite_difference_check(square, [1.0], step=v),
    "mismatch_weight": lambda v: InstanceMetricSpec(mismatch_weight=v),
}


@pytest.mark.parametrize("value", ["0.5", "x", None, 1j, np.complex128(1), object()],
                         ids=["numeric-str", "str", "None", "complex", "numpy-complex", "object"])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_value_that_is_not_real_raises_type_error_naming_it(name, value):
    argument = name.split()[-1] if name != "period end" else name
    with pytest.raises(TypeError, match=f"^{argument} must be a real number, not "):
        CALLS[name](value)


@pytest.mark.parametrize("value", [0.5, 1, True, np.float32(0.5), np.int8(1), np.True_,
                                   np.array(0.5), 10**400])
def test_real_numbers_pass(value):
    _real("x", value)
