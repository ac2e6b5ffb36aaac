"""The type rule of the scalar arguments: a value that is not a real number
raises TypeError naming the argument, from errors._real."""

import numpy as np
import pytest

from vcseval import (DriftSpec, InstanceMetricSpec, PatternSpec, TrainConfig, VcsConfig,
                     finite_difference_check, soft_nn_distance, vca_penalty, vcs,
                     weighted_soft_t)
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
    "cluster_center": lambda v: PatternSpec("random", 10, 5, cluster_center=v),
    "cluster_width": lambda v: PatternSpec("clustered", 10, 5, cluster_width=v),
    "drift_onset": lambda v: DriftSpec(n_events=10, drift_onset=v),
    "drift_shift": lambda v: DriftSpec(n_events=10, drift_shift=v),
    "class_separation": lambda v: DriftSpec(n_events=10, class_separation=v),
    "burst_fraction": lambda v: DriftSpec(n_events=10, burst_fraction=v),
    "post_class1_rate": lambda v: DriftSpec(n_events=10, post_class1_rate=v),
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
