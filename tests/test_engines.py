"""The step-function builder and lookup shared by the statistics, the
coupling checkers, the trajectory writer and the verify suites."""

import numpy as np

from msjlab.engines import count_steps, step_at, step_function


def test_equal_change_times_collapse():
    t, v = step_function(np.array([2.0, 1.0, 2.0, 2.0]),
                         np.array([1.0, 1.0, 1.0, -1.0]))
    assert t.tolist() == [1.0, 2.0]
    assert v.tolist() == [1.0, 2.0]  # after all three changes at t=2


def test_empty_input_gives_empty_arrays():
    t, v = step_function(np.array([]), np.array([]))
    assert len(t) == 0 and len(v) == 0
    assert step_at(t, v, np.array([0.0, 5.0])).tolist() == [0.0, 0.0]


def test_side_left_is_value_just_before():
    t, v = step_function(np.array([1.0, 3.0]), np.array([2.0, 5.0]))
    query = np.array([0.5, 1.0, 2.0, 3.0, 4.0])
    assert step_at(t, v, query).tolist() == [0.0, 2.0, 2.0, 7.0, 7.0]
    assert step_at(t, v, query, side="left").tolist() == [0.0, 0.0, 2.0, 2.0, 7.0]


def test_columns_share_one_sort():
    t, v = step_function(np.array([1.0, 0.5, 1.0]),
                         np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 3.0]]))
    assert t.tolist() == [0.5, 1.0]
    assert v.tolist() == [[0.0, 2.0], [1.0, 5.0]]


def test_count_steps_per_type():
    # jobs of types 0, 1, 0 in [0, 2), [1, 3), [1, 2)
    t, counts = count_steps(np.array([0.0, 1.0, 1.0]), np.array([2.0, 3.0, 2.0]),
                            np.array([0, 1, 0]), 2)
    assert t.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert counts.tolist() == [[1, 0], [2, 1], [0, 1], [0, 0]]
