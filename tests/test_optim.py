"""Unit tests for the Adam optimizer."""

import numpy as np
import pytest

from chants.optim import adam_step, init_adam_state


def test_zero_gradient_leaves_parameters_unchanged():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    state = init_adam_state(params, lr=0.1)
    for _ in range(25):
        params, state = adam_step(params, {"w": np.zeros(3)}, state)
    np.testing.assert_array_equal(params["w"], [1.0, -2.0, 3.0])
    assert state.step_count == 25


def test_first_update_is_bias_corrected_lr():
    params = {"w": np.array([0.0])}
    state = init_adam_state(params, lr=0.1)
    params, state = adam_step(params, {"w": np.array([1.0])}, state)
    # m_hat = v_hat = 1 after one step, so the update is -lr/(1+eps)
    np.testing.assert_allclose(params["w"], [-0.1], atol=1e-8)
    assert state.step_count == 1


def test_repeated_runs_are_bitwise_identical():
    rng = np.random.default_rng(11)
    p0 = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4)}
    gs = [{"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4)} for _ in range(5)]

    def run():
        params = {k: v.copy() for k, v in p0.items()}
        state = init_adam_state(params, lr=1e-3)
        for g in gs:
            params, state = adam_step(params, g, state)
        return params

    first, second = run(), run()
    for k in first:
        assert first[k].tobytes() == second[k].tobytes()


def test_pure_function_does_not_mutate_inputs():
    params = {"w": np.array([1.0, 2.0])}
    grads = {"w": np.array([0.5, -0.5])}
    state = init_adam_state(params, lr=0.01)
    before_p = params["w"].copy()
    before_m = state.first_moment["w"].copy()
    out1, s1 = adam_step(params, grads, state)
    out2, s2 = adam_step(params, grads, state)
    np.testing.assert_array_equal(params["w"], before_p)
    np.testing.assert_array_equal(state.first_moment["w"], before_m)
    np.testing.assert_array_equal(out1["w"], out2["w"])
    assert s1.step_count == s2.step_count == 1


def test_nan_gradient_aborts_naming_parameter():
    params = {"w_query": np.array([1.0])}
    state = init_adam_state(params, lr=0.1)
    with pytest.raises(FloatingPointError, match="w_query"):
        adam_step(params, {"w_query": np.array([np.nan])}, state)


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_infinite_gradient_aborts_naming_parameter(bad):
    params = {"w_value": np.array([1.0, 2.0])}
    state = init_adam_state(params, lr=0.1)
    with pytest.raises(FloatingPointError, match="w_value"):
        adam_step(params, {"w_value": np.array([0.5, bad])}, state)


def test_missing_gradient_counts_as_zero():
    params = {"w": np.array([1.0]), "frozen": np.array([5.0])}
    state = init_adam_state(params, lr=0.1)
    params, state = adam_step(params, {"w": np.array([1.0])}, state)
    np.testing.assert_array_equal(params["frozen"], [5.0])
