"""Unit tests for the Adam optimizer."""

import re

import numpy as np
import pytest

from chants.errors import ShapeError
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


def reference_adam(params, grads, steps, lr):
    """The update as a pure formula: fresh arrays every step."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    params = dict(params)
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v2 = {k: np.zeros_like(v) for k, v in params.items()}
    for t in range(1, steps + 1):
        bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
        for k in params:
            g = grads.get(k, np.zeros_like(params[k]))
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v2[k] = b2 * v2[k] + (1.0 - b2) * (g * g)
            params[k] = params[k] - lr * (m[k] / bc1) / (np.sqrt(v2[k] / bc2) + eps)
    return params, m, v2


def test_in_place_update_is_bitwise_the_pure_formula():
    rng = np.random.default_rng(12)
    p0 = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=5), "frozen": rng.normal(size=2)}
    grads = {"a": rng.normal(size=(4, 3)), "b": rng.normal(scale=1e-3, size=5)}
    want, want_m, want_v = reference_adam(p0, grads, steps=7, lr=3e-3)
    params = {k: v.copy() for k, v in p0.items()}
    arrays = dict(params)
    state = init_adam_state(params, lr=3e-3)
    for _ in range(7):
        out, out_state = adam_step(params, grads, state)
        assert out is params and out_state is state
    assert state.step_count == 7
    for k in p0:
        assert params[k] is arrays[k], f"{k} was replaced, not updated in place"
        assert params[k].tobytes() == want[k].tobytes(), k
        assert state.first_moment[k].tobytes() == want_m[k].tobytes(), k
        assert state.second_moment[k].tobytes() == want_v[k].tobytes(), k


def test_non_finite_gradient_mutates_nothing():
    rng = np.random.default_rng(13)
    params = {"a": rng.normal(size=3), "b": rng.normal(size=2)}
    state = init_adam_state(params, lr=0.1)
    adam_step(params, {"a": np.ones(3), "b": np.ones(2)}, state)
    before = ({k: v.copy() for k, v in params.items()}, {k: v.copy() for k, v in state.first_moment.items()},
              {k: v.copy() for k, v in state.second_moment.items()})
    # "a" comes first and is valid: it must not be updated before "b" is checked
    with pytest.raises(FloatingPointError, match="'b'"):
        adam_step(params, {"a": np.ones(3), "b": np.array([1.0, np.nan])}, state)
    assert state.step_count == 1
    for now, then in zip((params, state.first_moment, state.second_moment), before):
        for k in then:
            np.testing.assert_array_equal(now[k], then[k], err_msg=k)


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


@pytest.mark.parametrize(
    "grads, message",
    [
        ({"w_key": np.array([[0.5, 0.5]])}, "gradient for 'w_key' has shape (1, 2), parameter has (2,)"),
        ({"w_key": np.ones(2), "W_key": np.ones(2)}, "gradient for 'W_key' matches no parameter"),
    ],
    ids=["another-shape", "unknown-name"],
)
def test_a_gradient_it_cannot_apply_is_refused_naming_it(grads, message):
    params = {"w_key": np.array([1.0, 2.0])}
    state = init_adam_state(params, lr=0.1)
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        adam_step(params, grads, state)
    np.testing.assert_array_equal(params["w_key"], [1.0, 2.0])
    assert state.step_count == 0


def test_missing_gradient_counts_as_zero():
    params = {"w": np.array([1.0]), "frozen": np.array([5.0])}
    state = init_adam_state(params, lr=0.1)
    params, state = adam_step(params, {"w": np.array([1.0])}, state)
    np.testing.assert_array_equal(params["frozen"], [5.0])
