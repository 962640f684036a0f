import numpy as np
import pytest

from neighborrank import autodiff as ad
from neighborrank.optim import Adam


def test_first_step_hand_evaluated():
    # m = 0.1, v = 0.001, m_hat = 1, v_hat = 1 -> theta = 1 - lr/(1 + eps)
    p = ad.param(np.array([1.0]))
    p.grad = np.array([1.0])
    opt = Adam({"p": p}, lr=0.001)
    opt.step()
    assert opt.t == 1
    assert p.value[0] == pytest.approx(0.999, abs=1e-9)


def test_zero_gradient_leaves_param_unchanged():
    p = ad.param(np.array([2.5]))
    p.grad = np.array([0.0])
    opt = Adam({"p": p})
    opt.step()
    assert p.value[0] == pytest.approx(2.5)


def test_missing_gradient_treated_as_zero():
    p = ad.param(np.array([1.5]))
    opt = Adam({"p": p})
    opt.step()
    assert p.value[0] == pytest.approx(1.5)


def test_constant_gradient_moves_against_sign():
    p = ad.param(np.array([1.0, -1.0]))
    opt = Adam({"p": p}, lr=0.01)
    for _ in range(2):
        p.grad = np.array([1.0, -1.0])
        opt.step()
    assert p.value[0] < 1.0 - 0.015  # two near-full steps down
    assert p.value[1] > -1.0 + 0.015


def test_state_shapes_and_counter():
    p = ad.param(np.zeros((3, 2)))
    opt = Adam({"w": p})
    assert opt.m["w"].shape == (3, 2) and opt.v["w"].shape == (3, 2)
    for expected_t in (1, 2, 3):
        p.grad = np.ones((3, 2))
        opt.step()
        assert opt.t == expected_t


def test_non_finite_gradient_names_parameter():
    p = ad.param(np.array([1.0]))
    p.grad = np.array([np.nan])
    opt = Adam({"embed.item": p})
    with pytest.raises(FloatingPointError, match="embed.item"):
        opt.step()


def test_zero_grad_clears():
    p = ad.param(np.array([1.0]))
    p.grad = np.array([1.0])
    opt = Adam({"p": p})
    opt.zero_grad()
    assert p.grad is None
