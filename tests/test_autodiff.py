"""Gradient checks for the reverse-mode engine against central differences."""

import numpy as np
import pytest
from gradcheck import numeric_gradient

import latticepath.autodiff as ad
from latticepath.autodiff import Tensor


def check_grad(build, x, h=1e-6, tol=1e-6):
    """Compare analytic grad of scalar build(Tensor) with finite differences."""
    t = Tensor(x, requires_grad=True)
    build(t).backward()
    num = numeric_gradient(lambda a: build(Tensor(a)).item(), x, h=h)
    assert t.grad is not None
    np.testing.assert_allclose(t.grad, num, rtol=tol, atol=tol)


def rng(seed=0):
    return np.random.default_rng(seed)


def square(t):
    return t * t


def test_backward_requires_scalar():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (t * 2.0).backward()


def test_add_mul_neg_sub_grads():
    x = rng(1).normal(size=(4, 3))
    check_grad(lambda t: ((t + 2.0) * t - t * 0.5 + (-t)).sum(), x)


def test_radd_rsub_rmul_grads():
    x = rng(2).normal(size=(5,)) + 3.0  # keep away from zero for the division
    check_grad(lambda t: (1.0 + t).sum() + (2.0 - t).sum() + (3.0 * t).sum() + (Tensor(6.0) / t).sum(), x)


def test_tensor_division_grads_both_sides():
    a = rng(3).normal(size=(3, 2)) + 4.0
    b = rng(4).normal(size=(3, 2)) + 4.0
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    (ta / tb).sum().backward()
    na = numeric_gradient(lambda v: (Tensor(v) / Tensor(b)).sum().item(), a)
    nb = numeric_gradient(lambda v: (Tensor(a) / Tensor(v)).sum().item(), b)
    np.testing.assert_allclose(ta.grad, na, atol=1e-6)
    np.testing.assert_allclose(tb.grad, nb, atol=1e-6)


def test_broadcast_add_unbroadcasts_grad():
    a = rng(6).normal(size=(4, 3))
    b = rng(7).normal(size=(3,))
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    (ta + tb).sum().backward()
    np.testing.assert_allclose(ta.grad, np.ones((4, 3)))
    np.testing.assert_allclose(tb.grad, np.full(3, 4.0))


def test_broadcast_mul_grad():
    a = rng(8).normal(size=(2, 3, 4))
    b = rng(9).normal(size=(1, 3, 1))
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    (ta * tb).sum().backward()
    nb = numeric_gradient(lambda v: (Tensor(a) * Tensor(v)).sum().item(), b)
    np.testing.assert_allclose(tb.grad, nb, atol=1e-6)
    assert tb.grad.shape == b.shape


def test_matmul_grads():
    a = rng(10).normal(size=(4, 3))
    b = rng(11).normal(size=(3, 5))
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    ((ta @ tb) * 0.5).sum().backward()
    na = numeric_gradient(lambda v: ((Tensor(v) @ Tensor(b)) * 0.5).sum().item(), a)
    nb = numeric_gradient(lambda v: ((Tensor(a) @ Tensor(v)) * 0.5).sum().item(), b)
    np.testing.assert_allclose(ta.grad, na, atol=1e-6)
    np.testing.assert_allclose(tb.grad, nb, atol=1e-6)


def test_batched_matmul_grads():
    a = rng(12).normal(size=(2, 4, 3))
    b = rng(13).normal(size=(2, 3, 5))
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    (ta @ tb).sum().backward()
    na = numeric_gradient(lambda v: (Tensor(v) @ Tensor(b)).sum().item(), a)
    np.testing.assert_allclose(ta.grad, na, atol=1e-6)


def test_matmul_with_broadcast_weight():
    # (B, T, D) @ (D, K): weight shared across the batch
    x = rng(14).normal(size=(2, 3, 4))
    w = rng(15).normal(size=(4, 5))
    tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    (tx @ tw).sum().backward()
    nw = numeric_gradient(lambda v: (Tensor(x) @ Tensor(v)).sum().item(), w)
    np.testing.assert_allclose(tw.grad, nw, atol=1e-6)
    assert tw.grad.shape == w.shape


def test_exp_abs_gelu_grads():
    x = np.abs(rng(16).normal(size=(6,))) + 0.5
    check_grad(lambda t: t.exp().sum(), x)
    check_grad(lambda t: t.abs().sum(), x)  # x bounded away from 0
    y = rng(17).normal(size=(6,))
    check_grad(lambda t: t.gelu().sum(), y, tol=1e-5)


def test_reshape_transpose_grads():
    x = rng(18).normal(size=(2, 3, 4))
    check_grad(lambda t: (t.reshape(6, 4) * 2.0).sum(), x)
    check_grad(lambda t: square(t.transpose((0, 2, 1))).sum(), x)


def test_getitem_grad_scatters_back():
    x = rng(19).normal(size=(4, 5))
    t = Tensor(x, requires_grad=True)
    (t[1:3, ::2] * 3.0).sum().backward()
    expect = np.zeros((4, 5))
    expect[1:3, ::2] = 3.0
    np.testing.assert_allclose(t.grad, expect)


def test_getitem_fancy_index_accumulates():
    x = rng(20).normal(size=(5,))
    t = Tensor(x, requires_grad=True)
    idx = np.array([0, 0, 2])
    t[idx].sum().backward()
    np.testing.assert_allclose(t.grad, np.array([2.0, 0.0, 1.0, 0.0, 0.0]))


def test_sum_axis_and_keepdims_grads():
    x = rng(21).normal(size=(3, 4, 2))
    check_grad(lambda t: square(t.sum(axis=1)).sum(), x)
    check_grad(lambda t: (t.sum(axis=(0, 2), keepdims=True) * t).sum(), x)


def test_mean_axis_grads():
    x = rng(22).normal(size=(3, 4))
    check_grad(lambda t: square(t.mean(axis=0)).sum(), x)
    check_grad(lambda t: t.mean(), x)


def test_shared_subgraph_accumulates():
    x = rng(23).normal(size=(3,))
    t = Tensor(x, requires_grad=True)
    y = t * 2.0
    (y.sum() + (y * y).sum()).backward()
    num = numeric_gradient(
        lambda v: ((Tensor(v) * 2.0).sum() + ((Tensor(v) * 2.0) * (Tensor(v) * 2.0)).sum()).item(), x
    )
    np.testing.assert_allclose(t.grad, num, atol=1e-6)


def test_last_axis_gather_grad():
    x = rng(24).normal(size=(3, 4, 7))
    idx = rng(25).integers(0, 7, size=(3, 4))
    lead = (np.arange(3)[:, None], np.arange(4))
    t = Tensor(x, requires_grad=True)
    t[lead + (idx,)].sum().backward()
    num = numeric_gradient(lambda v: Tensor(v)[lead + (idx,)].sum().item(), x)
    np.testing.assert_allclose(t.grad, num, atol=1e-6)


def test_put_rows_forward_and_grad():
    x = rng(42).normal(size=(3, 2, 2))
    rows = np.array([5, 1, 2])
    t = Tensor(x, requires_grad=True)
    out = ad.put_rows(t, rows, 6)
    assert out.shape == (6, 2, 2)
    np.testing.assert_array_equal(out.data[rows], x)
    assert not out.data[[0, 3, 4]].any()
    weights = rng(43).normal(size=(6, 2, 2))
    (out * out * weights).sum().backward()
    num = numeric_gradient(lambda v: (square(ad.put_rows(Tensor(v), rows, 6)) * weights).sum().item(), x)
    np.testing.assert_allclose(t.grad, num, atol=1e-6)


def test_put_rows_padded_slots_pass_no_gradient():
    # a loss that weights the zero slots still leaves x's gradient on its placed rows only
    x = rng(44).normal(size=(2, 3))
    t = Tensor(x, requires_grad=True)
    out = ad.put_rows(t, np.array([0, 2]), 4)
    (out * np.array([[1.0], [5.0], [2.0], [7.0]])).sum().backward()
    np.testing.assert_array_equal(t.grad, [[1.0] * 3, [2.0] * 3])


@pytest.mark.parametrize("rows, match", [
    (np.array([1, 1]), "rows must be distinct"),
    (np.array([0, 4]), r"rows must lie in 0\.\.3"),
    (np.array([-1, 0]), r"rows must lie in 0\.\.3"),
    (np.array([[0, 1]]), "rows must be one-dimensional"),
], ids=["repeat", "past_end", "negative", "two_dim"])
def test_row_ops_reject_bad_rows(rows, match):
    with pytest.raises(ValueError, match="put_rows " + match):
        ad.put_rows(Tensor(np.zeros((rows.size, 2))), rows, 4)
    qkv = [Tensor(np.zeros((rows.size, 2)))] * 3
    with pytest.raises(ValueError, match="attention " + match):
        ad.attention(*qkv, (2, 2), 1, rows=rows)


def test_put_rows_needs_one_index_per_row():
    with pytest.raises(ValueError, match="one row index per row"):
        ad.put_rows(Tensor(np.zeros((3, 2))), np.array([0, 1]), 4)


def test_softmax_rows_sum_to_one():
    x = rng(27).normal(size=(4, 7)) * 3.0
    s = ad.softmax(Tensor(x))
    np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(4), atol=1e-12)


def test_masked_softmax_zeroes_masked_entries_exactly():
    x = rng(28).normal(size=(4, 7))
    mask = rng(29).random(size=(4, 7)) > 0.4
    mask[:, 0] = True  # keep every row feasible
    s = ad.softmax(Tensor(x), mask=mask)
    assert np.all(s.data[~mask] == 0.0)
    np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(4), atol=1e-12)


def test_softmax_grad_plain_and_masked():
    x = rng(30).normal(size=(3, 5))
    w = rng(31).normal(size=(3, 5))
    check_grad(lambda t: (ad.softmax(t) * w).sum(), x, tol=1e-5)
    mask = np.array([[True, True, False, True, True]] * 3)
    check_grad(lambda t: (ad.softmax(t, mask=mask) * w).sum(), x, tol=1e-5)


def test_log_softmax_matches_log_of_softmax():
    x = rng(32).normal(size=(4, 7)) * 2.0
    mask = np.ones((4, 7), dtype=bool)
    mask[:, 3] = False
    ls = ad.log_softmax(Tensor(x), mask=mask)
    s = ad.softmax(Tensor(x), mask=mask)
    np.testing.assert_allclose(ls.data[mask], np.log(s.data[mask]), atol=1e-12)
    assert np.all(ls.data[~mask] == -np.inf)


def test_log_softmax_grad_on_legal_entries():
    # gather only legal entries: multiplying the -inf masked entries by zero
    # weights would poison the forward value with nan
    x = rng(33).normal(size=(2, 6))
    mask = np.array([[True, False, True, True, True, False]] * 2)
    rows = np.arange(2)

    def build(t):
        lp = ad.log_softmax(t, mask=mask)
        a = lp[rows, np.array([0, 4])]
        b = lp[rows, np.array([2, 2])]
        c = lp[rows, np.array([3, 0])]
        return (a * 1.0 + b * 0.5 + c * 2.0).sum()

    check_grad(build, x, tol=1e-5)


def test_layer_norm_forward_and_grads():
    x = rng(35).normal(size=(4, 8)) * 2.0 + 1.0
    g = np.abs(rng(36).normal(size=(8,))) + 0.5
    b = rng(37).normal(size=(8,))
    out = ad.layer_norm(Tensor(x), Tensor(g), Tensor(b))
    normed = (out.data - b) / g
    np.testing.assert_allclose(normed.mean(axis=-1), np.zeros(4), atol=1e-10)
    np.testing.assert_allclose(normed.std(axis=-1), np.ones(4), atol=1e-3)

    w = rng(38).normal(size=(4, 8))
    tx = Tensor(x, requires_grad=True)
    tg = Tensor(g, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    (ad.layer_norm(tx, tg, tb) * w).sum().backward()
    nx = numeric_gradient(lambda v: (ad.layer_norm(Tensor(v), Tensor(g), Tensor(b)) * w).sum().item(), x)
    ng = numeric_gradient(lambda v: (ad.layer_norm(Tensor(x), Tensor(v), Tensor(b)) * w).sum().item(), g)
    nb = numeric_gradient(lambda v: (ad.layer_norm(Tensor(x), Tensor(g), Tensor(v)) * w).sum().item(), b)
    np.testing.assert_allclose(tx.grad, nx, atol=1e-5)
    np.testing.assert_allclose(tg.grad, ng, atol=1e-5)
    np.testing.assert_allclose(tb.grad, nb, atol=1e-5)


def test_no_grad_blocks_graph_recording():
    t = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        out = (t * 2.0).sum()
    assert out._parents == ()
    out2 = (t * 2.0).sum()
    assert out2._parents != ()

