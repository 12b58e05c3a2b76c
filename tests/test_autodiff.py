"""Reverse-mode engine: every primitive against central differences."""

import json
import math
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import tdafault.autodiff as ad
from tdafault.autodiff import NumericsError, Tensor, grad_check, op_catalog, zero_grad


def rand_tensor(shape, seed, scale=1.0):
    return Tensor(
        scale * np.random.default_rng(seed).normal(size=shape), requires_grad=True
    )


class TestTensorBasics:
    def test_leaf_construction(self):
        t = Tensor([[1.0, 2.0]], requires_grad=True)
        assert t.shape == (1, 2)
        assert t.grad is None
        assert t.requires_grad

    def test_rank_limit(self):
        Tensor(np.zeros((2, 2, 2)))  # rank 3 allowed
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 2, 2, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(NumericsError):
            Tensor([np.inf, 1.0])
        with pytest.raises(NumericsError):
            Tensor([np.nan])

    def test_numerics_error_is_arithmetic_error(self):
        assert issubclass(NumericsError, ArithmeticError)

    def test_overflowing_op_raises(self):
        big = Tensor(np.full((2, 2), 400.0), requires_grad=True)
        with pytest.raises(NumericsError, match="exp"):
            ad.exp(ad.exp(big))

    def test_backward_requires_scalar(self):
        t = rand_tensor((2, 3), 0)
        with pytest.raises(ValueError):
            ad.add(t, t).backward()

    def test_item(self):
        assert Tensor([[3.5]]).item() == 3.5


class TestGraphMechanics:
    def test_fanout_sums_adjoints(self):
        # f = g(x) + h(x): the two branch adjoints must add.
        x = Tensor([[2.0]], requires_grad=True)
        y = ad.add(ad.scale(x, 3.0), ad.multiply(x, x))  # 3x + x^2
        y.backward()
        assert y.item() == pytest.approx(10.0)
        np.testing.assert_allclose(x.grad, [[3.0 + 4.0]], atol=1e-12)

    def test_diamond_graph(self):
        x = Tensor([[1.5]], requires_grad=True)
        a = ad.scale(x, 2.0)
        b = ad.exp(x)
        out = ad.multiply(a, b)  # 2x * e^x -> d/dx = 2e^x(1 + x)
        out.backward()
        np.testing.assert_allclose(
            x.grad, [[2.0 * np.exp(1.5) * 2.5]], atol=1e-10
        )

    def test_constants_get_no_grad(self):
        x = rand_tensor((2, 2), 0)
        c = Tensor(np.ones((2, 2)))  # requires_grad False
        out = ad.mean_rows(ad.multiply(x, c))
        loss = ad.cross_entropy_logits(out, 0)
        loss.backward()
        assert x.grad is not None
        assert c.grad is None

    def test_zero_grad(self):
        x = rand_tensor((1, 2), 1)
        ad.cross_entropy_logits(x, 0).backward()
        assert x.grad is not None
        zero_grad([x])
        assert x.grad is None

    def test_backward_twice_accumulates_into_leaves(self):
        # Two scalar losses back-propagated in sequence add their gradients,
        # which is exactly what batch accumulation relies on.
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        ad.cross_entropy_logits(x, 0).backward()
        g1 = x.grad.copy()
        ad.cross_entropy_logits(x, 0).backward()
        np.testing.assert_allclose(x.grad, 2.0 * g1, atol=1e-12)

    def test_backward_releases_interior_grads(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        hidden = ad.exp(x)
        loss = ad.cross_entropy_logits(hidden, 0)
        loss.backward()
        assert hidden.grad is None
        assert x.grad is not None
        np.testing.assert_array_equal(loss.grad, [[1.0]])

    def test_dropped_op_output_is_freed(self):
        a = Tensor(np.random.default_rng(96).normal(size=(2, 3, 4)))
        out = weakref.ref(ad.scale(a, 2.0).data)
        assert out() is None  # nothing kept the dropped output

    def test_deterministic_forward_backward(self):
        def run():
            a = rand_tensor((4, 3), 7)
            b = rand_tensor((3, 5), 8)
            loss = ad.cross_entropy_logits(ad.mean_rows(ad.matmul(a, b)), 2)
            loss.backward()
            return loss.item(), a.grad.copy(), b.grad.copy()

        l1, ga1, gb1 = run()
        l2, ga2, gb2 = run()
        assert l1 == l2
        assert np.array_equal(ga1, ga2)
        assert np.array_equal(gb1, gb2)


def scalarize(t):
    """Reduce any 2-D or 3-D tensor to a scalar with catalog ops only."""
    pooled = ad.mean_rows(t)  # (1, n), or (B, n) for a batch
    targets = np.arange(pooled.shape[0]) % pooled.shape[1]
    return ad.cross_entropy_logits(pooled, targets)


class TestPerOpGradients:
    """Each primitive passes grad_check < 1e-6 in isolation (random shapes <= 8x8)."""

    def check(self, build, *tensors, tol=1e-6):
        err = grad_check(lambda: build(*tensors), tensors, h=1e-5)
        assert err < tol, f"grad mismatch {err:.3e}"

    def test_matmul(self):
        a, b = rand_tensor((4, 6), 0), rand_tensor((6, 3), 1)
        self.check(lambda a, b: scalarize(ad.matmul(a, b)), a, b)

    def test_transpose(self):
        a = rand_tensor((3, 5), 2)
        self.check(lambda a: scalarize(ad.transpose(a)), a)

    def test_add_subtract(self):
        a, b = rand_tensor((4, 4), 3), rand_tensor((4, 4), 4)
        self.check(lambda a, b: scalarize(ad.add(a, b)), a, b)
        self.check(lambda a, b: scalarize(ad.subtract(a, b)), a, b)

    def test_multiply(self):
        a, b = rand_tensor((5, 3), 5), rand_tensor((5, 3), 6)
        self.check(lambda a, b: scalarize(ad.multiply(a, b)), a, b)

    def test_scale(self):
        a = rand_tensor((4, 5), 7)
        self.check(lambda a: scalarize(ad.scale(a, -2.5)), a)

    def test_mul_rowvec(self):
        a, v = rand_tensor((4, 6), 8), rand_tensor((1, 6), 9)
        self.check(lambda a, v: scalarize(ad.mul_rowvec(a, v)), a, v)

    def test_mul_colvec(self):
        a, u = rand_tensor((5, 4), 10), rand_tensor((5,), 11)
        self.check(lambda a, u: scalarize(ad.mul_colvec(a, u)), a, u)

    def test_add_rowvec(self):
        a, v = rand_tensor((3, 7), 12), rand_tensor((7,), 13)
        self.check(lambda a, v: scalarize(ad.add_rowvec(a, v)), a, v)

    def test_softmax_rows(self):
        a = rand_tensor((4, 6), 14, scale=2.0)
        self.check(lambda a: scalarize(ad.softmax_rows(a)), a)

    def test_exp(self):
        a = rand_tensor((4, 4), 15)
        self.check(lambda a: scalarize(ad.exp(a)), a)

    def test_mean_rows(self):
        a = rand_tensor((6, 5), 16)
        self.check(lambda a: ad.cross_entropy_logits(ad.mean_rows(a), 3), a)

    def test_layer_norm(self):
        a = rand_tensor((5, 8), 17, scale=3.0)
        self.check(lambda a: scalarize(ad.layer_norm(a)), a)

    def test_gelu(self):
        a = rand_tensor((6, 6), 18, scale=2.0)
        self.check(lambda a: scalarize(ad.gelu(a)), a)

    def test_cross_entropy_logits(self):
        a = rand_tensor((1, 8), 19, scale=3.0)
        self.check(lambda a: ad.cross_entropy_logits(a, 5), a)

    def test_composite_chain(self):
        a = rand_tensor((4, 6), 20)
        w = rand_tensor((6, 4), 21)
        v = rand_tensor((4,), 22)

        def f(a, w, v):
            h = ad.gelu(ad.add_rowvec(ad.matmul(a, w), v))
            return ad.cross_entropy_logits(ad.mean_rows(ad.layer_norm(h)), 1)

        self.check(f, a, w, v)


class TestBatchedOps:
    """Rank-3 (B, T, d) inputs: per-op gradients, and agreement with one sample at a time."""

    B = 3

    def check(self, build, *tensors, tol=1e-6):
        err = grad_check(lambda: build(*tensors), tensors, h=1e-5)
        assert err < tol, f"grad mismatch {err:.3e}"

    def test_gradients(self):
        a = rand_tensor((self.B, 4, 5), 40)
        b = rand_tensor((self.B, 4, 5), 41)
        w = rand_tensor((5, 3), 42)
        per_sample = rand_tensor((self.B, 5, 2), 43)
        v = rand_tensor((5,), 44)
        u = rand_tensor((4,), 45)
        row = rand_tensor((1, 7), 46)
        exact_row = rand_tensor((1, 5), 47)
        self.check(lambda a, w: scalarize(ad.matmul(a, w)), a, w)
        self.check(lambda a, m: scalarize(ad.matmul(a, m)), a, per_sample)
        self.check(lambda a: scalarize(ad.transpose(a)), a)
        self.check(lambda a, b: scalarize(ad.multiply(ad.subtract(a, b), ad.add(a, b))), a, b)
        self.check(lambda a: scalarize(ad.scale(a, 0.7)), a)
        self.check(lambda a, v: scalarize(ad.mul_rowvec(a, v)), a, exact_row)
        self.check(lambda a, r: scalarize(ad.mul_rowvec(a, ad.exp(r))), a, row)
        self.check(lambda a, u: scalarize(ad.mul_colvec(a, u)), a, u)
        self.check(lambda a, v: scalarize(ad.add_rowvec(a, v)), a, v)
        self.check(lambda a: scalarize(ad.softmax_rows(a)), a)
        self.check(lambda a: scalarize(ad.exp(a)), a)
        self.check(lambda a: scalarize(ad.layer_norm(a)), a)
        self.check(lambda a: scalarize(ad.gelu(a)), a)

    def test_batch_equals_stacked_samples(self):
        a = rand_tensor((self.B, 4, 5), 50).data
        w = rand_tensor((5, 3), 51).data
        m = rand_tensor((self.B, 5, 4), 52).data
        v = rand_tensor((5,), 53).data
        u = rand_tensor((4,), 54).data
        row = rand_tensor((1, 9), 55).data
        cases = [
            (lambda x: ad.matmul(x, Tensor(w)), False),
            (lambda x, y: ad.matmul(x, y), True),
            (ad.transpose, False),
            (lambda x: ad.mul_rowvec(x, Tensor(v[None])), False),
            (lambda x: ad.mul_rowvec(x, Tensor(row)), False),
            (lambda x: ad.mul_colvec(x, Tensor(u)), False),
            (lambda x: ad.add_rowvec(x, Tensor(v)), False),
            (ad.softmax_rows, False),
            (ad.layer_norm, False),
            (ad.gelu, False),
            (ad.mean_rows, False),
        ]
        for fn, takes_stack in cases:
            batched = (fn(Tensor(a), Tensor(m)) if takes_stack else fn(Tensor(a))).data
            for i in range(self.B):
                one = (fn(Tensor(a[i]), Tensor(m[i])) if takes_stack else fn(Tensor(a[i]))).data
                np.testing.assert_allclose(batched[i], one.reshape(batched[i].shape),
                                           rtol=1e-14, atol=1e-15)

    def test_shared_weight_gradient_sums_over_samples(self):
        a = rand_tensor((self.B, 4, 5), 60)
        w = rand_tensor((5, 3), 61)
        scalarize(ad.matmul(a, w)).backward()
        batched = w.grad.copy()
        zero_grad([w])
        for i in range(self.B):
            one = Tensor(a.data[i])
            ad.cross_entropy_logits(ad.mean_rows(ad.matmul(one, w)), i % 3).backward()
        np.testing.assert_allclose(batched, w.grad, rtol=1e-13, atol=1e-15)

    def test_cross_entropy_sums_rows(self):
        z = np.random.default_rng(62).normal(size=(4, 5)) * 2
        targets = np.array([0, 4, 2, 2])
        total = ad.cross_entropy_logits(Tensor(z), targets).item()
        rows = [ad.cross_entropy_logits(Tensor(z[i:i + 1]), int(t)).item()
                for i, t in enumerate(targets)]
        assert total == pytest.approx(sum(rows), abs=1e-12)
        a = rand_tensor((4, 5), 63, scale=2.0)
        self.check(lambda a: ad.cross_entropy_logits(a, targets), a)

    def test_prefix_row_leaves_tail_gradient_zero(self):
        a = rand_tensor((2, 3, 3), 64)
        row = rand_tensor((1, 6), 65)
        scalarize(ad.mul_rowvec(a, row)).backward()
        assert np.abs(row.grad[0, :3]).max() > 0
        np.testing.assert_array_equal(row.grad[0, 3:], 0.0)

    def test_shape_validation(self):
        x = rand_tensor((2, 3, 4), 0)
        with pytest.raises(ValueError):
            ad.matmul(x, rand_tensor((3, 4, 5), 1))  # batch sizes differ
        with pytest.raises(ValueError):
            ad.matmul(rand_tensor((3, 4), 1), rand_tensor((2, 4, 5), 2))  # 2-D @ 3-D
        with pytest.raises(ValueError):
            ad.matmul(x, rand_tensor((3, 5), 3))
        with pytest.raises(ValueError):
            ad.mul_rowvec(x, rand_tensor((1, 3), 4))  # positional row too short
        with pytest.raises(ValueError):
            ad.mul_rowvec(x, rand_tensor((3, 4), 5))  # 2 samples, not a multiple of 3 rows
        with pytest.raises(ValueError):
            ad.mul_rowvec(x, rand_tensor((4,), 5))  # a bare vector is not a table
        with pytest.raises(ValueError):
            ad.mul_colvec(x, rand_tensor((4,), 6))
        with pytest.raises(ValueError):
            ad.add_rowvec(x, rand_tensor((3,), 7))
        with pytest.raises(ValueError):
            ad.softmax_rows(rand_tensor((4,), 8))
        with pytest.raises(ValueError):
            ad.mean_rows(rand_tensor((4,), 9))
        logits = rand_tensor((3, 4), 10)
        with pytest.raises(ValueError):
            ad.cross_entropy_logits(logits, np.array([0, 1]))  # one target short
        with pytest.raises(ValueError):
            ad.cross_entropy_logits(logits, np.array([0, 1, 4]))
        with pytest.raises(ValueError):
            ad.cross_entropy_logits(logits, np.array([0.0, 1.0, 2.0]))
        with pytest.raises(ValueError):
            ad.cross_entropy_logits(x, np.array([0, 1]))  # logits must be 2-D


class TestHeadFolding:
    """split_heads / merge_heads, and mul_rowvec tables with one row per head."""

    def check(self, build, *tensors, tol=1e-6):
        err = grad_check(lambda: build(*tensors), tensors, h=1e-5)
        assert err < tol, f"grad mismatch {err:.3e}"

    def test_split_layout(self):
        x = np.random.default_rng(70).normal(size=(2, 3, 6))
        heads = ad.split_heads(Tensor(x), 3).data
        assert heads.shape == (6, 3, 2)
        for b in range(2):
            for h in range(3):
                np.testing.assert_array_equal(heads[b * 3 + h], x[b, :, 2 * h:2 * h + 2])

    def test_round_trips_are_exact(self):
        x = np.random.default_rng(71).normal(size=(2, 4, 6))
        for heads in (1, 2, 3, 6):
            split = ad.split_heads(Tensor(x), heads)
            np.testing.assert_array_equal(ad.merge_heads(split, heads).data, x)
            stacked = Tensor(split.data)
            np.testing.assert_array_equal(
                ad.split_heads(ad.merge_heads(stacked, heads), heads).data, split.data)

    def test_gradients(self):
        a = rand_tensor((2, 4, 6), 72)
        s = rand_tensor((6, 4, 3), 73)
        self.check(lambda a: scalarize(ad.split_heads(a, 2)), a)
        self.check(lambda a: scalarize(ad.split_heads(a, 3)), a)
        self.check(lambda s: scalarize(ad.merge_heads(s, 2)), s)
        self.check(lambda s: scalarize(ad.merge_heads(s, 3)), s)

    def test_two_row_table(self):
        # k = 2: sample s takes the first n entries of row s % 2.
        a = rand_tensor((4, 3, 5), 74)
        table = rand_tensor((2, 7), 75)
        self.check(lambda a, t: scalarize(ad.mul_rowvec(a, ad.exp(t))), a, table)
        out = ad.mul_rowvec(a, table).data
        for s in range(4):
            row = Tensor(table.data[s % 2:s % 2 + 1])
            np.testing.assert_array_equal(out[s], ad.mul_rowvec(Tensor(a.data[s]), row).data)
        zero_grad([a, table])
        scalarize(ad.mul_rowvec(a, table)).backward()
        assert np.abs(table.grad[:, :5]).min() > 0
        np.testing.assert_array_equal(table.grad[:, 5:], 0.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ad.split_heads(rand_tensor((2, 3, 5), 0), 2)  # width not divisible
        with pytest.raises(ValueError):
            ad.split_heads(rand_tensor((3, 4), 1), 2)  # needs a (B, T, d) batch
        with pytest.raises(ValueError):
            ad.merge_heads(rand_tensor((3, 4, 2), 2), 2)  # 3 samples, 2 heads
        with pytest.raises(ValueError):
            ad.split_heads(rand_tensor((2, 3, 4), 3), 0)


class TestOpSemantics:
    def test_softmax_rows_sum_to_one(self):
        a = rand_tensor((6, 8), 30, scale=5.0)
        p = ad.softmax_rows(a)
        np.testing.assert_allclose(p.data.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_shift_invariance(self):
        a = np.random.default_rng(31).normal(size=(4, 5))
        p1 = ad.softmax_rows(Tensor(a)).data
        p2 = ad.softmax_rows(Tensor(a + 1000.0)).data
        np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_softmax_extreme_logits_stable(self):
        p = ad.softmax_rows(Tensor([[1e4, 0.0, -1e4]])).data
        assert np.isfinite(p).all()
        assert p[0, 0] == pytest.approx(1.0)

    def test_layer_norm_rows_standardized(self):
        a = rand_tensor((5, 16), 32, scale=4.0)
        y = ad.layer_norm(a).data
        np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.std(axis=1), 1.0, atol=1e-4)  # eps-limited

    def test_gelu_matches_erf_form(self):
        from scipy.special import erf

        x = np.linspace(-4, 4, 41)
        got = ad.gelu(Tensor(x[None, :])).data[0]
        want = x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_cross_entropy_uniform_logits(self):
        for c in (2, 5, 10):
            loss = ad.cross_entropy_logits(Tensor(np.zeros((1, c))), 0)
            assert loss.item() == pytest.approx(np.log(c), abs=1e-12)

    def test_cross_entropy_matches_log_softmax(self):
        z = np.random.default_rng(33).normal(size=(1, 7)) * 3
        t = 4
        loss = ad.cross_entropy_logits(Tensor(z), t).item()
        ref = -(z[0, t] - np.log(np.exp(z[0]).sum()))
        assert loss == pytest.approx(ref, abs=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ad.matmul(rand_tensor((2, 3), 0), rand_tensor((2, 3), 1))
        with pytest.raises(ValueError):
            ad.add(rand_tensor((2, 3), 0), rand_tensor((3, 2), 1))
        with pytest.raises(ValueError):
            ad.mul_rowvec(rand_tensor((2, 3), 0), rand_tensor((2,), 1))
        with pytest.raises(ValueError):
            ad.cross_entropy_logits(rand_tensor((2, 3), 0), 0)
        with pytest.raises(ValueError):
            ad.cross_entropy_logits(rand_tensor((1, 3), 0), 3)


class TestNoGrad:
    def test_outputs_have_no_graph(self):
        a, w, v = rand_tensor((2, 3, 4), 80), rand_tensor((4, 5), 81), rand_tensor((5,), 82)
        with ad.no_grad():
            outs = [ad.matmul(a, w), ad.matmul(a, w, bias=v), ad.add(a, a), ad.gelu(a),
                    ad.layer_norm(a), ad.softmax_rows(a), ad.exp(a), ad.mean_rows(a)]
        for out in outs:
            assert out.requires_grad is False
            assert out._parents == ()
            assert out._backward is None
        assert ad.matmul(a, w).requires_grad  # recording again after the block

    def test_same_values_as_with_a_graph(self):
        a, w, v = rand_tensor((2, 3, 4), 83), rand_tensor((4, 6), 84), rand_tensor((6,), 85)

        def run():
            h = ad.gelu(ad.matmul(a, w, bias=v))
            return ad.softmax_rows(ad.layer_norm(h)).data

        graph = run()
        with ad.no_grad():
            plain = run()
        assert graph.tobytes() == plain.tobytes()

    def test_mode_restored_after_exception(self):
        a = rand_tensor((2, 2), 86)
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("body failed")
        assert ad.exp(a).requires_grad

    def test_nested_blocks_restore_in_order(self):
        a = rand_tensor((2, 2), 87)
        with ad.no_grad():
            with ad.no_grad():
                assert not ad.exp(a).requires_grad
            assert not ad.exp(a).requires_grad  # the outer block still holds
        assert ad.exp(a).requires_grad

    def test_non_finite_outputs_still_rejected(self):
        big = Tensor(np.full((2, 2), 400.0), requires_grad=True)
        with ad.no_grad(), pytest.raises(NumericsError, match="exp"):
            ad.exp(ad.exp(big))


class TestGradientOwnership:
    def test_shared_add_gradient_is_not_aliased(self):
        # add hands one array to both parents; a later contribution to one
        # parent must not show up in the other.
        a, b = rand_tensor((3, 4), 90), rand_tensor((3, 4), 91)
        doubled = ad.scale(a, 2.0)  # created first, so its adjoint runs after add's
        out = ad.add(doubled, ad.add(a, b))
        scalarize(out).backward()
        # both adds pass on the same g: b keeps g, a gets g and then 2*g
        assert not np.shares_memory(a.grad, b.grad)
        np.testing.assert_allclose(a.grad, 3.0 * b.grad, rtol=1e-14)

    def test_fresh_contribution_is_adopted(self):
        x = Tensor(np.zeros((3, 4)), requires_grad=True)
        g = np.random.default_rng(92).normal(size=(3, 4))
        x.accumulate(g, fresh=True)
        assert x.grad is g
        y = Tensor(np.zeros((3, 4)), requires_grad=True)
        y.accumulate(g)  # not fresh: copied
        assert not np.shares_memory(y.grad, g)
        np.testing.assert_array_equal(y.grad, g)

    @pytest.mark.parametrize("fresh", [False, True])
    def test_transposed_first_gradient_gets_data_layout(self, fresh):
        x = Tensor(np.zeros((3, 4)), requires_grad=True)
        g = np.random.default_rng(93).normal(size=(4, 3))
        x.accumulate(g.T, fresh=fresh)
        assert x.grad.flags.c_contiguous
        assert not np.shares_memory(x.grad, g)
        np.testing.assert_array_equal(x.grad, g.T)
        # and a transposed data view gets a gradient buffer laid out like it
        v = Tensor(np.zeros((4, 3)).T, requires_grad=True)
        v.accumulate(np.ones((3, 4)), fresh=fresh)
        assert v.grad.strides == np.empty_like(v.data).strides
        assert not v.grad.flags.c_contiguous

    def test_later_contributions_add(self):
        x = Tensor(np.zeros((2, 2)), requires_grad=True)
        g = np.ones((2, 2))
        x.accumulate(g, fresh=True)
        x.accumulate(np.full((2, 2), 2.0))
        np.testing.assert_array_equal(x.grad, 3.0)

    def test_gradient_buffer_gets_data_layout(self):
        # a first contribution that cannot be adopted is copied into a
        # buffer laid out like data, also for a 3-D last-two-axes swap
        v = Tensor(np.zeros((2, 4, 3)).swapaxes(1, 2), requires_grad=True)
        v.accumulate(np.ones((2, 3, 4)))
        assert v.grad.strides == np.empty_like(v.data).strides
        assert not v.grad.flags.c_contiguous
        x = Tensor(np.zeros((2, 3, 4)), requires_grad=True)
        x.accumulate(np.ones((2, 4, 3)).swapaxes(1, 2), fresh=True)
        assert x.grad.flags.c_contiguous


def _ulps(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Distance in units in the last place, counting across zero (+0 and -0 are 0 apart)."""
    def ordered(x):
        bits = x.view(np.int64)
        return np.where(bits < 0, np.int64(-2**63) - bits, bits)
    return np.abs(ordered(got) - ordered(want))


def _math_erf(x: np.ndarray) -> np.ndarray:
    return np.array([math.erf(v) for v in x.ravel()]).reshape(x.shape)


# s_erf.c's 1/0.35 edge: the double whose high word is 0x4006DB6E, low word 0
_ONE_OVER_0_35 = float(np.array(0x4006DB6E << 32, dtype=np.uint64).view(np.float64))


class TestErf:
    """The GELU's erf kernel against ``math.erf`` (the C library's erf)."""

    def erf(self, x):
        return ad._erf(x, np.empty_like(x))

    @pytest.mark.parametrize("sigma", [None, 0.3, 1.0, 3.0], ids=["grid", "0.3", "1", "3"])
    def test_within_one_ulp(self, sigma):
        if sigma is None:
            x = np.linspace(-7.0, 7.0, 140_001)
        else:
            x = np.random.default_rng(110).normal(0.0, sigma, size=(50, 16, 64))
        assert _ulps(self.erf(x), _math_erf(x)).max() <= 1

    @pytest.mark.parametrize("edge", [0.84375, 1.25, _ONE_OVER_0_35, 6.0],
                             ids=["0.84375", "1.25", "1/0.35", "6"])
    def test_region_boundaries(self, edge):
        below, above = [edge], [edge]
        for _ in range(8):
            below.append(np.nextafter(below[-1], 0.0))
            above.append(np.nextafter(above[-1], np.inf))
        half = np.array(below[::-1] + above[1:])
        x = np.concatenate([half, -half])
        assert _ulps(self.erf(x), _math_erf(x)).max() <= 1

    def test_zeros_subnormals_and_huge_values(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, 1e-310, -2.2e-308, 1e-300, 2.0**-28,
                      1e-9, 6.5, 1e10, 1e300, -1e300, np.finfo(np.float64).max])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = self.erf(x)
        assert _ulps(got, _math_erf(x)).max() <= 1
        assert np.signbit(got[1]) and not np.signbit(got[0])
        np.testing.assert_array_equal(got[-5:], [1.0, 1.0, 1.0, -1.0, 1.0])

    def test_exactly_odd(self):
        x = np.random.default_rng(111).normal(0.0, 2.0, size=20_000)
        assert self.erf(-x).tobytes() == (-self.erf(x)).tobytes()

    def test_in_place_call_agrees(self):
        x = np.random.default_rng(112).normal(0.0, 1.5, size=(4, 16, 64))
        want = self.erf(x)
        inplace = x.copy()
        assert ad._erf(inplace, inplace) is inplace
        assert inplace.tobytes() == want.tobytes()


class TestFusedSoftmaxScale:
    @pytest.mark.parametrize("shape", [(4, 6), (3, 4, 6)])
    def test_equals_softmax_of_scale_bit_for_bit(self, shape):
        a = rand_tensor(shape, 113, scale=3.0)
        c = 1.0 / np.sqrt(8.0)  # not a power of two, so every product rounds
        fused = ad.softmax_rows(a, c)
        scalarize(fused).backward()
        fused_grad = a.grad.copy()
        zero_grad([a])
        split = ad.softmax_rows(ad.scale(a, c))
        scalarize(split).backward()
        assert fused.data.tobytes() == split.data.tobytes()
        assert fused_grad.tobytes() == a.grad.tobytes()

    def test_gradients(self):
        a = rand_tensor((3, 4, 6), 114, scale=2.0)
        assert grad_check(lambda: scalarize(ad.softmax_rows(a, -0.7)), [a], h=1e-5) < 1e-6

    def test_default_scale_is_the_textbook_softmax_bit_for_bit(self):
        a = rand_tensor((3, 4, 6), 115, scale=3.0)
        g = np.random.default_rng(116).normal(size=a.shape)
        p = ad.softmax_rows(a)
        p.grad = g
        p._backward()  # the adjoint alone, on the upstream gradient g
        e = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        assert p.data.tobytes() == want.tobytes()
        want_grad = (g - (g * want).sum(axis=-1, keepdims=True)) * want
        assert a.grad.tobytes() == want_grad.tobytes()


class TestFusedBias:
    @pytest.mark.parametrize("shape", [(4, 6), (3, 4, 6)])
    def test_equals_add_rowvec_bit_for_bit(self, shape):
        a, w, v = rand_tensor(shape, 100), rand_tensor((6, 5), 101), rand_tensor((5,), 102)
        fused = ad.matmul(a, w, bias=v)
        scalarize(fused).backward()
        fused_grads = [t.grad.copy() for t in (a, w, v)]
        zero_grad([a, w, v])
        split = ad.add_rowvec(ad.matmul(a, w), v)
        scalarize(split).backward()
        assert fused.data.tobytes() == split.data.tobytes()
        for got, t in zip(fused_grads, (a, w, v)):
            assert got.tobytes() == t.grad.tobytes()

    @pytest.mark.parametrize("shape", [(4, 6), (3, 4, 6)])
    def test_gradients(self, shape):
        a, w, v = rand_tensor(shape, 103), rand_tensor((6, 5), 104), rand_tensor((5,), 105)
        err = grad_check(lambda: scalarize(ad.matmul(a, w, bias=v)), [a, w, v], h=1e-5)
        assert err < 1e-6

    def test_per_sample_stack_with_bias(self):
        a, m, v = rand_tensor((2, 3, 4), 106), rand_tensor((2, 4, 5), 107), rand_tensor((5,), 108)
        err = grad_check(lambda: scalarize(ad.matmul(a, m, bias=v)), [a, m, v], h=1e-5)
        assert err < 1e-6

    def test_bias_shape_checked(self):
        a, w = rand_tensor((4, 6), 109), rand_tensor((6, 5), 110)
        for bad in ((6,), (1, 5), (4,)):
            with pytest.raises(ValueError, match="bias"):
                ad.matmul(a, w, bias=rand_tensor(bad, 111))


class TestGradCheckApi:
    def test_catalog_is_exactly_the_contract(self):
        assert sorted(op_catalog()) == sorted(
            [
                "matmul", "transpose", "split_heads", "merge_heads",
                "add", "subtract", "multiply", "scale",
                "mul_rowvec", "mul_colvec", "add_rowvec", "softmax_rows",
                "exp", "mean_rows", "layer_norm", "gelu", "cross_entropy_logits",
            ]
        )
        for name, fn in op_catalog().items():
            assert callable(fn), name

    def test_benchmark_op_counters_are_in_the_catalog(self):
        # The benchmark registers a call counter per catalog op; an op it
        # names that leaves the catalog would break its traced run.
        spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
        prefix, suffix = "autodiff.op.", ".calls"
        named = [m["name"][len(prefix):-len(suffix)] for m in spec["per_layer"]
                 if m["name"].startswith(prefix) and m["name"].endswith(suffix)]
        assert named
        assert sorted(set(named) - set(op_catalog())) == []

    def test_step_size_range_enforced(self):
        x = rand_tensor((1, 2), 0)
        f = lambda: ad.cross_entropy_logits(x, 0)
        for bad in (1e-8, 1e-2, 0.0):
            with pytest.raises(ValueError):
                grad_check(f, [x], h=bad)
        assert grad_check(f, [x], h=1e-7) < 1e-4
        assert grad_check(f, [x], h=1e-3) < 1e-4

    def test_rejects_non_scalar_f(self):
        x = rand_tensor((2, 2), 1)
        with pytest.raises(ValueError):
            grad_check(lambda: ad.exp(x), [x])

    def test_rejects_non_finite_params(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        x.data[0, 0] = np.inf
        with pytest.raises(ValueError):
            grad_check(lambda: ad.cross_entropy_logits(x, 0), [x])

    def test_detects_wrong_gradient(self):
        # A deliberately broken adjoint must be caught by the checker.
        x = Tensor([[0.3, -0.2]], requires_grad=True)

        def broken():
            out = ad.exp(x)
            wrong = Tensor(out.data, requires_grad=True, _parents=(x,), _op="broken")
            wrong._backward = lambda: x.accumulate(wrong.grad)  # missing *e^x
            return ad.cross_entropy_logits(wrong, 0)

        assert grad_check(broken, [x], h=1e-5) > 1e-3
