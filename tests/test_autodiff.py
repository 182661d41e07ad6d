import tracemalloc
import weakref

import numpy as np
import pytest

from swarmcomm import autodiff as ad
from swarmcomm.autodiff import (
    NonFiniteValue,
    ParamStore,
    ShapeMismatch,
    Tape,
    Tensor,
    adam_step,
    backward,
    clip_grads,
)

import reference
from conftest import central_difference, make_rng, relative_error


def grad_of(build, x0: np.ndarray) -> np.ndarray:
    """Reverse-mode gradient of a scalar-valued builder over a flat leaf vector."""
    tape = Tape()
    x = tape.leaf(x0, requires_grad=True)
    out = build(x)
    grads = backward(tape, out)
    return grads[x.node_id]


class TestPrimitiveForward:
    def test_softmax_of_zeros_is_uniform(self):
        out = reference.softmax(np.array([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_softmax_of_one_zero(self):
        out = reference.softmax(np.array([1.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.7310585786300049, 0.2689414213699951], atol=1e-12)

    def test_matmul_identity(self):
        v = np.array([3.0, -2.0])
        out = ad.matmul(np.eye(2), v)
        np.testing.assert_allclose(out.data, v)

    def test_l2_norm(self):
        out = reference.l2_norm(np.array([3.0, 4.0]))
        np.testing.assert_allclose(out.data, 5.0)

    def test_relu(self):
        out = reference.relu(np.array([-1.0, 0.0, 2.5]))
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.5])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeMismatch):
            ad.matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_non_finite_result_raises(self):
        with pytest.raises(NonFiniteValue):
            reference.div(np.array([1.0]), np.array([0.0]))

    def test_ops_without_tape_return_plain_tensors(self):
        out = ad.add(np.ones(3), np.ones(3))
        assert isinstance(out, Tensor)
        assert out.tape is None


class TestBackwardBasics:
    def test_square_gradient(self):
        g = grad_of(lambda x: ad.mul(x, x), np.array(3.0))
        np.testing.assert_allclose(g, 6.0)

    def test_product_gradients(self):
        tape = Tape()
        x = tape.leaf(np.array(2.0), requires_grad=True)
        y = tape.leaf(np.array(5.0), requires_grad=True)
        out = ad.mul(x, y)
        grads = backward(tape, out)
        np.testing.assert_allclose(grads[x.node_id], 5.0)
        np.testing.assert_allclose(grads[y.node_id], 2.0)

    def test_backward_requires_scalar(self):
        tape = Tape()
        x = tape.leaf(np.ones(3), requires_grad=True)
        y = ad.mul(x, 2.0)
        with pytest.raises(ad.AutodiffError):
            backward(tape, y)

    def test_unused_leaf_gets_zero_gradient(self):
        tape = Tape()
        x = tape.leaf(np.array(1.0), requires_grad=True)
        unused = tape.leaf(np.ones(4), requires_grad=True)
        out = ad.mul(x, x)
        grads = backward(tape, out)
        np.testing.assert_allclose(grads[unused.node_id], np.zeros(4))

    def test_gradient_of_sum_is_sum_of_gradients(self):
        rng = make_rng(3)
        x0 = rng.normal(size=5)

        def f(x):
            return ad.tensor_sum(ad.mul(x, x))

        def g(x):
            return ad.tensor_sum(ad.tanh(x))

        grad_f = grad_of(f, x0)
        grad_g = grad_of(g, x0)
        grad_fg = grad_of(lambda x: ad.add(f(x), g(x)), x0)
        np.testing.assert_allclose(grad_fg, grad_f + grad_g, rtol=1e-12)


def _fd_check(build, x0, tol=1e-5):
    analytic = grad_of(build, x0)

    def scalar(v):
        return float(build(Tensor(v.reshape(x0.shape))).data)

    numeric = central_difference(scalar, x0.ravel()).reshape(x0.shape)
    assert relative_error(analytic, numeric) < tol


class TestFiniteDifferences:
    """Every primitive against the central-difference oracle, kinks avoided."""

    def test_add_sub_mul_div(self):
        rng = make_rng(7)
        c = rng.normal(size=(3, 4)) + 3.0
        _fd_check(lambda x: ad.tensor_sum(ad.mul(ad.add(x, c), ad.sub(x, 0.5))), rng.normal(size=(3, 4)))
        _fd_check(lambda x: ad.tensor_sum(reference.div(x, c)), rng.normal(size=(3, 4)))

    def test_matmul(self):
        rng = make_rng(8)
        w = rng.normal(size=(4, 2))
        _fd_check(lambda x: ad.tensor_sum(ad.matmul(x, w)), rng.normal(size=(3, 4)))
        _fd_check(lambda x: ad.tensor_sum(ad.matmul(np.ones((2, 3)), x)), rng.normal(size=(3, 4)))

    def test_tanh_exp_sqrt(self):
        rng = make_rng(9)
        _fd_check(lambda x: ad.tensor_sum(ad.tanh(x)), rng.normal(size=6))
        _fd_check(lambda x: ad.tensor_sum(reference.sqrt(x)), rng.uniform(0.5, 2.0, size=6))

    def test_relu_away_from_kink(self):
        rng = make_rng(10)
        x0 = rng.normal(size=8)
        x0[np.abs(x0) < 0.2] = 0.5
        _fd_check(lambda x: ad.tensor_sum(reference.relu(x)), x0)

    def test_softmax(self):
        rng = make_rng(11)
        v = rng.normal(size=(2, 5))
        _fd_check(lambda x: ad.tensor_sum(ad.mul(reference.softmax(x), v)), rng.normal(size=(2, 5)))

    def test_norms(self):
        rng = make_rng(12)
        x0 = rng.normal(size=(3, 4))
        x0[np.abs(x0) < 0.2] = 0.4
        _fd_check(lambda x: ad.tensor_sum(reference.l2_norm(x)), x0)

    def test_reductions(self):
        rng = make_rng(13)
        x0 = rng.normal(size=(4, 5))
        _fd_check(lambda x: ad.tensor_sum(ad.tensor_sum(x, axis=1)), x0)
        # unique maxima so max is differentiable at the test point
        x0 = np.arange(20.0).reshape(4, 5) + rng.normal(size=(4, 5)) * 0.01
        _fd_check(lambda x: ad.tensor_sum(reference.tensor_max(x, axis=1)), x0)
        _fd_check(lambda x: reference.tensor_max(x), x0)

    def test_shape_ops(self):
        rng = make_rng(14)
        w = rng.normal(size=(2, 3, 8))
        _fd_check(lambda x: ad.tensor_sum(ad.mul(ad.reshape(x, (4, 6)), 2.0)), rng.normal(size=(2, 3, 4)))
        _fd_check(
            lambda x: ad.tensor_sum(ad.mul(reference.transpose(x, (2, 0, 1)), np.ones((4, 2, 3)))),
            rng.normal(size=(2, 3, 4)),
        )
        _fd_check(
            lambda x: ad.tensor_sum(ad.mul(ad.getitem(x, (slice(1, None), slice(None, 2))), 3.0)),
            rng.normal(size=(3, 4)),
        )
        _fd_check(
            lambda x: ad.tensor_sum(ad.mul(ad.concat([x, x], axis=-1), w)),
            rng.normal(size=(2, 3, 4)),
        )

    def test_take_along_last(self):
        rng = make_rng(15)
        idx = np.stack([rng.permutation(5) for _ in range(3)])
        w = rng.normal(size=(3, 5))
        _fd_check(lambda x: ad.tensor_sum(ad.mul(reference.take_along_last(x, idx), w)), rng.normal(size=(3, 5)))

    def test_broadcasting_paths(self):
        rng = make_rng(16)
        _fd_check(lambda x: ad.tensor_sum(ad.mul(ad.reshape(x, (1, 4)), np.ones((3, 4)))), rng.normal(size=4))
        _fd_check(
            lambda x: ad.tensor_sum(ad.add(ad.reshape(x, (2, 1, 3)), np.ones((2, 4, 3)))),
            rng.normal(size=(2, 3)),
        )

    def test_two_layer_tanh_network_matches_fd(self):
        # random small networks: gradient w.r.t. every weight vs finite differences
        rng = make_rng(17)
        for _ in range(5):
            sizes = (int(rng.integers(2, 5)), int(rng.integers(2, 6)), int(rng.integers(1, 4)))
            x_in = rng.normal(size=(3, sizes[0]))
            w2 = rng.normal(size=(sizes[1], sizes[2]))
            w1_0 = rng.normal(size=(sizes[0], sizes[1]))

            def build(w1):
                h = ad.tanh(ad.matmul(x_in, ad.reshape(w1, (sizes[0], sizes[1]))))
                return ad.tensor_sum(ad.tanh(ad.matmul(h, w2)))

            _fd_check(build, w1_0.ravel())


def _mlp_chain(x, w1, b1, w2, b2):
    return ad.add(ad.matmul(ad.tanh(ad.add(ad.matmul(x, w1), b1)), w2), b2)


class TestFusedMlp:
    """reference.mlp, the mlp_forward and mlp_vjp kernels as one op, against the matmul/add/tanh chain."""

    @staticmethod
    def _weights(rng, d_in=3, hidden=5, d_out=2):
        return (
            rng.normal(size=(d_in, hidden)),
            rng.normal(size=hidden),
            rng.normal(size=(hidden, d_out)),
            rng.normal(size=d_out),
        )

    def test_forward_off_the_tape_is_bitwise_the_chain(self):
        rng = make_rng(40)
        x = rng.normal(size=(7, 3))
        weights = self._weights(rng)
        fused = reference.mlp(x, *weights)
        assert fused.tape is None
        assert np.array_equal(fused.data, _mlp_chain(x, *weights).data)

    def test_taped_values_and_gradients_are_bitwise_the_chain(self):
        rng = make_rng(41)
        x0 = rng.normal(size=(6, 3))
        weights0 = self._weights(rng)
        proj = rng.normal(size=(6, 2))

        def run(net):
            tape = Tape()
            x = tape.leaf(x0, requires_grad=True)
            weights = [tape.leaf(w, requires_grad=True) for w in weights0]
            # x and the weights feed two nets, so their gradients accumulate
            first = net(x, *weights)
            second = net(ad.tanh(x), *weights)
            loss = ad.add(ad.tensor_sum(ad.mul(first, proj)), ad.tensor_sum(ad.mul(second, second)))
            grads = backward(tape, loss)
            return first.data, loss.data, [grads[t.node_id] for t in (x, *weights)], len(tape.records)

        fused, chain = run(reference.mlp), run(_mlp_chain)
        assert np.array_equal(fused[0], chain[0])
        assert np.array_equal(fused[1], chain[1])
        for g_fused, g_chain in zip(fused[2], chain[2]):
            assert np.array_equal(g_fused, g_chain)
        assert fused[3] == chain[3] - 8  # one record per net instead of five

    def test_gradients_match_central_differences(self):
        rng = make_rng(42)
        shapes = [(4, 3), (3, 5), (5,), (5, 2), (2,)]
        sizes = [int(np.prod(s)) for s in shapes]
        offsets = np.cumsum([0] + sizes)
        proj = rng.normal(size=(4, 2))

        def build(flat):
            parts = [
                ad.reshape(ad.getitem(flat, slice(lo, hi)), shape) for lo, hi, shape in zip(offsets, offsets[1:], shapes)
            ]
            return ad.tensor_sum(ad.mul(reference.mlp(*parts), proj))

        _fd_check(build, rng.normal(size=offsets[-1]))

    def test_overflow_in_the_first_layer_raises_on_the_tape(self):
        tape = Tape()
        x = tape.leaf(np.full((2, 3), 1e200))
        weights = (np.full((3, 4), 1e200), np.zeros(4), np.ones((4, 2)), np.zeros(2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteValue):
                _mlp_chain(x, *weights)
            with pytest.raises(NonFiniteValue):
                reference.mlp(x, *weights)

    def test_shapes_that_do_not_chain_raise(self):
        rng = make_rng(43)
        w1, b1, w2, b2 = self._weights(rng)
        with pytest.raises(ShapeMismatch):
            reference.mlp(rng.normal(size=(2, 4)), w1, b1, w2, b2)
        with pytest.raises(ShapeMismatch):
            reference.mlp(rng.normal(size=(2, 3)), w1, b2, w2, b2)
        with pytest.raises(ShapeMismatch):
            reference.mlp(rng.normal(size=3), w1, b1, w2, b2)


class TestTapeMechanics:
    def test_mixed_tape_rejected(self):
        t1, t2 = Tape(), Tape()
        a = t1.leaf(np.ones(2))
        b = t2.leaf(np.ones(2))
        with pytest.raises(ad.AutodiffError):
            ad.add(a, b)

    def test_records_are_topologically_ordered(self):
        tape = Tape()
        x = tape.leaf(np.ones(2), requires_grad=True)
        y = ad.add(ad.mul(x, 2.0), ad.tanh(x))
        ad.tensor_sum(y)
        produced = {x.node_id}  # the weights; a constant input has no id
        for rec in tape.records:
            assert all(i is None or i in produced for i in rec.input_ids)
            assert rec.output_id not in produced
            produced.add(rec.output_id)

    def test_an_op_on_constants_only_adds_no_record(self):
        tape = Tape()
        w = tape.leaf(np.ones(3), requires_grad=True)
        noise = tape.constant(np.arange(3.0))
        scaled = ad.tanh(ad.mul(noise, 0.5))
        assert tape.records == []
        assert noise.node_id is None and scaled.node_id is None
        assert scaled.tape is tape  # still attached: mixing tapes raises, results are checked
        with pytest.raises(ad.AutodiffError):
            ad.add(scaled, Tape().leaf(np.ones(3)))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteValue):
            ad.mul(tape.constant(np.full(3, 1e200)), 1e200)
        out = ad.tensor_sum(ad.mul(w, scaled))
        assert [rec.op for rec in tape.records] == ["mul", "sum"]
        assert tape.records[0].input_ids == (w.node_id, None)
        np.testing.assert_array_equal(backward(tape, out)[w.node_id], scaled.data)

    def test_a_constant_is_freed_once_the_caller_drops_it(self):
        tape = Tape()
        w = tape.leaf(np.ones(3), requires_grad=True)
        noise = np.arange(3.0)
        alive = weakref.ref(noise)
        out = ad.tensor_sum(ad.add(w, noise))  # add's vjp saves only shapes
        del noise
        assert alive() is None
        np.testing.assert_array_equal(backward(tape, out)[w.node_id], np.ones(3))

    @pytest.mark.parametrize("op", [reference.relu, reference.l2_norm, ad.tanh])
    def test_an_op_on_constants_only_saves_nothing_for_a_vjp(self, op):
        tape = Tape()
        x = tape.constant(make_rng(5).normal(size=(500, 500)))
        tracemalloc.start()
        try:
            out = op(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result, plus the finiteness check's bool array and l2_norm's squares
        allowed = out.data.nbytes + x.data.size + (x.data.nbytes if op is reference.l2_norm else 0)
        assert out.node_id is None and tape.records == []
        assert peak <= allowed + 64 * 1024

    def test_a_weight_no_gradient_reaches_gets_zeros_of_its_shape(self):
        tape = Tape()
        w = tape.leaf(np.ones(2), requires_grad=True)
        unused_value = np.ones((2, 3))
        unused = tape.leaf(unused_value, requires_grad=True)
        alive = weakref.ref(unused_value)
        unused_id = unused.node_id
        del unused, unused_value  # the tape keeps the weight's shape, not its array
        assert alive() is None
        grads = backward(tape, ad.tensor_sum(ad.mul(w, w)))
        assert set(grads) == {w.node_id, unused_id}
        assert grads[unused_id].shape == (2, 3) and not grads[unused_id].any()


class TestSpentTape:
    """backward computes only the gradients that reach a weight and frees the tape as it walks it."""

    def test_second_backward_raises(self):
        tape = Tape()
        x = tape.leaf(np.array([1.0, 2.0]), requires_grad=True)
        out = ad.tensor_sum(ad.mul(x, x))
        backward(tape, out)
        assert tape.spent
        with pytest.raises(ad.AutodiffError, match="already ran"):
            backward(tape, out)

    def test_rejected_output_spends_nothing(self):
        tape = Tape()
        x = tape.leaf(np.array([1.0, 2.0]), requires_grad=True)
        y = ad.mul(x, x)
        with pytest.raises(ad.AutodiffError):
            backward(tape, y)
        with pytest.raises(ad.AutodiffError):
            backward(Tape(), ad.tensor_sum(y))
        assert not tape.spent
        grads = backward(tape, ad.tensor_sum(y))
        np.testing.assert_array_equal(grads[x.node_id], [2.0, 4.0])

    def test_saved_intermediate_is_freed_and_records_kept(self):
        tape = Tape()
        x = tape.leaf(make_rng(0).normal(size=(300, 300)), requires_grad=True)
        h = ad.tanh(x)
        saved = weakref.ref(h.data)
        out = ad.tensor_sum(ad.mul(h, h))
        del h
        n_records = len(tape.records)
        assert saved() is not None  # the tanh and mul vjps hold it
        backward(tape, out)
        assert saved() is None
        assert len(tape.records) == n_records
        assert all(rec.vjp is None for rec in tape.records)

    def test_only_inputs_that_reach_a_weight_need_a_gradient(self):
        tape = Tape()
        w = tape.leaf(np.ones(3), requires_grad=True)
        noise = tape.constant(np.arange(3.0))
        masked = ad.mul(noise, tape.constant(np.array([1.0, 0.0, 1.0])))
        out = ad.tensor_sum(reference.div(ad.add(w, masked), 2.0))
        # the mul of two constants is not recorded; an input needs a gradient exactly when it has an id
        added, divided, _ = tape.records
        assert [rec.input_ids for rec in tape.records] == [(w.node_id, None), (added.output_id, None), (divided.output_id,)]
        asked = []
        rec = tape.records[0]
        vjp = rec.vjp
        rec.vjp = lambda g, need: asked.append(need) or vjp(g, need)
        grads = backward(tape, out)
        assert asked == [(True, False)]
        np.testing.assert_array_equal(grads[w.node_id], np.full(3, 0.5))
        assert set(grads) == {w.node_id}


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        store = ParamStore({"w": np.array([1.0, -2.0])})
        before = store.params["w"].copy()
        adam_step(store, {"w": np.zeros(2)})
        np.testing.assert_allclose(store.params["w"], before)
        assert store.step_count == 1

    def test_first_step_moves_by_lr_in_sign_direction(self):
        store = ParamStore({"w": np.zeros(3)})
        g = np.array([0.5, -2.0, 1e-3])
        adam_step(store, {"w": g}, lr=0.1)
        # bias-corrected first step is ~ lr * sign(g)
        np.testing.assert_allclose(store.params["w"], -0.1 * np.sign(g), rtol=1e-4)

    def test_quadratic_descent_shrinks_then_settles(self):
        # direct simulation of f(x) = x^2 from x = 1 at lr = 0.1: |x| decreases
        # monotonically while approaching the optimum (momentum overshoots once
        # it arrives, around step 11), and later iterates stay near zero
        store = ParamStore({"x": np.array([1.0])})
        values = [abs(float(store.params["x"][0]))]
        for _ in range(100):
            g = 2.0 * store.params["x"]
            adam_step(store, {"x": g}, lr=0.1)
            values.append(abs(float(store.params["x"][0])))
        assert all(b < a for a, b in zip(values[:11], values[1:11]))
        assert values[100] < 0.05
        assert max(values[11:]) < 0.3

    def test_non_finite_gradient_rejected(self):
        store = ParamStore({"w": np.zeros(2)})
        with pytest.raises(NonFiniteValue):
            adam_step(store, {"w": np.array([np.nan, 0.0])})

    def test_shape_mismatch_rejected(self):
        store = ParamStore({"w": np.zeros(2)})
        with pytest.raises(ShapeMismatch):
            adam_step(store, {"w": np.zeros(3)})

    def test_clip_grads(self):
        grads = {"a": np.array([3.0, 4.0])}
        clipped, norm = clip_grads(grads, 1.0)
        assert norm == pytest.approx(5.0)
        assert ad.global_grad_norm(clipped) == pytest.approx(1.0)
        same, _ = clip_grads(grads, 100.0)
        np.testing.assert_allclose(same["a"], grads["a"])


class TestParamStore:
    def test_duplicate_names_rejected(self):
        # dict keys collapse duplicates upstream; the guard covers copies
        store = ParamStore({"w": np.ones(2)})
        dup = store.copy()
        assert dup.params["w"] is not store.params["w"]
