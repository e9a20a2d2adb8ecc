import json
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clnce.encoder import (
    ROW_BLOCK,
    EncoderModel,
    _views,
    backward,
    embed,
    forward,
    init_model,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    sgd_step,
)
from clnce.errors import NumericError, ParameterError, ShapeError, SizeError, StateError
from oracles import backward_reference, forward_reference

# the lr, momentum and weight decay of a step for tests that do not depend on them
STEP = dict(lr=0.1, momentum=0.95, weight_decay=1e-4)


def straight_line_forward(model, x):
    """Independent re-implementation used as an oracle for forward()."""
    h = np.array(x, dtype=np.float64)
    for w, b in model.encoder_layers:
        h = np.maximum(h @ w + b, 0.0)
    n_proj = len(model.projection_layers)
    for li, (w, b) in enumerate(model.projection_layers):
        h = h @ w + b
        if li != n_proj - 1:
            h = np.maximum(h, 0.0)
    norms = np.sqrt((h * h).sum(axis=1))
    out = np.zeros_like(h)
    for i in range(h.shape[0]):
        if norms[i] > 0:
            out[i] = h[i] / norms[i]
    return out


class TestForward:
    def test_zero_model_degenerate_rows(self):
        model = init_model([3, 4], [4, 2], seed=0)
        for w, b in model.encoder_layers + model.projection_layers:
            w[...] = 0.0
            b[...] = 0.0
        enc_out, proj_out, cache = forward(model, np.ones((2, 3)))
        assert (enc_out == 0).all()
        assert (proj_out == 0).all()
        assert (cache.norms == 0).all()

    def test_identity_layer_positive_input(self):
        model = EncoderModel([3, 3], [3, 3])
        for w, _ in model.encoder_layers + model.projection_layers:
            w[...] = np.eye(3)
        x = np.abs(np.random.default_rng(0).normal(size=(4, 3))) + 0.1
        enc_out, proj_out, _ = forward(model, x)
        np.testing.assert_allclose(enc_out, x, atol=1e-15)
        np.testing.assert_allclose(
            proj_out, x / np.linalg.norm(x, axis=1, keepdims=True), atol=1e-15
        )

    def test_input_left_unchanged(self):
        # each ReLU runs in place on a fresh affine output, never on x
        model = init_model([3, 4, 5], [5, 2], seed=0)
        x = np.random.default_rng(0).normal(size=(5, 3))
        before = x.copy()
        forward(model, x)
        assert (x == before).all()

    def test_matches_straight_line_oracle(self):
        model = init_model([5, 8, 6], [6, 4, 3], seed=3)
        x = np.random.default_rng(1).normal(size=(7, 5))
        _, proj_out, _ = forward(model, x)
        np.testing.assert_allclose(proj_out, straight_line_forward(model, x), atol=1e-12)

    def test_projection_rows_unit_norm(self):
        model = init_model([4, 6], [6, 3], seed=2)
        x = np.random.default_rng(4).normal(size=(10, 4))
        _, proj_out, cache = forward(model, x)
        norms = np.linalg.norm(proj_out[cache.norms != 0], axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_width_mismatch(self):
        model = init_model([4, 6], [6, 3], seed=2)
        with pytest.raises(ShapeError):
            forward(model, np.zeros((2, 5)))

    def test_non_finite_output(self):
        model = init_model([4, 6], [6, 3], seed=2)
        with pytest.raises(NumericError, match="non-finite projection output"):
            forward(model, np.full((2, 4), np.nan))


def assert_same_bits(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class TestTwoLoopOracle:
    """The one-loop forward and the cache-reading backward give the bits of
    the original two-loop forward and renormalising backward."""

    @settings(max_examples=80)
    @given(
        encoder_widths=st.lists(st.integers(1, 9), min_size=2, max_size=4),
        projection_widths=st.lists(st.integers(1, 5), min_size=1, max_size=3),
        rows=st.integers(1, 12),
        zero_rows=st.integers(0, 3),
        biased=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(encoder_widths=[1, 1], projection_widths=[1], rows=1, zero_rows=0,
             biased=True, seed=0)
    @example(encoder_widths=[3, 1, 4], projection_widths=[2, 1], rows=5, zero_rows=0,
             biased=False, seed=1)
    @example(encoder_widths=[4, 6], projection_widths=[3], rows=1, zero_rows=1,
             biased=False, seed=2)
    @example(encoder_widths=[5, 8, 6], projection_widths=[4, 3], rows=7, zero_rows=3,
             biased=False, seed=3)
    def test_bit_identical_to_oracle(self, encoder_widths, projection_widths, rows,
                                     zero_rows, biased, seed):
        model = init_model(encoder_widths, [encoder_widths[-1], *projection_widths],
                           seed=seed % 1000)
        rng = np.random.default_rng(seed)
        if biased:
            for _, b in model.encoder_layers + model.projection_layers:
                b[...] = rng.normal(size=b.shape)  # exercise dead and live units
        x = rng.normal(scale=3.0, size=(rows, encoder_widths[0]))
        x[:zero_rows] = 0.0
        upstream = rng.normal(size=(rows, projection_widths[-1]))

        enc_out, proj_out, cache = forward(model, x)
        ref_enc, ref_proj, ref = forward_reference(model, x)
        assert_same_bits(enc_out, ref_enc)
        assert_same_bits(proj_out, ref_proj)
        assert len(cache.inputs) == len(ref["inputs"])
        for h, ref_h in zip(cache.inputs, ref["inputs"]):
            assert_same_bits(h, ref_h)
        assert_same_bits(cache.norms, ref["norms"])
        assert_same_bits(cache.norms == 0, ref["degenerate"])
        if not biased:  # zero rows through zero biases stay zero
            assert (cache.norms[:zero_rows] == 0).all()

        grad = backward(model, cache, upstream)
        ref_grads = backward_reference(model, ref, upstream)
        for (gw, gb), (ref_gw, ref_gb) in zip(_views(grad, model.shapes), ref_grads, strict=True):
            assert_same_bits(gw, ref_gw)
            assert_same_bits(gb, ref_gb)


class TestEmbed:
    @settings(max_examples=60)
    @given(
        widths=st.lists(st.integers(1, 9), min_size=2, max_size=4),
        # within one block, and across blocks with every kind of tail,
        # 1-row tails included
        rows=st.one_of(st.integers(0, 12), st.sampled_from(
            [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, ROW_BLOCK + 2, 2 * ROW_BLOCK,
             2 * ROW_BLOCK + 1, 3 * ROW_BLOCK + 1, 3 * ROW_BLOCK + 77])),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(widths=[1, 1], rows=2 * ROW_BLOCK + 1, seed=0)
    @example(widths=[5, 1, 3], rows=ROW_BLOCK + 1, seed=1)
    @example(widths=[1, 7, 1], rows=3 * ROW_BLOCK + 77, seed=2)
    @example(widths=[9, 9], rows=1, seed=3)
    # a 1-row tail block would change the bits of these
    @example(widths=[9, 9], rows=3 * ROW_BLOCK + 1, seed=4)
    @example(widths=[2, 64], rows=ROW_BLOCK + 1, seed=1)
    @example(widths=[64, 128, 128], rows=2 * ROW_BLOCK + 1, seed=2)
    # BLAS runs a 256-row block of these through other kernels than all rows,
    # so the blocks differ from forward(model, x) in the last bits
    @example(widths=[32, 64, 17], rows=1000, seed=0)
    @example(widths=[32, 64, 17], rows=1000, seed=1)
    @example(widths=[64, 32, 17], rows=3500, seed=0)
    @example(widths=[64, 32, 17], rows=3500, seed=1)
    def test_bit_identical_to_forward(self, widths, rows, seed):
        # each block of ROW_BLOCK rows, the last with the rest and with a
        # 1-row rest joined to it, has the bits of forward on its rows
        model = init_model(widths, [widths[-1], 3], seed=seed % 1000)
        rng = np.random.default_rng(seed)
        for _, b in model.encoder_layers:
            b[...] = rng.normal(size=b.shape)  # exercise dead and live units
        x = rng.normal(scale=10.0, size=(rows, widths[0]))
        starts = list(range(0, rows, ROW_BLOCK)) or [0]
        if len(starts) > 1 and rows - starts[-1] == 1:
            starts.pop()
        edges = [*starts, rows]
        expected = np.concatenate(
            [forward(model, x[lo:hi])[0] for lo, hi in zip(edges, edges[1:])])
        got = embed(model, x)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        # into a column-major view, as the linear probe embeds its train rows
        out = np.empty((widths[-1], rows)).T
        assert embed(model, x, out=out) is out
        assert np.ascontiguousarray(out).tobytes() == expected.tobytes()

    def test_input_left_unchanged(self):
        model = init_model([3, 4], [4, 2], seed=0)
        x = np.random.default_rng(0).normal(size=(5, 3))
        before = x.copy()
        embed(model, x)
        assert (x == before).all()

    def test_width_mismatch(self):
        model = init_model([4, 6], [6, 3], seed=2)
        with pytest.raises(ShapeError):
            embed(model, np.zeros((2, 5)))

    @pytest.mark.parametrize("rows", [3, ROW_BLOCK + 3])
    def test_non_finite_block(self, rows):
        # weights that overflow on the last row only, in the first or a later block
        model = init_model([4, 6], [6, 3], seed=2)
        model.encoder_layers[0][0][...] = 1e300
        x = np.zeros((rows, 4))
        x[-1] = 1e10
        with np.errstate(all="raise"), pytest.raises(NumericError, match="non-finite encoder"):
            embed(model, x)


class TestBackward:
    def test_zero_upstream_gradient(self):
        model = init_model([3, 5], [5, 2], seed=1)
        x = np.random.default_rng(0).normal(size=(4, 3))
        _, proj, cache = forward(model, x)
        assert (backward(model, cache, np.zeros_like(proj)) == 0).all()

    def test_stale_cache(self):
        m1 = init_model([3, 5], [5, 2], seed=1)
        m2 = init_model([3, 5], [5, 2], seed=2)
        _, proj, cache = forward(m1, np.ones((2, 3)))
        with pytest.raises(StateError):
            backward(m2, cache, np.zeros_like(proj))

    def test_gradient_shape_mismatch(self):
        model = init_model([3, 5], [5, 2], seed=1)
        _, proj, cache = forward(model, np.ones((2, 3)))
        with pytest.raises(ShapeError, match="upstream gradient shape mismatch"):
            backward(model, cache, np.zeros((2, 3)))

    @pytest.mark.parametrize("seed", range(5))
    def test_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        # redraw until every ReLU pre-activation and row norm sits away from
        # its kink, where central differences are meaningless
        for attempt in range(100):
            model = init_model([4, 6, 5], [5, 3], seed=1000 * seed + attempt)
            x = rng.normal(size=(6, 4))
            _, _, probe = forward(model, x)
            margins = min(np.abs(z).min() for z in forward_reference(model, x)[2]["pre_acts"])
            if margins > 1e-3 and probe.norms.min() > 1e-2:
                break
        # random linear loss over projections keeps the check exact
        coeff = rng.normal(size=(6, 3))

        def loss_at(vec):
            model.params[...] = vec
            _, proj, _ = forward(model, x)
            return float((coeff * proj).sum())

        base = model.params.copy()
        _, proj, cache = forward(model, x)
        analytic = backward(model, cache, coeff)
        eps = 1e-6
        idx = rng.choice(base.size, size=40, replace=False)
        for i in idx:
            vp = base.copy()
            vp[i] += eps
            vm = base.copy()
            vm[i] -= eps
            fd = (loss_at(vp) - loss_at(vm)) / (2 * eps)
            scale = max(abs(fd), abs(analytic[i]), 1e-8)
            assert abs(fd - analytic[i]) / scale < 1e-5
        model.params[...] = base

    def test_single_linear_layer_outer_product(self):
        # loss = sum of raw projections requires bypassing the normalization,
        # so use the encoder gradient of a sum over normalized outputs of a
        # 1-sample batch where the structure is still analytic: check the
        # unnormalized case via a model whose projection output is 1-D.
        model = EncoderModel([2, 2], [2, 1])
        model.encoder_layers[0][0][...] = np.eye(2)
        model.projection_layers[0][0][...] = 1.0
        x = np.array([[2.0, 3.0]])
        _, proj, cache = forward(model, x)
        # 1-D normalized output is +-1 with zero gradient through the norm
        grad = backward(model, cache, np.ones_like(proj))
        proj_w_grad = _views(grad, model.shapes)[1][0]
        assert abs(proj_w_grad).max() < 1e-15


class TestScheduler:
    SCHEDULE = dict(peak_lr=0.4, warmup_steps=10, total_steps=110)

    def lr(self, step):
        return lr_at(step, **self.SCHEDULE)

    def test_warmup_endpoint(self):
        assert self.lr(10) == pytest.approx(0.4)

    def test_final_step_zero(self):
        assert self.lr(110) == pytest.approx(0.0, abs=1e-15)

    def test_decay_midpoint(self):
        assert self.lr(60) == pytest.approx(0.2)

    def test_continuity_at_boundary(self):
        assert abs(self.lr(9) - self.lr(10)) < 0.05

    def test_linear_warmup(self):
        assert self.lr(0) == pytest.approx(0.04)
        assert self.lr(4) == pytest.approx(0.2)

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            self.lr(111)

    def test_warmup_to_the_last_step_holds_the_peak(self):
        assert lr_at(9, 0.4, 10, 10) == lr_at(10, 0.4, 10, 10) == 0.4


class TestSgdStep:
    def make(self):
        model = init_model([2, 3], [3, 2], seed=0)
        return model, np.zeros_like(model.params)

    def ones_grads(self, model, value=1.0):
        return np.full_like(model.params, value)

    def test_plain_gradient_descent(self):
        model, buf = self.make()
        before = model.params.copy()
        sgd_step(model, self.ones_grads(model), buf, 0.1, 0.0, 0.0)
        np.testing.assert_allclose(model.params, before - 0.1, atol=1e-15)

    def test_zero_grad_fixed_point(self):
        model, buf = self.make()
        before = model.params.copy()
        sgd_step(model, self.ones_grads(model, 0.0), buf, 0.1, 0.0, 0.0)
        np.testing.assert_array_equal(model.params, before)

    def test_momentum_recurrence(self):
        # constant grad g for two steps: updates lr0*g then lr1*(0.9g + g)
        model, buf = self.make()
        before = model.params.copy()
        sgd_step(model, self.ones_grads(model), buf, 0.1, 0.9, 0.0)
        sgd_step(model, self.ones_grads(model), buf, 0.05, 0.9, 0.0)
        expected = before - 0.1 * 1.0 - 0.05 * (0.9 + 1.0)
        np.testing.assert_allclose(model.params, expected, atol=1e-14)

    def test_weight_decay_skips_biases(self):
        model, buf = self.make()
        bias_before = model.encoder_layers[0][1].copy() + 1.0
        model.encoder_layers[0][1][...] = bias_before
        sgd_step(model, self.ones_grads(model, 0.0), buf, 0.1, 0.0, 0.5)
        np.testing.assert_allclose(
            model.encoder_layers[0][1], bias_before, atol=1e-15
        )
        # weights do decay
        assert _views(buf, model.shapes)[0][0].any()

    def test_step_matches_the_formula(self):
        model, buf = self.make()
        rng = np.random.default_rng(4)
        buf[...] = rng.normal(size=model.params.size)
        grad = rng.normal(size=model.params.size)
        decay = np.full(model.params.size, 0.25)
        for _, b in _views(decay, model.shapes):
            b[...] = 0.0
        buffer = 0.5 * buf + (grad + decay * model.params)
        expected = model.params - 0.1 * buffer
        sgd_step(model, grad, buf, 0.1, 0.5, 0.25)
        assert buf.tobytes() == buffer.tobytes()
        assert model.params.tobytes() == expected.tobytes()

    def test_int_weight_decay_steps_as_its_float(self):
        # a run config's "weight_decay": 0 reaches the optimizer as an int
        (m1, b1), (m2, b2) = self.make(), self.make()
        sgd_step(m1, self.ones_grads(m1), b1, 0.1, 0.0, 1)
        sgd_step(m2, self.ones_grads(m2), b2, 0.1, 0.0, 1.0)
        assert m1.params.tobytes() == m2.params.tobytes()

    def test_version_counts_the_steps(self):
        model, buf = self.make()
        for version in range(1, 4):
            sgd_step(model, self.ones_grads(model), buf, **STEP)
            assert model.version == version

    def test_shape_mismatch(self):
        model, buf = self.make()
        bad = np.ones(model.params.size + 1)
        with pytest.raises(ShapeError):
            sgd_step(model, bad, buf, **STEP)
        with pytest.raises(ShapeError):
            sgd_step(model, self.ones_grads(model), bad, **STEP)
        assert model.version == 0


class TestCheckpoint:
    def test_byte_exact_round_trip(self, tmp_path):
        # a loaded model starts at version 0, so only step_count may differ
        model = init_model([3, 5, 4], [4, 2], seed=9)
        buf = np.zeros_like(model.params)
        sgd_step(model, np.ones_like(model.params), buf, **STEP)
        p1, p2 = tmp_path / "c1.bin", tmp_path / "c2.bin"
        save_checkpoint(model, buf, str(p1))
        model2 = load_checkpoint(str(p1))
        save_checkpoint(model2, buf, str(p2))
        (head1, body1), (head2, body2) = (p.read_bytes().split(b"\n", 1) for p in (p1, p2))
        head1, head2 = json.loads(head1), json.loads(head2)
        assert head1["step_count"] == model.version == 1
        assert head2["step_count"] == model2.version == 0
        assert {**head1, "step_count": 0} == head2
        assert body1 == body2 == model.params.tobytes() + buf.tobytes()
        assert model2.shapes == model.shapes

    @pytest.mark.parametrize("cut", ["header", "blocks", "trailing"])
    def test_damaged_file_raises_state_error(self, tmp_path, cut):
        model = init_model([3, 5, 4], [4, 2], seed=9)
        path = str(tmp_path / "c.bin")
        save_checkpoint(model, np.zeros_like(model.params), path)
        blob = pathlib.Path(path).read_bytes()
        damaged = {
            "header": blob[: blob.index(b"\n") // 2],
            "blocks": blob[:-8],
            "trailing": blob + b"\0" * 8,
        }[cut]
        with open(path, "wb") as fh:
            fh.write(damaged)
        with pytest.raises(StateError):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage", ["nan_weight", "inf_bias", "unchained"])
    def test_invalid_parameters_raise_state_error(self, tmp_path, damage):
        model = init_model([2, 3], [3, 2], seed=9)
        path = str(tmp_path / "c.bin")
        save_checkpoint(model, np.zeros_like(model.params), path)
        blob = bytearray(pathlib.Path(path).read_bytes())
        start = blob.index(b"\n") + 1
        if damage == "nan_weight":
            blob[start:start + 8] = np.array([np.nan]).tobytes()
        elif damage == "inf_bias":
            # layer 0's bias follows its 2 x 3 weight
            blob[start + 48:start + 56] = np.array([np.inf]).tobytes()
        else:
            # the same parameter count in layers whose widths do not chain
            blob = blob.replace(b'"projection_dims": [3, 2]', b'"projection_dims": [7, 1]')
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(StateError, match="non-finite|projection input dim"):
            load_checkpoint(path)

    def test_earlier_format_loads(self, tmp_path):
        # the header of an earlier format also held the optimizer's
        # settings; they are not read
        model = init_model([2, 3], [3, 2], seed=9)
        buf = np.zeros_like(model.params)
        sgd_step(model, np.ones_like(model.params), buf, **STEP)
        path = str(tmp_path / "c.bin")
        with open(path, "wb") as fh:
            fh.write(b'{"encoder_dims": [2, 3], "hyper": {"decay_biases": false, '
                     b'"momentum": 0.95, "peak_lr": 0.1, "total_steps": 100, '
                     b'"warmup_steps": 10, "weight_decay": 0.0001}, '
                     b'"projection_dims": [3, 2], "step_count": 1}\n')
            fh.write(model.params.tobytes() + buf.tobytes())
        assert load_checkpoint(path).params.tobytes() == model.params.tobytes()

    def test_huge_widths_are_refused_before_allocation(self, tmp_path):
        model = init_model([2, 3], [3, 2], seed=9)
        path = str(tmp_path / "c.bin")
        save_checkpoint(model, np.zeros_like(model.params), path)
        blob = pathlib.Path(path).read_bytes()
        with open(path, "wb") as fh:
            fh.write(blob.replace(b'"encoder_dims": [2, 3]', b'"encoder_dims": [%d, 3]' % 2**40))
        with pytest.raises(StateError, match="has more than"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dims", [b"[2.0, 3.0]", b"[true, 3]", b"[2]"])
    def test_ill_typed_layer_widths_raise_state_error(self, tmp_path, dims):
        model = init_model([2, 3], [3, 2], seed=9)
        path = str(tmp_path / "c.bin")
        save_checkpoint(model, np.zeros_like(model.params), path)
        blob = pathlib.Path(path).read_bytes()
        with open(path, "wb") as fh:
            fh.write(blob.replace(b'"encoder_dims": [2, 3]', b'"encoder_dims": ' + dims))
        with pytest.raises(StateError, match="layer widths"):
            load_checkpoint(path)

    @settings(max_examples=60)
    @given(widths=st.lists(st.integers(1, 6), min_size=3, max_size=6), data=st.data())
    def test_every_accepted_model_round_trips(self, tmp_path_factory, widths, data):
        # list or tuple, of Python or numpy ints
        split = data.draw(st.integers(2, len(widths) - 1), label="split")
        kind = data.draw(st.sampled_from([list, tuple]), label="kind")
        to_int = data.draw(st.sampled_from([int, np.int64, np.int32, np.uint8]), label="int")
        model = EncoderModel(kind(map(to_int, widths[:split])),
                             kind(map(to_int, widths[split - 1:])))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        model.params[...] = rng.normal(size=model.params.size) * 10.0 ** rng.integers(
            -300, 300, size=model.params.size)
        path = str(tmp_path_factory.mktemp("c") / "c.bin")
        save_checkpoint(model, np.zeros_like(model.params), path)
        loaded = load_checkpoint(path)
        assert loaded.encoder_dims == widths[:split]
        assert loaded.projection_dims == widths[split - 1:]
        assert loaded.params.tobytes() == model.params.tobytes()

    def test_non_finite_parameters_are_not_saved(self, tmp_path):
        model = init_model([2, 3], [3, 2], seed=9)
        model.params[4] = np.inf
        path = tmp_path / "new" / "c.bin"
        with pytest.raises(NumericError, match="non-finite parameters"):
            save_checkpoint(model, np.zeros_like(model.params), str(path))
        assert not path.parent.exists()


class TestParameterArena:
    def test_params_concatenate_layers_in_order(self):
        model = init_model([3, 5, 4], [4, 2], seed=9)
        expected = np.concatenate(
            [p.ravel() for w, b in model.encoder_layers + model.projection_layers
             for p in (w, b)]
        )
        assert model.params.flags.c_contiguous
        assert model.params.tobytes() == expected.tobytes()

    def test_checkpoint_body_is_params_then_momentum(self, tmp_path):
        model = init_model([3, 5, 4], [4, 2], seed=9)
        buf = np.zeros_like(model.params)
        grad = np.random.default_rng(0).normal(size=model.params.size)
        sgd_step(model, grad, buf, 0.1, 0.9, 1e-4)
        path = str(tmp_path / "c.bin")
        save_checkpoint(model, buf, path)
        blob = pathlib.Path(path).read_bytes()
        body = blob[blob.index(b"\n") + 1:]
        assert buf.any()
        assert body == model.params.tobytes() + buf.tobytes()

    def test_layer_views_write_through(self):
        model = init_model([3, 5], [5, 2], seed=1)
        w, b = model.encoder_layers[0]
        w[1, 2] = 7.0
        b[4] = -3.0
        assert model.params[1 * 5 + 2] == 7.0
        assert model.params[15 + 4] == -3.0
        model.params[-1] = 11.0
        assert model.projection_layers[-1][1][-1] == 11.0

    def test_constructor_builds_the_zero_model(self):
        model = EncoderModel([3, 5, 4], [4, 2])
        assert model.version == 0
        assert model.shapes == [(3, 5), (5, 4), (4, 2)]
        assert model.params.size == 3 * 5 + 5 + 5 * 4 + 4 + 4 * 2 + 2
        assert not model.params.any()
        with pytest.raises(ShapeError, match="projection input dim"):
            EncoderModel([4, 6], [5, 3])

    # widths that are not lists or tuples of >= 2 positive ints
    @pytest.mark.parametrize("encoder_dims, projection_dims", [
        ([3], [3, 2]), ([3, 0], [0, 2]), ([3, 2], [2]), ([3, 2.5], [2, 2]),
        ([3, True], [1, 2]), ([3, -1], [-1, 2]), ([], [3, 2]),
    ])
    @pytest.mark.parametrize("build", [EncoderModel, init_model])
    def test_bad_widths_raise_shape_error(self, build, encoder_dims, projection_dims):
        with pytest.raises(ShapeError, match="layer widths"):
            build(encoder_dims, projection_dims)

    @pytest.mark.parametrize("build", [EncoderModel, init_model])
    def test_parameters_past_the_cap_raise_size_error(self, build):
        # 6.6e12 parameters: refused before anything is allocated
        with pytest.raises(SizeError, match=r"encoder_widths \[1099511627776\] and "
                                            r"projection_widths \[2\]: a dense"):
            build([3, 2**40], [2**40, 2])

    def test_init_draws_each_weight_in_layer_order(self):
        model = init_model([3, 5, 4], [4, 2], seed=7)
        rng = np.random.default_rng(7)
        layers = model.encoder_layers + model.projection_layers
        for (w, b), (din, dout) in zip(layers, [(3, 5), (5, 4), (4, 2)], strict=True):
            assert w.tobytes() == rng.normal(0.0, np.sqrt(2.0 / din), size=(din, dout)).tobytes()
            assert not b.any()

    def test_unchained_dims(self):
        with pytest.raises(ShapeError, match="projection input dim"):
            init_model([4, 6], [5, 3], seed=0)

    def test_cache_from_before_sgd_step_is_stale(self):
        model = init_model([3, 5], [5, 2], seed=1)
        _, proj, cache = forward(model, np.ones((2, 3)))
        grad = backward(model, cache, np.ones_like(proj))
        sgd_step(model, grad, np.zeros_like(model.params), **STEP)
        with pytest.raises(StateError):
            backward(model, cache, np.ones_like(proj))
        _, proj, fresh = forward(model, np.ones((2, 3)))
        backward(model, fresh, np.ones_like(proj))


class TestDeterminism:
    def test_identical_trajectories(self):
        trajectories = []
        for _ in range(2):
            model = init_model([3, 4], [4, 2], seed=5)
            buf = np.zeros_like(model.params)
            rng = np.random.default_rng(0)
            for _ in range(5):
                x = rng.normal(size=(4, 3))
                _, proj, cache = forward(model, x)
                g = backward(model, cache, np.ones_like(proj))
                lr = lr_at(model.version, 0.1, 2, 20)
                sgd_step(model, g, buf, lr, STEP["momentum"], STEP["weight_decay"])
            trajectories.append(model.params.copy())
        np.testing.assert_array_equal(trajectories[0], trajectories[1])

