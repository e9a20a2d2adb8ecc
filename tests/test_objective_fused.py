"""The training step's fused loss-and-gradient pass, ``cl_infonce``, against
the separate loss and gradient it replaced, its reduction to two-view
InfoNCE, the step's parameter gradient against central differences, and the
critic's shape check."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clnce.clusters import clusters_instance_id
from clnce.encoder import backward, forward, init_model
from clnce.errors import NumericError, ParameterError, ShapeError
from clnce.objective import cl_infonce, critic_backward, critic_matrix, sample_pair_batch

from oracles import (
    cl_infonce_grad_reference,
    cl_infonce_loss_reference,
    forward_reference,
    infonce_loss_reference,
)


@st.composite
def score_matrices(draw):
    """Square scores as the critic makes them (cosines over a temperature),
    plus integer ties, constant rows and large offsets."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["cosine", "integer", "constant_rows"]))
    if kind == "cosine":
        rows = rng.normal(size=(2, n, 4))
        rows /= np.linalg.norm(rows, axis=2, keepdims=True)
        s = rows[0] @ rows[1].T / draw(st.sampled_from([0.01, 0.1, 1.0]))
    elif kind == "integer":
        s = rng.integers(-3, 4, size=(n, n)).astype(float)
    else:
        s = np.repeat(rng.normal(size=(n, 1)), n, axis=1)
    return s + draw(st.sampled_from([0.0, 1e3, -1e6]))


@settings(max_examples=200)
@given(score_matrices())
def test_fused_pass_bit_identical_to_separate_oracles(scores):
    loss, grad = cl_infonce(scores)
    assert loss == cl_infonce_loss_reference(scores)
    assert grad.tobytes() == cl_infonce_grad_reference(scores).tobytes()


@pytest.mark.parametrize(
    "oracle",
    [
        pytest.param(cl_infonce_loss_reference, id="cl_infonce_loss"),
        pytest.param(cl_infonce_grad_reference, id="cl_infonce_grad"),
    ],
)
def test_fused_pass_validates_like_the_oracles(oracle):
    bad = np.zeros((3, 3))
    bad[0, 1] = np.nan
    for scores, error in [(bad, NumericError), (np.zeros((3, 4)), ShapeError)]:
        with pytest.raises(error):
            oracle(scores)
        with pytest.raises(error):
            cl_infonce(scores)
    with pytest.raises(ParameterError, match="need n >= 2"):
        cl_infonce(np.zeros((1, 1)))


@pytest.mark.parametrize("shape_x, shape_y", [((3, 2), (3, 4)), ((3, 2), (4, 2)), ((3,), (3,))])
def test_critic_matrix_shape_mismatch(shape_x, shape_y):
    with pytest.raises(ShapeError, match="projection shapes"):
        critic_matrix(np.ones(shape_x), np.ones(shape_y), 1.0)


@settings(max_examples=100)
@given(
    pool=st.integers(2, 40),
    n=st.integers(2, 24),
    width=st.integers(1, 8),
    temperature=st.floats(0.05, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_instance_id_clusters_reduce_to_two_view_infonce(pool, n, width, temperature, seed):
    # singleton clusters pair each drawn instance with itself: the two views
    rng = np.random.default_rng(seed)
    x, y = sample_pair_batch(clusters_instance_id(pool), n, rng)
    assert (x == y).all()
    raw = rng.normal(size=(pool, width))
    base = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    jitter = raw + 0.1 * rng.normal(size=raw.shape)
    other = jitter / np.linalg.norm(jitter, axis=1, keepdims=True)
    px, py = base[x], other[y]
    ref = infonce_loss_reference(px, py, temperature)
    loss, _ = cl_infonce(critic_matrix(px, py, temperature))
    assert abs(loss - ref) <= 1e-12 * max(1.0, abs(ref))


@settings(max_examples=40)
@given(
    input_width=st.integers(1, 4),
    encoder_widths=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    projection_widths=st.lists(st.integers(1, 5), min_size=1, max_size=2),
    n=st.integers(2, 6),
    temperature=st.sampled_from([0.1, 0.5, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(input_width=1, encoder_widths=[1, 1], projection_widths=[1, 2], n=3,
         temperature=0.1, seed=0)
def test_step_gradient_matches_central_differences(
    input_width, encoder_widths, projection_widths, n, temperature, seed
):
    # the training step's gradient: forward both views, the fused pass on
    # their scores, then critic_backward and backward
    rng = np.random.default_rng(seed)
    model = init_model([input_width, *encoder_widths], [encoder_widths[-1], *projection_widths])
    # Random biases as well as weights, so that a dead width-1 ReLU passes a
    # nonzero value on. Redraw until every pre-activation and row norm sits
    # off its kink, as acceptance criterion 1 does, so that a central
    # difference stays on one smooth piece.
    for _ in range(100):
        model.params[...] = rng.normal(size=model.params.size)
        x, y = rng.normal(size=(2, n, input_width))
        (_, px, cache_x), (_, py, cache_y) = forward(model, x), forward(model, y)
        if all(min(np.abs(z).min() for z in forward_reference(model, v)[2]["pre_acts"]) > 1e-3
               and c.norms.min() > 1e-2 for v, c in ((x, cache_x), (y, cache_y))):
            break
    _, g_scores = cl_infonce(critic_matrix(px, py, temperature))
    g_px, g_py = critic_backward(g_scores, px, py, temperature)
    analytic = backward(model, cache_x, g_px) + backward(model, cache_y, g_py)
    base = model.params.copy()

    def loss_at(i, step):
        model.params[...] = base
        model.params[i] += step
        scores = critic_matrix(forward(model, x)[1], forward(model, y)[1], temperature)
        return cl_infonce(scores)[0]

    eps = 1e-6
    for i in rng.choice(base.size, size=min(base.size, 12), replace=False):
        fd = (loss_at(i, eps) - loss_at(i, -eps)) / (2 * eps)
        # relative error 1e-5 as criterion 1; below 1e-7 both are rounding noise
        assert abs(fd - analytic[i]) <= 1e-5 * max(abs(fd), abs(analytic[i]), 1e-2), i
