"""The training step's fused loss-and-gradient pass against the separate
loss and gradient it replaced, and its reduction to two-view InfoNCE."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clnce.clusters import clusters_instance_id
from clnce.errors import NumericError, ShapeError
from clnce.objective import (
    CriticConfig,
    cl_infonce_grad,
    cl_infonce_loss,
    critic_matrix,
    sample_pair_batch,
)

from oracles import cl_infonce_grad_reference, cl_infonce_loss_reference, infonce_loss_reference


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
    assert cl_infonce_loss(scores) == cl_infonce_loss_reference(scores)
    assert cl_infonce_grad(scores).tobytes() == cl_infonce_grad_reference(scores).tobytes()


@pytest.mark.parametrize("fn", [cl_infonce_loss, cl_infonce_grad])
def test_fused_pass_validates_like_the_oracles(fn):
    bad = np.zeros((3, 3))
    bad[0, 1] = np.nan
    with pytest.raises(NumericError):
        fn(bad)
    with pytest.raises(ShapeError):
        fn(np.zeros((3, 4)))


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
    batch = sample_pair_batch(clusters_instance_id(pool), n, rng)
    assert (batch.x_indices == batch.y_indices).all()
    raw = rng.normal(size=(pool, width))
    base = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    jitter = raw + 0.1 * rng.normal(size=raw.shape)
    other = jitter / np.linalg.norm(jitter, axis=1, keepdims=True)
    px, py = base[batch.x_indices], other[batch.y_indices]
    cfg = CriticConfig(temperature=temperature)
    ref = infonce_loss_reference(px, py, cfg)
    assert abs(cl_infonce_loss(critic_matrix(px, py, cfg)) - ref) <= 1e-12 * max(1.0, abs(ref))
