"""The training step's fused loss-and-gradient pass against the separate
loss and gradient it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clnce.errors import NumericError, ShapeError
from clnce.objective import cl_infonce_grad, cl_infonce_loss

from oracles import cl_infonce_grad_reference, cl_infonce_loss_reference


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


@settings(max_examples=200, deadline=None)
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
