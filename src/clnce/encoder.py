"""MLP encoder + projection head in plain numpy with exact manual gradients.

Encoder layers are affine + ReLU; projection layers have ReLU between them
and the final projection output is row-wise L2-normalized so the critic is a
plain dot product over the temperature. All math is float64.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ClnceError, NumericError, ParameterError, ShapeError, StateError
from .info import check_table_size


def _views(flat: np.ndarray, shapes) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views into ``flat``, layer by layer, each weight followed
    by its bias: the one place that knows the parameter layout."""
    layers, offset = [], 0
    for din, dout in shapes:
        w = flat[offset : offset + din * dout].reshape(din, dout)
        offset += din * dout
        layers.append((w, flat[offset : offset + dout]))
        offset += dout
    return layers


class EncoderModel:
    """The zero model of the given layer widths. All weights and biases live
    in one float64 vector, ``params``; the layer lists are (w, b) views into
    it. ``version`` counts SGD steps, so a stale cache is detected. Widths
    that are not >= 2 positive ints or do not chain are a ShapeError, and a
    ``params`` past ``info.MAX_TABLE_CELLS`` a SizeError before it exists."""

    def __init__(self, encoder_dims, projection_dims):
        for dims in (encoder_dims, projection_dims):
            if not (isinstance(dims, (list, tuple)) and len(dims) >= 2 and all(
                    isinstance(w, (int, np.integer)) and not isinstance(w, bool) and w > 0
                    for w in dims)):
                raise ShapeError(f"layer widths {dims!r} are not >= 2 positive ints")
        if encoder_dims[-1] != projection_dims[0]:
            raise ShapeError("projection input dim must equal encoder output dim")
        self.encoder_dims = [int(w) for w in encoder_dims]
        self.projection_dims = [int(w) for w in projection_dims]
        n_enc = len(self.encoder_dims) - 1
        self.shapes = [*zip(self.encoder_dims, self.encoder_dims[1:]),
                       *zip(self.projection_dims, self.projection_dims[1:])]
        size = sum(din * dout + dout for din, dout in self.shapes)
        check_table_size((size,), f"encoder_widths {self.encoder_dims[1:]} and "
                                  f"projection_widths {self.projection_dims[1:]}")
        self.params = np.zeros(size)
        views = _views(self.params, self.shapes)
        self.encoder_layers, self.projection_layers = views[:n_enc], views[n_enc:]
        self.version = 0


def init_model(encoder_dims, projection_dims, seed: int = 0) -> EncoderModel:
    """He-initialized weights, layer by layer, and zero biases."""
    model = EncoderModel(encoder_dims, projection_dims)
    rng = np.random.default_rng(seed)
    for w, _ in model.encoder_layers + model.projection_layers:
        w[...] = rng.normal(0.0, math.sqrt(2.0 / w.shape[0]), size=w.shape)
    return model


@dataclass
class ForwardCache:
    """Intermediates needed for the exact backward pass."""

    inputs: list[np.ndarray]        # input to each layer, encoder then proj
    output: np.ndarray              # the unit-norm projection forward returns
    norms: np.ndarray               # row L2 norms of the last affine output; 0 flags a zero row
    params: np.ndarray              # model.params and model.version at forward
    version: int                    # time: backward refuses any other model or step


def _as_input(model: EncoderModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.encoder_dims[0]:
        raise ShapeError(f"input width {x.shape[-1]} != layer width {model.encoder_dims[0]}")
    return x


# rows per block of a full-set pass: its activations stay in cache
ROW_BLOCK = 256


def embed(model: EncoderModel, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Encoder output only, without the projection head, the L2 norms or the
    backward cache. Rows run into ``out``, any (n, D) array (a transposed
    view too), in blocks of ``ROW_BLOCK`` (a 1-row tail joins the block
    before it: numpy sends one row through GEMV, not GEMM). Each block has
    the bits of ``forward`` on its rows; a larger x may not match
    ``forward(model, x)[0]`` bit for bit, as BLAS picks kernels by shape.
    A non-finite block is a NumericError."""
    x = _as_input(model, x)
    if out is None:
        out = np.empty((len(x), model.encoder_dims[-1]))
    edges = [*range(0, max(len(x) - 1, 1), ROW_BLOCK), len(x)]
    for lo, hi in zip(edges, edges[1:]):
        h = x[lo:hi]
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
            for w, b in model.encoder_layers:
                h = h @ w
                h += b
                np.maximum(h, 0.0, out=h)
        if not np.isfinite(h).all():
            raise NumericError("non-finite encoder output")
        out[lo:hi] = h
    return out


def forward(model: EncoderModel, x: np.ndarray):
    """Returns (encoder_output, projection_output, cache).

    Every layer is affine, with a ReLU between consecutive layers. Projection
    rows are unit-norm except exact-zero rows, which stay zero and keep a
    norm of 0 in the cache.
    """
    h = _as_input(model, x)
    inputs = []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        for w, b in model.encoder_layers + model.projection_layers:
            if inputs:  # ReLU in place: the affine output is needed only as this input
                np.maximum(h, 0.0, out=h)
            inputs.append(h)
            h = h @ w
            h += b
        norms = np.linalg.norm(h, axis=1)
        degenerate = norms == 0.0
        output = h / np.where(degenerate, 1.0, norms)[:, None]
    if not np.isfinite(output).all():
        raise NumericError("non-finite projection output")
    cache = ForwardCache(inputs, output, norms, model.params, model.version)
    return inputs[len(model.encoder_layers)], output, cache


def backward(model: EncoderModel, cache: ForwardCache, grad_wrt_projection: np.ndarray):
    """Exact reverse-mode gradient, one vector in the layout of ``model.params``."""
    if cache.params is not model.params or cache.version != model.version:
        raise StateError("backward cache does not match this model")
    g = np.asarray(grad_wrt_projection, dtype=np.float64)
    u = cache.output
    if g.shape != u.shape:
        raise ShapeError("upstream gradient shape mismatch")
    # normalization Jacobian: d(v/|v|) applied to g is (g - (g.u)u)/|v|
    g = g - (g * u).sum(axis=1, keepdims=True) * u
    degenerate = cache.norms == 0.0
    g /= np.where(degenerate, 1.0, cache.norms)[:, None]
    g[degenerate] = 0.0

    layers = model.encoder_layers + model.projection_layers
    grad = np.empty_like(model.params)
    grads = _views(grad, model.shapes)
    for li in range(len(layers) - 1, -1, -1):
        np.matmul(cache.inputs[li].T, g, out=grads[li][0])
        np.sum(g, axis=0, out=grads[li][1])
        if li:  # inputs[li] = relu(z) is > 0 exactly where z is
            g = g @ layers[li][0].T
            g *= cache.inputs[li] > 0
    return grad


def lr_at(step: int, peak_lr: float, warmup_steps: int, total_steps: int) -> float:
    """Linear warmup to peak_lr, then cosine decay to zero."""
    if step < 0 or step > total_steps:
        raise ParameterError(f"step {step} outside [0, {total_steps}]")
    if step < warmup_steps:
        return peak_lr * (step + 1) / warmup_steps
    decay_span = total_steps - warmup_steps
    if decay_span == 0:
        return peak_lr
    frac = (step - warmup_steps) / decay_span
    return peak_lr * 0.5 * (1.0 + math.cos(math.pi * frac))


def sgd_step(model: EncoderModel, grad: np.ndarray, momentum_buf: np.ndarray,
             lr: float, momentum: float, weight_decay: float) -> None:
    """One SGD+momentum step with decoupled-from-bias weight decay.

    momentum_buf <- momentum*momentum_buf + grad + weight_decay*param
    (weights only); param <- param - lr*momentum_buf. Both update in place,
    and model.version, the step count, goes up by one.
    """
    if np.shape(grad) != model.params.shape or np.shape(momentum_buf) != model.params.shape:
        raise ShapeError("gradient or momentum does not match the model's parameters")
    # one temporary, in place; buffer*momentum + (grad + decay*param) rounds
    # as the formula above does
    step = np.full_like(model.params, weight_decay)
    for _, b in _views(step, model.shapes):
        b[...] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # forward or save_checkpoint raises
        step *= model.params
        step += grad
        momentum_buf *= momentum
        momentum_buf += step
        np.multiply(momentum_buf, lr, out=step)
        model.params -= step
    model.version += 1


def save_checkpoint(model: EncoderModel, momentum_buf: np.ndarray, path: str) -> None:
    """JSON header line, then the parameters and the momentum, each as
    little-endian float64 in the layout of ``model.params``. The header's
    ``step_count`` is ``model.version``. A missing parent directory is made.
    Non-finite parameters, which ``load_checkpoint`` refuses, are a
    NumericError before anything is made."""
    if not np.isfinite(model.params).all():
        raise NumericError("non-finite parameters")
    header = {
        "encoder_dims": model.encoder_dims,
        "projection_dims": model.projection_dims,
        "step_count": model.version,
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(model.params.astype("<f8", copy=False).tobytes())
        fh.write(momentum_buf.astype("<f8", copy=False).tobytes())


def load_checkpoint(path: str) -> EncoderModel:
    """The model alone: the momentum block's length is checked, but no
    command resumes training, so it is not read."""
    with open(path, "rb") as fh:
        head = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(head.decode("utf-8"))
        model = EncoderModel(header["encoder_dims"], header["projection_dims"])
    except (ClnceError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise StateError(f"{path}: unreadable checkpoint header ({exc})") from exc
    expected = 2 * model.params.nbytes  # the parameters, then the momentum
    if len(blob) != expected:
        raise StateError(
            f"{path}: {len(blob)} bytes of parameter blocks, header implies {expected}"
        )
    params = np.frombuffer(blob, dtype="<f8", count=model.params.size)
    if not np.isfinite(params).all():
        raise StateError(f"{path}: non-finite parameters")
    model.params[...] = params
    return model
