"""MLP encoder + projection head in plain numpy with exact manual gradients.

Encoder layers are affine + ReLU; projection layers have ReLU between them
and the final projection output is row-wise L2-normalized so the critic is a
plain dot product over the temperature. All math is float64.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NumericError, ParameterError, ShapeError, StateError


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


@dataclass
class EncoderModel:
    """All weights and biases live in one float64 vector, ``params``; the
    layer lists are (w, b) views into it. The constructor copies the given
    layers in. ``version`` counts SGD steps, so a stale cache is detected."""

    encoder_layers: list[tuple[np.ndarray, np.ndarray]]
    projection_layers: list[tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        layers = self.encoder_layers + self.projection_layers
        for i, (w, b) in enumerate(layers):
            if np.ndim(w) != 2 or np.shape(b) != (np.shape(w)[1],):
                raise ShapeError(f"layer {i}: weight/bias shape mismatch")
        self.shapes = [np.shape(w) for w, _ in layers]
        self.params = np.zeros(sum(din * dout + dout for din, dout in self.shapes))
        views = _views(self.params, self.shapes)
        for (w, b), (vw, vb) in zip(layers, views):
            vw[...] = w
            vb[...] = b
        self.bias_mask = np.zeros(self.params.size, dtype=bool)
        for _, b in _views(self.bias_mask, self.shapes):
            b[...] = True
        n_enc = len(self.encoder_layers)
        self.encoder_layers, self.projection_layers = views[:n_enc], views[n_enc:]
        self.version = 0


def init_model(encoder_dims, projection_dims, seed: int = 0) -> EncoderModel:
    """He-initialized model; projection input dim must match encoder output."""
    if encoder_dims[-1] != projection_dims[0]:
        raise ShapeError("projection input dim must equal encoder output dim")
    rng = np.random.default_rng(seed)

    def make(dims):
        layers = []
        for din, dout in zip(dims[:-1], dims[1:]):
            w = rng.normal(0.0, math.sqrt(2.0 / din), size=(din, dout))
            layers.append((w, np.zeros(dout)))
        return layers

    return EncoderModel(make(encoder_dims), make(projection_dims))


@dataclass
class ForwardCache:
    """Intermediates needed for the exact backward pass."""

    inputs: list[np.ndarray]        # input to each layer, encoder then proj
    pre_acts: list[np.ndarray]      # affine outputs before ReLU/normalize
    output: np.ndarray              # the unit-norm projection forward returns
    norms: np.ndarray               # per-row L2 norms of pre_acts[-1]
    degenerate: np.ndarray          # rows with zero pre-norm output
    params: np.ndarray              # model.params and model.version at forward
    version: int                    # time: backward refuses any other model or step


def _as_input(model: EncoderModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.encoder_layers[0][0].shape[0]:
        raise ShapeError(
            f"input width {x.shape[-1]} != layer width "
            f"{model.encoder_layers[0][0].shape[0]}"
        )
    return x


# rows per block of a full-set pass: its activations stay in cache
ROW_BLOCK = 256


def embed(model: EncoderModel, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Encoder output only, without the projection head, the L2 norms or the
    backward cache. Rows run into ``out``, any (n, D) array (a transposed
    view too), in blocks of ``ROW_BLOCK`` (a 1-row tail joins the block
    before it: numpy sends one row through GEMV, not GEMM). Each block has
    the bits of ``forward`` on its rows; a larger x may not match
    ``forward(model, x)[0]`` bit for bit, as BLAS picks kernels by shape."""
    x = _as_input(model, x)
    if out is None:
        out = np.empty((len(x), model.encoder_layers[-1][0].shape[1]))
    edges = [*range(0, max(len(x) - 1, 1), ROW_BLOCK), len(x)]
    for lo, hi in zip(edges, edges[1:]):
        h = x[lo:hi]
        for w, b in model.encoder_layers:
            h = h @ w
            h += b
            np.maximum(h, 0.0, out=h)
        out[lo:hi] = h
    return out


def forward(model: EncoderModel, x: np.ndarray):
    """Returns (encoder_output, projection_output, cache).

    Every layer is affine, with a ReLU between consecutive layers. Projection
    rows are unit-norm except exact-zero rows, which stay zero and are
    flagged in the cache.
    """
    h = _as_input(model, x)
    inputs, pre_acts = [], []
    for w, b in model.encoder_layers + model.projection_layers:
        if pre_acts:
            h = np.maximum(h, 0.0)
        inputs.append(h)
        h = h @ w
        h += b
        pre_acts.append(h)
    norms = np.linalg.norm(h, axis=1)
    degenerate = norms == 0.0
    output = h / np.where(degenerate, 1.0, norms)[:, None]
    if not np.isfinite(output).all():
        raise NumericError("non-finite projection output")
    cache = ForwardCache(
        inputs, pre_acts, output, norms, degenerate, model.params, model.version
    )
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
    g /= np.where(cache.degenerate, 1.0, cache.norms)[:, None]
    g[cache.degenerate] = 0.0

    layers = model.encoder_layers + model.projection_layers
    grad = np.empty_like(model.params)
    grads = _views(grad, model.shapes)
    for li in range(len(layers) - 1, -1, -1):
        np.matmul(cache.inputs[li].T, g, out=grads[li][0])
        np.sum(g, axis=0, out=grads[li][1])
        if li:  # the input of layer li is the ReLU of pre_acts[li - 1]
            g = g @ layers[li][0].T
            g *= cache.pre_acts[li - 1] > 0
    return grad


@dataclass(frozen=True)
class OptimizerHyper:
    peak_lr: float
    momentum: float
    weight_decay: float
    warmup_steps: int
    total_steps: int
    decay_biases: bool = False

    def __post_init__(self):
        if not 0.0 <= self.momentum < 1.0:
            raise ParameterError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ParameterError("weight_decay must be >= 0")
        if self.warmup_steps < 0 or self.total_steps < self.warmup_steps:
            raise ParameterError("need 0 <= warmup_steps <= total_steps")


@dataclass
class OptimizerState:
    momentum: np.ndarray            # one buffer in the layout of model.params
    step_count: int
    hyper: OptimizerHyper

    @classmethod
    def for_model(cls, model: EncoderModel, hyper: OptimizerHyper) -> "OptimizerState":
        return cls(np.zeros_like(model.params), 0, hyper)


def lr_at(step: int, hyper: OptimizerHyper) -> float:
    """Linear warmup to peak_lr, then cosine decay to zero."""
    if step < 0 or step > hyper.total_steps:
        raise ParameterError(f"step {step} outside [0, {hyper.total_steps}]")
    if step < hyper.warmup_steps:
        return hyper.peak_lr * (step + 1) / hyper.warmup_steps
    decay_span = hyper.total_steps - hyper.warmup_steps
    if decay_span == 0:
        return hyper.peak_lr
    frac = (step - hyper.warmup_steps) / decay_span
    return hyper.peak_lr * 0.5 * (1.0 + math.cos(math.pi * frac))


def sgd_step(model: EncoderModel, grad: np.ndarray, state: OptimizerState):
    """One SGD+momentum step with decoupled-from-bias weight decay.

    buffer <- momentum*buffer + grad + weight_decay*param (weights only
    unless decay_biases); param <- param - lr_at(step)*buffer.
    """
    if np.shape(grad) != model.params.shape:
        raise ShapeError("gradient does not match the model's parameters")
    lr = lr_at(state.step_count, state.hyper)
    h = state.hyper
    # one temporary, in place; buffer*momentum + (grad + decay*param) rounds
    # as the formula above does
    step = np.where(model.bias_mask, h.weight_decay * h.decay_biases, h.weight_decay)
    step *= model.params
    step += grad
    state.momentum *= h.momentum
    state.momentum += step
    np.multiply(state.momentum, lr, out=step)
    model.params -= step
    model.version += 1
    state.step_count += 1
    return model, state


def save_checkpoint(model: EncoderModel, state: OptimizerState, path: str) -> None:
    """JSON header line, then the parameters and the momentum, each as
    little-endian float64 in the layout of ``model.params``."""
    n_enc = len(model.encoder_layers)
    dims = [model.shapes[0][0], *(dout for _, dout in model.shapes)]
    header = {
        "encoder_dims": dims[: n_enc + 1],
        "projection_dims": dims[n_enc:],
        "step_count": state.step_count,
        "hyper": asdict(state.hyper),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(model.params.astype("<f8", copy=False).tobytes())
        fh.write(state.momentum.astype("<f8", copy=False).tobytes())


def load_checkpoint(path: str) -> tuple[EncoderModel, OptimizerState]:
    with open(path, "rb") as fh:
        head = fh.readline()
        blob = fh.read()

    def shapes(dims):
        if not (isinstance(dims, list) and len(dims) >= 2
                and all(type(w) is int and w > 0 for w in dims)):
            raise ValueError(f"layer widths {dims!r} are not >= 2 positive ints")
        return list(zip(dims[:-1], dims[1:]))

    try:
        header = json.loads(head.decode("utf-8"))
        enc, proj = header["encoder_dims"], header["projection_dims"]
        layer_shapes = shapes(enc) + shapes(proj)
        if enc[-1] != proj[0]:
            raise ValueError("encoder and projection widths do not chain")
        n_enc = len(enc) - 1
        hyper = OptimizerHyper(**header["hyper"])
        step_count = header["step_count"]
        if not (type(step_count) is int and step_count >= 0):
            raise ValueError(f"step_count {step_count!r} is not an int >= 0")
        # the parameters, then the momentum in the same layout
        expected = 2 * 8 * sum(din * dout + dout for din, dout in layer_shapes)
    except (ValueError, KeyError, TypeError) as exc:
        raise StateError(f"{path}: unreadable checkpoint header ({exc})") from exc
    if len(blob) != expected:
        raise StateError(
            f"{path}: {len(blob)} bytes of parameter blocks, header implies {expected}"
        )
    params, momentum = np.frombuffer(blob, dtype="<f8").reshape(2, -1)
    if not np.isfinite(params).all():
        raise StateError(f"{path}: non-finite parameters")
    layers = _views(params, layer_shapes)
    model = EncoderModel(layers[:n_enc], layers[n_enc:])
    return model, OptimizerState(momentum.astype(np.float64), step_count, hyper)
