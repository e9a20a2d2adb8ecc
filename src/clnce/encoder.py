"""MLP encoder + projection head in plain numpy with exact manual gradients.

Encoder layers are affine + ReLU; projection layers have ReLU between them
and the final projection output is row-wise L2-normalized so the critic is a
plain dot product over the temperature. All math is float64.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, ShapeError, StateError


@dataclass
class EncoderModel:
    encoder_layers: list[tuple[np.ndarray, np.ndarray]]
    projection_layers: list[tuple[np.ndarray, np.ndarray]]

    @property
    def encoder_dims(self) -> list[int]:
        dims = [self.encoder_layers[0][0].shape[0]]
        dims += [w.shape[1] for w, _ in self.encoder_layers]
        return dims

    @property
    def projection_dims(self) -> list[int]:
        dims = [self.projection_layers[0][0].shape[0]]
        dims += [w.shape[1] for w, _ in self.projection_layers]
        return dims

    def all_params(self) -> list[np.ndarray]:
        out = []
        for w, b in self.encoder_layers + self.projection_layers:
            out.extend([w, b])
        return out

    def validate(self) -> None:
        layers = self.encoder_layers + self.projection_layers
        for i, (w, b) in enumerate(layers):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ShapeError(f"layer {i}: weight/bias shape mismatch")
            if i + 1 < len(layers) and layers[i + 1][0].shape[0] != w.shape[1]:
                raise ShapeError(f"layer {i}->{i + 1}: dimensions do not chain")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise NumericError(f"layer {i}: non-finite parameters")


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
    pre_norm: np.ndarray            # projection output before normalization
    norms: np.ndarray               # per-row L2 norms of pre_norm
    degenerate: np.ndarray          # rows with zero pre-norm output
    token: int                      # identity of the model at forward time


def forward(model: EncoderModel, x: np.ndarray):
    """Returns (encoder_output, projection_output, cache).

    Projection rows are unit-norm except exact-zero rows, which stay zero and
    are flagged in the cache.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.encoder_layers[0][0].shape[0]:
        raise ShapeError(
            f"input width {x.shape[-1]} != layer width "
            f"{model.encoder_layers[0][0].shape[0]}"
        )
    inputs, pre_acts = [], []
    h = x
    for w, b in model.encoder_layers:
        inputs.append(h)
        z = h @ w + b
        pre_acts.append(z)
        h = np.maximum(z, 0.0)
    encoder_output = h
    n_proj = len(model.projection_layers)
    for li, (w, b) in enumerate(model.projection_layers):
        inputs.append(h)
        z = h @ w + b
        pre_acts.append(z)
        h = z if li == n_proj - 1 else np.maximum(z, 0.0)
    pre_norm = h
    norms = np.linalg.norm(pre_norm, axis=1)
    degenerate = norms == 0.0
    safe = np.where(degenerate, 1.0, norms)
    projection_output = pre_norm / safe[:, None]
    if not np.isfinite(projection_output).all():
        raise NumericError("non-finite projection output")
    cache = ForwardCache(inputs, pre_acts, pre_norm, norms, degenerate, id(model))
    return encoder_output, projection_output, cache


def backward(model: EncoderModel, cache: ForwardCache, grad_wrt_projection: np.ndarray):
    """Exact reverse-mode gradients; returns layer-aligned (dW, db) lists."""
    if cache.token != id(model):
        raise StateError("backward cache does not match this model")
    g = np.asarray(grad_wrt_projection, dtype=np.float64)
    if g.shape != cache.pre_norm.shape:
        raise ShapeError("upstream gradient shape mismatch")
    # normalization Jacobian: d(v/|v|) applied to g is (g - (g.u)u)/|v|
    safe = np.where(cache.degenerate, 1.0, cache.norms)
    u = cache.pre_norm / safe[:, None]
    g = (g - (g * u).sum(axis=1, keepdims=True) * u) / safe[:, None]
    g[cache.degenerate] = 0.0

    n_enc = len(model.encoder_layers)
    layers = model.encoder_layers + model.projection_layers
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(layers)
    last = len(layers) - 1
    for li in range(last, -1, -1):
        w, _ = layers[li]
        if li != last:  # ReLU applied after every layer except the final one
            g = g * (cache.pre_acts[li] > 0)
        grads[li] = (cache.inputs[li].T @ g, g.sum(axis=0))
        g = g @ w.T
    return grads[:n_enc], grads[n_enc:]


def add_grads(a, b):
    """Elementwise sum of two (encoder_grads, projection_grads) pairs."""
    return (
        [(wa + wb, ba + bb) for (wa, ba), (wb, bb) in zip(a[0], b[0])],
        [(wa + wb, ba + bb) for (wa, ba), (wb, bb) in zip(a[1], b[1])],
    )


@dataclass(frozen=True)
class OptimizerHyper:
    peak_lr: float = 0.1
    momentum: float = 0.95
    weight_decay: float = 1e-4
    warmup_steps: int = 10
    total_steps: int = 100
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
    momentum_buffers: list[np.ndarray]
    step_count: int
    hyper: OptimizerHyper

    @classmethod
    def for_model(cls, model: EncoderModel, hyper: OptimizerHyper) -> "OptimizerState":
        return cls([np.zeros_like(p) for p in model.all_params()], 0, hyper)


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


def sgd_step(model: EncoderModel, grads, state: OptimizerState):
    """One SGD+momentum step with decoupled-from-bias weight decay.

    buffer <- momentum*buffer + grad + weight_decay*param (weights only
    unless decay_biases); param <- param - lr_at(step)*buffer.
    """
    enc_grads, proj_grads = grads
    flat_grads = []
    for w_g, b_g in enc_grads + proj_grads:
        flat_grads.extend([w_g, b_g])
    params = model.all_params()
    if len(flat_grads) != len(params):
        raise ShapeError("gradient structure does not match model")
    lr = lr_at(state.step_count, state.hyper)
    h = state.hyper
    for idx, (p, g, buf) in enumerate(zip(params, flat_grads, state.momentum_buffers)):
        if g.shape != p.shape:
            raise ShapeError(f"parameter {idx}: gradient shape mismatch")
        is_bias = idx % 2 == 1
        decay = h.weight_decay if (h.decay_biases or not is_bias) else 0.0
        buf *= h.momentum
        buf += g + decay * p
        p -= lr * buf
    state.step_count += 1
    return model, state


def save_checkpoint(model: EncoderModel, state: OptimizerState, path: str) -> None:
    """JSON header line, then raw little-endian float64 parameter blocks."""
    header = {
        "encoder_dims": model.encoder_dims,
        "projection_dims": model.projection_dims,
        "step_count": state.step_count,
        "hyper": {
            "peak_lr": state.hyper.peak_lr,
            "momentum": state.hyper.momentum,
            "weight_decay": state.hyper.weight_decay,
            "warmup_steps": state.hyper.warmup_steps,
            "total_steps": state.hyper.total_steps,
            "decay_biases": state.hyper.decay_biases,
        },
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for p in model.all_params():
            fh.write(np.ascontiguousarray(p, dtype="<f8").tobytes())
        for buf in state.momentum_buffers:
            fh.write(np.ascontiguousarray(buf, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> tuple[EncoderModel, OptimizerState]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        blob = fh.read()

    def shapes(dims):
        return [((din, dout), (dout,)) for din, dout in zip(dims[:-1], dims[1:])]

    layer_shapes = shapes(header["encoder_dims"]) + shapes(header["projection_dims"])
    offset = 0

    def take(shape):
        nonlocal offset
        count = int(np.prod(shape))
        arr = np.frombuffer(
            blob, dtype="<f8", count=count, offset=offset
        ).reshape(shape).copy()
        offset += count * 8
        return arr

    layers = [(take(ws), take(bs)) for ws, bs in layer_shapes]
    n_enc = len(header["encoder_dims"]) - 1
    model = EncoderModel(layers[:n_enc], layers[n_enc:])
    buffers = []
    for ws, bs in layer_shapes:
        buffers.extend([take(ws), take(bs)])
    hyper = OptimizerHyper(**header["hyper"])
    state = OptimizerState(buffers, int(header["step_count"]), hyper)
    if offset != len(blob):
        raise StateError(f"{path}: trailing bytes in checkpoint")
    return model, state
