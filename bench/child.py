"""One `clnce` command in a fresh process, with boundary marks or full tracing.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 bench/child.py SIDECAR TRACE ENV clnce-args...

TRACE is 0 or 1, ENV is 0 or 1. The command runs in-process through
``clnce.cli.main``. Untraced, only three boundaries are marked: the first
call into ``objective.sample_pair_batch`` and the entry to and exit from
``pipeline.linear_evaluate``. Traced, every function in SPANS is wrapped and
its calls, total time and self time (total minus the time of nested spans)
are recorded. Wrapping replaces every binding of the function object across
the ``clnce.*`` modules, so a function imported by name is caught as well.
A function that does not exist is skipped and shows up in the sidecar as
never called.

All timestamps come from ``time.monotonic()``, the system-wide clock the
parent reads before it spawns this process. The sidecar is JSON.
"""

from __future__ import annotations

import ctypes
import importlib
import json
import sys
import time

SPANS = (
    "cli.main",
    "data.load_dataset",
    "data.split_dataset",
    "data.augment_rows",
    "objective.sample_pair_batch",
    "objective.critic_matrix",
    "objective.cl_infonce_loss",
    "objective.cl_infonce_grad",
    "objective.critic_backward",
    "encoder.forward",
    "encoder.backward",
    "encoder.add_grads",
    "encoder.sgd_step",
    "encoder.save_checkpoint",
    "clusters.kmeans",
    "pipeline.build_clusters",
    "pipeline.train",
    "pipeline.train_predetermined",
    "pipeline.train_kmeans_loop",
    "pipeline.linear_evaluate",
    "info.info_plane_point",
)


def _gemm_macs(model) -> int:
    """Multiply-adds of one row through every layer of the model."""
    return sum(w.shape[0] * w.shape[1] for w, _ in model.encoder_layers + model.projection_layers)


# Counters taken from a call's arguments or result. GEMM flops are computed
# from layer widths and rows: forward does one GEMM per layer, backward two
# (weight gradient and input gradient).
COUNTERS = {
    "encoder.forward": lambda args, result: {
        "rows": len(args[1]), "gemm_flop": 2 * len(args[1]) * _gemm_macs(args[0])},
    "encoder.backward": lambda args, result: {
        "rows": len(args[2]), "gemm_flop": 4 * len(args[2]) * _gemm_macs(args[0])},
    "clusters.kmeans": lambda args, result: {"lloyd_iters": result.iterations_run},
}


def _resolve(span: str):
    module_name, _, func_name = span.partition(".")
    try:
        module = importlib.import_module(f"clnce.{module_name}")
    except ModuleNotFoundError:
        return None
    return getattr(module, func_name, None)


def _rebind(old, new) -> None:
    """Point every binding of `old` in the clnce modules at `new`."""
    for name, module in list(sys.modules.items()):
        if name == "clnce" or name.startswith("clnce."):
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)


class Tracer:
    """Per-function calls, total and self time, plus COUNTERS, in memory."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self._child_time: list[float] = []  # one accumulator per open span

    def wrap(self, span: str, fn):
        stat = self.stats.setdefault(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        counter = COUNTERS.get(span)
        stack = self._child_time

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.monotonic() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += dt
                stat["calls"] += 1
                stat["total_s"] += dt
                stat["self_s"] += dt - nested
            if counter is not None:
                try:
                    counts = counter(args, result)
                except (AttributeError, IndexError, TypeError):
                    counts = {}  # signature changed: the counter reads as absent
                for key, value in counts.items():
                    stat[key] = stat.get(key, 0) + value
            return result

        return traced


def _mark_first_call(marks: dict, key: str, fn):
    def wrapper(*args, **kwargs):
        if key not in marks:
            marks[key] = time.monotonic()
        return fn(*args, **kwargs)
    return wrapper


def _mark_enter_exit(marks: dict, prefix: str, fn):
    def wrapper(*args, **kwargs):
        marks.setdefault(f"{prefix}_enter", time.monotonic())
        try:
            return fn(*args, **kwargs)
        finally:
            marks[f"{prefix}_exit"] = time.monotonic()
    return wrapper


def _blas_threads():
    """Thread count as the loaded OpenBLAS reports it, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": sys.version.split()[0],
    }


def main(argv: list[str]) -> int:
    sidecar, trace, want_env, clnce_args = argv[0], argv[1] == "1", argv[2] == "1", argv[3:]
    import clnce.cli

    tracer = Tracer() if trace else None
    if tracer is not None:
        for span in SPANS:
            fn = _resolve(span)
            if fn is not None:
                _rebind(fn, tracer.wrap(span, fn))
    marks: dict[str, float] = {}
    sampler = _resolve("objective.sample_pair_batch")
    if sampler is not None:
        _rebind(sampler, _mark_first_call(marks, "first_sample", sampler))
    probe = _resolve("pipeline.linear_evaluate")
    if probe is not None:
        _rebind(probe, _mark_enter_exit(marks, "probe", probe))
    marks["main_enter"] = time.monotonic()
    try:
        rc = clnce.cli.main(clnce_args)
    finally:
        marks["main_exit"] = time.monotonic()
        payload = {"marks": marks, "spans": tracer.stats if tracer else None}
        if want_env:
            payload["env"] = _environment()
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
