"""Per-function spans around the public functions of tpspp, from outside.

The tracer replaces a function with a timing wrapper at every module
attribute that refers to it, and puts the originals back afterwards; no
file of the program changes. Two traps decide how this must be done:

* `tpspp.warp` is the warp *function*: the package `__init__` rebinds the
  name over the submodule. Modules are therefore looked up with
  `importlib.import_module("tpspp.warp")`, never as package attributes.
* `rectify` and `cli` bind `solve_transform`, `build_sampling_grid`, `warp`
  and `rectify_map` with `from ... import`, so they call their own module
  attribute. Wrapping only the defining module would miss those calls.
  `installed` hence rebinds every attribute of every loaded tpspp module
  that is the original function, the caller's own names included.

Only calls made inside `span()` are recorded. A function's self time is its
span's duration minus the time of the traced calls it made.
"""

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

# module -> traced functions; the per-layer metrics are named <module>.<function>.<stat>
TRACED = {
    "tensor": ("conv2d", "matmul", "solve_linear"),
    "tps": ("solve_transform", "build_kernel_matrix"),
    "warp": ("build_sampling_grid", "warp"),
    "network": ("toy_backbone", "msfa_forward", "cbam_forward", "dgab_forward", "aipe_forward"),
    "rectify": ("rectify_with_network", "rectify_map", "attention_for_lattice"),
    "fileio": ("import_grid_json", "load_image", "save_image", "load_weights"),
    "cli": ("main",),
}


def _conv2d_flops(x, kernel, bias, stride=1, pad=0):
    """Multiply-adds of one convolution counted as 2 FLOP, from the shapes alone."""
    o, c, kh, kw = kernel.shape
    oh = (x.shape[1] + 2 * pad - kh) // stride + 1
    ow = (x.shape[2] + 2 * pad - kw) // stride + 1
    return 2 * o * c * kh * kw * oh * ow


def _mk_bytes(transform, attention, out_h, out_w):
    """Bytes of one float64 M x K matrix of the sampling grid."""
    return out_h * out_w * transform.k * 8


def _file_bytes(path):
    return Path(path).stat().st_size


# Work counted from a traced call's arguments: it repeats exactly between runs.
WORK = {
    "tensor.conv2d": _conv2d_flops,
    "warp.build_sampling_grid": _mk_bytes,
    "fileio.import_grid_json": _file_bytes,
}


@dataclass
class Stats:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    work: int = 0


class Tracer:
    def __init__(self):
        self.stats = {f"{mod}.{fn}": Stats() for mod, fns in TRACED.items() for fn in fns}
        self._open = None  # traced time of the children of each open span; None outside span()

    @contextmanager
    def span(self):
        self._open = [0.0]
        try:
            yield
        finally:
            self._open = None

    def _wrap(self, key, fn):
        stats = self.stats[key]
        work = WORK.get(key)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._open is None:
                return fn(*args, **kwargs)
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._open.pop()
                self._open[-1] += elapsed
                stats.calls += 1
                stats.seconds += elapsed
                stats.self_seconds += elapsed - children
                if work is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    stats.work += work(*bound.args)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function at each module attribute bound to it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "tpspp" or name.startswith("tpspp.")]
        swapped = []
        try:
            for key in self.stats:
                mod, name = key.split(".")
                fn = getattr(importlib.import_module(f"tpspp.{mod}"), name)
                wrapper = self._wrap(key, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
                            swapped.append((module, attr, fn))
            yield self
        finally:
            for module, attr, fn in reversed(swapped):
                setattr(module, attr, fn)
