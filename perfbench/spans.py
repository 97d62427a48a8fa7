"""In-memory span tracing of the `dssm` package, installed from outside it.

`install(tracer)` wraps the public functions of each dssm module and rebinds
every name under which callers look them up: module attributes (including
`from .x import f` copies in other modules) and module-level dispatch dicts.
Each call records a span (op id, layer, name, start, end, parent) plus the
work counts of its arguments.  `layer_totals` turns spans into per-layer self
time (span minus direct children), entry calls and summed counts.
"""

import contextlib
import functools
import importlib
import inspect
import time

MODULES = ("hippo", "inits", "discretize", "kernel", "conv", "oracle", "cli")

def layer_of(fn):
    module = fn.__module__.rpartition(".")[2]
    if module == "conv":
        return "conv.scan" if fn.__name__ == "recurrent_scan" else "conv.fft"
    return module


def _kernel_work(spec, disc, L, *_, **__):
    samples = len(disc.A_bar) * int(L)
    # complex128 power matrix the materialized kernel builds (computed, not measured)
    return {"mode_samples": samples, "bytes_computed": 16 * samples}


def _fft_work(u, K, *_, **__):
    padded = 1 << (2 * K.L - 1).bit_length() if K.L > 1 else 2
    return {"fft_points": padded * (u.channels + 1)}


def _scan_work(disc, C, u, *_, **__):
    return {"scan_steps": u.length * u.channels}


def _dim(N, *_, **__):
    return {"dim_sum": N.shape[0] if getattr(N, "ndim", 0) else int(N)}


# Work counts taken from a call's arguments or result (see layer_totals for
# how nested calls avoid counting the same work twice).
_ARG_COUNTS = {
    "vandermonde_kernel": _kernel_work,
    "vandermonde_kernel_streaming": _kernel_work,
    "dss_softmax_kernel": _kernel_work,
    "fft_causal_conv": _fft_work,
    "recurrent_scan": _scan_work,
    "make_hippo_legs": _dim,
    "make_hippo_normal": _dim,
    "hippo_d_spectrum": _dim,
    "hermitian_eigendecompose": _dim,
}

_RESULT_COUNTS = {
    "read_signal_csv": lambda values: {"rows_read": len(values)},
}


class Tracer:
    """Collects spans in memory; one tracer per process.

    A span row is [id, parent id, op, layer, name, start, end, counts].
    """

    def __init__(self):
        self.op = None
        self.spans = []
        self._stack = []

    def _open(self, layer, name):
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, self.op, layer, name, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        span[5] = time.perf_counter()
        return span

    def _close(self, span):
        span[6] = time.perf_counter()
        self._stack.pop()

    def call(self, fn, layer, args, kwargs):
        span = self._open(layer, fn.__name__)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        count_args = _ARG_COUNTS.get(fn.__name__)
        if count_args is not None:
            span[7] = count_args(*args, **kwargs)
        count_result = _RESULT_COUNTS.get(fn.__name__)
        if count_result is not None:
            span[7] = count_result(result)
        return result

    @contextlib.contextmanager
    def region(self, layer, name):
        """Record a span around benchmark-side code (one op of a workload)."""
        span = self._open(layer, name)
        try:
            yield span
        finally:
            self._close(span)


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        fn = getattr(module, name)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield fn


def _wrap(tracer, fn):
    layer = layer_of(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(fn, layer, args, kwargs)

    return traced


def install(tracer):
    """Wrap every public dssm function everywhere it is bound; returns undo()."""
    modules = [importlib.import_module(f"dssm.{name}") for name in MODULES]
    wrappers = {fn: _wrap(tracer, fn) for module in modules for fn in _public_functions(module)}

    undo = []
    for module in modules:
        namespace = vars(module)
        for name, value in list(namespace.items()):
            if inspect.isfunction(value) and value in wrappers:
                namespace[name] = wrappers[value]
                undo.append((namespace, name, value))
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if inspect.isfunction(entry) and entry in wrappers:
                        value[key] = wrappers[entry]
                        undo.append((value, key, entry))

    def restore():
        for table, key, original in reversed(undo):
            table[key] = original

    return restore


def unwrapped_bindings():
    """Names in dssm modules still bound to an unwrapped public function."""
    modules = [importlib.import_module(f"dssm.{name}") for name in MODULES]
    public = {getattr(fn, "__wrapped__", fn) for module in modules for fn in _public_functions(module)}
    missed = []
    for module in modules:
        for name, value in vars(module).items():
            if inspect.isfunction(value) and value in public:
                missed.append(f"{module.__name__}.{name}")
            elif isinstance(value, dict):
                missed += [
                    f"{module.__name__}.{name}[{key!r}]"
                    for key, entry in value.items()
                    if inspect.isfunction(entry) and entry in public
                ]
    return missed


def layer_totals(spans):
    """Per-layer {self_s, calls, <counters>} from a list of span rows.

    Self time is a span's duration minus its direct children's durations.
    `calls` counts entry spans (no parent, or a parent in another layer).  A
    span's counts are added unless an ancestor already counted the same key,
    so a spectrum call and the matrix builds nested in it count N once.
    """
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[6] - s[5])
    totals = {}
    for s in spans:
        layer = s[3]
        entry = totals.setdefault(layer, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += (s[6] - s[5]) - child_time.get(s[0], 0.0)
        parent = by_id.get(s[1])
        if parent is None or parent[3] != layer:
            entry["calls"] += 1
        for key, value in (s[7] or {}).items():
            if not _counted_above(by_id, parent, key):
                entry[key] = entry.get(key, 0) + value
    return totals


def _counted_above(by_id, span, key):
    while span is not None:
        if span[7] and key in span[7]:
            return True
        span = by_id.get(span[1])
    return False


def root_time(spans):
    """Summed duration of the spans with no parent."""
    return sum(s[6] - s[5] for s in spans if s[1] is None)
