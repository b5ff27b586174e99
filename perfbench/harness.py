"""Measurement plumbing shared by the workloads: spans, percentiles,
machine fingerprint, GEMM ceiling, peak RSS and the exact-count ledger.

Nothing here reaches into branchnet. Spans are opened by the benchmark's
own code around calls into branchnet's public functions, so the library
runs exactly as a user would run it.
"""

import ctypes
import gc
import glob
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager

import numpy as np

MB = float(1 << 20)


class Tracer:
    """In-memory spans: name, start, end, parent span and operation id.

    A disabled tracer records nothing, so the untraced run goes through the
    same code with a no-op context manager around each call. With `parity`
    set, only operations whose index has that parity are traced, so one
    phase measures traced and untraced operations side by side.
    """

    def __init__(self, enabled, parity=None):
        self.enabled = enabled
        self.parity = parity
        self.active = enabled
        self.spans = []
        self.op = None
        self._stack = []

    def begin_op(self, op_id, index):
        self.op = op_id
        self.active = self.enabled and (self.parity is None
                                        or index % 2 == self.parity)

    def trace_all(self, op_id):
        self.parity = None
        self.begin_op(op_id, 0)

    @contextmanager
    def span(self, name, **extra):
        if not self.active:
            yield None
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "op": self.op, "start": time.perf_counter(), "end": None}
        rec.update(extra)
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named `name`; returns (result, seconds).
        The clock stops before the caller consumes the result."""
        with self.span(name):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
        return out, dt

    def durations(self, name):
        """Seconds of every closed span called `name`."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def self_seconds_by_module(self, first=0):
        """Span duration minus time covered by its child spans, summed per
        module (the part of the span name before the first dot), over the
        spans from index `first` on."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = {}
        for s in self.spans[first:]:
            if s["end"] is None:
                continue
            module = s["name"].split(".", 1)[0]
            own = (s["end"] - s["start"]) - child[s["id"]]
            out[module] = out.get(module, 0.0) + own
        return out


# setup_s is reported in seconds on a host where Reference.seconds() takes
# this long, the median on the 2-core host the README's figures come from.
REFERENCE_S = 0.015


class Reference:
    """A fixed numpy kernel, independent of branchnet, timed just before
    every operation.

    On a shared host the speed of identical work drifts by tens of percent
    over minutes, and whole runs land in a fast or a slow spell. Dividing
    an operation's time by the reference time next to it cancels most of
    that drift, while any change to branchnet's code still moves the ratio.
    The kernel mixes a matrix product with the batchnorm- and relu-like
    element-wise work that dominates the workloads."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((256, 1152)).astype(np.float32)
        self.b = rng.standard_normal((1152, 784)).astype(np.float32)
        self.x = rng.standard_normal((32, 16, 28, 28)).astype(np.float32)

    def seconds(self):
        t0 = time.perf_counter()
        for _ in range(3):
            np.matmul(self.a, self.b)
            y = self.x - self.x.mean(axis=(0, 2, 3), keepdims=True)
            np.maximum(y * 1.5, 0)
        return time.perf_counter() - t0

    def settled(self, n=5):
        """Median of n timings, for spans too long to pair with one."""
        return median([self.seconds() for _ in range(n)])


def percentile(values, q):
    """Inclusive-method quantile, q in (0, 100)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(q) - 1]


def median(values):
    return statistics.median(values)


def peak_rss_mb():
    """Peak resident set of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def in_child(fn):
    """Run fn() in a forked child and return (its result, the child's RSS
    when it started and its peak RSS, in MB), or None when the child
    failed; the caller waits for the child here.

    A forked child's peak resident set starts at the RSS it inherits, not
    at the parent's peak, so it shows what fn adds on top of the live set
    and none of what set-up freed. Freed heap is handed back to the system
    first so that it does not count as live."""
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            start = peak_rss_mb()
            out = fn()
            with os.fdopen(w, "wb") as f:
                pickle.dump((out, start, peak_rss_mb()), f)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as f:
        data = f.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return None
    return pickle.loads(data)


def gemm_ceiling_gmacs(n=1024, reps=5):
    """Best-of-reps GMAC/s of one float32 n^3 matrix product."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n)).astype(np.float32)
    b = rng.standard_normal((n, n)).astype(np.float32)
    off = Tracer(False)
    best = min(off.call("gemm", np.matmul, a, b)[1] for _ in range(reps + 1))
    return n ** 3 / best / 1e9


def _blas_threads():
    """OpenBLAS's live thread count, read through its C API."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(gemm_gmacs):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, AttributeError):
        blas_name = blas_version = "unknown"
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": _blas_threads(),
        "gemm_ceiling_gmacs": round(gemm_gmacs, 3),
    }


def code_digest(src_dir):
    """sha256 over the package sources, naming the code a count belongs to."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src_dir, "**", "*.py"),
                                 recursive=True)):
        h.update(os.path.relpath(path, src_dir).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def check_counts(ledger_path, counts):
    """Compare exact counts with those an earlier run of the same code and
    workload recorded; record them when none exist. Returns the names whose
    values differ."""
    try:
        with open(ledger_path) as f:
            before = json.load(f)
    except FileNotFoundError:
        before = None
    if before is None:
        tmp = ledger_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(counts, f, sort_keys=True)
        os.replace(tmp, ledger_path)
        return []
    return sorted(k for k in set(before) | set(counts)
                  if before.get(k) != counts.get(k))


def log(msg):
    """Progress and diagnostics go to stderr; stdout ends with the result."""
    print(msg, file=sys.stderr, flush=True)
