"""Central finite-difference gradient checking.

The checker perturbs each coordinate of the arrays under test in place,
evaluates the scalar function twice, and compares (f(x+e) - f(x-e)) / 2e
against the supplied analytic gradient using the relative error
|a - n| / max(|a|, |n|, 1e-8). Arrays must be float64; single precision
has too little headroom for the 1e-5 tolerance.

Large arrays are subsampled: a seeded choice of SAMPLE_LIMIT coordinates
per array.
"""

from dataclasses import dataclass, field

import numpy as np

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-5
SAMPLE_LIMIT = 200


@dataclass(frozen=True)
class CoordResult:
    name: str
    index: int
    analytic: float
    numeric: float
    rel_err: float


@dataclass
class GradCheckReport:
    max_rel_err: float = 0.0
    worst: CoordResult | None = None
    coords_checked: int = 0
    per_array: dict = field(default_factory=dict)

    def ok(self, tol=DEFAULT_TOL):
        return self.max_rel_err < tol


def grad_check(fn, wrt, analytic, step=DEFAULT_STEP, seed=0):
    """Compare analytic gradients of fn() against central differences.

    fn: zero-argument callable returning a float; it must read the arrays in
        `wrt` so that in-place perturbations are visible.
    wrt: dict name -> float64 array, perturbed in place and restored.
    analytic: dict name -> gradient array of matching shape.
    """
    rng = np.random.default_rng(seed)
    report = GradCheckReport()
    for name, arr in wrt.items():
        if arr.dtype != np.float64:
            raise ValueError(f"grad_check requires float64 arrays, {name} is {arr.dtype}")
        if name not in analytic:
            raise ValueError(f"missing analytic gradient for {name}")
        grad = analytic[name]
        if grad.shape != arr.shape:
            raise ValueError(f"analytic gradient shape {grad.shape} does not match "
                             f"{name} shape {arr.shape}")
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        size = flat.shape[0]
        if size <= SAMPLE_LIMIT:
            indices = np.arange(size)
        else:
            indices = rng.choice(size, size=SAMPLE_LIMIT, replace=False)
        worst_here = 0.0
        for i in indices:
            saved = flat[i]
            flat[i] = saved + step
            fp = fn()
            flat[i] = saved - step
            fm = fn()
            flat[i] = saved
            numeric = (fp - fm) / (2.0 * step)
            a = float(gflat[i])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            report.coords_checked += 1
            if rel > worst_here:
                worst_here = rel
            if rel > report.max_rel_err:
                report.max_rel_err = rel
                report.worst = CoordResult(name, int(i), a, float(numeric), rel)
        report.per_array[name] = worst_here
    return report
