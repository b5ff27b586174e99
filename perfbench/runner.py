"""One benchmark run: set-up, the timed phase, the exact counts, the traced
sweep when asked, and the printed result."""

import json
import os
import shutil
import sys
import time

from harness import (REFERENCE_S, Reference, Tracer, check_counts,
                     code_digest, fingerprint, gemm_ceiling_gmacs, in_child,
                     median, percentile)
from layers import MODULES, exact_counts, sweep
from workloads import SIZES, WORKLOADS, Phase, head_model

# Cheap set-ups repeat until they have taken this long, so that their
# median rests on enough samples.
SETUP_SECONDS = 3.0
# Plain timings printed beside the gated metrics (study_s on branch-study
# only), and the workload-specific name each stands for where it differs.
PLAIN = (("samples_per_s", "1/s"), ("op_ms_p50", "ms"), ("op_ms_p90", "ms"),
         ("timed_s", "s"), ("ref_ms_p50", "ms"), ("study_s", "s"),
         ("setup_raw_s", "s"), ("timed_start_rss_mb", "MB"))
ALIASES = {
    "trunk-train": {"samples_per_s": "train_samples_per_s"},
    "branch-study": {},
    "multihead-serve": {"op_ms_p50": "predict_ms_p50",
                        "op_ms_p90": "predict_ms_p90"},
}


def end_to_end(phase, peak_mb):
    """The gated metrics (set-up, memory, and operation time in units of
    the reference time measured next to it; set-up time is scaled back to
    seconds at REFERENCE_S) and, for reading, the same timings in plain
    seconds."""
    op_ms = [s * 1e3 for s in phase.op_s]
    rel = [s / r for s, r in zip(phase.op_s, phase.ref_s)]
    setup_rel = [s / r for s, r in zip(phase.setup_s, phase.setup_ref_s)]
    metrics = {
        "setup_s": median(setup_rel) * REFERENCE_S,
        "setup_raw_s": median(phase.setup_s),
        "peak_rss_mb": peak_mb,
        "samples_per_ref": phase.samples / sum(rel),
        "op_rel_p50": median(rel),
        "op_rel_p90": percentile(rel, 90),
        "samples_per_s": phase.samples / sum(phase.op_s),
        "op_ms_p50": median(op_ms),
        "op_ms_p90": percentile(op_ms, 90),
        "ref_ms_p50": median(phase.ref_s) * 1e3,
        "timed_s": sum(phase.op_s),
    }
    if "study_s" in phase.parts:
        metrics["study_s"] = phase.parts["study_s"]
    return metrics


def fresh(work_dir):
    """An empty working directory, so that set-up never pays for deleting
    the files an earlier set-up wrote."""
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    return work_dir


def counts_of(st, wl):
    subject = wl.subject(st)
    model = subject.model or head_model(subject.graph, subject.store,
                                        subject.seed)
    return subject, exact_counts(subject, model)


def untraced(wl, size, args, work_dir):
    """Set up several times, then run the timed phase with tracing off, in
    a forked child, so that peak_rss_mb is the timed phase's peak over the
    live set-up state and not the high-water mark of set-up."""
    off, ref = Tracer(False), Reference()
    ref.seconds()  # the first timing pays for starting BLAS threads
    setup_s, setup_ref_s, st = [], [], None
    while len(setup_s) < size.setup_reps or (
            sum(setup_s) < SETUP_SECONDS and len(setup_s) < 3 * size.setup_reps):
        st = None  # free the previous set-up before building the next
        setup_ref_s.append(ref.settled())
        st, dt = off.call("bench.setup", wl.setup, size, args.seed,
                          fresh(work_dir), off)
        setup_s.append(dt)
    gemm = gemm_ceiling_gmacs()

    def timed():
        phase = wl.run(st, args.seconds, size.min_ops, off, 6 * args.seconds)
        phase.reference = None  # not worth sending back
        return phase

    child = in_child(timed)
    if child is None:
        return None, Phase(), gemm, {}, {}
    phase, start_mb, peak_mb = child
    phase.setup_s, phase.setup_ref_s = setup_s, setup_ref_s
    if not phase.op_s:
        return None, phase, gemm, {}, {}
    _, counts = counts_of(st, wl)
    metrics = end_to_end(phase, peak_mb)
    metrics["timed_start_rss_mb"] = start_mb
    return None, phase, gemm, counts, metrics


def traced(wl, size, args, work_dir):
    """One traced set-up, two timed phases of half the seconds each, then
    the per-layer sweep. The first phase traces the even operations and the
    second the odd ones, so each operation index is timed once with and
    once without spans; the paired sums give the tracing overhead."""
    tracer = Tracer(True)
    st = wl.setup(size, args.seed, fresh(work_dir), tracer)
    gemm = gemm_ceiling_gmacs()
    min_ops = max(1, size.min_ops // 4)
    halves = []
    for parity in (0, 1):
        tracer.parity = parity
        halves.append(wl.run(st, args.seconds / 2, min_ops, tracer,
                             3 * args.seconds))
    tracer.trace_all("sweep")
    a, b = halves
    phase = Phase(op_s=a.op_s + b.op_s, ref_s=a.ref_s + b.ref_s,
                  attempted=a.attempted + b.attempted,
                  failed=a.failed + b.failed, digest=a.digest,
                  parts={k: (v + b.parts[k]) / 2 for k, v in a.parts.items()})
    pairs = list(zip(a.op_s, a.traced, b.op_s, b.traced))
    on = sum(ta if fa else tb for ta, fa, tb, fb in pairs if fa != fb)
    off = sum(tb if fa else ta for ta, fa, tb, fb in pairs if fa != fb)
    if not (on and off):
        return tracer, phase, gemm, {}, {}
    subject, counts = counts_of(st, wl)
    first = len(tracer.spans)
    metrics, rows, failed = sweep(subject, phase.parts or None, tracer,
                                  size.reps, work_dir)
    phase.failed += failed
    metrics["ops.gemm_ceiling_gmacs"] = gemm
    own = tracer.self_seconds_by_module(first)
    covered = sum(own.values())
    for module in MODULES:
        metrics[f"self_share.{module}"] = own.get(module, 0.0) / covered
    metrics["trace.overhead_pct"] = (on / off - 1.0) * 100.0
    tracer.rows = rows
    return tracer, phase, gemm, counts, metrics


def run(args, root, src):
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    wl, size = WORKLOADS[args.workload], SIZES[args.size]
    out = os.path.join(root, ".perfbench")
    work_dir = os.path.join(out, f"{args.workload}-{args.size}")
    started = time.perf_counter()

    # BENCHMARK.json names the metrics a run reports, with their units.
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    wanted = [(m["name"], m["unit"]) for m in declared]
    run_phase = traced if args.trace else untraced
    tracer, phase, gemm, counts, metrics = run_phase(wl, size, args, work_dir)
    if not metrics:
        print(f"error: no timed operation of {phase.attempted} succeeded",
              file=sys.stderr)
        return 1
    missing = [name for name, _ in wanted if name not in metrics]
    if missing:
        print("error: BENCHMARK.json names metrics this run does not "
              "measure: " + ", ".join(missing), file=sys.stderr)
        return 2

    ledger = os.path.join(out, f"counts-{args.workload}-{args.size}-"
                               f"{code_digest(src)}.json")
    changed = check_counts(ledger, counts)
    failed = phase.failed + len(changed)
    result = {"correct": failed == 0, "attempted": phase.attempted,
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in wanted}}
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "seconds": args.seconds,
              "fingerprint": fingerprint(gemm), "digest": phase.digest,
              "counts": counts, "counts_changed": changed,
              "setup_s": phase.setup_s,
              "setup_ref_ms": [t * 1e3 for t in phase.setup_ref_s],
              "op_ms": [t * 1e3 for t in phase.op_s],
              "ref_ms": [t * 1e3 for t in phase.ref_s],
              "metrics": metrics,
              "wall_s": time.perf_counter() - started, "result": result}
    if tracer is not None:
        record["nodes"] = tracer.rows
        record["spans"] = tracer.spans
    kind = "trace" if args.trace else "result"
    out_path = os.path.join(out, f"{kind}-{args.workload}-{args.size}-"
                                 f"seed{args.seed}.json")
    with open(out_path, "w") as f:
        json.dump(record, f, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}")
    print("fingerprint " + json.dumps(record["fingerprint"]))
    print(f"digest {phase.digest}")
    print("counts " + json.dumps(counts, sort_keys=True))
    if changed:
        print("COUNTS CHANGED under the same code: " + ", ".join(changed))
    print(f"error_rate {failed / phase.attempted:.6g}  "
          f"({failed} failed of {phase.attempted} attempted)")
    if not args.trace:
        print(f"operations timed {len(phase.op_s)}")
        for name, unit in PLAIN:
            if name not in metrics:
                continue
            alias = ALIASES[args.workload].get(name)
            print(f"{name} {metrics[name]:.6g} {unit}"
                  + (f"  ({alias})" if alias else ""))
    for name, unit in wanted:
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"details in {os.path.relpath(out_path, root)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1
