"""The three workloads: seeded set-up, a timed phase whose correctness
checks run outside the clock, and the subject that the exact counts and
the traced per-layer sweep measure.

Every workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned. BLAS keeps its own
default thread count, which is no more than the number of cores.
"""

import hashlib
import os
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from branchnet.common import derive_rng, derive_seed
from branchnet.dataio import SynthSpec, generate_synthetic, load_batch, split_ids
from branchnet.engine import forward_pass
from branchnet.experiments import (DESK_TASKS, branch_grid, format_grid_matrix,
                                   format_probe_matrix, invariance_probe)
from branchnet.graph import ArchConfig, build_trunk
from branchnet.multihead import (HeadSpec, MultiHeadModel, load_bundle,
                                 predict_all, run_head_standalone, save_bundle)
from branchnet.params import checkpoint_bytes, frozen_checksum
from branchnet.train import Dataset, TrainConfig, init_params, make_branch, train
from harness import Reference, log, median

# The ACCEPTANCE 05 layout: four heads at conv19, conv22, fc and fc.
HEAD_SPECS = (("nuisance", "conv19", 7, "softmax"),
              ("stage", "conv22", 14, "softmax"),
              ("tags", "fc", 9, "sigmoid-multilabel"),
              ("binary", "fc", 2, "softmax"))
# Serve checks compare every head with its standalone run on requests
# whose index is a multiple of this.
STANDALONE_EVERY = 16


@dataclass(frozen=True)
class Size:
    setup_reps: int        # fewest set-ups per untraced run; setup_s is their median
    min_ops: int           # fewest timed operations; a p90 needs 100
    identities: int        # desk synthetic suite
    per_identity: int
    trunk_steps: int       # desk set-up training
    finetune_steps: int    # per grid cell
    probe_budget: int      # linear-probe SGD steps per (layer, factor)
    study_train: int       # training samples the grid and the probe see
    study_val: int         # held-out samples they score on
    canonical_serve: bool  # serve the 224x224x3 trunk, else the desk one
    pool: int              # distinct serve images, a multiple of 8
    reps: int              # repetitions of each sweep measurement
    digest_ops: int        # trunk-train digest after this many steps


# branch-study is the pinned desk study (run_desk_study: 260 fine-tune steps
# per cell on an 800-sample training split, scored on 200 held-out samples,
# probes with a budget of 2000 on the same splits) with every per-cell
# quantity scaled by 20/260: 20 steps on 64 samples, scored on 16, probes
# with a budget of 154. Fine-tune samples per cell stay about 10 times the
# training split, so a prefix cache over the split pays off as it would in
# the study, and fine-tune steps stay about 98% of a cell's time.
SIZES = {
    "full": Size(setup_reps=3, min_ops=100, identities=20, per_identity=50,
                 trunk_steps=20, finetune_steps=20, probe_budget=154,
                 study_train=64, study_val=16, canonical_serve=True, pool=32,
                 reps=5, digest_ops=10),
    "tiny": Size(setup_reps=1, min_ops=3, identities=4, per_identity=10,
                 trunk_steps=2, finetune_steps=1, probe_budget=2,
                 study_train=8, study_val=4, canonical_serve=False, pool=16,
                 reps=1, digest_ops=2),
}
# Reference timings taken before the first branch-study pass and after
# every pass. A pass is too long to pair with the one timing before it.
PASS_SETTLE = 15
# Fewest branch-study passes in a run: the pass time varies by up to 20%
# from pass to pass on a shared host, so a run reports a median of three.
MIN_PASSES = 3


@dataclass
class Phase:
    """What one timed phase did: per-operation seconds (timed calls only),
    network samples processed, the failure count and a determinism digest."""

    op_s: list = field(default_factory=list)
    ref_s: list = field(default_factory=list)   # reference time before each
    traced: list = field(default_factory=list)  # per op_s entry
    samples: int = 0
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    parts: dict = field(default_factory=dict)
    setup_s: list = field(default_factory=list)
    setup_ref_s: list = field(default_factory=list)  # reference before each
    reference: Reference = field(default_factory=Reference, repr=False)

    def begin(self, tracer, op_id, ops=1):
        """Start the next timed operation, which counts as `ops` attempted
        ones: time the reference, then let the tracer decide whether to
        trace the operation."""
        self._ref_s = self.reference.seconds()
        tracer.begin_op(op_id, len(self.op_s))
        self.attempted += ops

    def record(self, tracer, seconds, samples):
        self.op_s.append(seconds)
        self.ref_s.append(self._ref_s)
        self.traced.append(tracer.active)
        self.samples += samples


@dataclass
class StudyData:
    """Per-task datasets plus the probe inputs and labels of one split."""

    train_sets: dict
    val_sets: dict
    x_train: np.ndarray
    tr_labels: dict
    x_val: np.ndarray
    va_labels: dict

    @classmethod
    def build(cls, x_train, tr_labels, x_val, va_labels):
        return cls({t: Dataset(x_train, y) for t, y in tr_labels.items()},
                   {t: Dataset(x_val, y) for t, y in va_labels.items()},
                   x_train, tr_labels, x_val, va_labels)

    def head(self, n_train, n_val):
        return self.take(np.arange(min(n_train, len(self.x_train))),
                         np.arange(min(n_val, len(self.x_val))))

    def sample(self, n_train, n_val, rng):
        """A subset of n_train training and n_val held-out samples."""
        def pick(n, k):
            return np.sort(rng.choice(n, k, replace=False))
        return self.take(pick(len(self.x_train), n_train),
                         pick(len(self.x_val), n_val))

    def take(self, tr, va):
        return StudyData.build(
            self.x_train[tr], {t: y[tr] for t, y in self.tr_labels.items()},
            self.x_val[va], {t: y[va] for t, y in self.va_labels.items()})


@dataclass
class Subject:
    """The model and one batch that the counts and the sweep measure."""

    graph: object
    store: object
    x: np.ndarray            # one workload batch
    identity: np.ndarray     # its identity labels
    nuisance: np.ndarray     # its 7-way task labels
    mode: str                # how the workload runs the trunk forward
    requests: list           # batch-1 inputs for the multi-head model
    study: object            # StudyData for the sweep's short study
    study_cfg: object        # its fine-tune schedule
    manifest: object         # the set-up's synthetic suite
    model: object = None     # MultiHeadModel; None: the sweep builds one
    seed: int = 0


def _labels(manifest, ids, column):
    return np.array([manifest.label(i, column) for i in ids], dtype=np.int64)


def synth_suite(spec, data_dir, tracer, channels=1):
    """Generate and load a synthetic suite through dataio.

    Returns (manifest, x_train, x_val, train labels, val labels); labels map
    column name -> int array. Grey images are repeated to `channels`."""
    with tracer.span("dataio.generate_synthetic"):
        manifest = generate_synthetic(spec, data_dir)
    train_ids, val_ids = split_ids(manifest, "train"), split_ids(manifest, "val")
    with tracer.span("dataio.load_batch"):
        x_train, _ = load_batch(manifest, train_ids)
    x_val, _ = load_batch(manifest, val_ids)
    if channels != 1:
        x_train = np.repeat(x_train, channels, axis=1)
        x_val = np.repeat(x_val, channels, axis=1)
    columns = ("identity",) + tuple(t.label_column for t in DESK_TASKS)
    tr = {c: _labels(manifest, train_ids, c) for c in columns}
    va = {c: _labels(manifest, val_ids, c) for c in columns}
    return manifest, x_train, x_val, tr, va


def desk_suite(size, seed, work_dir, tracer):
    spec = SynthSpec(num_identities=size.identities,
                     samples_per_identity=size.per_identity,
                     seed=derive_seed(seed, "synth"))
    return synth_suite(spec, os.path.join(work_dir, "data"), tracer)


def desk_setup(size, seed, work_dir, tracer):
    """The set-up both desk workloads share: generate and load the suite,
    build the desk trunk and train it briefly from the seed.

    The short training gives branch-study a trunk worth branching from,
    and trunk-train continues it. It also keeps the disk's file-creation
    time, which swings by 3x from minute to minute, a minority of setup_s."""
    manifest, x_train, x_val, tr, va = desk_suite(size, seed, work_dir, tracer)
    graph = build_trunk(ArchConfig.desk(num_identities=size.identities))
    cfg = TrainConfig.desk(seed=derive_seed(seed, "trunk"))
    data = Dataset(x_train, tr["identity"])
    with tracer.span("train.init_params"):
        store = init_params(graph, cfg)
    with tracer.span("train.train"):
        train(graph, store, data, replace(cfg, max_minibatches=size.trunk_steps))
    return {"graph": graph, "store": store, "cfg": cfg, "seed": seed,
            "size": size, "data": data, "manifest": manifest,
            "study": study_data(x_train, tr, x_val, va), "steps": 0}


def study_data(x_train, tr, x_val, va):
    return StudyData.build(x_train, {t.name: tr[t.label_column] for t in DESK_TASKS},
                           x_val, {t.name: va[t.label_column] for t in DESK_TASKS})


def head_model(graph, store, seed):
    """The ACCEPTANCE 05 head layout over a trunk, heads copied warm."""
    model = MultiHeadModel(graph, store)
    for i, (task, layer, k, loss) in enumerate(HEAD_SPECS):
        br = make_branch(graph, store, layer, k, loss=loss, warm=True,
                         seed=derive_seed(seed, "head", i))
        model.add_head(HeadSpec(task, layer, k, loss), br.graph, br.store)
    return model


def _failed(phase, ops=1):
    log(traceback.format_exc())
    phase.failed += ops


def _finite(store):
    return all(np.isfinite(a).all() for d in (store.arrays, store.momentum)
               for a in d.values())


def _enough(phase, seconds, min_ops, started, seconds_cap):
    """Keep going until `seconds` of timed calls and `min_ops` operations,
    but never past `seconds_cap` of wall time."""
    if time.perf_counter() - started > seconds_cap:
        return True
    return sum(phase.op_s) >= seconds and phase.attempted >= min_ops


def _sweep_batch(dataset, seed, n):
    """Indices of the batch the counts and the sweep measure."""
    n = min(n, len(dataset))
    return derive_rng(seed, "sweep-batch").choice(len(dataset), size=n, replace=False)


class TrunkTrain:
    """Full forward and backward from node 0 on the desk trunk, batchnorm in
    train mode, SGD on every array; nothing frozen or cached."""

    name = "trunk-train"

    def setup(self, size, seed, work_dir, tracer):
        return desk_setup(size, seed, work_dir, tracer)

    def run(self, st, seconds, min_ops, tracer, cap):
        """One-step train.train calls, so step latency is visible from
        outside; each call draws its minibatch from its own seed."""
        phase = Phase()
        graph, store, data, cfg = st["graph"], st["store"], st["data"], st["cfg"]
        started = time.perf_counter()
        while not _enough(phase, seconds, min_ops, started, cap):
            step = st["steps"]
            st["steps"] += 1
            step_cfg = replace(cfg, seed=derive_seed(st["seed"], "step", step),
                               max_minibatches=1)
            phase.begin(tracer, f"step-{step}")
            try:
                train_log, dt = tracer.call("train.train", train, graph, store,
                                            data, step_cfg)
            except Exception:  # one failed operation must not end the run
                _failed(phase)
                continue
            phase.record(tracer, dt, cfg.batch_size)
            if not (all(np.isfinite(r[2]) for r in train_log.rows)
                    and _finite(store)):
                phase.failed += 1
            if st["steps"] == st["size"].digest_ops:
                st["digest"] = hashlib.sha256(
                    checkpoint_bytes(graph, store)).hexdigest()[:16]
        phase.digest = st.get("digest", "")
        return phase

    def subject(self, st):
        data = st["data"]
        idx = _sweep_batch(data, st["seed"], st["cfg"].batch_size)
        requests = [data.inputs[i:i + 1] for i in idx[:4]]
        study = st["study"]
        nuis = study.tr_labels["nuisance"]
        return Subject(st["graph"], st["store"], data.inputs[idx],
                       data.labels[idx], nuis[idx], "train", requests,
                       study=study.head(64, 32),
                       study_cfg=TrainConfig.desk(max_minibatches=1),
                       manifest=st["manifest"], seed=st["seed"])


def run_study(graph, store, study, cfg, probe_budget, seed, tracer, phase):
    """One study pass, timed as one operation: one branch_grid call over
    every branch point x DESK_TASKS, then one invariance_probe call over
    `input` plus every branch point, as run_desk_study makes them.

    Each grid cell and probe layer counts as an attempted operation. The
    checks run outside the clock: the trunk's frozen checksum is unchanged
    after the grid, and every accuracy lies in [0, 1]. Returns the pass's
    grid and probe seconds, its cells keyed ("grid" or "probe", layer,
    task) and its grid and probe matrices as text, or None when a call
    failed."""
    layers = ("input",) + graph.branch_points
    factors = {t.name: t.num_classes for t in DESK_TASKS}
    ops = len(graph.branch_points) * len(DESK_TASKS) + len(layers)
    region = len(graph.nodes)
    before = frozen_checksum(graph, store, region)
    phase.begin(tracer, f"study-{len(phase.op_s)}", ops=ops)
    try:
        grid, grid_s = tracer.call(
            "experiments.branch_grid", branch_grid, graph, store, DESK_TASKS,
            study.train_sets, study.val_sets, cfg, seed)
        unchanged = frozen_checksum(graph, store, region) == before
        probe, probe_s = tracer.call(
            "experiments.invariance_probe", invariance_probe, graph, store,
            layers, factors, study.x_train, study.tr_labels, study.x_val,
            study.va_labels, seed=derive_seed(seed, "probe"),
            budget=probe_budget)
    except Exception:  # one failed pass must not end the run
        _failed(phase, ops)
        return None
    samples = (len(grid.cells) * (cfg.max_minibatches * cfg.batch_size
                                  + len(study.x_val))
               + len(layers) * (len(study.x_train) + len(study.x_val)))
    phase.record(tracer, grid_s + probe_s, samples)
    phase.failed += (not unchanged) + sum(
        not 0.0 <= acc <= 1.0 for acc in grid.cells.values())
    phase.failed += sum(
        not all(0.0 <= probe.cells[(layer, f)] <= 1.0 for f in factors)
        for layer in layers)
    cells = {("grid",) + k: v for k, v in grid.cells.items()}
    cells.update({("probe",) + k: v for k, v in probe.cells.items()})
    return grid_s, probe_s, cells, format_grid_matrix(grid) \
        + format_probe_matrix(probe)


class BranchStudy:
    """Fine-tunes every branch depth for both desk tasks, then probes every
    branch layer: the frozen prefix is recomputed in inference mode on every
    fine-tune step and once per probe layer."""

    name = "branch-study"

    def setup(self, size, seed, work_dir, tracer):
        return desk_setup(size, seed, work_dir, tracer)

    def run(self, st, seconds, min_ops, tracer, cap):
        """Whole study passes, at least MIN_PASSES and otherwise as many as
        come nearest to `seconds` of timed calls judged by the first pass;
        min_ops does not apply. Every cell and probe layer of a later pass
        must equal the first pass's bit for bit.

        Every pass's reference is the median of all reference timings the
        run takes around its passes, so that each pass is set against the
        host's speed over the whole phase rather than over an instant."""
        size = st["size"]
        cfg = TrainConfig.desk(max_minibatches=size.finetune_steps)
        study = st["study"].sample(size.study_train, size.study_val,
                                   derive_rng(st["seed"], "study-subset"))
        seed = derive_seed(st["seed"], "study")
        phase, passes = Phase(), []
        refs = [phase.reference.seconds() for _ in range(PASS_SETTLE)]
        started = time.perf_counter()
        while True:
            out = run_study(st["graph"], st["store"], study, cfg,
                            size.probe_budget, seed, tracer, phase)
            refs += [phase.reference.seconds() for _ in range(PASS_SETTLE)]
            if out is not None:
                passes.append(out)
            if not passes or time.perf_counter() - started > cap:
                break
            first = sum(passes[0][:2])
            if len(phase.op_s) >= max(MIN_PASSES, round(seconds / first)):
                break
        if not passes:
            return phase
        phase.ref_s = [median(refs)] * len(phase.op_s)
        grid_s, probe_s, cells, texts = zip(*passes)
        phase.failed += sum(c[k] != cells[0][k] for c in cells[1:]
                            for k in cells[0])
        phase.digest = hashlib.sha256(texts[0].encode()).hexdigest()[:16]
        phase.parts = {"grid_s": median(grid_s), "probe_s": median(probe_s),
                       "study_s": median([g + p for g, p in zip(grid_s, probe_s)])}
        return phase

    def subject(self, st):
        study = st["study"]
        data = study.train_sets["nuisance"]
        idx = _sweep_batch(data, st["seed"], 32)
        requests = [data.inputs[i:i + 1] for i in idx[:4]]
        return Subject(st["graph"], st["store"], data.inputs[idx],
                       st["data"].labels[idx], data.labels[idx], "infer", requests,
                       study=study.head(64, 32),
                       study_cfg=TrainConfig.desk(max_minibatches=1),
                       manifest=st["manifest"], seed=st["seed"])


class MultiheadServe:
    """Batch-1 predict_all over the canonical trunk with four warm heads,
    loaded from a saved bundle: forward only, inference-mode batchnorm,
    large spatial extents and the head-resume path."""

    name = "multihead-serve"

    def setup(self, size, seed, work_dir, tracer):
        arch = ArchConfig() if size.canonical_serve \
            else ArchConfig.desk(num_identities=size.identities)
        spec = SynthSpec(num_identities=size.pool // 8, samples_per_identity=8,
                         image_size=arch.eff_input_size,
                         seed=derive_seed(seed, "synth"))
        manifest, x_train, x_val, tr, va = synth_suite(
            spec, os.path.join(work_dir, "data"), tracer, arch.in_channels)
        graph = build_trunk(arch)
        with tracer.span("train.init_params"):
            store = init_params(graph, TrainConfig(seed=derive_seed(seed, "trunk")))
        # A fresh store has no running statistics, so inference mode cannot
        # run until train-mode forwards have seeded them.
        with tracer.span("engine.forward_pass"):
            _, updates = forward_pass(graph, store, x_train[:2], mode="train")
        store.running.update(updates)
        with tracer.span("bench.make_heads"):
            model = head_model(graph, store, seed)
        bundle = os.path.join(work_dir, "bundle")
        with tracer.span("multihead.save_bundle"):
            save_bundle(bundle, model)
        del model, store
        with tracer.span("multihead.load_bundle"):
            model = load_bundle(bundle)
        return {"model": model, "seed": seed, "size": size, "pool": x_train,
                "pool_identity": tr["identity"], "pool_nuisance": tr["nuisance"],
                "study": study_data(x_train, tr, x_val, va),
                "manifest": manifest, "sent": 0}

    def _request(self, st, i):
        """Request i: a pool image chosen by the seed plus seeded noise, so no
        two requests carry the same bytes."""
        rng = derive_rng(st["seed"], "request", i)
        pool = st["pool"]
        x = pool[rng.integers(len(pool))][None]
        return x + rng.normal(0.0, 0.01, size=x.shape).astype(np.float32)

    def run(self, st, seconds, min_ops, tracer, cap):
        phase = Phase()
        model = st["model"]
        stats = {}
        digest = hashlib.sha256()
        started = time.perf_counter()
        while not _enough(phase, seconds, min_ops, started, cap):
            i = st["sent"]
            st["sent"] += 1
            x = self._request(st, i)
            phase.begin(tracer, f"request-{i}")
            before = stats.get("trunk_forwards", 0)
            try:
                pred, dt = tracer.call("multihead.predict_all", predict_all,
                                       model, x, stats=stats)
            except Exception:  # one failed operation must not end the run
                _failed(phase)
                continue
            phase.record(tracer, dt, 1)
            ok = stats.get("trunk_forwards", 0) == before + 1
            softmax = [pred.identity_probs] + [
                pred.tasks[h.spec.task].scores for h in model.heads
                if h.spec.loss == "softmax"]
            ok = ok and all(np.all(np.abs(p.sum(axis=1, dtype=np.float64) - 1.0)
                                   <= 1e-5) for p in softmax)
            if i % STANDALONE_EVERY == 0:
                ok = ok and all(np.array_equal(pred.tasks[h.spec.task].scores,
                                               run_head_standalone(h, x))
                                for h in model.heads)
            if not ok:
                phase.failed += 1
            if i < 16:
                digest.update(pred.identity_probs.tobytes())
                for h in model.heads:
                    digest.update(pred.tasks[h.spec.task].scores.tobytes())
        phase.digest = digest.hexdigest()[:16]
        return phase

    def subject(self, st):
        model = st["model"]
        study = st["study"].head(6, 2)
        return Subject(model.trunk_graph, model.trunk_store, self._request(st, 0),
                       st["pool_identity"][:1], st["pool_nuisance"][:1], "infer",
                       [self._request(st, i) for i in range(4)], model=model,
                       study=study, study_cfg=TrainConfig.desk(
                           max_minibatches=1, batch_size=2),
                       manifest=st["manifest"], seed=st["seed"])


WORKLOADS = {w.name: w for w in (TrunkTrain(), BranchStudy(), MultiheadServe())}
