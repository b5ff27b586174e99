"""Evaluation protocols: verification and operating points.

Verification follows a 10-split leave-one-out scheme: for each held-out
split, the decision threshold is the one maximizing accuracy on the other
splits, then applied once to the held-out pairs. Threshold candidates are
the midpoints between consecutive distinct similarity values plus the two
infinities, which realize every achievable confusion matrix; ties pick the
smallest threshold. The decision rule is "same" iff similarity >= threshold.

Operating-point selection uses one global threshold over all (sample,
class) scores: the smallest observed score (or the sentinel just above the
maximum) whose false-positive rate stays within the target.
"""

from dataclasses import dataclass

import numpy as np


def cosine_similarity(a, b) -> float:
    """a.b / (|a| |b|), each vector first scaled by its largest magnitude,
    so no finite nonzero vector overflows or underflows its norm."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"vector shapes differ: {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("cosine similarity is undefined for a non-finite "
                         "vector")
    sa, sb = np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0)
    if sa == 0.0 or sb == 0.0:
        raise ValueError("cosine similarity is undefined for a zero vector")
    a, b = a / sa, b / sb
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


@dataclass(frozen=True)
class VerificationPair:
    embedding_a: np.ndarray
    embedding_b: np.ndarray
    same: bool
    split: int


@dataclass(frozen=True)
class PairRecord:
    """One line of a pairs file: two embedding-table rows, 1 when they show
    the same identity and 0 when not, and the pair's split."""

    id_a: int
    id_b: int
    same: int
    split: int

    def __post_init__(self):
        if self.same not in (0, 1):
            raise ValueError(f"same must be 0 or 1, got {self.same}")


@dataclass(frozen=True)
class SplitResult:
    split: int
    threshold: float
    accuracy: float
    num_pairs: int


@dataclass
class VerifyResult:
    splits: list

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean([s.accuracy for s in self.splits]))


def _threshold_candidates(values):
    vals = np.unique(values)
    mids = (vals[1:] + vals[:-1]) / 2.0
    return np.concatenate(([-np.inf], mids, [np.inf]))


def _accuracies_at(cands, sims, labels):
    """Accuracy of "same iff sim >= t" for every candidate, vectorized.

    correct(t) = (#same with sim >= t) + (#diff with sim < t).
    """
    same_sorted = np.sort(sims[labels])
    diff_sorted = np.sort(sims[~labels])
    same_lt = np.searchsorted(same_sorted, cands, side="left")
    diff_lt = np.searchsorted(diff_sorted, cands, side="left")
    correct = (same_sorted.size - same_lt) + diff_lt
    return correct / sims.size


def best_threshold(sims, labels):
    """(threshold, training accuracy): max accuracy, ties to the smallest
    candidate. Candidates are distinct-value midpoints plus both infinities."""
    sims = np.asarray(sims, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if sims.size == 0:
        raise ValueError("cannot pick a threshold from zero pairs")
    cands = _threshold_candidates(sims)
    accs = _accuracies_at(cands, sims, labels)
    i = int(np.argmax(accs))  # first maximum; candidates ascend, so smallest
    return float(cands[i]), float(accs[i])


def verify(pairs) -> VerifyResult:
    """Leave-one-split-out verification over VerificationPair records."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no verification pairs given")
    sims = np.array([cosine_similarity(p.embedding_a, p.embedding_b)
                     for p in pairs])
    labels = np.array([bool(p.same) for p in pairs])
    split_ids = np.array([int(p.split) for p in pairs])
    present = np.unique(split_ids)
    if present.size < 2:
        raise ValueError(f"need at least 2 splits, got {present.size}")
    for s in range(int(present.max()) + 1):
        if s not in present:
            raise ValueError(f"split {s} has no pairs")

    results = []
    for s in present:
        held = split_ids == s
        t, _ = best_threshold(sims[~held], labels[~held])
        pred = sims[held] >= t
        acc = float((pred == labels[held]).mean())
        results.append(SplitResult(int(s), t, acc, int(held.sum())))
    return VerifyResult(results)


@dataclass(frozen=True)
class OperatingPoint:
    threshold: float
    tpr: float
    fpr: float
    abstain_rate: float


def select_operating_point(scores, labels, target_fpr: float) -> OperatingPoint:
    """Smallest global threshold with calibration fpr <= target_fpr.

    Candidates are the observed score values plus a sentinel just above the
    maximum (predict nothing). Rates are computed over all (sample, class)
    cells; abstain_rate is the fraction of samples with no score >= t.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 2 or labels.shape != scores.shape:
        raise ValueError(f"scores and labels must share an (n, m) shape, got "
                         f"{scores.shape} and {labels.shape}")
    if scores.size == 0:
        raise ValueError("cannot calibrate on an empty score matrix")
    if not (scores.min() >= 0.0 and scores.max() <= 1.0):
        raise ValueError("scores must lie in [0, 1]")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be binary")
    if not 0.0 <= target_fpr <= 1.0:
        raise ValueError(f"target fpr must lie in [0, 1], got {target_fpr}")

    pos = labels.astype(bool)
    flat_scores = scores.ravel()
    pos_sorted = np.sort(flat_scores[pos.ravel()])
    neg_sorted = np.sort(flat_scores[~pos.ravel()])
    cands = np.unique(flat_scores)
    cands = np.append(cands, np.nextafter(cands[-1], np.inf))

    n_neg = neg_sorted.size
    # fp(t) = # negatives with score >= t, non-increasing in t
    fp = n_neg - np.searchsorted(neg_sorted, cands, side="left")
    fpr = fp / n_neg if n_neg else np.zeros_like(cands)
    ok = np.nonzero(fpr <= target_fpr)[0]
    i = int(ok[0])  # smallest qualifying threshold
    t = float(cands[i])

    n_pos = pos_sorted.size
    tp = n_pos - np.searchsorted(pos_sorted, t, side="left")
    tpr = tp / n_pos if n_pos else 0.0
    abstain = float((scores.max(axis=1) < t).mean())
    return OperatingPoint(t, float(tpr), float(fpr[i]), abstain)


def format_verify_report(result: VerifyResult) -> str:
    lines = ["split\tpairs\tthreshold\taccuracy"]
    for s in result.splits:
        lines.append(f"{s.split}\t{s.num_pairs}\t{s.threshold!r}\t{s.accuracy!r}")
    lines.append(f"mean accuracy over {len(result.splits)} splits: "
                 f"{result.mean_accuracy!r}")
    return "\n".join(lines) + "\n"


def format_operating_point_report(op: OperatingPoint, target_fpr: float) -> str:
    return ("target_fpr\tthreshold\ttpr\tfpr\tabstain_rate\n"
            f"{target_fpr!r}\t{op.threshold!r}\t{op.tpr!r}\t{op.fpr!r}\t"
            f"{op.abstain_rate!r}\n")
