import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchnet.evalkit import (OperatingPoint, VerificationPair,
                               best_threshold, cosine_similarity,
                               format_operating_point_report,
                               format_verify_report, select_operating_point,
                               verify)
from oracles import operating_point_sweep, threshold_sweep, verify_sweep


def pairs_from_sims(sims, labels, splits):
    """Encode target similarities as unit 2-d embeddings at matching angles."""
    out = []
    for s, y, sp in zip(sims, labels, splits):
        theta = math.acos(max(-1.0, min(1.0, s)))
        out.append(VerificationPair(np.array([1.0, 0.0]),
                                    np.array([math.cos(theta), math.sin(theta)]),
                                    bool(y), int(sp)))
    return out


# cosine similarity


def test_cosine_reference_values():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([4.0, 5.0, 6.0])
    want = 32.0 / (math.sqrt(14.0) * math.sqrt(77.0))
    assert abs(cosine_similarity(a, b) - want) < 1e-12
    assert abs(cosine_similarity(a, b) - 0.974632) < 1e-6
    assert cosine_similarity(a, a) == pytest.approx(1.0)
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert cosine_similarity(a, -a) == pytest.approx(-1.0)


def test_cosine_holds_for_vectors_whose_squares_leave_float64():
    # 1e200 squared overflows and 1e-170 squared underflows float64
    big = cosine_similarity(np.array([1e200, 1e200]), np.array([1e200, 0.0]))
    assert big == pytest.approx(1 / math.sqrt(2.0), rel=1e-15)
    tiny = np.array([1e-170, 1e-170])
    assert cosine_similarity(tiny, tiny) == pytest.approx(1.0, rel=1e-15)


def test_cosine_rejects_zero_vectors_and_shape_mismatch():
    with pytest.raises(ValueError, match="zero"):
        cosine_similarity(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError):
        cosine_similarity(np.ones(3), np.ones(4))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_cosine_rejects_non_finite_vectors(value):
    bad = np.array([1.0, value, 0.5])
    for a, b in ((bad, np.ones(3)), (np.ones(3), bad)):
        with pytest.raises(ValueError, match="non-finite vector"):
            cosine_similarity(a, b)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.01, 100.0), st.floats(0.01, 100.0))
def test_cosine_scale_invariance(seed, alpha, beta):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(8) + 0.1
    b = rng.standard_normal(8) + 0.1
    assert cosine_similarity(alpha * a, beta * b) == \
        pytest.approx(cosine_similarity(a, b), abs=1e-9)


# threshold selection and the verification protocol


def test_best_threshold_separable():
    sims = np.array([0.9, 0.8, 0.2, 0.1])
    labels = np.array([True, True, False, False])
    t, acc = best_threshold(sims, labels)
    assert acc == 1.0
    assert 0.2 < t < 0.8


def test_best_threshold_tie_takes_smallest_candidate():
    # both midpoints achieve 2/3; the smaller one must win
    sims = np.array([0.1, 0.5, 0.9])
    labels = np.array([True, True, False])
    t, acc = best_threshold(sims, labels)
    oracle_t, oracle_acc = threshold_sweep(sims, labels)
    assert (t, acc) == (oracle_t, oracle_acc)
    assert t == -np.inf and acc == pytest.approx(2 / 3)


def test_best_threshold_matches_sweep_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 60))
        sims = np.round(rng.random(n), 2)  # duplicates force tie handling
        labels = rng.random(n) < 0.5
        assert best_threshold(sims, labels) == threshold_sweep(sims, labels)


def test_verify_separated_embeddings_hit_mean_one():
    rng = np.random.default_rng(1)
    sims = np.concatenate([0.8 + 0.2 * rng.random(30), 0.2 * rng.random(30)])
    labels = np.array([True] * 30 + [False] * 30)
    splits = np.tile(np.arange(3), 20)
    result = verify(pairs_from_sims(sims, labels, splits))
    assert result.mean_accuracy == 1.0
    assert len(result.splits) == 3
    assert all(s.accuracy == 1.0 for s in result.splits)


def test_verify_random_labels_near_half():
    rng = np.random.default_rng(2)
    n = 1200
    sims = rng.random(n)
    labels = rng.random(n) < 0.5
    splits = np.tile(np.arange(2), n // 2)
    result = verify(pairs_from_sims(sims, labels, splits))
    assert abs(result.mean_accuracy - 0.5) < 0.1


def test_verify_matches_sweep_oracle_on_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n_splits = int(rng.integers(2, 6))
        n = int(rng.integers(n_splits * 2, 120))
        sims = np.round(rng.random(n), 2)
        labels = rng.random(n) < rng.uniform(0.2, 0.8)
        splits = np.concatenate([np.arange(n_splits),
                                 rng.integers(0, n_splits, n - n_splits)])
        result = verify(pairs_from_sims(sims, labels, splits))
        want = verify_sweep([cosine_similarity(p.embedding_a, p.embedding_b)
                             for p in pairs_from_sims(sims, labels, splits)],
                            labels, splits)
        got = [(s.split, s.threshold, s.accuracy) for s in result.splits]
        assert got == want
        assert result.mean_accuracy == pytest.approx(
            sum(acc for _, _, acc in want) / n_splits)


def test_verify_validation_errors():
    sims = np.array([0.5, 0.6])
    with pytest.raises(ValueError, match="at least 2 splits"):
        verify(pairs_from_sims(sims, [True, False], [0, 0]))
    with pytest.raises(ValueError, match="split 1 has no pairs"):
        verify(pairs_from_sims(np.array([0.5, 0.6, 0.7]),
                               [True, False, True], [0, 0, 2]))
    with pytest.raises(ValueError, match="no verification pairs"):
        verify([])


def test_mean_accuracy_is_arithmetic_over_splits():
    rng = np.random.default_rng(4)
    sims = rng.random(40)
    labels = rng.random(40) < 0.5
    splits = np.repeat(np.arange(4), 10)
    result = verify(pairs_from_sims(sims, labels, splits))
    assert result.mean_accuracy == pytest.approx(
        np.mean([s.accuracy for s in result.splits]))


# operating-point selection


def test_operating_point_separable_case():
    scores = np.array([[0.9, 0.1], [0.85, 0.2], [0.1, 0.95]])
    labels = np.array([[1, 0], [1, 0], [0, 1]])
    op = select_operating_point(scores, labels, target_fpr=0.01)
    assert op.tpr == 1.0 and op.fpr == 0.0
    assert 0.2 < op.threshold <= 0.85
    assert op.abstain_rate == 0.0


def test_operating_point_trivial_target_accepts_everything():
    scores = np.array([[0.3, 0.7], [0.2, 0.6]])
    labels = np.array([[0, 1], [1, 0]])
    op = select_operating_point(scores, labels, target_fpr=1.0)
    assert op.threshold == 0.2  # smallest observed score
    assert op.tpr == 1.0 and op.fpr == 1.0 and op.abstain_rate == 0.0


def test_operating_point_unreachable_target_rejects_everything():
    scores = np.array([[0.5, 0.5], [0.5, 0.5]])
    labels = np.array([[0, 0], [0, 0]])
    op = select_operating_point(scores, labels, target_fpr=0.0)
    assert op.threshold > 0.5  # sentinel above the maximum
    assert op.tpr == 0.0 and op.fpr == 0.0 and op.abstain_rate == 1.0


def test_operating_point_matches_sweep_oracle_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 80))
        m = int(rng.integers(2, 6))
        scores = np.round(rng.random((n, m)), 1)  # heavy ties
        labels = (rng.random((n, m)) < 0.4).astype(int)
        if labels.sum() in (0, labels.size):
            labels[0, 0] = 1 - labels[0, 0]
        target = float(rng.choice([0.0, 0.0103, 0.05, rng.random()]))
        op = select_operating_point(scores, labels, target)
        t, tpr, fpr, abstain = operating_point_sweep(scores, labels, target)
        assert (op.threshold, op.tpr, op.fpr, op.abstain_rate) == \
            (t, tpr, fpr, abstain)
        assert op.fpr <= target


def test_operating_point_validation():
    ok = np.array([[0.5, 0.5]])
    with pytest.raises(ValueError, match="share an"):
        select_operating_point(ok, np.array([[1, 0, 1]]), 0.1)
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        select_operating_point(np.array([[1.5, 0.2]]), np.array([[1, 0]]), 0.1)
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        select_operating_point(np.array([[np.nan, 0.2]]), np.array([[1, 0]]),
                               0.1)
    with pytest.raises(ValueError, match="binary"):
        select_operating_point(ok, np.array([[2, 0]]), 0.1)
    with pytest.raises(ValueError, match="target fpr"):
        select_operating_point(ok, np.array([[1, 0]]), 1.5)
    with pytest.raises(ValueError, match="empty"):
        select_operating_point(np.zeros((0, 2)), np.zeros((0, 2)), 0.1)


def test_reports_round_numbers_readably():
    scores = np.array([[0.9, 0.1], [0.2, 0.8]])
    labels = np.array([[1, 0], [0, 1]])
    op = select_operating_point(scores, labels, 0.0103)
    text = format_operating_point_report(op, 0.0103)
    assert "0.0103" in text and "threshold" in text
    rng = np.random.default_rng(6)
    sims = rng.random(20)
    result = verify(pairs_from_sims(sims, rng.random(20) < 0.5,
                                    np.tile([0, 1], 10)))
    text = format_verify_report(result)
    assert "mean" in text and "split" in text
    assert isinstance(op, OperatingPoint)
