"""Record files and config text: one typed reader (config.parse_records),
records that check their own fields, and Hypothesis fuzzing of every
reader, up to a heads.txt inside a valid desk bundle."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from branchnet.config import (load_records, parse_config_text, parse_records,
                              parse_value)
from branchnet.engine import forward_pass
from branchnet.evalkit import PairRecord
from branchnet.experiments import GridTask, ProbeFactor
from branchnet.graph import ArchConfig, build_trunk
from branchnet.multihead import (HeadSpec, MultiHeadModel, combined_flops,
                                 format_prediction_lines, load_bundle,
                                 predict_all, save_bundle)
from branchnet.train import LOSS_KINDS, TrainConfig, init_params, make_branch

RECORD_KINDS = (GridTask, HeadSpec, PairRecord)
FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def test_records_parse_typed_fields_and_skip_comments_and_blank_lines():
    text = ("# name column classes loss\n\n"
            "binary binary 2 softmax  # trailing comment\n"
            "  tags\tmultilabel 009 sigmoid-multilabel\n")
    assert parse_records(GridTask, text) == [
        GridTask("binary", "binary", 2, "softmax"),
        GridTask("tags", "multilabel", 9, "sigmoid-multilabel")]
    assert parse_records(GridTask, "# only a comment\n\n") == []


@pytest.mark.parametrize("line, message", [
    ("binary binary 2", "expected 4 values separated by whitespace, "
                        "got 'binary binary 2'"),
    ("binary binary 2 softmax extra", "expected 4 values"),
    ("binary binary two softmax", "invalid literal for int"),
    ("binary binary 1 softmax", "at least 2 classes, got 1"),
    ("binary binary 2 mse", "unknown loss 'mse'"),
])
def test_a_bad_line_is_one_value_error_naming_source_and_line(line, message):
    text = "# tasks\nnuisance nuisance 7 softmax\n" + line + "\n"
    with pytest.raises(ValueError, match=r"^tasks\.txt:3: ") as exc:
        parse_records(GridTask, text, "tasks.txt")
    assert message in str(exc.value)


def test_load_records_names_the_file(tmp_path):
    path = tmp_path / "pairs.txt"
    path.write_text("0 1 1 0\n1 2 0 3\n")
    assert load_records(PairRecord, path) == [PairRecord(0, 1, 1, 0),
                                              PairRecord(1, 2, 0, 3)]
    path.write_text("0 1 1 0\n0 2 2 0\n")
    with pytest.raises(ValueError, match=f"^{path}:2: same must be 0 or 1, "
                                         f"got 2$"):
        load_records(PairRecord, path)


@pytest.mark.parametrize("task", ["", ".", "..", "trunk", "a/b", "../x",
                                  "/abs", "sub/"])
def test_a_head_task_must_be_a_plain_file_stem_other_than_trunk(task):
    with pytest.raises(ValueError, match="is not a plain file stem"):
        HeadSpec(task, "conv19", 7, "softmax")


@pytest.mark.parametrize("kind", [GridTask, HeadSpec])
def test_task_records_check_class_count_and_loss(kind):
    kind("t", "conv19", 2, "sigmoid-multilabel")  # the least valid record
    for classes in (1, 0, -3):
        with pytest.raises(ValueError, match="at least 2 classes"):
            kind("t", "conv19", classes, "softmax")
    with pytest.raises(ValueError, match="unknown loss 'hinge'"):
        kind("t", "conv19", 7, "hinge")


def test_factors_parse_as_a_tuple_of_records():
    kind = tuple[ProbeFactor, ...]
    assert parse_value(kind, "nuisance:nuisance:7,binary:binary:2") == (
        ProbeFactor("nuisance", "nuisance", 7),
        ProbeFactor("binary", "binary", 2))
    with pytest.raises(ValueError, match="expected 3 values joined by ':'"):
        parse_value(kind, "nuisance:7")


# fuzzing: every input parses to valid records or raises ValueError

TEXT = st.characters(blacklist_categories=("Cs",))
TOKEN = st.one_of(
    st.sampled_from(["binary", "nuisance", "tags", "trunk", ".", "..", "a/b",
                     "conv19", "fc", "relu5", "0", "1", "2", "7", "-1", "007",
                     "1_0", "2.0", "x", "+3", *LOSS_KINDS, "mse"]),
    st.text(TEXT, min_size=1, max_size=6))
LINE = st.one_of(st.lists(TOKEN, min_size=2, max_size=5).map(" ".join),
                 st.text(TEXT, max_size=24),
                 st.sampled_from(["", "# comment", "  \t "]))
RECORD_TEXT = st.lists(LINE, max_size=6).map("\n".join)


def check_record(kind, record):
    assert type(record) is kind
    for f in dataclasses.fields(kind):
        assert type(getattr(record, f.name)) is f.type


@FUZZ
@given(text=st.one_of(st.text(TEXT), RECORD_TEXT,
                      st.lists(st.tuples(TOKEN, TOKEN), max_size=5).map(
                          lambda kv: "\n".join(f"{k}={v}" for k, v in kv))))
def test_fuzzed_config_text_parses_or_raises_value_error(text):
    try:
        mapping = parse_config_text(text)
    except ValueError:
        return
    for key, value in mapping.items():
        assert key and key == key.strip() and "#" not in key + value
        assert value == value.strip()


@FUZZ
@given(kind=st.sampled_from(RECORD_KINDS), text=RECORD_TEXT)
def test_fuzzed_record_text_parses_or_raises_value_error(kind, text):
    try:
        records = parse_records(kind, text, "fuzz.txt")
    except ValueError as exc:
        assert str(exc).startswith("fuzz.txt:")
        return
    for record in records:
        check_record(kind, record)


@FUZZ
@given(text=st.one_of(st.text(TEXT, max_size=24), RECORD_TEXT))
def test_fuzzed_factors_parse_or_raise_value_error(text):
    try:
        factors = parse_value(tuple[ProbeFactor, ...], text)
    except ValueError:
        return
    for factor in factors:
        check_record(ProbeFactor, factor)


DESK_BUNDLE_HEADS = (("nuisance", "conv19", 7, "softmax"),
                     ("tags", "fc", 3, "sigmoid-multilabel"))


@pytest.fixture(scope="module")
def desk_bundle(tmp_path_factory):
    graph = build_trunk(ArchConfig.desk(num_identities=4))
    store = init_params(graph, TrainConfig.desk(seed=3))
    x = np.random.default_rng(4).standard_normal((4, 1, 56, 56))
    _, updates = forward_pass(graph, store, x.astype(np.float32), mode="train")
    store.running.update(updates)
    model = MultiHeadModel(graph, store)
    for task, layer, k, loss in DESK_BUNDLE_HEADS:
        br = make_branch(graph, store, layer, k, loss=loss, warm=True, seed=5)
        model.add_head(HeadSpec(task, layer, k, loss), br.graph, br.store)
    out = tmp_path_factory.mktemp("fuzz") / "bundle"
    save_bundle(out, model)
    return out


SUBSTITUTES = (["nuisance", "tags", "trunk", "missing", "..", "a/b"],
               ["conv17", "conv19", "conv22", "fc", "relu5", "input",
                "nowhere"],
               ["7", "3", "2", "1", "0", "-7", "007", "x"],
               [*LOSS_KINDS, "mse"])


@st.composite
def heads_text(draw):
    """The bundle's own heads.txt lines, each repeated, dropped or with
    fields replaced, plus an arbitrary line now and then."""
    lines = []
    for head in draw(st.lists(st.sampled_from(DESK_BUNDLE_HEADS), max_size=3)):
        fields = [draw(st.sampled_from([str(value)] * 8 + choices))
                  for value, choices in zip(head, SUBSTITUTES)]
        lines.append(" ".join(fields))
    lines += draw(st.lists(LINE, max_size=1))
    return "\n".join(draw(st.permutations(lines)))


def check_heads_file(bundle, text):
    """heads.txt holding text either fails to load with ValueError or
    loads a model that serves a request and reports its cost."""
    (bundle / "heads.txt").write_text(text, encoding="utf-8")
    try:
        model = load_bundle(bundle)
    except ValueError:
        return
    x = np.random.default_rng(6).standard_normal((1, 1, 56, 56))
    pred = predict_all(model, x.astype(np.float32))
    assert len(pred.tasks) == len(model.heads)
    for head in model.heads:
        scores = pred.tasks[head.spec.task].scores
        assert scores.shape == (1, head.spec.num_classes)
    combined_flops(model)
    format_prediction_lines(["s"], pred, model.heads)


@pytest.mark.parametrize("head", DESK_BUNDLE_HEADS, ids=lambda h: h[0])
def test_every_single_field_substitution_in_heads_file(desk_bundle, head):
    valid = [" ".join(map(str, h)) for h in DESK_BUNDLE_HEADS]
    for i, choices in enumerate(SUBSTITUTES):
        for value in choices:
            fields = [str(f) for f in head]
            fields[i] = value
            line = " ".join(fields)
            check_heads_file(desk_bundle, "\n".join(valid + [line]))
            check_heads_file(desk_bundle, line)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=heads_text())
def test_fuzzed_heads_file_loads_a_servable_bundle_or_raises_value_error(
        desk_bundle, text):
    check_heads_file(desk_bundle, text)
