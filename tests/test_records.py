"""Record files and config text: one typed reader (config.parse_records),
records that check their own fields, and Hypothesis fuzzing of every
reader, up to a heads.txt inside a valid desk bundle."""

import dataclasses
import functools
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from branchnet.config import (format_records, load_config, load_records,
                              parse_config_text, parse_records, parse_value)
from branchnet.engine import forward_pass
from branchnet.evalkit import PairRecord
from branchnet.experiments import (STUDY_SEED, TRUNK_MINIBATCHES, GridTask,
                                   ProbeFactor)
from branchnet.graph import LOSS_KINDS, ArchConfig, build_trunk
from branchnet.multihead import (HeadSpec, MultiHeadModel, combined_flops,
                                 format_prediction_lines, load_bundle,
                                 predict_all, save_bundle)
from branchnet.params import load_checkpoint
from branchnet.train import TrainConfig, init_params, make_branch
from conftest import branch_digests, save_full_prefix_bundle

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


def test_a_trailing_field_whose_default_is_empty_may_be_omitted():
    digest = "0123456789abcdef" * 4
    text = f"old fc 2 softmax\nnew conv19 7 softmax {digest}\n"
    assert parse_records(HeadSpec, text) == [
        HeadSpec("old", "fc", 2, "softmax"),
        HeadSpec("new", "conv19", 7, "softmax", digest)]
    assert format_records(parse_records(HeadSpec, text)) == text
    for line in ("old fc 2", f"new conv19 7 softmax {digest} extra"):
        with pytest.raises(ValueError, match=r"^<records>:1: expected 4 to 5 "
                                             r"values separated by whitespace"):
            parse_records(HeadSpec, line)
    # a default other than "" does not make a field optional
    with pytest.raises(ValueError, match="expected 4 values"):
        parse_records(GridTask, "binary binary 2")
    with pytest.raises(ValueError, match="prefix digest 'ABC' is not 64 "
                                         "lowercase hex digits"):
        parse_records(HeadSpec, "t fc 2 softmax ABC")


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


def test_the_committed_configs_load_as_the_configs_they_name():
    configs = os.path.join(os.path.dirname(__file__), "..", "configs")
    canonical = load_config(os.path.join(configs, "canonical.arch"))
    assert ArchConfig.from_mapping(canonical) == ArchConfig()
    desk = load_config(os.path.join(configs, "desk_study.cfg"))
    assert ArchConfig.from_mapping(desk) == ArchConfig.desk()
    assert TrainConfig.from_mapping(desk) == TrainConfig.desk(
        max_minibatches=TRUNK_MINIBATCHES, seed=STUDY_SEED)


# one whitespace-free field of a record line: no "#", no line break
FIELD = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Z"),
                              blacklist_characters="#"), min_size=1)


@st.composite
def valid_records(draw, kind):
    values = []
    for f in dataclasses.fields(kind):
        if f.name == "loss":
            values.append(draw(st.sampled_from(sorted(LOSS_KINDS))))
        elif f.type is str:
            values.append(draw(FIELD))
        elif f.name == "num_classes":
            values.append(draw(st.integers(2, 2 ** 70)))
        elif f.name == "same":
            values.append(draw(st.integers(0, 1)))
        elif f.name == "prefix_sha256":  # empty, or 64 lowercase hex digits
            values.append(draw(st.one_of(st.just(""), st.text(
                "0123456789abcdef", min_size=64, max_size=64))))
        else:
            values.append(draw(st.integers(-2 ** 70, 2 ** 70)))
    try:
        return kind(*values)
    except ValueError:
        assume(False)


@FUZZ
@given(data=st.data(), kind=st.sampled_from(RECORD_KINDS))
def test_format_records_is_the_inverse_of_parse_records(data, kind):
    records = data.draw(st.lists(valid_records(kind), max_size=4))
    text = format_records(records)
    assert text.count("\n") == len(records)
    assert parse_records(kind, text) == records


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


# the last column, "@<layer>", stands for the trunk's prefix digest there
DESK_BUNDLE_HEADS = (("nuisance", "conv19", 7, "softmax", "@conv19"),
                     ("tags", "fc", 3, "sigmoid-multilabel", "@fc"))


@pytest.fixture(scope="module")
def desk_model():
    graph = build_trunk(ArchConfig.desk(num_identities=4))
    store = init_params(graph, TrainConfig.desk(seed=3))
    x = np.random.default_rng(4).standard_normal((4, 1, 56, 56))
    _, updates = forward_pass(graph, store, x.astype(np.float32), mode="train")
    store.running.update(updates)
    model = MultiHeadModel(graph, store)
    for task, layer, k, loss, _ in DESK_BUNDLE_HEADS:
        br = make_branch(graph, store, layer, k, loss=loss, warm=True, seed=5)
        model.add_head(HeadSpec(task, layer, k, loss), br.graph, br.store)
    return model


@pytest.fixture(scope="module")
def desk_bundle(tmp_path_factory, desk_model):
    out = tmp_path_factory.mktemp("fuzz") / "bundle"
    save_bundle(out, desk_model)
    digests = branch_digests(desk_model.trunk_graph, desk_model.trunk_store)
    assert (out / "heads.txt").read_text() == "".join(
        f"{' '.join(map(str, head[:4]))} {digests[head[1]]}\n"
        for head in DESK_BUNDLE_HEADS)
    return out


@pytest.fixture(scope="module")
def full_prefix_desk_bundle(tmp_path_factory, desk_model):
    """The same model in the older form: whole head files, 4-field lines."""
    out = tmp_path_factory.mktemp("fuzz") / "full"
    save_full_prefix_bundle(out, desk_model)
    return out


SUBSTITUTES = (["nuisance", "tags", "trunk", "missing", "..", "a/b"],
               ["conv17", "conv19", "conv22", "fc", "relu5", "input",
                "nowhere"],
               ["7", "3", "2", "1", "0", "-7", "007", "x"],
               [*LOSS_KINDS, "mse"],
               # wrong (another layer's, zeros), empty (a 4-field line) and
               # not hex
               ["@conv19", "@fc", "@conv22", "0" * 64, "", "g" * 64,
                "@fc0", "xyz"])


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


@functools.cache
def bundle_digests(bundle):
    """The prefix digests of the bundle's trunk.ckpt, by branch point."""
    return branch_digests(*load_checkpoint(bundle / "trunk.ckpt"))


def check_heads_file(bundle, text):
    """heads.txt holding text, each "@<layer>" put as the trunk's prefix
    digest at that layer, either fails to load with ValueError or loads a
    model that serves a request and reports its cost."""
    digests = {f"@{layer}": digest for layer, digest in bundle_digests(
        bundle).items()}
    text = re.sub("@[a-z0-9-]+", lambda m: digests.get(m[0], m[0]), text)
    (bundle / "heads.txt").write_text(text, encoding="utf-8")
    try:
        model = load_bundle(bundle)
    except ValueError:
        return None
    x = np.random.default_rng(6).standard_normal((1, 1, 56, 56))
    pred = predict_all(model, x.astype(np.float32))
    assert len(pred.tasks) == len(model.heads)
    for head in model.heads:
        scores = pred.tasks[head.spec.task].scores
        assert scores.shape == (1, head.spec.num_classes)
    combined_flops(model)
    format_prediction_lines(["s"], pred, model.heads)
    return len(model.heads)


@pytest.mark.parametrize("head", DESK_BUNDLE_HEADS, ids=lambda h: h[0])
def test_every_single_field_substitution_in_heads_file(
        desk_bundle, full_prefix_desk_bundle, head):
    # 5-field lines over suffix-only head files, 4-field lines over whole ones
    for bundle, width in ((desk_bundle, 5), (full_prefix_desk_bundle, 4)):
        valid = [" ".join(map(str, h[:width])) for h in DESK_BUNDLE_HEADS]
        assert check_heads_file(bundle, "\n".join(valid)) == 2
        for i, choices in enumerate(SUBSTITUTES[:width]):
            for value in choices:
                fields = [str(f) for f in head[:width]]
                fields[i] = value
                line = " ".join(fields)
                check_heads_file(bundle, "\n".join(valid + [line]))
                check_heads_file(bundle, line)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=heads_text())
def test_fuzzed_heads_file_loads_a_servable_bundle_or_raises_value_error(
        desk_bundle, text):
    check_heads_file(desk_bundle, text)
