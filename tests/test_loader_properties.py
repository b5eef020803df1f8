"""Every loader raises only its domain error, naming the file, on any input."""
from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sentiscore.cnn import CnnConfig, CnnError, init_model, load_checkpoint, save_checkpoint
from sentiscore.evaluate import EvalError, ExperimentConfig, config_to_text, parse_experiment_config
from sentiscore.lexicon import LexiconError, load_lexicon, load_mention_records
from sentiscore.vocab import PAD, UNK, Vocab

# Each example rewrites the one file under the test's tmp_path.
FILE_SETTINGS = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

# Sections and keys of the default config, so drawn texts mostly get past
# the unknown-key check to the values, which may hold "%", "(" and ")".
SECTION_KEYS: dict[str, list[tuple[str, str]]] = {}
for line in config_to_text(ExperimentConfig()).splitlines():
    if line.startswith("["):
        pairs = SECTION_KEYS.setdefault(line, [])
    elif line:
        pairs.append(tuple(line.split(" = ", 1)))
ODD = st.text(alphabet="%()s:01.-ak", max_size=6)
JUNK = st.text(alphabet="%()[]=:ks \t\n", max_size=10) | st.sampled_from(["[DEFAULT]", "[other]"])


@st.composite
def ini_texts(draw):
    lines = []
    for section in draw(st.lists(st.sampled_from(sorted(SECTION_KEYS)), min_size=1, unique=True)):
        lines.append(section)
        for key, value in draw(st.lists(st.sampled_from(SECTION_KEYS[section]), unique=True)):
            lines.append(f"{key} = {draw(st.just(value) | ODD)}")
        if draw(st.integers(0, 3)) == 0:
            lines.append(draw(JUNK))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(text=ini_texts())
def test_parse_experiment_config_raises_only_eval_error(text):
    try:
        parse_experiment_config(text)
    except EvalError:
        pass


TSV_FIELDS = st.sampled_from(
    ["good", "very", "word", "adverb", "positive", "negative", "neutral", "n/a",
     "1.5", "-0.5", "0", "nan", "inf", "1e999", "", "Good", "a b", "TARGET is good"]
) | st.text(max_size=5)
TSV_BYTES = st.one_of(
    st.lists(st.lists(TSV_FIELDS, max_size=5).map("\t".join), max_size=6)
    .map("\n".join)
    .map(str.encode),
    st.binary(max_size=64),
)


@pytest.mark.parametrize("load", [load_lexicon, load_mention_records])
@FILE_SETTINGS
@given(data=TSV_BYTES)
def test_tsv_loaders_raise_only_lexicon_error_naming_the_file(tmp_path, load, data):
    path = tmp_path / "input.tsv"
    path.write_bytes(data)
    try:
        load(path)
    except LexiconError as exc:
        assert str(path) in str(exc)


def _checkpoint_bytes(tmp_path) -> bytes:
    config = CnnConfig(window=2, filter_count=2, pool_window=2, sequence_length=4, embedding_dim=3)
    vocab = Vocab((PAD, UNK, "good"))
    path = tmp_path / "valid.ckpt"
    save_checkpoint(path, init_model(len(vocab), config), vocab, config)
    return path.read_bytes()


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


@FILE_SETTINGS
@given(data=st.data())
def test_load_checkpoint_raises_only_cnn_error_naming_the_file(tmp_path, data):
    magic, header, payload = _checkpoint_bytes(tmp_path).split(b"\n", 2)
    meta = json.loads(header)
    section = data.draw(st.sampled_from(sorted(meta)))
    if isinstance(meta[section], dict) and data.draw(st.booleans()):
        meta[section][data.draw(st.sampled_from(sorted(meta[section])))] = data.draw(JSON)
    elif data.draw(st.booleans()):
        meta[section] = data.draw(JSON)
    blob = magic + b"\n" + json.dumps(meta).encode() + b"\n" + payload
    start = data.draw(st.integers(0, len(blob)))
    end = data.draw(st.integers(start, len(blob)))
    blob = blob[:start] + data.draw(st.binary(max_size=8)) + blob[end:]
    path = tmp_path / "model.ckpt"
    path.write_bytes(blob)
    try:
        load_checkpoint(path)
    except CnnError as exc:
        assert str(path) in str(exc)
