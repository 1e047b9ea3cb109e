"""Round-trip properties: every token tokenize() can emit, every finite vector
and every config that constructs read back from the files the tool writes
exactly as written; a corpus written out by `semexpand tokenize` reads back as
the same sentences."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from helpers import embeddings_of
from semexpand import cli
from semexpand.clustering import (
    ClusterAssignment,
    compute_centroids,
    load_assignment,
    save_assignment,
)
from semexpand.config import ExperimentConfig, parse_config_lines
from semexpand.corpus import (
    UserDictionary,
    load_dictionary_file,
    load_sentence_file,
    tokenize,
)
from semexpand.embedding import MODE_EXACT, MODE_NEGATIVE, read_vector_file, write_vector_file
from semexpand.errors import ConfigError, DataFormatError

# Words built from letters, digits, `_`, punctuation and whitespace, so that
# dictionary terms, literal `_` spellings and punctuation meet in one text.
WORDS = st.text(alphabet="ab_1é-.,' \t", min_size=1, max_size=6)


@st.composite
def texts_with_dictionaries(draw):
    words = draw(st.lists(WORDS, min_size=1, max_size=6))
    terms = draw(st.lists(st.lists(st.sampled_from(words), min_size=1, max_size=3), max_size=4))
    pieces = st.one_of(st.sampled_from(words), st.text(max_size=8))
    text = draw(st.lists(pieces, max_size=12).map(" ".join))
    entries = [" ".join(term) for term in terms if tokenize(" ".join(term))]
    # UserDictionary rejects these; test_tokenized_corpus_reads_back_as_its_source checks how
    entries = [entry for entry in entries if not splits_again(entry)]
    return text, UserDictionary(entries) if draw(st.booleans()) else None


def splits_again(term: str) -> bool:
    """Whether the token that tokenize() joins ``term`` into is split by tokenize() again."""
    joined = "_".join(tokenize(term))
    return tokenize(joined) != [joined]


def distinct_tokens(text, user_dict) -> list:
    return list(dict.fromkeys(tokenize(text, user_dict)))


@given(texts_with_dictionaries())
def test_tokens_are_non_empty_and_hold_no_whitespace(case):
    for token in tokenize(*case):
        assert token and not any(c.isspace() for c in token), repr(token)


@given(texts_with_dictionaries())
def test_tokens_round_trip_through_vector_files(tmp_path_factory, case):
    words = distinct_tokens(*case)
    if not words:
        return
    matrix = np.arange(2.0 * len(words)).reshape(len(words), 2)
    path = tmp_path_factory.mktemp("vectors") / "vectors.txt"
    write_vector_file(path, words, matrix)
    loaded_words, loaded = read_vector_file(path)
    assert loaded_words == words
    assert np.array_equal(loaded, matrix)


@given(
    arrays(
        np.float64,
        array_shapes(min_dims=2, max_dims=2, max_side=6),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
def test_finite_matrices_round_trip_through_vector_files(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("matrix") / "vectors.txt"
    write_vector_file(path, [f"w{i}" for i in range(len(matrix))], matrix)
    assert np.array_equal(read_vector_file(path)[1], matrix)


@given(texts_with_dictionaries(), st.data())
def test_tokens_round_trip_through_cluster_assignments(tmp_path_factory, case, data):
    """The `cluster` -> `expand` chain: words read from a vector file, clustered,
    saved, then loaded against the tokens' own vocabulary and vectors."""
    tokens = distinct_tokens(*case)
    if not tokens:
        return
    work = tmp_path_factory.mktemp("clusters")
    n = len(tokens)
    eighths = data.draw(st.lists(st.integers(-999, 999), min_size=2 * n, max_size=2 * n))
    vectors = np.array(eighths).reshape(n, 2) / 8
    write_vector_file(work / "vectors.txt", tokens, vectors)
    words = read_vector_file(work / "vectors.txt")[0]
    k = data.draw(st.integers(1, n))
    rest = data.draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    assign = np.array(list(range(k)) + rest)
    centroids = compute_centroids(assign, vectors, k)
    save_assignment(ClusterAssignment(words, assign, centroids), work / "clusters.tsv")
    loaded = load_assignment(work / "clusters.tsv", embeddings_of(tokens, vectors))
    assert loaded.words == tokens
    assert np.array_equal(loaded.assign, assign)
    assert np.array_equal(loaded.centroids, centroids)


# Corpus lines: words, and `#` signs, spaces and tabs anywhere, at the start too.
# Dictionary terms: words and the punctuation `-` and `.`, so that some of them
# join into a token such as `covid_-_19`, which tokenize() would split again.
LINE_WORDS = st.text(alphabet="ab_1é", min_size=1, max_size=4)
PUNCTUATION = st.sampled_from(["-", ".", "-1", "a.b"])


@st.composite
def corpora_with_dictionaries(draw):
    words = draw(st.lists(LINE_WORDS, min_size=1, max_size=5))
    pieces = st.one_of(st.sampled_from(words), st.text(alphabet=" \t#-.", max_size=3))
    lines = draw(st.lists(st.lists(pieces, max_size=6).map(" ".join), min_size=1, max_size=6))
    term_pieces = st.one_of(st.sampled_from(words), PUNCTUATION)
    terms = st.lists(term_pieces, min_size=2, max_size=3).map(" ".join)
    return lines, draw(st.lists(terms, max_size=3))


def sentences_or_none(path, user_dict=None):
    try:
        return load_sentence_file(path, user_dict)
    except DataFormatError:  # the file holds no sentence
        return None


@given(corpora_with_dictionaries())
@example((["  # chest pain fever", "chest pain"], ["chest pain"]))
@example((["covid-19 test", "covid 19"], ["covid 19", "covid-19"]))
def test_tokenized_corpus_reads_back_as_its_source(tmp_path_factory, case):
    """Or, where a dictionary term would not read back, the dictionary is rejected naming it."""
    lines, terms = case
    work = tmp_path_factory.mktemp("tokenize")
    source, dictionary, tokens = work / "corpus.txt", work / "dict.txt", work / "tokens.txt"
    source.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    dictionary.write_text("".join(term + "\n" for term in terms), encoding="utf-8")
    rejected = [term for term in terms if splits_again(term)]
    for flags in ([], ["--dictionary", str(dictionary)]):
        code = cli.main(["tokenize", str(source), *flags, "--output", str(tokens)])
        if flags and rejected:
            assert code == 2
            named = f"^dictionary term {re.escape(repr(rejected[0]))} "
            with pytest.raises(DataFormatError, match=named):
                load_dictionary_file(dictionary)
            continue
        assert code == 0
        user_dict = load_dictionary_file(dictionary) if flags else None
        assert sentences_or_none(tokens) == sentences_or_none(source, user_dict)


_KIND_VALUES = {
    # text near the snapshot's syntax as well as any text
    str: st.text() | st.text(alphabet=" #=\n\r\t\x85ab/", max_size=5),
    int: st.integers(-3, 10**6),
    float: st.floats(),
    bool: st.booleans(),
}
FIELD_VALUES = {f.name: _KIND_VALUES[type(f.default)] for f in dataclasses.fields(ExperimentConfig)}
FIELD_VALUES["embed_mode"] |= st.sampled_from([MODE_EXACT, MODE_NEGATIVE])
FIELD_VALUES["model"] |= st.sampled_from(["lstm", "cnn"])


@given(st.data())
def test_config_snapshot_reads_back_as_written(data):
    names = data.draw(st.lists(st.sampled_from(sorted(FIELD_VALUES)), unique=True, max_size=4))
    values = {"k": 4} | {name: data.draw(FIELD_VALUES[name], label=name) for name in names}
    try:
        cfg = ExperimentConfig(**values)
    except ConfigError:
        return
    assert ExperimentConfig(**parse_config_lines(cfg.snapshot_lines())) == cfg
