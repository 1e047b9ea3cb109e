import logging
import re

import numpy as np
import pytest

from semexpand import corpus
from semexpand.corpus import (
    UserDictionary,
    Vocabulary,
    build_vocabulary,
    encode_corpus,
    encode_dataset,
    load_dictionary_file,
    load_labeled_file,
    load_sentence_file,
    tokenize,
)
from semexpand.errors import DataFormatError, EmptyVocabularyError


class TestTokenize:
    def test_whitespace_split(self):
        assert tokenize("slightly flu") == ["slightly", "flu"]

    def test_empty_text(self):
        assert tokenize("") == []
        assert tokenize("   \t\n") == []

    def test_lowercasing(self):
        assert tokenize("Slightly FLU") == ["slightly", "flu"]

    def test_punctuation_separates(self):
        assert tokenize("fever,cough!") == ["fever", ",", "cough", "!"]

    def test_dictionary_longest_match(self):
        d = UserDictionary(["acute brain syndrome", "brain"])
        assert tokenize("acute brain syndrome onset", d) == [
            "acute_brain_syndrome",
            "onset",
        ]

    def test_dictionary_prefers_longer_term(self):
        d = UserDictionary(["chest pain", "chest pain relief"])
        assert tokenize("chest pain relief now", d) == ["chest_pain_relief", "now"]

    def test_dictionary_no_match_passthrough(self):
        d = UserDictionary(["stomach ache"])
        assert tokenize("head ache", d) == ["head", "ache"]

    @pytest.mark.parametrize("term", ["covid-19", "u.s. army", "chest pain."])
    def test_term_that_would_split_again_is_rejected_by_name(self, term):
        with pytest.raises(DataFormatError, match=f"^dictionary term {re.escape(repr(term))} "):
            UserDictionary(["chest pain", term])

    def test_deterministic(self):
        d = UserDictionary(["sore throat"])
        text = "A sore throat, twice!"
        assert tokenize(text, d) == tokenize(text, d)


class TestVocabulary:
    def test_counts_and_order(self):
        vocab = build_vocabulary([["a", "b", "a"]])
        assert vocab.words == ["a", "b"]
        # frequency outranks lexicographic order
        assert build_vocabulary([["b", "a", "b"]]).words == ["b", "a"]

    def test_min_count_threshold(self):
        vocab = build_vocabulary([["a", "b", "a"]], min_count=2)
        assert vocab.words == ["a"]

    def test_tie_broken_lexicographically(self):
        vocab = build_vocabulary([["beta", "alpha"]])
        assert vocab.words == ["alpha", "beta"]
        assert vocab.index_of("alpha") == 0

    def test_ids_are_bijection(self):
        rng = np.random.default_rng(0)
        tokens = [f"w{i}" for i in rng.integers(0, 40, size=300)]
        vocab = build_vocabulary([tokens])
        ids = [vocab.index_of(w) for w in vocab.words]
        assert sorted(ids) == list(range(len(vocab)))

    def test_empty_vocabulary_error(self):
        with pytest.raises(EmptyVocabularyError):
            build_vocabulary([["a"]], min_count=2)
        with pytest.raises(EmptyVocabularyError):
            build_vocabulary([])

    def test_decode_round_trip(self):
        sentences = [["c", "a", "b"], ["a", "b"]]
        vocab = build_vocabulary(sentences)
        encoded = encode_corpus(sentences, vocab)
        for original, ids in zip(sentences, encoded.sentences):
            assert [vocab.words[i] for i in ids] == original


class TestEncodeCorpus:
    def test_oov_tokens_dropped(self):
        vocab = build_vocabulary([["a", "b"]])
        encoded = encode_corpus([["a", "zzz", "b"]], vocab)
        assert encoded.sentences == [[vocab.index_of("a"), vocab.index_of("b")]]

    def test_all_oov_sentence_dropped(self):
        vocab = build_vocabulary([["a"]])
        encoded = encode_corpus([["a"], ["zzz"]], vocab)
        assert len(encoded.sentences) == 1

    def test_token_count(self):
        vocab = build_vocabulary([["a", "b"]])
        encoded = encode_corpus([["a", "b"], ["b"]], vocab)
        assert encoded.token_count == 3


class TestEncodeDataset:
    def test_oov_marker_mapping(self):
        vocab = build_vocabulary([["a"]])
        ds = encode_dataset([("0", ["a", "b"]), ("1", ["a"])], vocab)
        assert ds.oov_marker == len(vocab)
        assert ds.examples[0][0] == [vocab.index_of("a"), ds.oov_marker]

    def test_label_lexicographic_mapping(self):
        vocab = build_vocabulary([["x"]])
        ds = encode_dataset([("slight", ["x"]), ("heavy", ["x"])], vocab)
        assert ds.label_names == ["heavy", "slight"]
        assert ds.examples[0][1] == 1  # "slight"
        assert ds.examples[1][1] == 0  # "heavy"

    def test_empty_text_skipped_with_warning(self, caplog):
        vocab = build_vocabulary([["x"]])
        with caplog.at_level(logging.WARNING):
            ds = encode_dataset([("a", ["x"]), ("b", []), ("b", ["x"])], vocab)
        assert "skipped 1 empty example(s)" in caplog.text
        assert len(ds) == 2

    def test_all_oov_example_kept(self):
        vocab = build_vocabulary([["x"]])
        ds = encode_dataset([("a", ["zzz", "yyy"]), ("b", ["x"])], vocab)
        assert ds.examples[0][0] == [ds.oov_marker, ds.oov_marker]

    def test_order_preserved(self):
        vocab = build_vocabulary([["x", "y"]])
        ds = encode_dataset([("b", ["x"]), ("a", ["y"]), ("b", ["y", "x"])], vocab)
        assert [ids for ids, _ in ds.examples] == [
            [vocab.index_of("x")],
            [vocab.index_of("y")],
            [vocab.index_of("y"), vocab.index_of("x")],
        ]

    def test_single_label_rejected(self):
        vocab = build_vocabulary([["x"]])
        with pytest.raises(DataFormatError):
            encode_dataset([("a", ["x"]), ("a", ["x"])], vocab)

    def test_text_in_place_of_tokens_rejected(self):
        # iterating a str would encode its characters
        vocab = build_vocabulary([["a"]])
        with pytest.raises(TypeError, match="list of tokens"):
            encode_dataset([("0", ["a"]), ("1", "a b")], vocab)


class TestFileLoaders:
    def test_labeled_file(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("# comment\na\tx y\nb\tz\n", encoding="utf-8")
        assert load_labeled_file(path) == [("a", ["x", "y"]), ("b", ["z"])]

    def test_labeled_file_with_dictionary(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("a\tChest pain again\nb\t\n", encoding="utf-8")
        d = UserDictionary(["chest pain"])
        assert load_labeled_file(path, d) == [("a", ["chest_pain", "again"]), ("b", [])]

    def test_one_comment_rule_for_every_hand_written_file(self, tmp_path):
        # blank lines, and lines whose first non-blank character is `#`
        skipped = "  # chest pain fever\n\t#\tcold\n \t\n#\n"
        files = {
            name: tmp_path / name
            for name in ("corpus.txt", "dataset.tsv", "dict.txt")
        }
        files["corpus.txt"].write_text(skipped + "fever # cough\n", encoding="utf-8")
        files["dataset.tsv"].write_text(skipped + "a\tx # y\nb\tz\n", encoding="utf-8")
        files["dict.txt"].write_text(skipped + "chest pain\n", encoding="utf-8")
        assert load_sentence_file(files["corpus.txt"]) == [["fever", "#", "cough"]]
        assert load_labeled_file(files["dataset.tsv"]) == [("a", ["x", "#", "y"]), ("b", ["z"])]
        d = load_dictionary_file(files["dict.txt"])
        assert ("chest", "pain") in d and d.max_len == 2

    def test_byte_order_mark_is_dropped(self, tmp_path):
        dataset, sentences = tmp_path / "d.tsv", tmp_path / "c.txt"
        dataset.write_text("\ufeffpos\tgood\nneg\tbad\npos\tfine\n", encoding="utf-8")
        sentences.write_text("\ufefffever cough\n", encoding="utf-8")
        assert [label for label, _ in load_labeled_file(dataset)] == ["pos", "neg", "pos"]
        assert load_sentence_file(sentences) == [["fever", "cough"]]

    def test_decode_error_after_a_byte_order_mark_names_its_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes("\ufefffever\n".encode("utf-8") + "caf\xe9\n".encode("latin-1"))
        with pytest.raises(DataFormatError, match="c.txt:2: .*0xe9"):
            load_sentence_file(path)

    def test_labeled_file_missing_tab(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("a x y\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="d.tsv:1"):
            load_labeled_file(path)

    def test_dictionary_file(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("chest pain\nsore throat\n\n", encoding="utf-8")
        d = load_dictionary_file(path)
        assert ("chest", "pain") in d
        assert ("sore", "throat") in d

    def test_sentence_file_with_dictionary(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("Chest pain at night\n\nfever again\n", encoding="utf-8")
        d = UserDictionary(["chest pain"])
        sentences = load_sentence_file(path, d)
        assert sentences == [["chest_pain", "at", "night"], ["fever", "again"]]


class TestVocabularyType:
    def test_contains_and_index(self):
        vocab = Vocabulary(["a", "b"])
        assert "a" in vocab and "zzz" not in vocab
        assert vocab.index_of("b") == 1
        assert len(vocab) == 2
