import dataclasses
import logging
import math
from pathlib import Path

import numpy as np
import pytest

from semexpand.config import load_config
from semexpand.corpus import (
    TokenizedCorpus,
    Vocabulary,
    build_vocabulary,
    encode_corpus,
    load_dictionary_file,
    load_sentence_file,
)
from oracles import (
    fstring_write_vector_file,
    loop_noise_distribution,
    loop_softmax_pair_gradients,
    loop_train_skipgram,
    negative_sampling_pair_gradients,
    softmax_probability,
    window_pairs,
)
from semexpand.embedding import (
    MODE_EXACT,
    MODE_NEGATIVE,
    PAIR_BLOCK,
    EmbeddingMatrix,
    SkipGramConfig,
    corpus_objective,
    load_embeddings,
    read_vector_file,
    save_embeddings,
    softmax_pair_gradients,
    _noise_distribution,
    _pair_arrays,
    train_skipgram,
    write_vector_file,
)
from semexpand.errors import ConfigError, DataFormatError, NumericError


def make_embedding(words, inp, out):
    vocab = Vocabulary(words)
    return EmbeddingMatrix(vocab, np.asarray(inp, dtype=float), np.asarray(out, dtype=float))


def make_corpus(sentences):
    vocab = build_vocabulary(sentences)
    return encode_corpus(sentences, vocab)


TOY_SENTENCES = [[f"w{(i + j) % 8}" for j in range(5)] for i in range(10)]  # 50 tokens
DATA = Path(__file__).resolve().parents[1] / "data" / "toy"


class TestSoftmaxProbability:
    def test_uniform_for_zero_vectors(self):
        emb = make_embedding("abcd", np.zeros((4, 3)), np.zeros((4, 3)))
        for context in range(4):
            assert abs(softmax_probability(0, context, emb) - 0.25) < 1e-12

    def test_hand_computed_value(self):
        # scores: (0.1,0.3).(0.5,-0.25) = -0.025, (-0.2,0.6).(0.5,-0.25) = -0.25,
        # (0.4,0.0).(0.5,-0.25) = 0.2; p(1|0) = e^-0.25 / (e^-0.025 + e^-0.25 + e^0.2)
        emb = make_embedding(
            "abc",
            [[0.5, -0.25], [0.0, 0.0], [0.0, 0.0]],
            [[0.1, 0.3], [-0.2, 0.6], [0.4, 0.0]],
        )
        assert abs(softmax_probability(0, 1, emb) - 0.26173660287711614) < 1e-12

    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            emb = make_embedding(
                [f"w{i}" for i in range(n)],
                rng.normal(scale=2.0, size=(n, 3)),
                rng.normal(scale=2.0, size=(n, 3)),
            )
            center = int(rng.integers(n))
            probs = [softmax_probability(center, c, emb) for c in range(n)]
            assert all(0.0 <= p <= 1.0 for p in probs)
            assert abs(sum(probs) - 1.0) < 1e-9

    def test_word_ids_validated(self):
        emb = make_embedding("ab", np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            softmax_probability(0, 2, emb)
        with pytest.raises(ValueError):
            softmax_probability(-1, 0, emb)


class TestCorpusObjective:
    def test_two_word_corpus_with_zero_vectors(self):
        corpus = make_corpus([["a", "b"]])
        emb = make_embedding(corpus.vocabulary.words, np.zeros((2, 4)), np.zeros((2, 4)))
        # both pairs have p = 0.5; 2 * log(0.5) over 2 tokens
        assert abs(corpus_objective(corpus, emb, window=1) - math.log(0.5)) < 1e-12

    def test_matches_per_pair_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            sentences = [
                [f"w{rng.integers(6)}" for _ in range(rng.integers(2, 7))] for _ in range(5)
            ]
            corpus = make_corpus(sentences)
            n = len(corpus.vocabulary)
            emb = make_embedding(
                corpus.vocabulary.words, rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
            )
            window = int(rng.integers(1, 4))
            total = 0.0
            for sent in corpus.sentences:
                for t, center in enumerate(sent):
                    for j in range(max(0, t - window), min(len(sent), t + window + 1)):
                        if j != t:
                            total += math.log(softmax_probability(center, sent[j], emb))
            expected = total / corpus.token_count
            assert abs(corpus_objective(corpus, emb, window) - expected) < 1e-9

    def test_never_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            sentences = [[f"w{rng.integers(5)}" for _ in range(4)] for _ in range(4)]
            corpus = make_corpus(sentences)
            n = len(corpus.vocabulary)
            emb = make_embedding(
                corpus.vocabulary.words, rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
            )
            assert corpus_objective(corpus, emb, window=2) <= 0.0

    def test_single_token_sentences_return_zero_with_warning(self, caplog):
        corpus = make_corpus([["a"], ["b"]])
        emb = make_embedding(corpus.vocabulary.words, np.zeros((2, 2)), np.zeros((2, 2)))
        with caplog.at_level(logging.WARNING):
            assert corpus_objective(corpus, emb, window=2) == 0.0
        assert any("pairs" in rec.message for rec in caplog.records)

    def test_empty_corpus_rejected(self):
        vocab = Vocabulary(["a"])
        corpus = TokenizedCorpus([], vocab)
        emb = EmbeddingMatrix(vocab, np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.raises(DataFormatError):
            corpus_objective(corpus, emb, window=1)

    def test_window_validated(self):
        corpus = make_corpus([["a", "b"]])
        emb = make_embedding(corpus.vocabulary.words, np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            corpus_objective(corpus, emb, window=0)


class TestPairGradients:
    def test_exact_softmax_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        inp = rng.normal(scale=0.5, size=(5, 3))
        out = rng.normal(scale=0.5, size=(5, 3))
        center, context = 2, 4
        _, grad_v, grad_out = softmax_pair_gradients(inp, out, center, context)
        h = 1e-4

        def logp(inp_m, out_m):
            return softmax_pair_gradients(inp_m, out_m, center, context)[0]

        for j in range(3):
            bumped = inp.copy()
            bumped[center, j] += h
            dipped = inp.copy()
            dipped[center, j] -= h
            numeric = (logp(bumped, out) - logp(dipped, out)) / (2 * h)
            assert abs(grad_v[j] - numeric) / max(abs(numeric), 1e-8) < 1e-4
        for i in range(5):
            for j in range(3):
                bumped = out.copy()
                bumped[i, j] += h
                dipped = out.copy()
                dipped[i, j] -= h
                numeric = (logp(inp, bumped) - logp(inp, dipped)) / (2 * h)
                denom = max(abs(numeric), 1e-8)
                assert abs(grad_out[i, j] - numeric) / denom < 1e-4

    def test_exact_softmax_rounds_as_the_textbook_form(self):
        # np.array_equal on grad_out: the k = 1 product may turn a -0.0 entry into
        # +0.0 where exp underflows, the one bit pattern allowed to differ
        rng = np.random.default_rng(8)
        sizes = [2, 3, 127, 300, *rng.integers(4, 300, size=12).tolist()]
        underflows = 0
        for vocab_size in sizes:
            for dim in (1, 3, 16, 50):
                for context in (0, vocab_size - 1):
                    for near_700 in (False, True):
                        inp = rng.normal(scale=0.5, size=(vocab_size, dim))
                        out = rng.normal(scale=0.5, size=(vocab_size, dim))
                        center = int(rng.integers(vocab_size))
                        if near_700:
                            # scores of about +-700: exp overflows without the max
                            # shift, and the -700 rows underflow after it
                            v = inp[center]
                            target = rng.choice([-700.0, 700.0], size=vocab_size)
                            target += rng.normal(scale=3.0, size=vocab_size)
                            out = np.outer(target, v) / (v @ v) + 1e-3 * out
                        fast = softmax_pair_gradients(inp, out, center, context)
                        slow = loop_softmax_pair_gradients(inp, out, center, context)
                        assert math.isfinite(fast[0])
                        assert fast[0] == slow[0]
                        assert fast[1].tobytes() == slow[1].tobytes()
                        assert np.array_equal(fast[2], slow[2])
                        underflows += near_700 and bool((slow[2] == 0).any())
        assert underflows > 0

    def test_negative_sampling_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        inp = rng.normal(scale=0.5, size=(5, 3))
        out = rng.normal(scale=0.5, size=(5, 3))
        center, context, negatives = 1, 3, [0, 4, 4]
        _, grad_v, rows, grad_rows = negative_sampling_pair_gradients(
            inp, out, center, context, negatives
        )
        assert rows == [context, *negatives]
        grad_out = np.zeros_like(out)
        np.add.at(grad_out, rows, grad_rows)  # the repeated negative 4 sums its entries
        h = 1e-4

        def loss(inp_m, out_m):
            return negative_sampling_pair_gradients(inp_m, out_m, center, context, negatives)[0]

        for j in range(3):
            bumped = inp.copy()
            bumped[center, j] += h
            dipped = inp.copy()
            dipped[center, j] -= h
            numeric = (loss(bumped, out) - loss(dipped, out)) / (2 * h)
            assert abs(grad_v[j] - numeric) / max(abs(numeric), 1e-8) < 1e-4
        for i in range(5):
            for j in range(3):
                bumped = out.copy()
                bumped[i, j] += h
                dipped = out.copy()
                dipped[i, j] -= h
                numeric = (loss(inp, bumped) - loss(inp, dipped)) / (2 * h)
                assert abs(grad_out[i, j] - numeric) / max(abs(numeric), 1e-8) < 1e-4

    def test_negative_equal_to_context_rejected(self):
        inp = np.ones((3, 2))
        out = np.ones((3, 2))
        with pytest.raises(ValueError):
            negative_sampling_pair_gradients(inp, out, 0, 1, [1])


class TestTrainSkipgram:
    def test_objective_monotone_on_toy_corpus(self):
        corpus = make_corpus(TOY_SENTENCES)
        cfg = SkipGramConfig(
            window=2, dim=8, epochs=10, learning_rate=0.05, final_learning_rate=0.0001, seed=0
        )
        emb = train_skipgram(corpus, cfg, track_objective=True)
        history = emb.objective_history
        assert len(history) == cfg.epochs + 1
        for before, after in zip(history, history[1:]):
            assert after >= before - 1e-6

    def test_negative_sampling_improves_objective(self):
        corpus = make_corpus(TOY_SENTENCES)
        cfg = SkipGramConfig(
            window=2,
            dim=8,
            epochs=20,
            learning_rate=0.05,
            final_learning_rate=0.001,
            seed=0,
            mode=MODE_NEGATIVE,
            negative_samples=3,
        )
        emb = train_skipgram(corpus, cfg, track_objective=True)
        assert emb.objective_history[-1] > emb.objective_history[0]

    def test_initial_vectors_within_uniform_bound(self):
        corpus = make_corpus([["a", "b"]])
        cfg = SkipGramConfig(
            window=1, dim=10, epochs=1, learning_rate=1e-12, final_learning_rate=0.0, seed=0
        )
        emb = train_skipgram(corpus, cfg)
        assert np.abs(emb.input_vectors).max() <= 0.5 / 10 + 1e-9

    @pytest.mark.parametrize("mode", [MODE_EXACT, MODE_NEGATIVE])
    def test_deterministic_for_fixed_seed(self, mode):
        corpus = make_corpus(TOY_SENTENCES)
        cfg = SkipGramConfig(
            window=2, dim=6, epochs=2, learning_rate=0.05, final_learning_rate=0.001,
            seed=11, mode=mode,
        )
        a = train_skipgram(corpus, cfg)
        b = train_skipgram(corpus, cfg)
        assert np.array_equal(a.input_vectors, b.input_vectors)
        assert np.array_equal(a.output_vectors, b.output_vectors)

    def test_divergence_raises_error_naming_epoch(self):
        corpus = make_corpus(TOY_SENTENCES)
        cfg = SkipGramConfig(
            window=2, dim=8, epochs=3, learning_rate=1e6, final_learning_rate=1e6, seed=0
        )
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="epoch 1"):
            train_skipgram(corpus, cfg)

    def test_pairless_corpus_returns_initial_vectors_with_warning(self, caplog):
        corpus = make_corpus([["a"], ["b"]])
        cfg = SkipGramConfig(window=2, dim=4, epochs=2, learning_rate=0.05)
        with caplog.at_level(logging.WARNING):
            emb = train_skipgram(corpus, cfg, track_objective=True)
        assert emb.objective_history == [0.0]
        assert np.abs(emb.input_vectors).max() <= 0.5 / 4

    def test_single_word_vocabulary_rejected(self):
        corpus = make_corpus([["a", "a", "a"]])
        with pytest.raises(DataFormatError):
            train_skipgram(corpus, SkipGramConfig(window=1, dim=2, epochs=1))


def corpus_with_pairs(rng, pairs: int, vocab_size: int):
    """Random corpus with exactly ``pairs`` window-1 pairs, among length-1 sentences.

    At window 1 a sentence of length L yields 2 (L - 1) pairs, so ``pairs`` must be
    even. A small ``vocab_size`` makes center == context common.
    """
    assert pairs % 2 == 0
    words = [f"w{i}" for i in range(vocab_size)]
    if pairs == 0:
        return make_corpus([[w] for w in words])
    sentences = [[words[0]], words[1:]]  # every word occurs; the second adds 2 (V - 2)
    left = pairs // 2 - (vocab_size - 2)
    assert left >= 0
    while left:
        length = min(int(rng.integers(2, 9)), left + 1)
        sentences.append([words[i] for i in rng.integers(0, vocab_size, size=length)])
        left -= length - 1
        if rng.random() < 0.3:
            sentences.append([words[int(rng.integers(vocab_size))]])
    return make_corpus(sentences)


def per_pair_negatives(corpus, config) -> list:
    """Each pair's negatives as the per-pair loop draws them, context removed."""
    rng = np.random.default_rng(config.seed)
    shape = (len(corpus.vocabulary), config.dim)
    rng.uniform(size=shape), rng.uniform(size=shape)  # the initial parameters
    cumulative = np.cumsum(loop_noise_distribution(corpus))
    return [
        [int(d) for d in np.searchsorted(cumulative, rng.random(config.negative_samples))
         if d != context]
        for _ in range(config.epochs)
        for sent in corpus.sentences
        for _, context in window_pairs(sent, config.window)
    ]


class TestBlockedTrainingParity:
    """train_skipgram against the per-pair loop it replaced (oracles.loop_train_skipgram)."""

    # none, below the block, equal to it, and above it but not a multiple of it
    PAIR_COUNTS = (0, 100, PAIR_BLOCK, 2 * PAIR_BLOCK + 222)

    def test_pair_counts_cover_the_block_boundaries(self):
        assert 100 < PAIR_BLOCK and PAIR_BLOCK % 2 == 0 and 222 % PAIR_BLOCK != 0
        for pairs in self.PAIR_COUNTS:
            corpus = corpus_with_pairs(np.random.default_rng(pairs), pairs, 5)
            assert _pair_arrays(corpus.sentences, 1)[0].size == pairs
            assert min(len(s) for s in corpus.sentences) == 1

    def test_block_draws_equal_per_pair_draws(self):
        for pairs, k in ((100, 5), (PAIR_BLOCK, 3), (2 * PAIR_BLOCK + 222, 5)):
            per_pair = np.random.default_rng(4)
            blocked = np.random.default_rng(4)
            expected = np.concatenate([per_pair.random(k) for _ in range(pairs)])
            drawn = np.concatenate([
                blocked.random((min(start + PAIR_BLOCK, pairs) - start) * k)
                for start in range(0, pairs, PAIR_BLOCK)
            ])
            assert np.array_equal(drawn, expected)

    def test_pair_arrays_match_window_pairs(self):
        rng = np.random.default_rng(12)
        for window in (1, 2, 3, 7):
            sentences = [
                rng.integers(0, 6, size=int(rng.integers(0, 12))).tolist() for _ in range(40)
            ]
            centers, contexts = _pair_arrays(sentences, window)
            expected = [p for sent in sentences for p in window_pairs(sent, window)]
            assert list(zip(centers.tolist(), contexts.tolist())) == expected
        centers, contexts = _pair_arrays([], 2)
        assert centers.size == contexts.size == 0

    def test_noise_distribution_matches_counting_loop(self):
        corpus = corpus_with_pairs(np.random.default_rng(2), 100, 9)
        assert np.array_equal(_noise_distribution(corpus), loop_noise_distribution(corpus))

    @pytest.mark.parametrize("pairs", PAIR_COUNTS)
    def test_exact_mode_bit_for_bit(self, pairs):
        corpus = corpus_with_pairs(np.random.default_rng(pairs + 1), pairs, 6)
        cfg = SkipGramConfig(
            window=1, dim=4, epochs=2, learning_rate=0.3, final_learning_rate=0.01, seed=pairs
        )
        fast = train_skipgram(corpus, cfg, track_objective=True)
        slow = loop_train_skipgram(corpus, cfg, track_objective=True)
        assert np.array_equal(fast.input_vectors, slow.input_vectors)
        assert np.array_equal(fast.output_vectors, slow.output_vectors)
        assert fast.objective_history == slow.objective_history

    @pytest.mark.parametrize("dim", [16, 1, 3, 50])
    def test_exact_mode_on_shipped_corpus(self, dim):
        shipped = load_config(DATA / "config.txt")
        sentences = load_sentence_file(DATA / "corpus.txt", load_dictionary_file(DATA / "dict.txt"))
        corpus = encode_corpus(sentences, build_vocabulary(sentences, shipped.min_count))
        cfg = dataclasses.replace(shipped.skipgram_config(), dim=dim, epochs=2)
        assert len(corpus.vocabulary) == 127 and shipped.dim == 16
        assert _pair_arrays(corpus.sentences, cfg.window)[0].size > 2 * PAIR_BLOCK
        fast = train_skipgram(corpus, cfg)
        slow = loop_train_skipgram(corpus, cfg)
        assert np.array_equal(fast.input_vectors, slow.input_vectors)
        assert np.array_equal(fast.output_vectors, slow.output_vectors)

    @pytest.mark.parametrize("pairs", PAIR_COUNTS)
    def test_negative_sampling_within_tolerance(self, pairs):
        corpus = corpus_with_pairs(np.random.default_rng(pairs + 2), pairs, 5)
        cfg = SkipGramConfig(
            window=1, dim=4, epochs=3, learning_rate=0.5, final_learning_rate=0.01,
            seed=pairs, mode=MODE_NEGATIVE, negative_samples=5,
        )
        if pairs:
            centers, contexts = _pair_arrays(corpus.sentences, cfg.window)
            assert (centers == contexts).any()
            negatives = per_pair_negatives(corpus, cfg)
            assert any(len(set(n)) < len(n) for n in negatives)  # a repeated negative
            assert any(len(n) < cfg.negative_samples for n in negatives)  # a dropped draw
        fast = train_skipgram(corpus, cfg)
        slow = loop_train_skipgram(corpus, cfg)
        assert np.abs(fast.input_vectors - slow.input_vectors).max() <= 1e-12
        assert np.abs(fast.output_vectors - slow.output_vectors).max() <= 1e-12

    @pytest.mark.parametrize("window", [2, 3])
    def test_negative_sampling_wider_windows(self, window):
        rng = np.random.default_rng(window)
        words = [f"w{i}" for i in range(30)]
        sentences = [
            [words[i] for i in rng.integers(0, 30, size=int(rng.integers(1, 10)))]
            for _ in range(150)
        ]
        corpus = make_corpus(sentences)
        cfg = SkipGramConfig(
            window=window, dim=8, epochs=2, learning_rate=0.5, final_learning_rate=0.0,
            seed=window, mode=MODE_NEGATIVE, negative_samples=4,
        )
        assert _pair_arrays(corpus.sentences, window)[0].size > PAIR_BLOCK
        fast = train_skipgram(corpus, cfg)
        slow = loop_train_skipgram(corpus, cfg)
        assert np.abs(fast.input_vectors - slow.input_vectors).max() <= 1e-12
        assert np.abs(fast.output_vectors - slow.output_vectors).max() <= 1e-12


class TestSkipGramConfigValidation:
    def test_rejects_bad_sizes(self):
        for kwargs in ({"window": 0}, {"dim": 0}, {"epochs": 0}):
            with pytest.raises(ConfigError):
                SkipGramConfig(**kwargs)

    def test_rejects_bad_learning_rates(self):
        with pytest.raises(ConfigError):
            SkipGramConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            SkipGramConfig(learning_rate=0.01, final_learning_rate=0.02)
        for final in (-1e-6, -5.0):
            with pytest.raises(ConfigError, match="final_learning_rate"):
                SkipGramConfig(learning_rate=0.01, final_learning_rate=final)
        assert SkipGramConfig(learning_rate=0.01, final_learning_rate=0.0).final_learning_rate == 0

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
            SkipGramConfig(mode="hierarchical")

    def test_rejects_bad_negative_sample_count(self):
        with pytest.raises(ConfigError):
            SkipGramConfig(mode=MODE_NEGATIVE, negative_samples=0)


class TestVectorFiles:
    def test_round_trip_within_tolerance(self, tmp_path):
        rng = np.random.default_rng(8)
        words = [f"w{i}" for i in range(6)]
        matrix = rng.normal(size=(6, 5))
        path = tmp_path / "vectors.txt"
        write_vector_file(path, words, matrix)
        loaded_words, loaded = read_vector_file(path)
        assert loaded_words == words
        assert np.abs(loaded - matrix).max() < 1e-6

    def test_bytes_match_per_value_formatting(self, tmp_path):
        rng = np.random.default_rng(13)
        special = [0.0, -0.0, 5e-324, 1e-5, 1e16, 99999999.5, np.inf, -np.inf, np.nan]
        matrices = [
            rng.normal(size=(40, 7)),
            rng.normal(scale=1e6, size=(25, 3)).astype(np.float32),
            rng.standard_normal((30, 5)) * 10.0 ** rng.integers(-300, 300, size=(30, 5)),
            np.array([special]),
            np.array([special]).T,
        ]
        for i, matrix in enumerate(matrices):
            words = [f"w{j} x" for j in range(len(matrix))]
            new, old = tmp_path / f"new{i}.txt", tmp_path / f"old{i}.txt"
            write_vector_file(new, words, matrix)
            fstring_write_vector_file(old, words, matrix)
            assert new.read_bytes() == old.read_bytes()

    def test_multiword_tokens_escaped_on_disk(self, tmp_path):
        path = tmp_path / "vectors.txt"
        write_vector_file(path, ["chest pain", "fever"], np.ones((2, 2)))
        lines = path.read_text().splitlines()
        assert lines[1].split()[0] == "chest_pain"
        words, _ = read_vector_file(path)
        assert words == ["chest pain", "fever"]

    def test_save_and_load_embeddings(self, tmp_path):
        corpus = make_corpus([["a", "b", "c"]])
        cfg = SkipGramConfig(window=1, dim=3, epochs=1, learning_rate=0.01)
        emb = train_skipgram(corpus, cfg)
        path = tmp_path / "emb.txt"
        save_embeddings(emb, path)
        loaded = load_embeddings(path)
        assert loaded.vocabulary.words == emb.vocabulary.words
        assert np.abs(loaded.input_vectors - emb.input_vectors).max() < 1e-6

    def test_loaded_file_keeps_words_outside_current_vocabulary(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("3 2\nalpha 1 2\nextra 3 4\nomega 5 6\n")
        loaded = load_embeddings(path)
        assert loaded.vocabulary.words == ["alpha", "extra", "omega"]
        assert loaded.input_vectors[loaded.vocabulary.index_of("extra")].tolist() == [3.0, 4.0]

    def test_wrong_arity_row_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\na 0.1 0.2\nb 0.1 0.2 0.3\nc 0.1 0.2\n")
        with pytest.raises(DataFormatError, match=r":3:"):
            read_vector_file(path)

    def test_malformed_header_names_first_line(self, tmp_path):
        for header in ("just-one-field\n", "a b\n", "0 5\n", "2 0\n"):
            path = tmp_path / "bad.txt"
            path.write_text(header + "a 1 2\n")
            with pytest.raises(DataFormatError, match=r":1:"):
                read_vector_file(path)

    def test_non_numeric_value_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\na 1.0 2.0\nb 1.0 oops\n")
        with pytest.raises(DataFormatError, match=r":3: non-numeric"):
            read_vector_file(path)

    def test_non_finite_value_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        for value in ("nan", "inf", "-inf", "1e400"):
            path.write_text(f"2 2\na 1.0 2.0\nb 1.0 {value}\n")
            with pytest.raises(DataFormatError, match=r":3: non-finite"):
                read_vector_file(path)

    def test_duplicate_word_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\na 1 2\na 3 4\n")
        with pytest.raises(DataFormatError, match=r":3: duplicate"):
            read_vector_file(path)

    def test_overstated_header_reported_without_preallocating(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2000000000 1000\na 1 2\n")
        with pytest.raises(DataFormatError, match=r":2: expected 1 word \+ 1000 values"):
            read_vector_file(path)
        path.write_text("2000000000 2\na 1 2\nb 3 4\n")
        with pytest.raises(DataFormatError, match="declares 2000000000 rows, found 2"):
            read_vector_file(path)

    def test_missing_rows_reported(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\na 1 2\nb 3 4\n")
        with pytest.raises(DataFormatError, match="declares 3 rows, found 2"):
            read_vector_file(path)

    def test_surplus_rows_reported(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\na 1 2\nb 3 4\n")
        with pytest.raises(DataFormatError, match=r":3:"):
            read_vector_file(path)
