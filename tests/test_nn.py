import functools
import math
from pathlib import Path

import numpy as np
import pytest

from semexpand.errors import ConfigError, DataFormatError, NumericError
from semexpand.nn import (
    CHECKPOINT_TAG,
    ClassifierConfig,
    TrainConfig,
    build_model,
    cnn_output_lengths,
    evaluate,
    layers,
    load_model,
    save_model,
    train_classifier,
)
from helpers import make_separable_toyset
from oracles import (
    argmax_maxpool1d_backward,
    argmax_maxpool1d_forward,
    fstring_save_model,
    full_cnn_loss_and_grads,
    gradient_check,
    loop_conv1d_backward,
    loop_conv1d_input_grad,
    step_lstm_backward,
    step_lstm_forward,
    window_conv1d_backward,
    window_conv1d_forward,
)

CHECKPOINTS = Path(__file__).resolve().parent / "data"


def assert_same_bits(a, b, label=""):
    """Equal shapes and bytes: np.array_equal, but -0.0 is not +0.0 and NaN is itself."""
    a, b = np.asarray(a), np.asarray(b)
    assert (a.shape, a.dtype) == (b.shape, b.dtype), label
    assert a.tobytes() == b.tobytes(), label


class TestConvAndPool:
    def test_conv_hand_values(self):
        x = np.array([[[1.0], [2.0], [3.0], [4.0]]])
        w = np.array([[1.0], [1.0]])
        b = np.array([0.5])
        out, _ = layers.conv1d_forward(x, w, b, kernel_width=2)
        assert np.allclose(out[0, :, 0], [3.5, 5.5, 7.5], atol=1e-12)

    def test_conv_matches_window_loop(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(2, 7, 3))
        kw, filters = 3, 4
        w = rng.normal(size=(kw * 3, filters))
        b = rng.normal(size=filters)
        out, _ = layers.conv1d_forward(x, w, b, kernel_width=kw)
        assert out.shape == (2, 5, filters)
        for bi in range(2):
            for t in range(5):
                window = x[bi, t : t + kw, :].reshape(-1)
                assert np.abs(out[bi, t] - (window @ w + b)).max() < 1e-12

    def test_conv_rejects_short_sequence(self):
        with pytest.raises(ValueError):
            layers.conv1d_forward(np.zeros((1, 2, 1)), np.zeros((3, 1)), np.zeros(1), 3)

    def test_maxpool_hand_values_floor_tail(self):
        x = np.array([[[3.0], [1.0], [4.0], [1.0], [5.0]]])
        out, _ = layers.maxpool1d_forward(x, width=2)
        # tail element 5 is dropped by the floor
        assert out[0, :, 0].tolist() == [3.0, 4.0]

    def test_maxpool_matches_block_loop(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(3, 9, 2))
        out, _ = layers.maxpool1d_forward(x, width=2)
        assert out.shape == (3, 4, 2)
        for bi in range(3):
            for t in range(4):
                assert np.array_equal(out[bi, t], x[bi, 2 * t : 2 * t + 2].max(axis=0))

    @pytest.mark.parametrize("kw", [1, 2, 3, 4])
    def test_conv_gradients_match_window_loop(self, kw):
        rng = np.random.default_rng(30 + kw)
        x = rng.normal(size=(3, 8, 2))
        w = rng.normal(size=(kw * 2, 5))
        _, cache = layers.conv1d_forward(x, w, rng.normal(size=5), kernel_width=kw)
        dout = rng.normal(size=(3, 8 - kw + 1, 5))
        dw, db = layers.conv1d_backward(dout, cache)
        dx = layers.conv1d_input_grad(dout, cache, w, kw)
        loop_dw, loop_db = loop_conv1d_backward(dout, x, kw)
        assert np.allclose(dw, loop_dw, rtol=0, atol=1e-12)
        assert np.allclose(db, loop_db, rtol=0, atol=1e-12)
        assert np.allclose(dx, loop_conv1d_input_grad(dout, x.shape, w, kw), rtol=0, atol=1e-12)

    def test_maxpool_backward_routes_to_first_max_and_zeroes_tail(self):
        x = np.array([[[2.0, 1.0], [2.0, 3.0], [0.5, 3.0], [4.0, 3.0], [9.0, 9.0]]])
        out, cache = layers.maxpool1d_forward(x, width=2)
        assert out[0].tolist() == [[2.0, 3.0], [4.0, 3.0]]
        dx = layers.maxpool1d_backward(np.array([[[10.0, 20.0], [30.0, 40.0]]]), cache)
        # ties (2, 2) and (3, 3) send the gradient to the block's first index;
        # the floor-tail row gets none
        assert dx[0].tolist() == [[10.0, 0.0], [0.0, 20.0], [0.0, 40.0], [30.0, 0.0], [0.0, 0.0]]

    @pytest.mark.parametrize(
        "batch, length, channels, filters, kw",
        [
            (32, 12, 64, 32, 3),  # wide-vocab's first layer
            (32, 5, 32, 32, 3),  # and its second
            (50, 20, 100, 64, 5),  # k*C = 500, where a flattened 2-D product rounds differently
            (128, 20, 100, 64, 5),  # TREC-like
            (3, 8, 2, 5, 1),  # a kernel of width 1
        ],
    )
    def test_conv_bit_identical_to_window_view(self, batch, length, channels, filters, kw):
        rng = np.random.default_rng(length * channels + kw)
        x = rng.normal(size=(batch, length, channels))
        x[:, length - 4 :] = 0.0
        w = rng.normal(size=(kw * channels, filters))
        b = rng.normal(size=filters)
        out, cache = layers.conv1d_forward(x, w, b, kw)
        ref_out, ref_cache = window_conv1d_forward(x, w, b, kw)
        assert_same_bits(out, ref_out)
        dout = rng.normal(size=out.shape)
        grads = zip(layers.conv1d_backward(dout, cache), window_conv1d_backward(dout, ref_cache))
        for got, ref in grads:
            assert_same_bits(got, ref)

    @pytest.mark.parametrize("length, width", [(10, 2), (11, 2), (15, 3), (17, 4), (5, 1)])
    def test_maxpool_bit_identical_to_argmax_under_ties(self, length, width):
        rng = np.random.default_rng(length + width)
        # small whole numbers, after a ReLU: most blocks hold a tie, many a tie at zero
        x = np.maximum(rng.integers(-2, 3, size=(6, length, 5)), 0).astype(float)
        out, cache = layers.maxpool1d_forward(x, width)
        ref_out, ref_cache = argmax_maxpool1d_forward(x, width)
        assert_same_bits(out, ref_out)
        blocks = x[:, : (length // width) * width].reshape(6, length // width, width, 5)
        if width > 1:
            assert ((blocks == out[:, :, None, :]).sum(axis=2) > 1).any()
        dout = rng.normal(size=out.shape)
        dout[0, 0, 0] = -0.0
        assert_same_bits(
            layers.maxpool1d_backward(dout, cache), argmax_maxpool1d_backward(dout, ref_cache)
        )

    def test_stage_lengths(self):
        assert cnn_output_lengths(20, 5, 2) == (16, 8, 4, 2)
        assert cnn_output_lengths(12, 5, 2) == (8, 4, 0, 0)


class TestSoftmaxCrossEntropy:
    def test_softmax_rows_are_distributions(self):
        rng = np.random.default_rng(22)
        logits = rng.normal(scale=5.0, size=(40, 6))
        probs = layers.softmax(logits)
        assert np.all(probs > 0)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12

    def test_softmax_shift_invariance(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        assert np.abs(layers.softmax(logits) - layers.softmax(logits + 100.0)).max() < 1e-12

    def test_cross_entropy_hand_value(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        expected = (math.log(2.0) + -math.log(0.75)) / 2
        assert abs(layers.cross_entropy(probs, np.array([0, 1])) - expected) < 1e-12

    def test_loss_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        logits = rng.normal(size=(3, 4))
        labels = np.array([1, 3, 0])
        grad = layers.softmax_cross_entropy_grad(layers.softmax(logits), labels)
        h = 1e-6
        for i in range(3):
            for j in range(4):
                bumped = logits.copy()
                bumped[i, j] += h
                dipped = logits.copy()
                dipped[i, j] -= h
                numeric = (
                    layers.cross_entropy(layers.softmax(bumped), labels)
                    - layers.cross_entropy(layers.softmax(dipped), labels)
                ) / (2 * h)
                assert abs(grad[i, j] - numeric) < 1e-8


class TestLstmRecurrence:
    def test_two_step_scalar_recurrence(self):
        w = np.array([[0.5, -0.3, 0.8, 0.2], [0.1, 0.4, -0.2, 0.6]])
        b = np.array([0.05, 1.0, -0.1, 0.3])
        x = np.array([[[0.7], [-1.2]]])
        h_seq, _ = layers.lstm_forward(x, w, b, hidden=1)

        def sigmoid(v):
            return 1.0 / (1.0 + math.exp(-v))

        h = c = 0.0
        expected = []
        for t in range(2):
            xv = x[0, t, 0]
            i = sigmoid(w[0, 0] * xv + w[1, 0] * h + b[0])
            f = sigmoid(w[0, 1] * xv + w[1, 1] * h + b[1])
            g = math.tanh(w[0, 2] * xv + w[1, 2] * h + b[2])
            o = sigmoid(w[0, 3] * xv + w[1, 3] * h + b[3])
            c = f * c + i * g
            h = o * math.tanh(c)
            expected.append(h)
        assert np.abs(h_seq[0, :, 0] - expected).max() < 1e-12

    def test_forget_gate_bias_starts_at_one(self):
        model = build_model(ClassifierConfig("lstm", hidden=4), 3, 2, seed=0)
        gate_b = model.params["gate_b"]
        assert np.array_equal(gate_b[4:8], np.ones(4))
        assert np.array_equal(gate_b[:4], np.zeros(4))
        assert np.array_equal(gate_b[8:], np.zeros(8))

    def test_masked_mean_hand_values(self):
        h_seq = np.array([[[2.0], [4.0], [99.0]]])
        mask = np.array([[1.0, 1.0, 0.0]])
        pooled, _ = layers.masked_mean_forward(h_seq, mask)
        assert pooled[0, 0] == 3.0

    def test_output_ignores_padding_content_and_length(self):
        rng = np.random.default_rng(24)
        model = build_model(ClassifierConfig("lstm", hidden=5), 3, 2, seed=1)
        x = rng.normal(size=(2, 4, 3))
        mask = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
        garbled = x.copy()
        garbled[mask == 0.0] = 1e6
        assert np.abs(model.forward(x, mask) - model.forward(garbled, mask)).max() < 1e-12

        longer = np.concatenate([x, rng.normal(size=(2, 3, 3))], axis=1)
        longer_mask = np.concatenate([mask, np.zeros((2, 3))], axis=1)
        assert np.abs(model.forward(x, mask) - model.forward(longer, longer_mask)).max() < 1e-9

    def test_empty_sequence_gets_uniform_prediction(self):
        model = build_model(ClassifierConfig("lstm", hidden=3), 2, 4, seed=0)
        x = np.ones((2, 3, 2))
        mask = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        probs = model.forward(x, mask)
        assert np.abs(probs[1] - 0.25).max() < 1e-12
        assert np.abs(probs[0] - 0.25).max() > 0.0  # real row is not forced uniform


    def test_padding_length_does_not_change_a_step(self):
        rng = np.random.default_rng(42)
        model = build_model(ClassifierConfig("lstm", hidden=6), 4, 3, seed=7)
        lengths = np.array([3, 8, 1, 5, 0, 6])
        y = np.array([0, 1, 2, 1, 0, 2])
        x8 = rng.normal(size=(6, 8, 4))
        mask8 = (np.arange(8)[None, :] < lengths[:, None]).astype(float)
        mask8[3, 2] = 0.0  # interior hole
        results = []
        for length in (8, 20):
            x = np.concatenate([x8, rng.normal(size=(6, length - 8, 4))], axis=1)
            mask = np.concatenate([mask8, np.zeros((6, length - 8))], axis=1)
            results.append(model.loss_and_grads(x, mask, y))
        (loss8, grads8, probs8), (loss20, grads20, probs20) = results
        assert loss8 == loss20
        assert np.array_equal(probs8, probs20)
        for name in model.params:
            assert np.array_equal(grads8[name], grads20[name])

    def test_all_padding_batch_is_uniform_with_zero_gate_grads(self):
        model = build_model(ClassifierConfig("lstm", hidden=3), 2, 4, seed=0)
        loss, grads, probs = model.loss_and_grads(np.ones((3, 5, 2)), np.zeros((3, 5)), [0, 1, 2])
        assert np.array_equal(probs, np.full((3, 4), 0.25))
        assert abs(loss - math.log(4)) < 1e-12
        for name, grad in grads.items():
            assert grad.shape == model.params[name].shape
            assert not grad.any()

    def test_results_outlive_later_steps(self):
        rng = np.random.default_rng(43)
        model = build_model(ClassifierConfig("lstm", hidden=4), 3, 2, seed=0)
        small = (rng.normal(size=(2, 3, 3)), np.ones((2, 3)), np.array([0, 1]))
        large = (rng.normal(size=(9, 7, 3)), np.ones((9, 7)), rng.integers(0, 2, size=9))
        loss, grads, probs = model.loss_and_grads(*small)
        kept = {name: grad.copy() for name, grad in grads.items()}
        kept_probs = probs.copy()
        model.loss_and_grads(*large)  # a later step at a larger size
        again = model.loss_and_grads(*small)  # and one at the first size again
        assert again[0] == loss
        assert np.array_equal(probs, kept_probs) and np.array_equal(again[2], kept_probs)
        for name in kept:
            assert np.array_equal(grads[name], kept[name])
            assert np.array_equal(again[1][name], kept[name])


def _random_mask(rng, batch, length):
    """Validity mask with interior holes and some rows that are all padding."""
    mask = (rng.random((batch, length)) < 0.7).astype(float)
    mask[rng.random(batch) < 0.2] = 0.0
    return mask


def _step_loss_and_grads(model, x, mask, y):
    """LstmClassifier.loss_and_grads over the full length, with the per-step LSTM."""
    p = model.params
    h_seq, caches = step_lstm_forward(x, p["gate_w"], p["gate_b"], model.hidden)
    pooled, pool_cache = layers.masked_mean_forward(h_seq, mask)
    probs = layers.softmax(pooled @ p["fc_w"] + p["fc_b"])
    valid_rows = pool_cache[2]
    probs[~valid_rows] = 1.0 / model.num_classes
    dlogits = layers.softmax_cross_entropy_grad(probs, y)
    dlogits[~valid_rows] = 0.0
    dh_seq = layers.masked_mean_backward(dlogits @ p["fc_w"].T, pool_cache)
    dgate_w, dgate_b = step_lstm_backward(dh_seq, caches, p["gate_w"], model.hidden)
    grads = {
        "gate_w": dgate_w,
        "gate_b": dgate_b,
        "fc_w": pooled.T @ dlogits,
        "fc_b": dlogits.sum(axis=0),
    }
    return layers.cross_entropy(probs, y), grads, probs


class TestStepLstmParity:
    """The time-major LSTM against the per-step loop it replaced, within 1e-12."""

    def test_layers_match_step_reference(self):
        rng = np.random.default_rng(44)
        for _ in range(150):
            batch = int(rng.choice([1, 2, 5, 16]))
            length = int(rng.choice([1, 2, 7, 12]))
            hidden = int(rng.choice([1, 3, 8]))
            channels = int(rng.choice([1, 16, 32]))
            x = rng.normal(size=(batch, length, channels))
            w = rng.normal(scale=0.5, size=(channels + hidden, 4 * hidden))
            b = rng.normal(size=4 * hidden)
            h_seq, cache = layers.lstm_forward(x, w, b, hidden)
            ref_h_seq, ref_caches = step_lstm_forward(x, w, b, hidden)
            assert np.abs(h_seq - ref_h_seq).max() <= 1e-12
            _, pool_cache = layers.masked_mean_forward(ref_h_seq, _random_mask(rng, batch, length))
            dh_seq = layers.masked_mean_backward(rng.normal(size=(batch, hidden)), pool_cache)
            dw, db = layers.lstm_backward(dh_seq, cache, w, hidden)
            ref_dw, ref_db = step_lstm_backward(dh_seq, ref_caches, w, hidden)
            assert np.abs(dw - ref_dw).max() <= 1e-12
            assert np.abs(db - ref_db).max() <= 1e-12

    def test_classifier_matches_step_reference(self):
        rng = np.random.default_rng(45)
        for case in range(40):
            batch = int(rng.choice([1, 4, 9]))
            length = int(rng.choice([1, 5, 12]))
            hidden = int(rng.choice([1, 6]))
            channels = int(rng.choice([1, 16, 32]))
            model = build_model(ClassifierConfig("lstm", hidden=hidden), channels, 3, seed=case)
            x = rng.normal(size=(batch, length, channels))
            mask = _random_mask(rng, batch, length)
            # about half the cases end in columns that are padding in every row
            mask[:, length // 2 :] *= rng.random() < 0.5
            y = rng.integers(0, 3, size=batch)
            loss, grads, probs = model.loss_and_grads(x, mask, y)
            ref_loss, ref_grads, ref_probs = _step_loss_and_grads(model, x, mask, y)
            assert abs(loss - ref_loss) <= 1e-12
            assert np.abs(probs - ref_probs).max() <= 1e-12
            for name in model.params:
                assert np.abs(grads[name] - ref_grads[name]).max() <= 1e-12


class TestCnnModel:
    def test_rejects_too_short_max_len(self):
        with pytest.raises(ConfigError, match="max_len"):
            shape = ClassifierConfig("cnn", max_len=12, kernel_width=5, pool_width=2)
            build_model(shape, 4, 2, seed=0)

    def test_rejects_wrong_input_width(self):
        for kind in ("cnn", "lstm"):
            model = build_model(ClassifierConfig(kind, max_len=20), 4, 2, seed=0)
            x, mask = np.zeros((1, 20, 5)), np.ones((1, 20))
            with pytest.raises(ValueError, match="input width 5 != model width 4"):
                model.forward(x, mask)
            with pytest.raises(ValueError, match="input width 5 != model width 4"):
                model.loss_and_grads(x, mask, [0])

    def test_output_rows_are_distributions(self):
        rng = np.random.default_rng(25)
        shape = ClassifierConfig("cnn", max_len=20, kernels=6, kernel_width=5, pool_width=2)
        model = build_model(shape, 4, 3, seed=0)
        probs = model.forward(rng.normal(size=(5, 20, 4)), np.ones((5, 20)))
        assert probs.shape == (5, 3)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9

    def test_trailing_padding_invariance_with_zero_extended_fc(self):
        rng = np.random.default_rng(26)
        kernels = 6
        shape = ClassifierConfig("cnn", max_len=20, kernels=kernels, kernel_width=5, pool_width=2)
        short = build_model(shape, 3, 2, seed=2)
        shape = ClassifierConfig("cnn", max_len=28, kernels=kernels, kernel_width=5, pool_width=2)
        longer = build_model(shape, 3, 2, seed=2)
        for name in ("conv1_w", "conv1_b", "conv2_w", "conv2_b"):
            longer.params[name] = short.params[name].copy()
        longer.params["fc_w"] = np.zeros_like(longer.params["fc_w"])
        longer.params["fc_w"][: short.params["fc_w"].shape[0]] = short.params["fc_w"]
        longer.params["fc_b"] = short.params["fc_b"].copy()
        x = rng.normal(size=(4, 20, 3))
        padded = np.concatenate([x, np.zeros((4, 8, 3))], axis=1)
        mask = np.ones((4, 20))
        padded_mask = np.concatenate([mask, np.zeros((4, 8))], axis=1)
        assert np.abs(short.forward(x, mask) - longer.forward(padded, padded_mask)).max() < 1e-6


class TestCnnParity:
    """The CNN against its earlier layers, which tests/oracles.py keeps verbatim.

    The reference forms conv1's input gradient too, multiplies a strided
    window view and pools through argmax indices. Every loss, probability,
    gradient and trained parameter must be bit-identical to it.
    """

    SHAPES = [
        (32, 12, 64, 32, 3, 2),  # wide-vocab sizes; conv2's 3 rows pool with a tail of 1
        (4, 20, 3, 5, 5, 2),  # every stage even
        (5, 15, 4, 6, 2, 3),  # tails of 2 rows and 0 rows
        (50, 20, 100, 64, 5, 2),  # k*C = 500
        (128, 20, 100, 64, 5, 2),  # k*C = 500, TREC-like
        (6, 10, 3, 4, 3, 2),  # conv1's last block lies wholly in the padding: a tie
    ]

    @staticmethod
    def _problem(batch, max_len, width, kernels, kw, pool, examples):
        rng = np.random.default_rng(max_len)
        shape = ClassifierConfig(
            "cnn", max_len=max_len, kernels=kernels, kernel_width=kw, pool_width=pool
        )
        model = build_model(shape, width, 3, seed=7)
        for name in ("conv1_b", "conv2_b", "fc_b"):
            model.params[name] = rng.normal(scale=0.1, size=model.params[name].shape)
        x = rng.normal(size=(examples, max_len, width))
        x[:, max_len - 4 :, :] = 0.0  # trailing padding, as embed_dataset writes it
        y = rng.integers(3, size=examples)
        mask = np.ones((examples, max_len))
        mask[:, max_len - 4 :] = 0.0
        return model, x, mask, y

    @pytest.mark.parametrize("batch, max_len, width, kernels, kw, pool", SHAPES)
    def test_bit_identical_to_full_backward(self, batch, max_len, width, kernels, kw, pool):
        model, x, mask, y = self._problem(batch, max_len, width, kernels, kw, pool, batch)
        loss, grads, probs = model.loss_and_grads(x, mask, y)
        ref_loss, ref_grads, ref_probs = full_cnn_loss_and_grads(model, x, mask, y)
        assert loss == ref_loss
        assert_same_bits(probs, ref_probs)
        assert list(grads) == list(ref_grads)
        for name, g in grads.items():
            assert_same_bits(g, ref_grads[name], name)

    @pytest.mark.parametrize("batch, max_len, width, kernels, kw, pool", SHAPES)
    def test_trained_parameters_bit_identical(self, batch, max_len, width, kernels, kw, pool):
        # two full batches and a short one per epoch
        problem = (batch, max_len, width, kernels, kw, pool, 2 * batch + 3)
        model, x, mask, y = self._problem(*problem)
        ref, _, _, _ = self._problem(*problem)
        ref.loss_and_grads = functools.partial(full_cnn_loss_and_grads, ref)
        config = TrainConfig(batch_size=batch, epochs=3, learning_rate=0.1, seed=2)
        log = train_classifier(model, x, mask, y, config)
        ref_log = train_classifier(ref, x, mask, y, config)
        assert log.epoch_losses == ref_log.epoch_losses
        for name, p in model.params.items():
            assert_same_bits(p, ref.params[name], name)


class TestGradientChecks:
    def test_cnn_gradients(self):
        rng = np.random.default_rng(27)
        shape = ClassifierConfig("cnn", max_len=10, kernels=4, kernel_width=3, pool_width=2)
        model = build_model(shape, 3, 3, seed=3)
        x = rng.normal(size=(4, 10, 3))
        y = np.array([0, 1, 2, 1])
        assert gradient_check(model, x, np.ones((4, 10)), y) < 1e-4

    def test_lstm_gradients(self):
        rng = np.random.default_rng(28)
        model = build_model(ClassifierConfig("lstm", hidden=5), 3, 3, seed=4)
        x = rng.normal(size=(4, 6, 3))
        mask = np.ones((4, 6))
        mask[1, 4:] = 0.0
        mask[3, 2:] = 0.0
        y = np.array([2, 0, 1, 1])
        assert gradient_check(model, x, mask, y) < 1e-4

    def test_lstm_gradients_with_empty_sequence_row(self):
        rng = np.random.default_rng(29)
        model = build_model(ClassifierConfig("lstm", hidden=3), 2, 2, seed=5)
        x = rng.normal(size=(3, 4, 2))
        mask = np.ones((3, 4))
        mask[2] = 0.0  # uniform-output row must contribute zero gradient
        y = np.array([0, 1, 1])
        assert gradient_check(model, x, mask, y) < 1e-4


class TestTrainClassifier:
    def test_first_batch_loss_is_log_num_classes_with_zero_head(self):
        x, mask, y = make_separable_toyset(num_examples=12, max_len=20, width=4, seed=1)
        for model in (
            build_model(ClassifierConfig("cnn", max_len=20, kernels=4), 4, 2, seed=0),
            build_model(ClassifierConfig("lstm", hidden=6), 4, 2, seed=0),
        ):
            model.params["fc_w"] = np.zeros_like(model.params["fc_w"])
            model.params["fc_b"] = np.zeros_like(model.params["fc_b"])
            log = train_classifier(
                model, x, mask, y, TrainConfig(batch_size=4, epochs=1, learning_rate=0.01)
            )
            assert abs(log.first_batch_loss - math.log(2)) < 1e-9

    def test_overfits_separable_toyset_cnn(self):
        x, mask, y = make_separable_toyset()
        shape = ClassifierConfig("cnn", max_len=20, kernels=8, kernel_width=5, pool_width=2)
        model = build_model(shape, 8, 2, seed=0)
        train_classifier(
            model, x, mask, y, TrainConfig(batch_size=4, epochs=200, learning_rate=0.05, seed=0)
        )
        assert evaluate(model, x, mask, y).accuracy == 1.0

    def test_overfits_separable_toyset_lstm(self):
        x, mask, y = make_separable_toyset()
        model = build_model(ClassifierConfig("lstm", hidden=16), 8, 2, seed=0)
        log = train_classifier(
            model, x, mask, y, TrainConfig(batch_size=4, epochs=200, learning_rate=0.1, seed=0)
        )
        assert evaluate(model, x, mask, y).accuracy == 1.0
        assert log.epoch_losses[-1] < log.epoch_losses[0]

    def test_training_is_deterministic(self):
        x, mask, y = make_separable_toyset(num_examples=12, max_len=20, width=4, seed=2)
        cfg = TrainConfig(batch_size=4, epochs=3, learning_rate=0.05, seed=9)
        params = []
        logs = []
        for _ in range(2):
            model = build_model(ClassifierConfig("lstm", hidden=5), 4, 2, seed=6)
            logs.append(train_classifier(model, x, mask, y, cfg))
            params.append(model.params)
        assert list(params[0]) == list(params[1])
        assert all(np.array_equal(params[0][name], params[1][name]) for name in params[0])
        assert logs[0].epoch_losses == logs[1].epoch_losses

    def test_non_finite_loss_raises_with_location(self):
        x = np.zeros((4, 5, 3))
        x[0, 0, 0] = np.nan
        mask = np.ones((4, 5))
        y = np.array([0, 1, 0, 1])
        model = build_model(ClassifierConfig("lstm", hidden=4), 3, 2, seed=0)
        with pytest.raises(NumericError, match="epoch 1, batch 1"):
            train_classifier(
                model, x, mask, y,
                TrainConfig(batch_size=4, epochs=1, learning_rate=0.1),
            )

    def test_empty_dataset_rejected(self):
        model = build_model(ClassifierConfig("lstm", hidden=2), 2, 2, seed=0)
        x, mask, y = np.zeros((0, 3, 2)), np.zeros((0, 3)), np.zeros(0, dtype=int)
        with pytest.raises(ConfigError):
            train_classifier(model, x, mask, y, TrainConfig())

    def test_config_validation(self):
        for kwargs in ({"batch_size": 0}, {"epochs": 0}, {"learning_rate": 0.0}):
            with pytest.raises(ConfigError):
                TrainConfig(**kwargs)


class _FixedModel:
    """Evaluation stub that replays fixed probabilities by example index."""

    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=float)
        self.num_classes = self.probs.shape[1]

    def forward(self, x, mask):
        idx = np.asarray(x)[:, 0, 0].astype(int)
        return self.probs[idx]


def _index_inputs(count):
    """Inputs of ``count`` one-token examples whose value is their index, and their mask."""
    x = np.zeros((count, 1, 1))
    x[:, 0, 0] = np.arange(count)
    return x, np.ones((count, 1))


class TestEvaluate:
    def test_hand_confusion_matrix(self):
        # predictions 0,1,1,0 against labels 0,1,0,0
        probs = [[0.9, 0.1], [0.2, 0.8], [0.3, 0.7], [0.6, 0.4]]
        result = evaluate(_FixedModel(probs), *_index_inputs(4), np.array([0, 1, 0, 0]))
        assert result.confusion.tolist() == [[2, 1], [0, 1]]
        assert result.accuracy == 0.75
        assert result.precision.tolist() == [1.0, 0.5]
        assert np.abs(result.recall - [2 / 3, 1.0]).max() < 1e-12

    def test_confusion_rows_sum_to_true_counts(self):
        rng = np.random.default_rng(30)
        probs = rng.dirichlet(np.ones(3), size=50)
        y = rng.integers(3, size=50)
        result = evaluate(_FixedModel(probs), *_index_inputs(50), y)
        assert result.confusion.sum() == 50
        for c in range(3):
            assert result.confusion[c].sum() == int((y == c).sum())

    def test_never_predicted_class_gets_zero_precision(self):
        probs = [[0.9, 0.1], [0.8, 0.2], [0.7, 0.3]]
        result = evaluate(_FixedModel(probs), *_index_inputs(3), np.array([0, 0, 1]))
        assert result.precision.tolist() == [2 / 3, 0.0]
        assert result.recall.tolist() == [1.0, 0.0]

    def test_summary_lines_use_label_names(self):
        probs = [[0.9, 0.1], [0.2, 0.8]]
        result = evaluate(_FixedModel(probs), *_index_inputs(2), np.array([0, 1]))
        lines = result.summary_lines(["negative", "positive"])
        assert lines[0] == "accuracy 1.0000"
        assert any("positive" in line for line in lines)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            evaluate(_FixedModel([[1.0, 0.0]]), *_index_inputs(0), np.zeros(0, dtype=int))


class TestCheckpoints:
    def _trained_lstm(self):
        x, mask, y = make_separable_toyset(num_examples=8, max_len=10, width=3, seed=3)
        model = build_model(ClassifierConfig("lstm", hidden=4), 3, 2, seed=7)
        train_classifier(model, x, mask, y, TrainConfig(batch_size=4, epochs=2, learning_rate=0.05))
        return model, (x, mask, y)

    def test_lstm_round_trip_restores_loss(self, tmp_path):
        model, (x, mask, y) = self._trained_lstm()
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == "lstm"
        assert loaded.arch() == model.arch()
        assert list(loaded.params) == list(model.params)
        assert all(np.array_equal(loaded.params[name], p) for name, p in model.params.items())
        loss_a, _, _ = model.loss_and_grads(x, mask, y)
        loss_b, _, _ = loaded.loss_and_grads(x, mask, y)
        assert abs(loss_a - loss_b) < 1e-6

    def test_cnn_round_trip(self, tmp_path):
        shape = ClassifierConfig("cnn", max_len=14, kernels=4, kernel_width=3, pool_width=2)
        model = build_model(shape, 3, 3, seed=8)
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.arch() == model.arch()
        rng = np.random.default_rng(31)
        x, mask = rng.normal(size=(2, 14, 3)), np.ones((2, 14))
        assert np.abs(model.forward(x, mask) - loaded.forward(x, mask)).max() < 1e-12

    def test_bytes_match_per_value_formatting(self, tmp_path):
        rng = np.random.default_rng(14)
        special = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 1e16, 99999999.5, 5e300]
        for kind in ("cnn", "lstm"):
            shape = ClassifierConfig(kind, max_len=10, kernel_width=3, hidden=3)
            model = build_model(shape, 4, 3, seed=0)
            for i, p in enumerate(model.params.values()):
                p *= 10.0 ** rng.integers(-300, 300, size=p.shape)
                p.flat[: len(special)] = special[: p.size]
                p.flat[-1] = -special[i % len(special)]
            new, old = tmp_path / f"{kind}-new.txt", tmp_path / f"{kind}-old.txt"
            save_model(model, new)
            fstring_save_model(model, old)
            assert new.read_bytes() == old.read_bytes()

    def test_wrong_tag_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("some-other-format v9\n")
        with pytest.raises(DataFormatError, match=":1:"):
            load_model(path)

    def test_malformed_sections_rejected(self, tmp_path):
        model = build_model(ClassifierConfig("lstm", hidden=2), 2, 2, seed=0)
        path = tmp_path / "model.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()

        bad = list(lines)
        bad[1] = "input_width 2 extra"
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(DataFormatError, match=":2:"):
            load_model(path)

        param_line = next(i for i, l in enumerate(lines) if l.startswith("param gate_w"))
        bad = list(lines)
        bad[param_line + 1] = "1.0 2.0 nope"
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(DataFormatError, match="gate_w"):
            load_model(path)

        bad = list(lines)
        bad[param_line] = "param gate_w 3"
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(DataFormatError, match="gate_w"):
            load_model(path)

        bad = [l for l in lines if not l.startswith("param fc_b")]
        bad = bad[: len(bad) - 1]  # drop fc_b header and values
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(DataFormatError, match="fc_b"):
            load_model(path)

        hidden_line = lines.index("hidden 2")
        fc_b_line = lines.index("param fc_b 2")
        gate_w_values = lines[param_line + 1].split()
        for index, replacement, message in [
            (hidden_line, "hidden three", f":{hidden_line + 1}: hidden"),
            (hidden_line, None, "missing architecture key 'hidden'"),
            (hidden_line, "kernels 2", "missing architecture key 'hidden'"),
            (hidden_line, "hidden 2\nkernels 2", "key 'kernels' is not used by kind 'lstm'"),
            (fc_b_line, "param fc_b two", f":{fc_b_line + 1}:"),
            (hidden_line, "hidden 0", "hidden must be >= 1"),
            (
                hidden_line,
                "hidden 2\nhidden 3",
                f":{hidden_line + 2}: repeated architecture key 'hidden'",
            ),
            (fc_b_line, "param fc_b 2\n0 0\nparam fc_b 2", f":{fc_b_line + 3}: repeated param 'fc_b'"),
            (lines.index("kind lstm"), "kind transformer", "transformer"),
            *[
                (
                    param_line + 1,
                    " ".join(gate_w_values[:-1] + [value]),
                    f":{param_line + 2}: param 'gate_w' has non-finite values",
                )
                for value in ("nan", "inf", "-inf")
            ],
        ]:
            bad = list(lines)
            if replacement is None:
                del bad[index]
            else:
                bad[index] = replacement
            path.write_text("\n".join(bad) + "\n")
            with pytest.raises(DataFormatError, match=message):
                load_model(path)

    def test_tag_constant_is_versioned(self):
        assert CHECKPOINT_TAG.endswith("v1")

    def test_build_model_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_model(ClassifierConfig("transformer"), 2, 2, seed=0)

    @pytest.mark.parametrize(
        "name, shape, seed, confusion",
        [
            ("lstm-model-v1.txt", ClassifierConfig("lstm", hidden=2), 11, [[2, 2], [1, 3]]),
            (
                "cnn-model-v1.txt",
                ClassifierConfig("cnn", max_len=5, kernels=2, kernel_width=2, pool_width=1),
                13,
                [[3, 1], [2, 2]],
            ),
        ],
    )
    def test_earlier_checkpoints_score_unchanged(self, tmp_path, name, shape, seed, confusion):
        """tests/data holds untrained models of ``shape`` from ``seed``, written before
        build_model took a ClassifierConfig, and ``confusion`` is what they scored then.

        The LSTM file predates its ``max_len`` line: as written it is refused, and
        with the line added after ``num_classes`` it is what today's writer makes."""
        lines = (CHECKPOINTS / name).read_text().splitlines()
        if shape.model == "lstm":
            with pytest.raises(DataFormatError, match="missing architecture key 'max_len'"):
                load_model(CHECKPOINTS / name)
            lines.insert(lines.index("num_classes 2") + 1, f"max_len {shape.max_len}")
        written = tmp_path / name
        written.write_text("\n".join(lines) + "\n")
        fresh = build_model(shape, 2, 2, seed=seed)
        save_model(fresh, tmp_path / "model.txt")
        assert (tmp_path / "model.txt").read_bytes() == written.read_bytes()
        loaded = load_model(written)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 5, 2))
        mask = (np.arange(5)[None, :] < np.array([5, 4, 3, 5, 2, 5, 1, 4])[:, None]).astype(float)
        y = np.arange(8) % 2
        assert np.array_equal(loaded.forward(x, mask), fresh.forward(x, mask))
        assert evaluate(loaded, x, mask, y).confusion.tolist() == confusion

    def test_cnn_architecture_keys_must_match_the_kind(self, tmp_path):
        lines = (CHECKPOINTS / "cnn-model-v1.txt").read_text().splitlines()
        path = tmp_path / "model.txt"
        for size in ("max_len", "kernels", "kernel_width", "pool_width"):
            path.write_text("\n".join(l for l in lines if not l.startswith(size + " ")) + "\n")
            with pytest.raises(DataFormatError, match=f"missing architecture key '{size}'"):
                load_model(path)
        path.write_text("\n".join([*lines[:2], "hidden 3", *lines[2:]]) + "\n")
        with pytest.raises(DataFormatError, match="key 'hidden' is not used by kind 'cnn'"):
            load_model(path)

    def test_lstm_architecture_keys_must_match_the_kind(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(build_model(ClassifierConfig("lstm", max_len=7, hidden=2), 2, 2, seed=0), path)
        lines = path.read_text().splitlines()
        arch = ["kind lstm", "input_width 2", "num_classes 2", "max_len 7", "hidden 2"]
        assert lines[1:6] == arch
        assert load_model(path).max_len == 7
        for size in ("max_len", "hidden"):
            path.write_text("\n".join(l for l in lines if not l.startswith(size + " ")) + "\n")
            with pytest.raises(DataFormatError, match=f"missing architecture key '{size}'"):
                load_model(path)
        for unused in ("kernels", "kernel_width", "pool_width"):
            path.write_text("\n".join([*lines[:2], f"{unused} 3", *lines[2:]]) + "\n")
            message = f"key '{unused}' is not used by kind 'lstm'"
            with pytest.raises(DataFormatError, match=message):
                load_model(path)
