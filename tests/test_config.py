import dataclasses
import logging
import math

import pytest
from hypothesis import given, strategies as st

from semexpand.config import (
    STAGE_KEYS,
    ExperimentConfig,
    coerce_value,
    load_config,
    parse_config_lines,
)
from semexpand.embedding import MODE_NEGATIVE
from semexpand.errors import ConfigError

FLOAT_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig) if f.type in (float, "float")]


def make_config(**kwargs):
    kwargs.setdefault("k", 4)
    return ExperimentConfig(**kwargs)


class TestValidation:
    def test_single_k_config_is_valid(self):
        cfg = make_config()
        assert not cfg.uses_grid()

    def test_needs_k_or_grid(self):
        with pytest.raises(ConfigError, match="k_min and k_max"):
            ExperimentConfig()

    def test_grid_config_is_valid(self):
        cfg = ExperimentConfig(k_min=2, k_max=20, k_steps=5)
        assert cfg.uses_grid()

    def test_rejects_inverted_grid_bounds(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(k_min=10, k_max=2)

    def test_rejects_no_expansion_with_a_grid(self):
        with pytest.raises(ConfigError, match="^no_expansion "):
            ExperimentConfig(k=0, k_min=2, k_max=4, no_expansion=True)

    def test_rejects_nonpositive_k_steps(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(k_min=2, k_max=4, k_steps=0)

    def test_rejects_negative_cluster_counts(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(k=-1)

    def test_rejects_train_and_validation_fractions_leaving_no_test_part(self):
        for train, validation in ((0.9, 0.1), (0.8, 0.3), (1.0, 1.0)):
            with pytest.raises(ConfigError) as caught:
                make_config(train_fraction=train, validation_fraction=validation)
            assert str(caught.value) == (
                "train_fraction + validation_fraction must be below 1, leaving a test part, "
                f"got {train} + {validation}"
            )

    def test_rejects_nonpositive_fraction(self):
        with pytest.raises(ConfigError, match="positive"):
            make_config(train_fraction=1.0, validation_fraction=0.0)

    def test_rejects_unknown_model(self):
        with pytest.raises(ConfigError, match="model"):
            make_config(model="transformer")

    def test_rejects_unknown_embed_mode(self):
        with pytest.raises(ConfigError, match="embed_mode"):
            make_config(embed_mode="glove")

    def test_rejects_nonpositive_sizes(self):
        for name in ("min_count", "window", "dim", "hidden", "batch_size", "max_len"):
            with pytest.raises(ConfigError, match=name):
                make_config(**{name: 0})

    def test_rejects_nonpositive_learning_rates(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            make_config(learning_rate=0.0)
        with pytest.raises(ConfigError, match="embed_learning_rate"):
            make_config(embed_learning_rate=-1.0)

    def test_final_embedding_learning_rate_range(self):
        for value in (-1e-6, -5.0, 0.5, float("nan")):
            with pytest.raises(ConfigError, match="embed_final_learning_rate"):
                make_config(embed_learning_rate=0.1, embed_final_learning_rate=value)
        for value in (0.0, 0.1):
            cfg = make_config(embed_learning_rate=0.1, embed_final_learning_rate=value)
            assert cfg.skipgram_config().final_learning_rate == value


    def test_non_finite_values_rejected_naming_the_key(self):
        names = FLOAT_FIELDS + ["window", "hidden", "k", "seed"]
        for name in names:
            for value in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ConfigError, match=f"^{name} must be a finite number"):
                    make_config(**{name: value})

    def test_stage_errors_name_the_experiment_key(self):
        for key, value in (("embed_epochs", 0), ("train_epochs", 0), ("embed_mode", "glove")):
            with pytest.raises(ConfigError, match=f"^{key} "):
                make_config(**{key: value})

    def test_negative_samples_checked_in_every_mode(self):
        with pytest.raises(ConfigError, match="negative_samples"):
            make_config(negative_samples=0)

    def test_cnn_stage_lengths_checked_before_any_stage(self):
        with pytest.raises(ConfigError, match="too short"):
            make_config(model="cnn", max_len=4, kernel_width=5)
        # one whole window is enough: the max over time then has one position
        assert make_config(model="cnn", max_len=5, kernel_width=5).max_len == 5

    def test_defaults_come_from_the_stage_configs(self):
        cfg = make_config()
        for stage, renamed in STAGE_KEYS.items():
            for f in dataclasses.fields(stage):
                if f.name != "seed":
                    assert getattr(cfg, renamed.get(f.name, f.name)) == f.default, f.name

    @given(
        name=st.sampled_from(FLOAT_FIELDS),
        value=st.floats(allow_nan=True, allow_infinity=True),
    )
    def test_any_float_is_accepted_finite_or_rejected_as_config_error(self, name, value):
        try:
            cfg = make_config(**{name: value})
        except ConfigError:
            return
        assert math.isfinite(value) and getattr(cfg, name) == value


class TestGridValues:
    def test_single_k(self):
        assert make_config(k=7).grid_values(vocab_size=50) == [7]

    def test_single_k_exceeding_vocabulary_rejected(self):
        with pytest.raises(ConfigError, match="vocabulary"):
            make_config(k=51).grid_values(vocab_size=50)

    def test_log_spaced_grid(self):
        cfg = ExperimentConfig(k_min=2, k_max=27, k_steps=4)
        assert cfg.grid_values(vocab_size=100) == [2, 5, 11, 27]

    def test_narrow_grid_deduplicates(self):
        cfg = ExperimentConfig(k_min=2, k_max=4, k_steps=10)
        assert cfg.grid_values(vocab_size=100) == [2, 3, 4]

    def test_grid_beyond_vocabulary_rejected(self):
        cfg = ExperimentConfig(k_min=2, k_max=27, k_steps=4)
        with pytest.raises(ConfigError, match="vocabulary"):
            cfg.grid_values(vocab_size=20)

    def test_values_stay_within_bounds(self):
        cfg = ExperimentConfig(k_min=3, k_max=90, k_steps=12)
        values = cfg.grid_values(vocab_size=200)
        assert values == sorted(set(values))
        assert values[0] >= 3 and values[-1] <= 90


class TestParsing:
    def test_key_value_lines_with_comments(self):
        values = parse_config_lines(
            ["# experiment", "", "k = 5", "model = cnn  # trailing", "seed=9"]
        )
        assert values == {"k": 5, "model": "cnn", "seed": 9}

    def test_unknown_key_names_source_and_line(self):
        with pytest.raises(ConfigError, match=r"conf\.txt:2.*mystery"):
            parse_config_lines(["k = 5", "mystery = 1"], source="conf.txt")

    def test_line_without_equals_rejected(self):
        with pytest.raises(ConfigError, match=":1:"):
            parse_config_lines(["just words"])

    def test_type_conversion_errors_name_key(self):
        with pytest.raises(ConfigError, match="k.*int"):
            parse_config_lines(["k = lots"])

    def test_boolean_spellings(self):
        for raw, expected in (
            ("true", True), ("1", True), ("yes", True),
            ("false", False), ("0", False), ("no", False),
        ):
            assert parse_config_lines([f"no_expansion = {raw}"]) == {"no_expansion": expected}
        with pytest.raises(ConfigError, match="boolean"):
            parse_config_lines(["no_expansion = maybe"])

    def test_coerce_value_types(self):
        assert coerce_value("k", "12") == 12
        assert coerce_value("learning_rate", "0.5") == 0.5
        assert coerce_value("model", "cnn") == "cnn"
        assert coerce_value("no_expansion", "true") is True
        with pytest.raises(ConfigError, match="unknown config key"):
            coerce_value("mystery", "1")


class TestLoadConfig:
    def test_file_plus_overrides(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("k = 4\nmodel = cnn\nseed = 1\n")
        cfg = load_config(path, overrides={"seed": 7})
        assert (cfg.k, cfg.model, cfg.seed) == (4, "cnn", 7)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("\ufeffk = 4\n", encoding="utf-8")
        assert load_config(path).k == 4

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "absent.txt")

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(None, overrides={"k": 4, "mystery": 1})

    @pytest.mark.parametrize(
        ("key", "in_file", "override"),
        [
            ("synonyms", "data/toy/synonyms.tsv", "syn.tsv"),
            ("test_fraction", "0.1", 0.2),
            ("pool_width", "2", 2),
        ],
        ids=["synonyms", "test_fraction", "pool_width"],
    )
    def test_retired_key_skipped_with_one_warning(self, key, in_file, override, tmp_path, caplog):
        path = tmp_path / "config.txt"
        path.write_text(f"k = 4\n{key} = {in_file}\n")
        # a config.txt snapshot written while the key was live, which named it
        # among the other keys: today's snapshot with the key's line put back
        snapshot = make_config(model="cnn", k=4).snapshot_lines()
        snapshot.insert(snapshot.index("kernel_width = 5") + 1, f"{key} = {in_file}")
        written = tmp_path / "snapshot.txt"
        written.write_text("\n".join(snapshot) + "\n")
        for source, overrides in ((path, None), (None, {"k": 4, key: override}), (written, None)):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="semexpand.config"):
                cfg = load_config(source, overrides)
            assert cfg.k == 4 and not hasattr(cfg, key)
            assert len(caplog.records) == 1
            assert f"retired config key {key!r}" in caplog.records[0].getMessage()
        assert cfg == make_config(model="cnn", k=4)

    def test_override_values_are_converted_and_checked(self):
        cfg = load_config(None, {"k": "4", "learning_rate": 1, "no_expansion": "yes"})
        assert (cfg.k, cfg.learning_rate, cfg.no_expansion) == (4, 1.0, True)
        with pytest.raises(ConfigError, match="k: expected int"):
            load_config(None, {"k": 4.5})

    @pytest.mark.parametrize("value", ["runs/exp#2", "runs/a\nb", " runs/x", "runs/x\t"])
    def test_value_config_txt_cannot_hold_is_rejected(self, value):
        with pytest.raises(ConfigError, match="^output_dir "):
            make_config(output_dir=value)

    def test_snapshot_round_trip(self):
        cfg = make_config(model="cnn", dim=12, learning_rate=0.125, no_expansion=True, seed=3)
        parsed = parse_config_lines(cfg.snapshot_lines(), source="snapshot")
        assert ExperimentConfig(**parsed) == cfg


class TestDerivedConfigs:
    def test_skipgram_config_mapping(self):
        cfg = make_config(
            window=3, dim=24, embed_epochs=7, embed_learning_rate=0.05,
            embed_final_learning_rate=0.001, seed=11, embed_mode=MODE_NEGATIVE,
            negative_samples=9,
        )
        sg = cfg.skipgram_config()
        assert (sg.window, sg.dim, sg.epochs) == (3, 24, 7)
        assert (sg.learning_rate, sg.final_learning_rate) == (0.05, 0.001)
        assert (sg.seed, sg.mode, sg.negative_samples) == (11, MODE_NEGATIVE, 9)
