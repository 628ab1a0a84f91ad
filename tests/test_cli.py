import contextlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import log_uniform
from uavcache import cli, sim
from uavcache.channel import ChannelError
from uavcache.cli import main
from uavcache.config import merge_documents

TINY = {
    "num_users": 6, "num_rrhs": 6, "num_rrh_clusters": 2, "num_uavs": 2,
    "cache_size": 3, "intervals_per_slot": 8, "slots_per_collection": 3,
    "slots_per_cache_period": 12,
    "esn": {"reservoir_size": 50, "training_length": 60, "washout": 10},
    "generators": {"training_weeks": 2, "request_concentration": 2.0},
}


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def read_report(out: Path) -> list[dict]:
    lines = (out / "training_report.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestTrain:
    def test_success_and_report(self, cfg_file, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", cfg_file, "--out", str(out), "--seed", "5"]) == 0
        models = sorted((out / "models").glob("*.npz"))
        assert len(models) == 2 * TINY["num_users"]
        rows = read_report(out)
        by_model = {}
        for row in rows:
            by_model.setdefault((row["user"], row["task"]), []).append(float(row["quota_after"]))
        for quotas in by_model.values():
            assert all(a >= b for a, b in zip(quotas, quotas[1:]))
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "complete"

    def test_seed_repeat_identical_model_files(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", cfg_file, "--out", str(out1), "--seed", "7"]) == 0
        assert main(["train", "--config", cfg_file, "--out", str(out2), "--seed", "7"]) == 0
        for f1 in sorted((out1 / "models").glob("*.npz")):
            f2 = out2 / "models" / f1.name
            assert f1.read_bytes() == f2.read_bytes()

    def test_missing_config_flag_is_usage_error(self, tmp_path, capsys):
        for argv in (["train", "--out", str(tmp_path)], ["verify"]):
            assert main(argv) == 1
            assert "usage error" in capsys.readouterr().err

    def test_nonexistent_config_file_is_usage_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 1

    def test_invalid_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"cache_size": 99}))
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("override, field", [
        ({"num_users": "70"}, "num_users"),
        ({"num_uavs": True}, "num_uavs"),
        ({"screen_factors": []}, "screen_factors"),
        ({"esn": {"spectral_radius": 1.2}}, "esn.spectral_radius"),
        ({"esn": {"density": 0}}, "esn.density"),
        ({"esn": {"horizon": 0}}, "esn.horizon"),
        ({"qoe_weight_delay": 1.5, "qoe_weight_device": -0.5}, "qoe_weight_delay"),
        ({"qoe_weight_delay": 1.5, "qoe_weight_device": -0.5}, "qoe_weight_device"),
        ({"num_contents": 25, "content_base_rates_bps": [-1e6] * 25}, "content_base_rates_bps"),
        ({"esn": {"spectral_radius": 2.5}}, "esn.spectral_radius"),
        ({"generators": {"taste_spread": -1.0}}, "generators.taste_spread"),
        ({"generators": {"work_hour_boost": -1.0}}, "generators.work_hour_boost"),
        ({"generators": {"waypoints_per_day": 0}}, "generators.waypoints_per_day"),
        ({"generators": {"waypoints_per_day": -3}}, "generators.waypoints_per_day"),
        # settings the run never read, now unknown fields
        ({"pathloss": {"shadow_std_nlos_db": 40.0}}, "pathloss.shadow_std_nlos_db"),
        ({"generators": {"speed_min_mps": 1.4}}, "generators.speed_min_mps"),
        ({"esn": {"context_dim": 5}}, "esn.context_dim"),
        ({"esn": {"input_dim": 99}}, "esn.input_dim"),
        ({"esn": {"output_dim": 7}}, "esn.output_dim"),
    ])
    def test_bad_value_exits_2_naming_the_field(self, tmp_path, capsys, override, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(merge_documents(TINY, override)))
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert f"  - {field}: " in capsys.readouterr().err


class TestSimulate:
    def test_oracle_outputs_schema(self, cfg_file, tmp_path):
        out = tmp_path / "run"
        code = main(["simulate", "--config", cfg_file, "--oracle", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["total_uav_power_w"] > 0.0
        assert 0.0 <= summary["satisfied_fraction"] <= 1.0
        slots = (out / "slots.csv").read_text().strip().split("\n")
        assert len(slots) == 1 + TINY["num_users"] * TINY["slots_per_cache_period"]

    def test_no_uav_baseline_zero_power(self, cfg_file, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg_file, "--oracle", "--out", str(out),
                     "--baseline", "no_uav"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["total_uav_power_w"] == 0.0

    def test_same_seed_byte_identical(self, cfg_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["simulate", "--config", cfg_file, "--oracle",
                         "--out", str(out), "--seed", "11"]) == 0
        assert (out1 / "slots.csv").read_bytes() == (out2 / "slots.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_trained_models_feed_simulation(self, cfg_file, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", cfg_file, "--out", str(out), "--seed", "3"]) == 0
        code = main(["simulate", "--config", cfg_file, "--models", str(out),
                     "--out", str(out), "--seed", "3"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mode"] == "esn"
        assert summary["prediction_gap"]["position_error_m"] >= 0.0

    def test_model_config_mismatch_rejected(self, cfg_file, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--config", cfg_file, "--out", str(out), "--seed", "3"]) == 0
        other = dict(TINY)
        other["num_contents"] = 7
        other_file = tmp_path / "other.json"
        other_file.write_text(json.dumps(other))
        code = main(["simulate", "--config", str(other_file), "--models", str(out),
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_manifest_records_the_argv_given_to_main(self, cfg_file, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["harness", "--whatever"])
        argv = ["simulate", "--config", cfg_file, "--oracle", "--out", str(tmp_path), "--seed", "3"]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["argv"] == argv

    def test_source_flag_required(self, cfg_file, tmp_path):
        assert main(["simulate", "--config", cfg_file, "--out", str(tmp_path)]) == 1

    def test_failed_run_finalizes_manifest(self, cfg_file, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "run"
        code = main(["simulate", "--config", cfg_file, "--models", str(tmp_path / "nowhere"),
                     "--out", str(out)])
        assert code == 2
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "missing model files" in manifest["error"]
        assert manifest["outputs"] == []
        assert "finished_at" in manifest
        env = manifest["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["OMP_NUM_THREADS"] == "1"
        assert env["MKL_NUM_THREADS"] is None
        assert "OPENBLAS_NUM_THREADS" in env


def _raise_channel_error(*args, **kwargs):
    raise ChannelError("zero distance between user and antenna")


@pytest.mark.parametrize("override, source, code, message", [
    ({"esn": {"reservoir_size": 1}}, "train", 2, "LinalgError: degenerate reservoir draw"),
    ({"esn": {"reservoir_size": 2, "aperture": 1000.0}}, "train", 2, "MemoryExhausted: "),
    ({"esn": {"washout": 50, "training_length": 400}}, "train", 2,
     "esn.washout: must be smaller than the 42 training samples"),
    ({"esn": {"washout": 40}, "generators": {"request_probability": 0.5}}, "train", 2,
     "TooFewSamples: "),
    ({"generators": {"request_probability": 0.0}}, "train", 2,
     "TooFewSamples: 0 samples leave none"),
    ({}, "garbage models", 2, "unreadable model file"),
    ({"slots_per_collection": 2}, "trained models", 2,
     "user 0 content model holds 4 patterns, config needs 6"),
    ({}, "content model as mobility", 2, "user 0 mobility model holds 4 patterns, config needs 2"),
    ({}, "flat models", 2, "missing model files for user 0"),
    ({}, "channel error", 3, "ChannelError: zero distance"),
    ({}, "out is a file", 2, "cannot use output directory"),
    ({}, "version 1 models", 2, "model format version 1 is not the supported version 2"),
    ({}, "one-dimensional input map", 2, "unreadable model file"),
    ({}, "undecodable config", 2, "cannot read config file"),
    ({}, "config is a directory", 2, "cannot read config file"),
], ids=["degenerate-reservoir", "memory-exhausted", "washout-vs-samples",
        "washout-vs-drawn-samples", "no-requests", "garbage-model-file", "pattern-count-mismatch",
        "mobility-pattern-count-mismatch", "flat-model-files", "channel-error", "out-is-a-file",
        "version-1-model-file", "one-dimensional-input-map", "config-not-utf8",
        "config-is-a-directory"])
def test_domain_errors_map_to_exit_codes(tmp_path, capsys, monkeypatch, override, source,
                                         code, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(merge_documents(TINY, override)))
    argv = ["--config", str(cfg), "--out", str(tmp_path / "out")]
    if source == "train":
        argv = ["train"] + argv
    elif source == "garbage models":
        (tmp_path / "models").mkdir()
        for task in ("content", "mobility"):
            (tmp_path / "models" / f"user000_{task}.npz").write_bytes(b"not a model")
        argv = ["simulate", "--models", str(tmp_path)] + argv
    elif source in ("trained models", "content model as mobility", "flat models",
                    "version 1 models", "one-dimensional input map"):
        trained_cfg = tmp_path / "trained.json"
        trained_cfg.write_text(json.dumps(TINY))
        assert main(["train", "--config", str(trained_cfg),
                     "--out", str(tmp_path / "trained")]) == 0
        if source == "content model as mobility":
            models = tmp_path / "trained" / "models"
            (models / "user000_mobility.npz").write_bytes(
                (models / "user000_content.npz").read_bytes())
        if source in ("version 1 models", "one-dimensional input map"):
            path = tmp_path / "trained" / "models" / "user000_content.npz"
            with np.load(path) as data:
                members = dict(data)
            if source == "version 1 models":
                members["format_version"] = np.int64(1)
            else:
                members["w_in"] = members["w_in"][:, 0]
            np.savez(path, **members)
        if source == "flat models":  # DIR/userNNN_*.npz instead of DIR/models/userNNN_*.npz
            for path in (tmp_path / "trained" / "models").glob("*.npz"):
                path.rename(tmp_path / "trained" / path.name)
        argv = ["simulate", "--models", str(tmp_path / "trained")] + argv
    elif source == "out is a file":
        (tmp_path / "out").write_text("not a directory")
        argv = ["simulate", "--oracle"] + argv
    elif source == "undecodable config":
        cfg.write_bytes(b'{"seed": "\xff\xfe"}')
        argv = ["simulate", "--oracle"] + argv
    elif source == "config is a directory":
        argv = ["simulate", "--oracle", "--config", str(tmp_path)] + argv[2:]
    else:
        monkeypatch.setattr(sim, "run_period", _raise_channel_error)
        argv = ["simulate", "--oracle"] + argv
    assert main(argv) == code
    err = capsys.readouterr().err
    assert message in err
    if source == "garbage models":
        assert "user000_content.npz" in err
    if source == "out is a file":
        assert str(tmp_path / "out") in err
    if source in ("undecodable config", "config is a directory"):
        assert "Traceback" not in err


def quiet_main(command: list[str], doc: dict) -> int:
    """``main(command + --config --out)`` on ``doc`` in a throwaway directory, output muted."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc))
        return main(command + ["--config", str(cfg), "--out", str(Path(tmp) / "out")])


FUZZ_ESN = st.fixed_dictionaries({
    "aperture": log_uniform(-3.0, 6.0),
    "ridge": st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
    "washout": st.integers(0, 60),
    "spectral_radius": st.floats(0.0, 1.2),
    "density": st.floats(0.0, 1.0),
    "reservoir_size": st.integers(0, 40),
})


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(esn=FUZZ_ESN)
@example(esn={"aperture": 1e6, "ridge": 0.0, "washout": 10, "spectral_radius": 0.9,
              "density": 0.1, "reservoir_size": 40})
@example(esn={"aperture": 1e-3, "ridge": 0.0, "washout": 0, "spectral_radius": 0.5,
              "density": 1.0, "reservoir_size": 40})
def test_fuzzed_esn_block_never_ends_in_a_traceback(esn):
    assert quiet_main(["train"], merge_documents(TINY, {"num_users": 2, "esn": esn})) in (0, 2, 3)


# The scalars that turn a delay budget into a rate target and then into a power.
FUZZ_RATE_CHAIN = st.fixed_dictionaries({
    "slot_duration_s": log_uniform(-3.0, 2.0),
    "content_size_bits": log_uniform(2.0, 10.0),
    "fronthaul_rate_bps": log_uniform(3.0, 12.0),
    "uav_bandwidth_hz": log_uniform(2.0, 11.0),
    "noise_power_w": log_uniform(-22.0, -4.0),
    "uav_max_power_w": log_uniform(-4.0, 4.0),
    "mos_min": log_uniform(-4.0, 0.0),
})


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(chain=FUZZ_RATE_CHAIN)
def test_fuzzed_rate_chain_never_ends_in_a_traceback(chain):
    assert quiet_main(["simulate", "--oracle"], merge_documents(TINY, chain)) in (0, 2, 3)


@st.composite
def fuzz_pathloss(draw):
    """The access-link constants, the altitude floor and the area the users roam.

    Some draws are invalid and must exit 2: an NLoS exponent below the LoS
    one, a zero LoS exponent or a zero env_x.
    """
    exponent_los = draw(st.floats(0.0, 6.0))
    return {
        "pathloss": {
            "exponent_los": exponent_los,
            "exponent_nlos": exponent_los + draw(st.floats(-0.5, 3.0)),
            "env_x": draw(st.floats(0.0, 60.0)),
            "env_y": draw(log_uniform(-3.0, 0.5)),
            "fs_ref_distance_m": draw(log_uniform(-2.0, 3.0)),
            "carrier_hz": draw(log_uniform(6.0, 12.0)),
        },
        "min_altitude_m": draw(log_uniform(-1.0, 3.5)),
        "area_radius_m": draw(log_uniform(0.0, 4.0)),
    }


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(doc=fuzz_pathloss())
def test_fuzzed_pathloss_never_ends_in_a_traceback(doc):
    assert quiet_main(["simulate", "--oracle"], merge_documents(TINY, doc)) in (0, 2, 3)


# One way to break each field of the generators block; a negative request
# concentration this large overflows the request weights.
BROKEN_GENERATORS = {
    "waypoints_per_day": st.integers(-3, 0),
    "speed_max_mps": st.floats(-1.0, 0.0),
    "position_noise_m": st.floats(-10.0, 0.0, exclude_max=True),
    "request_concentration": st.floats(-400.0, -230.0),
    "taste_spread": st.floats(-10.0, 0.0, exclude_max=True),
    "work_hour_boost": st.floats(-10.0, 0.0, exclude_max=True),
    "request_probability": st.one_of(st.floats(-1.0, 0.0, exclude_max=True),
                                     st.floats(1.0, 2.0, exclude_min=True)),
    "training_weeks": st.integers(-2, 0),
}


@st.composite
def fuzz_generators(draw):
    """A valid ``generators`` block, or one with a single field broken; and that field."""
    block = {
        "waypoints_per_day": draw(st.integers(1, 8)),
        "speed_max_mps": draw(log_uniform(-2.0, 2.5)),
        "position_noise_m": draw(st.floats(0.0, 500.0)),
        "request_concentration": draw(st.floats(-3.0, 6.0)),
        "taste_spread": draw(st.floats(0.0, 10.0)),
        "work_hour_boost": draw(st.floats(0.0, 20.0)),
        "request_probability": draw(st.floats(0.0, 1.0)),
        "training_weeks": draw(st.integers(1, 3)),
    }
    broken = draw(st.one_of(st.none(), st.sampled_from(sorted(BROKEN_GENERATORS))))
    if broken is not None:
        block[broken] = draw(BROKEN_GENERATORS[broken])
    return {"generators": block}, broken


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=fuzz_generators())
@example(case=({"generators": {"request_concentration": -300.0}}, "request_concentration"))
@example(case=({"generators": {"work_hour_boost": -1.0}}, "work_hour_boost"))
def test_fuzzed_generators_never_ends_in_a_traceback(case):
    doc, broken = case
    code = quiet_main(["simulate", "--oracle"], merge_documents(TINY, doc))
    assert code in (0, 2, 3)
    assert (code == 2) == (broken is not None)


def test_overflowing_placement_weights_still_simulate(tmp_path):
    # 2 ** (t * n / B) overflows at this bandwidth: some closed-form weights are inf
    doc = merge_documents(TINY, {"noise_power_w": 1.865730707778994e-18,
                                 "uav_bandwidth_hz": 2003.630345375049,
                                 "rrh_power_w": 0.06103343532598528})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["simulate", "--oracle", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert np.isfinite(summary["avg_altitude_m"]) and np.isfinite(summary["total_uav_power_w"])


class TestSweep:
    def test_rows_written(self, cfg_file, tmp_path):
        out = tmp_path / "run"
        code = main(["sweep", "--config", cfg_file, "--param", "cache",
                     "--values", "1,2,3", "--out", str(out)])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 4
        assert lines[1].startswith("cache,1,")

    def test_empty_values_usage_error(self, cfg_file, tmp_path):
        assert main(["sweep", "--config", cfg_file, "--param", "cache",
                     "--values", "", "--out", str(tmp_path)]) == 1

    def test_non_integer_values_usage_error(self, cfg_file, tmp_path):
        assert main(["sweep", "--config", cfg_file, "--param", "cache",
                     "--values", "1,two", "--out", str(tmp_path)]) == 1

    def test_invalid_swept_value_is_config_error(self, cfg_file, tmp_path):
        assert main(["sweep", "--config", cfg_file, "--param", "cache",
                     "--values", "99", "--out", str(tmp_path)]) == 2

    def test_absurd_count_exits_2_before_any_run(self, cfg_file, tmp_path, monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(sim, "run_period", no_run)
        monkeypatch.setattr(sim, "SyntheticWorld", no_run)
        # the valid first value does not run either: every value is checked first
        assert main(["sweep", "--config", cfg_file, "--param", "users",
                     "--values", f"3,{10 ** 22}", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"sweep value users={10 ** 22}: num_users: must be at most" in err

    def test_terabyte_request_table_exits_2_before_any_world(self, tmp_path, monkeypatch,
                                                             capsys):
        def no_world(*args, **kwargs):
            raise AssertionError("a world was built")

        monkeypatch.setattr(sim, "SyntheticWorld", no_world)
        monkeypatch.setattr(cli, "SyntheticWorld", no_world)
        # each count is within its own bound; the (users, slots) table is 2.9 TB
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"num_users": 10000, "slots_per_cache_period": 10000,
                                   "slots_per_collection": 10,
                                   "generators": {"training_weeks": 520}}))
        assert main(["simulate", "--oracle", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert "(generators.training_weeks + 1): must be at most" in capsys.readouterr().err

    def test_env_var_default_outdir(self, cfg_file, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("UAVCACHE_OUT", str(target))
        assert main(["sweep", "--config", cfg_file, "--param", "uavs",
                     "--values", "1,2"]) == 0
        assert (target / "sweep.csv").exists()


class TestScalePreset:
    def test_desk_preset_applied_by_default(self, cfg_file):
        from uavcache.cli import _build_parser, _load_scenario
        args = _build_parser().parse_args(["train", "--config", cfg_file])
        cfg = _load_scenario(args)
        assert cfg.intervals_per_slot == TINY["intervals_per_slot"]  # file wins
        assert cfg.content_size_bits == 5e5  # preset fills the rest

    def test_paper_scale_restores_reference_values(self, tmp_path):
        from uavcache.cli import _build_parser, _load_scenario
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        args = _build_parser().parse_args(["train", "--config", str(empty), "--paper-scale"])
        cfg = _load_scenario(args)
        assert cfg.intervals_per_slot == 1000
        assert cfg.content_size_bits == 1e6
        assert cfg.esn.reservoir_size == 1000

