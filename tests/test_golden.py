"""Pinned SHA-256 digests of the run artifacts.

A refactor of the slot pipeline must leave ``slots.csv`` and ``summary.json``
byte-identical.  These digests were computed before the delivery loop was
routed through the ``qoe``/``channel`` kernels.  Never re-pin them to make a
refactor pass; a change that alters results on purpose says so and shows the
rows that moved.
"""

import dataclasses
import hashlib
import weakref

import pytest

from uavcache import cesn, sim
from uavcache.cli import main
from uavcache.config import ScenarioConfig, serialize
from uavcache.generators import SyntheticWorld
from uavcache.predictors import train_content_model, train_mobility_model

from conftest import desk_config, idle_config, infeasible_config

# baseline -> (slots.csv, summary.json) for the desk preset in oracle mode
DESK_ORACLE = {
    None: ("96a228cbdb0d6740f88c047786e6f1427934f13417309b8aee749803732b4fbb",
           "9264b392941cba5de7af2b526406a3b01b15cd3baa5a21d3dfcf0d320948e30d"),
    "no_uav": ("dea52a99c74e5abf337c4347fc321313016498c6143cf8e718cb35b9ff13b0cc",
               "e5694f460ffdfac3d302bed3a5bc2ff3d7bcf97d1f789a6d1449f0612c08a4d4"),
    "no_cache": ("cd28748e71810c64311db0ed06f360f7feb1d07402fe32e4ef4bcbf496ddfcbe",
                 "2d6accb23e9e3d82b7a8807ac82d2b84cd6cad2d432c7f09a2447e504ad37077"),
    "random_cache": ("557d9cdcfea5be7a5a57d98917735916a04a3a28a9a5f3743772e00640463acf",
                     "36d2d23845af35cfc2bd8779f60a4cdd6eb5940f68581a773e71e261aa4b7601"),
    "fixed_placement": ("e8d7796cc6db78b570c5bf7705571d2776556c3d03ac85d4aefa335ee48ec90c",
                        "647e5f4160ccf577c1445e77f9e4e052193823a132acb93060bc4e9fcd2e439a"),
}

# tiny_cfg in esn mode, models trained from the same world
TINY_ESN = ("b9c955801c4ce598843d37cff88b68e24f7ff6306bd38446dab6db4774ca8f53",
            "588f28e7789dcfed68ae0fc44ab46febb3b4ae51d1ea2efcedd6b381c0783df7")


# the built-in defaults (paper scale) in oracle mode
PAPER_ORACLE = ("b4240b6aaf4e7071b6cfb7d4f19c5a1537ec04e4329e19e65c0ca44b4bc48f1d",
                "98d78bc23245801e7f6bfe19e454935d9dd3cb97e257ad7484485550b2da1c46")

# tiny_cfg in oracle mode with one base rate per content
TINY_PER_CONTENT_RATES = ("1130a2ce5879d840f1adf7c8ac1637e52e62c7396863b8b4baaae27518c62664",
                          "c6fdbff7d077eeb417d317100bfab38f5919066d4efb0522a163d3fd59716ef5")

# Seed 99 of the benchmark (scenario seed 20240100), which no change was tuned on:
# the paper-scale and desk oracle runs.  Their slots.csv digests are the
# slots_sha256 values perfbench/pins.json records for that seed.
SEED99 = 20240100
PAPER_ORACLE_SEED99 = ("ced374f2908b53e7bb11b7b7f02c63c5df451d45fedccf5e4a6a3805d7ce16bd",
                       "14e62f8b898f9fa35b3525ac993e685553c4c90dfad5b8e85bf3040cea18706b")
DESK_ORACLE_SEED99 = ("5b0494661a3906eb4cb4182a02b8cdd320701c7fa606f7d86d2bdeac42d973fa",
                      "06f4d6daf318d1f1dd17913ba95d8a40c88b95afa996161b695ee3a93e56a019")

# tiny_cfg at a half-second slot with a slow wired fronthaul, a faint BBU link and a
# one-content cache: the RRH threshold goes infinite, select_caches meets uncached
# routes that cannot make the delay, _place_slot aims those users as if cached, and
# delivery prices unreachable targets at the power cap
TINY_INFEASIBLE = ("0db330ceca192cd5a39a4975998aa97882d02c507a237ff819f3082e4ef96357",
                   "f06d3d30e2fd72895bf552426c24ee863a81f3d8e95323689bd996f3f54cd721")

# tiny_cfg with a request probability of 0.6, so every slot has idle users;
# pinned before delivery scored each slot in one pass over a route table
TINY_IDLE = ("c44f27b2f66f98eb3d19065bfcefbb564b4385f1b64f3d13228981d3513c4e11",
             "46f9546bb510a96cb878728adbf8b023588a2a0657b26944775fbb9896302c9c")

# tiny_cfg user 0: cesn.save_model bytes and the exact quota history per task
TINY_USER0_MODELS = {
    "content": ("98baf088900f243ced17ad85f56f7b3ccfd9d366c5b6c0aa9e96c228a7f731db",
                [1.0, 0.9499998580448324, 0.9001541603391818, 0.851034313726619,
                 0.8022369504063818]),
    "mobility": ("5795bf3df57a45b618d20c1b09c2e74fd7217f4b0a6681bcca219ada9d92b4c6",
                 [1.0, 0.8523196341111114, 0.8240778871275887]),
}

# tiny_cfg through `uavcache train`: training_report.csv, fits included
TINY_TRAINING_REPORT = "0851361ea9c594640cfa3d1f73d881a43d07a6e2762c1bde8c2e8b274e928de5"


def digests(logs, summary) -> tuple[str, str]:
    return (hashlib.sha256(sim.slots_csv_text(logs).encode("utf-8")).hexdigest(),
            hashlib.sha256(sim.summary_json_text(summary).encode("utf-8")).hexdigest())


@pytest.mark.parametrize("baseline", list(DESK_ORACLE), ids=lambda b: b or "none")
def test_desk_oracle_artifacts_pinned(baseline):
    logs, summary = sim.run_period(desk_config(), mode="oracle", baseline=baseline)
    assert digests(logs, summary) == DESK_ORACLE[baseline]


def test_tiny_esn_artifacts_pinned(tiny_cfg):
    world = SyntheticWorld(tiny_cfg)
    content = [train_content_model(tiny_cfg, world, u)[0] for u in range(tiny_cfg.num_users)]
    mobility = [train_mobility_model(tiny_cfg, world, u)[0] for u in range(tiny_cfg.num_users)]
    logs, summary = sim.run_period(tiny_cfg, mode="esn", models=(content, mobility), world=world)
    assert digests(logs, summary) == TINY_ESN


@pytest.mark.slow
def test_paper_oracle_artifacts_pinned():
    logs, summary = sim.run_period(ScenarioConfig(), mode="oracle")
    assert digests(logs, summary) == PAPER_ORACLE


@pytest.mark.slow
def test_paper_oracle_seed99_artifacts_pinned():
    logs, summary = sim.run_period(ScenarioConfig(seed=SEED99), mode="oracle")
    assert digests(logs, summary) == PAPER_ORACLE_SEED99


@pytest.mark.slow
def test_desk_oracle_seed99_artifacts_pinned():
    logs, summary = sim.run_period(desk_config(seed=SEED99), mode="oracle")
    assert digests(logs, summary) == DESK_ORACLE_SEED99


def test_per_content_rates_artifacts_pinned(tiny_cfg):
    cfg = dataclasses.replace(tiny_cfg,
                              content_base_rates_bps=tuple(1e6 + 1e5 * i for i in range(25)))
    logs, summary = sim.run_period(cfg, mode="oracle")
    assert digests(logs, summary) == TINY_PER_CONTENT_RATES


def test_infeasible_branches_artifacts_pinned(tiny_cfg):
    logs, summary = sim.run_period(infeasible_config(tiny_cfg), mode="oracle")
    assert digests(logs, summary) == TINY_INFEASIBLE


def test_idle_users_artifacts_pinned(tiny_cfg):
    logs, summary = sim.run_period(idle_config(tiny_cfg), mode="oracle")
    assert any(r.link == "idle" for log in logs for r in log.reports)
    assert digests(logs, summary) == TINY_IDLE


@pytest.mark.parametrize("task", list(TINY_USER0_MODELS))
def test_tiny_model_files_pinned(tiny_cfg, tmp_path, task):
    trainer = {"content": train_content_model, "mobility": train_mobility_model}[task]
    model, _ = trainer(tiny_cfg, SyntheticWorld(tiny_cfg), 0)
    path = tmp_path / f"user000_{task}.npz"
    cesn.save_model(model, path)
    digest, quota_history = TINY_USER0_MODELS[task]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert model.quota_history == quota_history


def sha256_file(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def train_with_cli(cfg: ScenarioConfig, tmp_path):
    """``uavcache train`` on ``cfg``; returns the config file and the output directory."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(serialize(cfg))
    out = tmp_path / "trained"
    assert main(["train", "--config", str(cfg_path), "--paper-scale", "--out", str(out)]) == 0
    return cfg_path, out


def test_tiny_training_report_pinned(tiny_cfg, tmp_path):
    _, out = train_with_cli(tiny_cfg, tmp_path)
    assert sha256_file(out / "training_report.csv") == TINY_TRAINING_REPORT


def test_simulate_from_model_files_holds_one_user_at_a_time(tiny_cfg, tmp_path, monkeypatch):
    cfg_path, trained = train_with_cli(tiny_cfg, tmp_path)
    live, peak, loads = set(), [0], [0]
    original = cesn.load_model

    def counted_load(path):
        model = original(path)
        loads[0] += 1
        live.add(loads[0])
        weakref.finalize(model, live.discard, loads[0])
        peak[0] = max(peak[0], len(live))
        return model

    monkeypatch.setattr(cesn, "load_model", counted_load)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg_path), "--paper-scale",
                 "--models", str(trained), "--out", str(out)]) == 0
    assert loads[0] == 2 * tiny_cfg.num_users
    assert peak[0] == 2
    assert not live
    # the same artifacts as the in-memory learned run
    assert (sha256_file(out / "slots.csv"), sha256_file(out / "summary.json")) == TINY_ESN
