import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavcache import config
from uavcache.cesn import validate_esn
from uavcache.config import (ConfigError, EsnConfig, RandomSource, ScenarioConfig,
                             load_config_dict, merge_documents, parse_document, serialize,
                             training_violations, validate)


def test_empty_document_gives_reference_defaults():
    cfg = load_config_dict(parse_document(""))
    assert cfg.intervals_per_slot == 1000
    assert cfg.num_uavs == 5
    assert cfg.num_contents == 25
    assert cfg.cache_size == 1
    assert cfg.uav_bandwidth_hz == 1e9
    assert cfg.min_altitude_m == 100.0
    assert cfg.pathloss.env_x == 11.9
    assert cfg.pathloss.env_y == 0.13


def test_weights_must_sum_to_one():
    with pytest.raises(ConfigError) as err:
        load_config_dict(parse_document(
            json.dumps({"qoe_weight_delay": 0.7, "qoe_weight_device": 0.2})))
    assert any("sum to 1" in v for v in err.value.violations)


def test_cache_size_exceeding_catalog_rejected():
    with pytest.raises(ConfigError) as err:
        load_config_dict(parse_document(json.dumps({"cache_size": 30, "num_contents": 25})))
    assert any("exceeds catalog" in v for v in err.value.violations)


def test_all_violations_reported_not_just_first():
    doc = {"cache_size": 30, "num_contents": 25, "qoe_weight_delay": 0.7,
           "qoe_weight_device": 0.2, "uav_max_power_w": -1.0}
    with pytest.raises(ConfigError) as err:
        load_config_dict(parse_document(json.dumps(doc)))
    assert len(err.value.violations) >= 3


def test_unknown_field_reported_with_path():
    with pytest.raises(ConfigError) as err:
        load_config_dict(parse_document(json.dumps({"pathloss": {"carier_hz": 1e9}})))
    assert any("pathloss.carier_hz" in v for v in err.value.violations)


def test_parse_failure():
    with pytest.raises(ConfigError) as err:
        load_config_dict(parse_document("{not json"))
    assert any("parse failure" in v for v in err.value.violations)


def test_collection_must_divide_period():
    with pytest.raises(ConfigError) as err:
        load_config_dict(parse_document(
            json.dumps({"slots_per_collection": 7, "slots_per_cache_period": 24})))
    assert any("divide" in v for v in err.value.violations)


def test_roundtrip_default():
    cfg = ScenarioConfig()
    assert load_config_dict(parse_document(serialize(cfg))) == cfg


@settings(max_examples=30, deadline=None)
@given(
    users=st.integers(6, 200),
    uavs=st.integers(1, 6),
    contents=st.integers(2, 40),
    radius=st.floats(100.0, 2000.0),
    w1=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**63 - 1),
)
def test_roundtrip_random_valid_configs(users, uavs, contents, radius, w1, seed):
    cfg = dataclasses.replace(
        ScenarioConfig(), num_users=users, num_uavs=uavs, num_contents=contents,
        cache_size=1, area_radius_m=radius, qoe_weight_delay=w1,
        qoe_weight_device=1.0 - w1, seed=seed)
    assert validate(cfg) == []
    assert load_config_dict(parse_document(serialize(cfg))) == cfg


def test_merge_documents_is_deep():
    merged = merge_documents({"esn": {"reservoir_size": 200, "washout": 50}},
                             {"esn": {"washout": 10}, "num_users": 9})
    assert merged["esn"] == {"reservoir_size": 200, "washout": 10}
    assert merged["num_users"] == 9


@pytest.mark.parametrize("doc, field", [
    ({"num_users": "70"}, "num_users"),
    ({"num_users": 70.0}, "num_users"),
    ({"num_uavs": True}, "num_uavs"),
    ({"uav_max_power_w": "20"}, "uav_max_power_w"),
    ({"uav_max_power_w": None}, "uav_max_power_w"),
    ({"screen_factors": [1.0, "big"]}, "screen_factors"),
    ({"esn": {"washout": False}}, "esn.washout"),
    ({"pathloss": {"env_x": [11.9]}}, "pathloss.env_x"),
])
def test_wrong_type_rejected_with_path(doc, field):
    with pytest.raises(ConfigError) as err:
        load_config_dict(doc)
    assert [v.split(":")[0] for v in err.value.violations] == [field]


def test_integers_accepted_for_float_fields():
    cfg = load_config_dict({"uav_max_power_w": 20})
    assert cfg.uav_max_power_w == 20.0


@pytest.mark.parametrize("esn, field", [
    ({"spectral_radius": 1.2}, "spectral_radius"),
    ({"spectral_radius": 0.0}, "spectral_radius"),
    ({"density": 0.0}, "density"),
    ({"density": 1.5}, "density"),
    ({"horizon": 0}, "horizon"),
    ({"aperture": 0.0}, "aperture"),
    ({"ridge": -1.0}, "ridge"),
    ({"washout": 2000}, "washout"),
])
def test_esn_invariants_shared_by_validate_and_model_build(esn, field):
    cfg = dataclasses.replace(ScenarioConfig(), esn=dataclasses.replace(EsnConfig(), **esn))
    assert [v.split(":")[0] for v in validate(cfg)] == [f"esn.{field}"]
    with pytest.raises(ValueError, match=f"^{field}: "):
        validate_esn(cfg.esn)


COUNT_BOUNDS = [
    ("num_users", "MAX_USERS"),
    ("num_uavs", "MAX_UAVS"),
    ("num_contents", "MAX_CONTENTS"),
    ("num_rrhs", "MAX_RRHS"),
    ("num_rrh_clusters", "MAX_RRH_CLUSTERS"),
    ("intervals_per_slot", "MAX_INTERVALS_PER_SLOT"),
    ("slots_per_collection", "MAX_SLOTS"),
    ("slots_per_cache_period", "MAX_SLOTS"),
    ("esn.reservoir_size", "MAX_RESERVOIR_SIZE"),
    ("esn.training_length", "MAX_TRAINING_LENGTH"),
    ("esn.horizon", "MAX_HORIZON"),
    ("generators.training_weeks", "MAX_TRAINING_WEEKS"),
    ("generators.waypoints_per_day", "MAX_WAYPOINTS_PER_DAY"),
]


def count_document(path: str, value: int) -> dict:
    doc = value
    for key in reversed(path.split(".")):
        doc = {key: doc}
    return doc


@pytest.mark.parametrize("path, bound_name", COUNT_BOUNDS, ids=[p for p, _ in COUNT_BOUNDS])
def test_every_count_has_an_upper_bound(path, bound_name):
    bound = getattr(config, bound_name)
    with pytest.raises(ConfigError) as exc:
        load_config_dict(count_document(path, bound + 1))
    assert f"{path}: must be at most {bound}, got {bound + 1}" in exc.value.violations
    with pytest.raises(ConfigError) as exc:
        load_config_dict(count_document(path, 10 ** 22))
    assert f"{path}: must be at most {bound}, got {10 ** 22}" in exc.value.violations
    # at the bound the count itself is accepted (other invariants may still object)
    try:
        load_config_dict(count_document(path, bound))
    except ConfigError as err:
        assert not any(v.startswith(f"{path}: must be at most") for v in err.violations)


# (document, its product, the product's bound): each at its bound, then one step past it
PRODUCT_BOUNDS = [
    # 10,000 users x (4 + 1) weeks x 7 days x 120 slots
    ({"num_users": 10_000, "generators": {"training_weeks": 4}}, "MAX_USER_SLOTS",
     {"generators": {"training_weeks": 5}}, 10_000 * 42 * 120),
    ({"num_users": 10_000, "intervals_per_slot": 1_000}, "MAX_USER_INTERVALS",
     {"intervals_per_slot": 1_001}, 10_000 * 1_001),
]


@pytest.mark.parametrize("doc, bound_name, past, product", PRODUCT_BOUNDS,
                         ids=[b for _, b, _, _ in PRODUCT_BOUNDS])
def test_products_of_counts_are_bounded(doc, bound_name, past, product):
    bound = getattr(config, bound_name)
    load_config_dict(doc)
    with pytest.raises(ConfigError) as exc:
        load_config_dict(merge_documents(doc, past))
    assert len(exc.value.violations) == 1
    assert exc.value.violations[0].endswith(f"at most {bound}, got {product}")


@pytest.mark.parametrize("washout, ok", [(41, True), (42, False), (50, False)])
def test_training_needs_samples_after_the_washout(washout, ok):
    # 2 weeks x 7 days x 3 slots per sub-period = 42 samples per content pattern
    cfg = load_config_dict({
        "slots_per_collection": 3, "slots_per_cache_period": 12,
        "generators": {"training_weeks": 2},
        "esn": {"training_length": 400, "washout": washout}})  # valid for oracle runs
    assert training_violations(cfg) == ([] if ok else [
        f"esn.washout: must be smaller than the 42 training samples per pattern, got {washout}"])


def test_device_rate_over_content_array_matches_scalar_calls():
    for rates in (None, tuple(1e6 + 1e5 * i for i in range(25))):
        cfg = dataclasses.replace(ScenarioConfig(), content_base_rates_bps=rates)
        contents = np.arange(cfg.num_contents)
        for screen in (0.5, 1.5):
            expected = [cfg.device_rate_bps(screen, int(n)) for n in contents]
            assert cfg.device_rate_bps(screen, contents).tolist() == expected
        screens = np.array([0.5, 1.0, 1.5])
        picks = np.array([3, 0, 24])
        assert cfg.device_rate_bps(screens, picks).tolist() == [
            cfg.device_rate_bps(f, int(n)) for f, n in zip(screens, picks)]


def test_per_content_rates_validated_against_catalog():
    with pytest.raises(ConfigError):
        load_config_dict({"num_contents": 3, "content_base_rates_bps": [1e6, 2e6]})
    cfg = load_config_dict({"num_contents": 2, "content_base_rates_bps": [1e6, 2e6]})
    assert cfg.device_rate_bps(0.5, 1) == 1e6


class TestRandomSource:
    def test_same_label_same_stream(self):
        a = RandomSource(42).derive("shadowing").generator().random(8)
        b = RandomSource(42).derive("shadowing").generator().random(8)
        assert (a == b).all()

    def test_different_labels_differ(self):
        a = RandomSource(42).derive("shadowing").generator().random(8)
        b = RandomSource(42).derive("fading").generator().random(8)
        assert (a != b).any()

    def test_different_seeds_differ(self):
        a = RandomSource(42).derive("x").generator().random(8)
        b = RandomSource(43).derive("x").generator().random(8)
        assert (a != b).any()

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(42).derive("")

    def test_nested_derivation_independent(self):
        a = RandomSource(1).derive("a").derive("b").generator().random(4)
        b = RandomSource(1).derive("ab").generator().random(4)
        assert (a != b).any()
