import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import desk_config
from uavcache import config
from uavcache.cesn import TooFewSamples, validate_esn
from uavcache.config import (DESK_PRESET, ConfigError, EsnConfig, RandomSource, ScenarioConfig,
                             load_config_dict, merge_documents, parse_document, serialize,
                             validate)
from uavcache.generators import SyntheticWorld
from uavcache.predictors import period_collections, train_content_model
from uavcache.qoe import qoe_score
from uavcache.sim import plan_slots


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
    """The document sets the delay weight alone; the device score weighs what it leaves."""
    for w in (0.0, 0.2, 0.5, 0.7, 1.0):
        cfg = load_config_dict({"qoe_weight_delay": w})
        assert qoe_score(1.0, 1.0, cfg.qoe_weight_delay)[0] == pytest.approx(1.0)
        assert qoe_score(0.0, 1.0, cfg.qoe_weight_delay)[0] == pytest.approx(1.0 - w)


def test_cache_size_exceeding_catalog_rejected():
    with pytest.raises(ConfigError) as err:
        load_config_dict(parse_document(json.dumps({"cache_size": 30, "num_contents": 25})))
    assert any("exceeds catalog" in v for v in err.value.violations)


def test_all_violations_reported_not_just_first():
    doc = {"cache_size": 30, "num_contents": 25, "qoe_weight_delay": 1.7,
           "uav_max_power_w": -1.0}
    with pytest.raises(ConfigError) as err:
        load_config_dict(parse_document(json.dumps(doc)))
    assert len(err.value.violations) >= 3


def test_unknown_field_reported_with_path():
    with pytest.raises(ConfigError) as err:
        load_config_dict(parse_document(json.dumps({"pathloss": {"carier_hz": 1e9}})))
    assert any("pathloss.carier_hz" in v for v in err.value.violations)


def test_retired_horizon_is_an_unknown_field():
    with pytest.raises(ConfigError) as err:
        load_config_dict({"esn": {"horizon": 12}})
    assert err.value.violations == ["esn.horizon: unknown field"]


@pytest.mark.parametrize("field, value", [("qoe_weight_device", 0.5),
                                          ("content_base_rate_bps", 5e6)])
def test_retired_qoe_inputs_are_unknown_fields(field, value):
    """The device weight is 1 - qoe_weight_delay, and content_base_rates_bps takes one
    rate for every content."""
    with pytest.raises(ConfigError) as err:
        load_config_dict({field: value})
    assert err.value.violations == [f"{field}: unknown field"]


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
        cache_size=1, area_radius_m=radius, qoe_weight_delay=w1, seed=seed)
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
    ({"content_size_bits": 10 ** 400}, "content_size_bits"),  # too long for a float
    ({"screen_factors": [1.0, float("nan")]}, "screen_factors"),
    ({"content_base_rates_bps": [float("inf")] * 25}, "content_base_rates_bps"),
    ({"num_users": 10 ** 400}, "num_users"),  # too long for a float
    ({"num_users": 10 ** 5000}, "num_users"),  # too long to print
])
def test_wrong_type_rejected_with_path(doc, field):
    with pytest.raises(ConfigError) as err:
        load_config_dict(doc)
    assert [v.split(":")[0] for v in err.value.violations] == [field]


def test_integers_accepted_for_float_fields():
    cfg = load_config_dict({"uav_max_power_w": 20})
    assert cfg.uav_max_power_w == 20.0


# Values any field may be given: zero, negative, huge (past a float, and past the
# 4,300 digits Python prints of an integer) and non-finite numbers, and wrong types.
ODD_NUMBERS = [0, -1, 10 ** 6, 10 ** 400, -10 ** 400, 10 ** 5000, 0.0, -0.5, 1e-300, 1e308,
               -1e308, math.inf, -math.inf, math.nan]
WRONG_TYPES = ["7", True, None, [], {}, [1, "x"], [10 ** 5000], {"a": 1}]


def field_values(field: dataclasses.Field) -> st.SearchStrategy:
    if field.name in config._NESTED:
        return st.one_of(documents(config._NESTED[field.name]), st.sampled_from(WRONG_TYPES))
    default = field.default
    numbers = st.one_of(st.sampled_from(ODD_NUMBERS), st.integers(), st.floats())
    return st.one_of(st.just(list(default) if isinstance(default, tuple) else default),
                     numbers, st.sampled_from(WRONG_TYPES), st.lists(numbers, max_size=30))


def documents(cls) -> st.SearchStrategy:
    """Documents of some of ``cls``'s fields, each valid (its default) or odd."""
    return st.fixed_dictionaries({}, optional={f.name: field_values(f)
                                               for f in dataclasses.fields(cls)})


@settings(max_examples=300, deadline=None)
@given(doc=documents(ScenarioConfig))
@example(doc={"num_users": 10 ** 5000})
@example(doc={"content_size_bits": 10 ** 5000})
@example(doc={"screen_factors": [10 ** 5000]})
@example(doc={"esn": {"washout": [10 ** 5000]}})
def test_any_document_gives_a_config_or_a_config_error(doc):
    """Each explicit example raised ValueError: Python refuses to print an integer of more
    than 4,300 digits, and the violation message printed it."""
    try:
        load_config_dict(doc)
    except ConfigError as err:
        assert err.violations


# Leaf settings that declare no domain, each with the reason it needs none.
UNDECLARED_DOMAINS = {
    "pathloss.exponent_nlos": "validate checks it against exponent_los",
    "esn.input_scale": "any finite scale, zero and negative ones included, scales the input map",
    "generators.request_concentration": "any finite zipf exponent shapes the request weights; "
                                        "one that overflows them fails the world build",
    "seed": "every integer names a random stream",
}


def leaf_fields(cls, path: str = ""):
    for f in dataclasses.fields(cls):
        if f.name in config._NESTED:
            yield from leaf_fields(config._NESTED[f.name], f"{path}{f.name}.")
        else:
            yield path + f.name, f


def test_every_leaf_setting_declares_a_domain():
    undeclared = {path for path, f in leaf_fields(ScenarioConfig) if "domain" not in f.metadata}
    assert sorted(undeclared) == sorted(UNDECLARED_DOMAINS)


@pytest.mark.parametrize("esn, field", [
    ({"spectral_radius": 1.2}, "spectral_radius"),
    ({"spectral_radius": 0.0}, "spectral_radius"),
    ({"density": 0.0}, "density"),
    ({"density": 1.5}, "density"),
    ({"reservoir_size": 0}, "reservoir_size"),
    ({"aperture": 0.0}, "aperture"),
    ({"ridge": -1.0}, "ridge"),
    ({"washout": 2000}, "washout"),
    ({"washout": -1}, "washout"),
    ({"aperture": float("nan")}, "aperture"),
    ({"ridge": float("nan")}, "ridge"),
])
def test_esn_invariants_shared_by_validate_and_model_build(esn, field):
    cfg = dataclasses.replace(ScenarioConfig(), esn=dataclasses.replace(EsnConfig(), **esn))
    assert [v.split(":")[0] for v in validate(cfg)] == [f"esn.{field}"]
    with pytest.raises(ValueError, match=f"^esn.{field}: "):
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
    # at the bound the count itself and every product of counts are accepted, with
    # either preset (other invariants may still object)
    for preset in ({}, DESK_PRESET):
        try:
            load_config_dict(merge_documents(preset, count_document(path, bound)))
        except ConfigError as err:
            assert not any(v.startswith(f"{path}: must be at most") or " x " in v.split(":")[0]
                           for v in err.violations)


# (document, its product, the product's bound): each at its bound, then one step past it
PRODUCT_BOUNDS = [
    # 10,000 users x (4 + 1) weeks x 7 days x 120 slots
    ({"num_users": 10_000, "generators": {"training_weeks": 4}}, "MAX_USER_SLOTS",
     {"generators": {"training_weeks": 5}}, 10_000 * 42 * 120),
    ({"num_users": 10_000, "intervals_per_slot": 1_000}, "MAX_USER_INTERVALS",
     {"intervals_per_slot": 1_001}, 10_000 * 1_001),
    # 10,000 users x 1 sub-period x 1,000 contents
    ({"num_users": 10_000, "num_contents": 1_000, "slots_per_collection": 120},
     "MAX_USER_SUBPERIOD_CONTENTS", {"num_contents": 1_001}, 10_000 * 1_001),
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
    cfg = desk_config(  # valid: only training needs samples after the washout
        num_users=6, num_rrhs=6, num_rrh_clusters=2, num_uavs=2, slots_per_collection=3,
        slots_per_cache_period=12, generators={"training_weeks": 2},
        esn={"reservoir_size": 20, "training_length": 400, "washout": washout})
    world = SyntheticWorld(cfg)
    if ok:
        model, _ = train_content_model(cfg, world, 0)
        assert model.n_patterns == world.n_sub
    else:
        with pytest.raises(TooFewSamples, match=f"user 0 content sub-period 0: 42 samples "
                                                f"leave none after the washout of {washout}"):
            train_content_model(cfg, world, 0)


def test_device_rate_over_content_array_matches_scalar_calls():
    """Floor lookups over arrays of contents, as admission and delivery make them, give
    the screen factor times the content rate of each pair, from one rate or one per content."""
    for rates in ((5e6,), tuple(1e6 + 1e5 * i for i in range(25))):
        cfg = dataclasses.replace(ScenarioConfig(), num_users=6, num_uavs=2,
                                  screen_factors=(0.5, 1.5), content_base_rates_bps=rates)
        world = SyntheticWorld(cfg)
        plan = plan_slots(cfg, world, world.distributions, period_collections(world))
        contents = np.arange(cfg.num_contents)
        for u, screen in enumerate(world.screen_factors.tolist()):
            expected = [screen * rates[n % len(rates)] for n in range(cfg.num_contents)]
            assert plan.floors[u, contents].tolist() == expected
        users = np.array([0, 2, 5])
        picks = np.array([3, 0, 24])
        assert plan.floors[users, picks].tolist() == [
            float(world.screen_factors[u]) * rates[n % len(rates)] for u, n in zip(users, picks)]


def test_per_content_rates_validated_against_catalog():
    for given in ([1e6, 2e6], [1e6] * 4, []):
        with pytest.raises(ConfigError) as err:
            load_config_dict({"num_contents": 3, "content_base_rates_bps": given})
        assert [v.split(":")[0] for v in err.value.violations] == ["content_base_rates_bps"]
    for given in ([1e6], [1e6, 2e6, 3e6]):
        cfg = load_config_dict({"num_contents": 3, "content_base_rates_bps": given})
        assert cfg.content_base_rates_bps == tuple(given)


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
