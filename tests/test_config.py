import pytest

from dualgraph.config import Config, make_config
from dualgraph.errors import ConfigError

# Config owns every value rule, and make_config passes overrides to it, so
# the two accept and reject the same values
builds = pytest.mark.parametrize("build", [make_config, Config])


def test_defaults_pass_their_own_bounds():
    assert make_config() == Config()


@pytest.mark.parametrize("key", ["not_a_knob", "bins", "relax", "eps", "max_iters"])
def test_unknown_key_is_rejected(key):
    with pytest.raises(ConfigError, match="unknown configuration key"):
        make_config(**{key: 20})


@pytest.mark.parametrize("key, value", [
    ("p0", 0.0),            # open lower bound: the bound itself is out
    ("p0", 1.5),
    ("drop_threshold", -0.1),  # closed bound: just past it is out
    ("max_waves", 0),
])
@builds
def test_out_of_range_value_is_rejected(build, key, value):
    with pytest.raises(ConfigError, match="out of range"):
        build(**{key: value})


@builds
def test_closed_bound_itself_is_accepted(build):
    assert build(drop_threshold=0.0).drop_threshold == 0.0


@builds
def test_strings_are_coerced(build):
    cfg = build(max_waves="4", gate_radius="2.5")
    assert cfg.max_waves == 4 and isinstance(cfg.max_waves, int)
    assert cfg.gate_radius == 2.5


@pytest.mark.parametrize("key, value", [
    ("max_waves", "2.5"),
    ("s_fail", True),
    ("gate_radius", "maybe"),   # not a number at all
    ("max_waves", "x"),
    ("max_waves", "inf"),       # int(inf) overflows
    ("max_waves", float("nan")),
    ("gate_radius", "nan"),     # NaN passes every bound comparison
    ("screen_min", float("nan")),
    ("gate_radius", "inf"),
    ("s_fail", float("inf")),
    ("s_fail", float("-inf")),
    pytest.param("p0", 10**400, id="p0-int-too-large-for-a-float"),
])
@builds
def test_uncoercible_value_is_rejected(build, key, value):
    with pytest.raises(ConfigError):
        build(**{key: value})


def test_none_override_is_ignored():
    base = make_config(screen_min=0.2)
    assert make_config(base, screen_min=None, max_waves=None) == base


def test_unknown_key_is_rejected_even_with_a_none_value():
    with pytest.raises(ConfigError, match="unknown configuration key"):
        make_config(bogus=None)
