"""Runtime configuration: the recognizer's tunables and their validation."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError


@dataclass
class Config:
    """All tunables in one flat namespace, each with a working default.

    The constructor owns every value rule: it coerces each field to its
    type (a numeric string included) and checks it against `_BOUNDS`,
    raising ConfigError. `make_config` adds only the rules of overrides.
    """

    # belief
    p0: float = 0.9                 # prior probability of a clean primitive
    drop_threshold: float = 0.2     # nodes below this are pruned
    link_threshold: float = 0.1     # links below this conditional are cut
    backward_depth: int = 2         # group-to-member hops a wave may travel
    s_fail: float = 9.0             # strain charged for a failed boolean relation
    competition_ratio: float = 0.5  # keep a competing claim within this factor of the best
    optional_weight: float = 0.5    # denominator weight of an optional part slot

    # recognizer
    screen_min: float = 0.05        # minimum screening score to keep a hypothesis
    gate_radius: float = 3.0        # match gate, in units of the part primary length
    max_waves: int = 10             # hypothesis wave cap

    def __post_init__(self):
        for name, (low, high, low_open) in _BOUNDS.items():
            value = _coerce(name, getattr(self, name))
            if not (math.isfinite(value) and low <= value and (high is None or value <= high)
                    and not (low_open and value == low)):
                raise ConfigError(f"{name}: {value} out of range")
            setattr(self, name, value)


_FIELDS = {f.name: f for f in dataclasses.fields(Config)}

# (low, high, low_open) per field: the value lies in [low, high], or in
# (low, high] when low_open; a high of None means no upper bound
_BOUNDS = {
    "p0": (0.0, 1.0, True),
    "drop_threshold": (0.0, 1.0, False),
    "link_threshold": (0.0, 1.0, False),
    "backward_depth": (0, None, False),
    "s_fail": (0.0, None, True),
    "competition_ratio": (0.0, 1.0, True),
    "optional_weight": (0.0, 1.0, True),
    "screen_min": (0.0, 1.0, False),
    "gate_radius": (0.0, None, True),
    "max_waves": (1, None, False),
}


def _coerce(name: str, value):
    """The value as the field's type; ConfigError for a bool, a non-numeric
    string or a value that has no integer form (a fraction, NaN, +-inf)."""
    is_int = _FIELDS[name].type in ("int", int)
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{name}: expected {'an integer' if is_int else 'a number'}, got {value!r}")
    try:
        number = float(value)
        out = int(number) if is_int else number
    except (ValueError, OverflowError):
        raise ConfigError(f"{name}: expected {'an integer' if is_int else 'a number'}, got {value!r}") from None
    if is_int and float(out) != number:
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    return out


def make_config(base: Config | None = None, **overrides) -> Config:
    """A Config from a base (the defaults when None) plus overrides. Only
    the rules of overrides are kept here: an unknown key is rejected, even
    with the value None, and a None value keeps the base's. `Config`
    checks every value."""
    values = dataclasses.asdict(base or Config())
    for key, value in overrides.items():
        if key not in values:
            raise ConfigError(f"unknown configuration key: {key}")
        if value is not None:
            values[key] = value
    return Config(**values)
