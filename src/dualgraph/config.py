"""Runtime configuration: the recognizer's tunables and their validation."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError


@dataclass
class Config:
    """All tunables in one flat namespace.

    Every field has a working default; `make_config` builds a validated
    instance with overrides.
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


_FIELDS = {f.name: f for f in dataclasses.fields(Config)}

# (low, high, low_open, high_open) bounds; None means unbounded on that side
_BOUNDS = {
    "p0": (0.0, 1.0, True, False),
    "drop_threshold": (0.0, 1.0, False, False),
    "link_threshold": (0.0, 1.0, False, False),
    "backward_depth": (0, None, False, False),
    "s_fail": (0.0, None, True, False),
    "competition_ratio": (0.0, 1.0, True, False),
    "optional_weight": (0.0, 1.0, True, False),
    "screen_min": (0.0, 1.0, False, False),
    "gate_radius": (0.0, None, True, False),
    "max_waves": (1, None, False, False),
}


def _coerce(name: str, value):
    """The override as the field's type; ConfigError for a bool, a non-numeric
    string or a value that has no integer form (a fraction, NaN, +-inf)."""
    field = _FIELDS[name]
    is_int = field.type in ("int", int)
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


def _check_bounds(name: str, value):
    bounds = _BOUNDS.get(name)
    if bounds is None or isinstance(value, bool):
        return
    if not math.isfinite(value):  # NaN would pass every comparison below
        raise ConfigError(f"{name}: {value} is not finite")
    low, high, low_open, high_open = bounds
    if low is not None and (value < low or (low_open and value == low)):
        raise ConfigError(f"{name}: {value} out of range")
    if high is not None and (value > high or (high_open and value == high)):
        raise ConfigError(f"{name}: {value} out of range")


def make_config(base: Config | None = None, **overrides) -> Config:
    """Build a Config from a base plus overrides, validating keys and bounds."""
    cfg = base or Config()
    values = dataclasses.asdict(cfg)
    for key, value in overrides.items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown configuration key: {key}")
        if value is not None:
            values[key] = _coerce(key, value)
    for key, value in values.items():
        _check_bounds(key, value)
    return Config(**values)
