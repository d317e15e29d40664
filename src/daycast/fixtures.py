"""Embedded 48-hour reference signals.

Two consecutive days of hourly Los Angeles weather: wind speed, dry-bulb
temperature, and direct normal irradiance. The first 24 samples of each
are the usual training day, the second 24 the forecast day. Values are
embedded as constants so tests and demos need no external files.
"""

from .series import Series

_WIND48 = (
    3.6, 3.1, 2.6, 0.0, 2.1, 0.0, 3.1, 3.1, 3.6, 3.6, 4.6, 6.7,
    6.7, 6.2, 5.7, 8.8, 8.8, 6.2, 5.7, 4.1, 5.7, 4.6, 2.6, 2.6,
    2.6, 1.5, 0.0, 1.5, 0.0, 1.5, 2.1, 0.0, 4.6, 4.1, 5.2, 5.2,
    5.2, 6.7, 6.2, 5.7, 5.7, 5.7, 5.2, 3.6, 3.6, 3.1, 2.6, 2.6,
)

_TEMP48 = (
    15.6, 15.6, 15.6, 16.1, 16.1, 16.7, 16.1, 16.7, 17.2, 18.3, 19.4, 19.4,
    19.4, 18.9, 17.8, 18.3, 17.8, 16.1, 15.6, 15.0, 14.4, 14.4, 14.4, 15.0,
    15.0, 15.0, 15.0, 15.0, 15.6, 16.1, 16.1, 17.2, 17.2, 17.2, 19.4, 19.4,
    20.0, 19.4, 18.9, 18.9, 18.3, 17.2, 16.7, 16.1, 15.6, 15.6, 15.6, 15.6,
)

_DNI48 = (
    0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 70.0, 261.0, 537.0, 810.0,
    832.0, 806.0, 765.0, 634.0, 356.0, 298.0, 149.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 11.0, 69.0, 270.0, 599.0, 740.0, 612.0,
    615.0, 570.0, 703.0, 622.0, 530.0, 327.0, 165.0, 0.0, 0.0, 0.0, 0.0, 0.0,
)


def wind48() -> Series:
    return Series(_WIND48, t0=1, period_hint=24, unit="m/s")


def temp48() -> Series:
    return Series(_TEMP48, t0=1, period_hint=24, unit="degC")


def dni48() -> Series:
    return Series(_DNI48, t0=1, period_hint=24, unit="Wh/m^2")


_BY_NAME = {"wind48": wind48, "temp48": temp48, "dni48": dni48}

# Signal selector aliases used by run configurations.
_ALIASES = {"wind": "wind48", "temperature": "temp48", "irradiance": "dni48"}


def fixture(name: str) -> Series:
    """Look up an embedded signal by name ("wind48" or the alias "wind")."""
    key = _ALIASES.get(name, name)
    try:
        return _BY_NAME[key]()
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; choose from {sorted(_BY_NAME)}") from None
