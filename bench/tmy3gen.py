"""Seeded generator of 8760-row TMY3-format weather years.

The file uses the two header lines of the Los Angeles station layout the
test suite writes (station metadata, then five column names) followed by
one hourly record per line for a non-leap year. Values are rounded the
way TMY3 files round them: wind and temperature to 0.1, DNI to whole
W/m^2. Every value is finite and above the NREL missing-data sentinels,
so `daycast.tmy3.parse_tmy3` accepts the file.
"""

import numpy as np

HOURS = 8760
HEADER = ("724940,LOS ANGELES INTL ARPT,CA,-8.0,33.938,-118.389,30\n"
          "Date (MM/DD/YYYY),Time (HH:MM),Wind Speed (m/s),Dry-bulb (C),DNI (W/m^2)\n")
_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def _ar1(rng, n, phi, sigma):
    shocks = rng.normal(0.0, sigma, n)
    out = np.empty(n)
    acc = 0.0
    for i in range(n):
        acc = phi * acc + shocks[i]
        out[i] = acc
    return out


def year_columns(seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hourly wind (m/s), dry-bulb (C) and DNI (W/m^2) for one year, rounded."""
    rng = np.random.default_rng(seed)
    hour = np.arange(HOURS) % 24
    day = np.arange(HOURS) // 24
    diurnal = np.sin(2 * np.pi * (hour - 9) / 24)
    seasonal = -np.cos(2 * np.pi * (day + 10) / 365)

    wind = 3.5 + 1.8 * diurnal + 0.6 * seasonal + _ar1(rng, HOURS, 0.85, 0.7)
    wind = np.round(np.clip(wind, 0.0, None), 1)

    bulb = 17.0 + 4.0 * seasonal + 3.0 * diurnal + _ar1(rng, HOURS, 0.95, 0.35)
    bulb = np.round(bulb, 1)

    daylight = np.clip(np.sin(np.pi * (hour - 6 + seasonal) / (12 + 2 * seasonal)), 0.0, None)
    clear = np.repeat(rng.uniform(0.3, 1.0, HOURS // 24), 24)
    cloud = np.clip(1.0 - np.abs(_ar1(rng, HOURS, 0.8, 0.15)), 0.0, 1.0)
    dni = np.round(900.0 * daylight * clear * cloud)
    return wind, bulb, dni


def year_records(*seed) -> list[str]:
    """The 8760 record lines of one generated year, each ending in a newline."""
    wind, bulb, dni = year_columns(list(seed))
    lines = []
    i = 0
    for month, n_days in enumerate(_MONTH_DAYS, start=1):
        for dom in range(1, n_days + 1):
            date = f"{month:02d}/{dom:02d}/1988"
            for h in range(24):
                lines.append(f"{date},{h + 1:02d}:00,{wind[i]:.1f},{bulb[i]:.1f},{dni[i]:.0f}\n")
                i += 1
    return lines


def write_year(path, *seed) -> None:
    """Write one generated year to path in TMY3 layout."""
    with open(path, "w") as fh:
        fh.write(HEADER)
        fh.writelines(year_records(*seed))
