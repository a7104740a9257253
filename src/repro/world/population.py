"""Device/browser population and Network Information API adoption.

Figure 1 of the paper tracks what fraction of RUM beacon hits carry
functional Network Information API data between September 2015 and
June 2017 (13.2% in December 2016, ~15% by June 2017, with 96.7% of
enabled hits coming from Google-developed browsers).  This module
models the browser mix of beacon hits -- different in cellular and
fixed subnets -- and a per-browser API adoption curve interpolated
between anchor months, which both the Figure 1 experiment and the
beacon generator consume, so the measured and analytic adoption agree
by construction.
"""

from __future__ import annotations

import bisect
import enum
import functools
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


class Browser(enum.Enum):
    """Browser families seen in beacon logs."""

    CHROME_MOBILE = "Chrome Mobile"
    ANDROID_WEBKIT = "Android Webkit"
    FIREFOX_MOBILE = "Firefox Mobile"
    SAFARI_IOS = "Safari iOS"
    CHROME_DESKTOP = "Chrome Desktop"
    OTHER_DESKTOP = "Other Desktop"

    @property
    def is_google(self) -> bool:
        """Google-developed browsers drive API adoption (section 3.1)."""
        return self in (
            Browser.CHROME_MOBILE,
            Browser.ANDROID_WEBKIT,
            Browser.CHROME_DESKTOP,
        )


def month_index(month: str) -> int:
    """Months since 0000-01 for a ``YYYY-MM`` string."""
    year_text, _, month_text = month.partition("-")
    year, mon = int(year_text), int(month_text)
    if not 1 <= mon <= 12:
        raise ValueError(f"bad month {month!r}")
    return year * 12 + (mon - 1)


def month_range(start: str, end: str) -> List[str]:
    """Inclusive list of ``YYYY-MM`` months from start to end."""
    first, last = month_index(start), month_index(end)
    if last < first:
        raise ValueError("end before start")
    months = []
    for index in range(first, last + 1):
        year, mon = divmod(index, 12)
        months.append(f"{year:04d}-{mon + 1:02d}")
    return months


#: Study window of the paper's Figure 1.
FIG1_MONTHS = month_range("2015-09", "2017-06")
#: The BEACON collection month.
STUDY_MONTH = "2016-12"

#: Browser mix of beacon hits in cellular subnets.
CELLULAR_BROWSER_MIX = {
    Browser.CHROME_MOBILE: 0.44,
    Browser.ANDROID_WEBKIT: 0.13,
    Browser.FIREFOX_MOBILE: 0.04,
    Browser.SAFARI_IOS: 0.30,
    Browser.CHROME_DESKTOP: 0.05,
    Browser.OTHER_DESKTOP: 0.04,
}

#: Browser mix of beacon hits in fixed-line subnets.
FIXED_BROWSER_MIX = {
    Browser.CHROME_MOBILE: 0.17,
    Browser.ANDROID_WEBKIT: 0.05,
    Browser.FIREFOX_MOBILE: 0.02,
    Browser.SAFARI_IOS: 0.16,
    Browser.CHROME_DESKTOP: 0.38,
    Browser.OTHER_DESKTOP: 0.22,
}

# Per-browser probability that a hit carries functional API data,
# anchored at a few months and linearly interpolated in between.
# Tuned so December 2016 lands at ~13% of all hits with ~97% of the
# enabled hits from Google browsers, rising to ~15% by June 2017.
_ADOPTION_ANCHORS: Dict[Browser, Sequence[Tuple[str, float]]] = {
    Browser.CHROME_MOBILE: (
        ("2015-09", 0.10),
        ("2016-01", 0.20),
        ("2016-12", 0.44),
        ("2017-06", 0.52),
    ),
    Browser.ANDROID_WEBKIT: (
        ("2015-09", 0.30),
        ("2016-12", 0.34),
        ("2017-06", 0.32),
    ),
    Browser.FIREFOX_MOBILE: (
        ("2015-09", 0.02),
        ("2016-12", 0.10),
        ("2017-06", 0.14),
    ),
    Browser.CHROME_DESKTOP: (
        ("2015-09", 0.000),
        ("2016-12", 0.004),
        ("2017-06", 0.010),
    ),
    Browser.SAFARI_IOS: (("2015-09", 0.0), ("2017-06", 0.0)),
    Browser.OTHER_DESKTOP: (("2015-09", 0.0), ("2017-06", 0.0)),
}


@functools.lru_cache(maxsize=1024)
def api_adoption(browser: Browser, month: str) -> float:
    """Probability a hit from ``browser`` in ``month`` carries API data.

    A pure function of its arguments, memoised: hit-level generation
    asks for the same few (browser, month) pairs once per hit.
    """
    anchors = _ADOPTION_ANCHORS[browser]
    target = month_index(month)
    indices = [month_index(m) for m, _ in anchors]
    if target <= indices[0]:
        return anchors[0][1]
    if target >= indices[-1]:
        return anchors[-1][1]
    position = bisect.bisect_right(indices, target)
    left_index, left_value = indices[position - 1], anchors[position - 1][1]
    right_index, right_value = indices[position], anchors[position][1]
    fraction = (target - left_index) / (right_index - left_index)
    return left_value + fraction * (right_value - left_value)


@dataclass(frozen=True)
class PopulationModel:
    """Browser mixes plus the adoption curve, bundled for the generator.

    ``cellular_hit_weight`` is the fraction of global beacon hits that
    come from cellular subnets; it weights the analytic global mix.
    """

    cellular_mix: Dict[Browser, float]
    fixed_mix: Dict[Browser, float]
    cellular_hit_weight: float = 0.16

    def mix_for(self, is_cellular: bool) -> Dict[Browser, float]:
        return self.cellular_mix if is_cellular else self.fixed_mix

    def draw_browser(self, rng: random.Random, is_cellular: bool) -> Browser:
        """Sample a browser for one hit."""
        mix = self.mix_for(is_cellular)
        roll = rng.random()
        running = 0.0
        for browser, share in mix.items():
            running += share
            if roll < running:
                return browser
        return Browser.OTHER_DESKTOP

    def global_mix(self) -> Dict[Browser, float]:
        """Hit-weighted average of the two mixes."""
        weight = self.cellular_hit_weight
        return {
            browser: (
                weight * self.cellular_mix[browser]
                + (1 - weight) * self.fixed_mix[browser]
            )
            for browser in Browser
        }

    def api_share_by_browser(self, month: str) -> Dict[Browser, float]:
        """Analytic fraction of *all* hits that are API-enabled, per browser.

        This is exactly Figure 1's stacked series: summing the values
        gives the total API-enabled share for the month.
        """
        mix = self.global_mix()
        return {
            browser: mix[browser] * api_adoption(browser, month)
            for browser in Browser
        }

    def total_api_share(self, month: str) -> float:
        """Analytic total fraction of hits with functional API data."""
        return sum(self.api_share_by_browser(month).values())

    def google_share_of_enabled(self, month: str) -> float:
        """Fraction of API-enabled hits from Google browsers (96.7% Dec'16)."""
        shares = self.api_share_by_browser(month)
        total = sum(shares.values())
        if total <= 0:
            return 0.0
        return sum(
            share for browser, share in shares.items() if browser.is_google
        ) / total


def default_population() -> PopulationModel:
    """The built-in population model."""
    return PopulationModel(
        cellular_mix=dict(CELLULAR_BROWSER_MIX),
        fixed_mix=dict(FIXED_BROWSER_MIX),
    )
