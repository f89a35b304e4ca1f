"""Tests for the windowed peak analysis.

window_stats is validated against semi-analytic windowed integrals of the
closed-form strong-drive profile (arctan and log antiderivatives), then
the peak table of the numeric spectrum at omega = 100 gamma is checked.
"""

import subprocess
import sys

import numpy as np
import pytest
from scipy.interpolate import InterpolatedUnivariateSpline

from cbs2 import analysis
from cbs2.analysis import (
    ClassificationError,
    DOMINANCE_THRESHOLD,
    MIN_WINDOW,
    NULL_WEIGHT_FRACTION,
    UndefinedEnhancementError,
    analyze_peak,
    filtered_enhancement,
    window_stats,
)
from cbs2.spectrum import SpectrumResult, oracle_spectrum_result

OMEGA = 100.0
EPS2 = 1.0 / OMEGA**2

# (center, width, weight) of every strong-drive Lorentzian, units of gamma
STRONG_TABLE = {
    "ladder": (
        (0.0, 1.0, 0.5),
        (0.0, 3.0, 0.25),
        (-2 * OMEGA, 3.0, 1.0 / 72.0),
        (2 * OMEGA, 3.0, 1.0 / 72.0),
        (-OMEGA, 1.5, 1.0 / 9.0),
        (OMEGA, 1.5, 1.0 / 9.0),
        (-OMEGA, 2.5, 5.0 / 18.0),
        (OMEGA, 2.5, 5.0 / 18.0),
        (-OMEGA / 2, 1.5, 14.0 / 9.0),
        (OMEGA / 2, 1.5, 14.0 / 9.0),
    ),
    "crossed": (
        (0.0, 2.0, 0.5),
        (0.0, 3.0, 0.25),
        (-2 * OMEGA, 3.0, 1.0 / 72.0),
        (2 * OMEGA, 3.0, 1.0 / 72.0),
        (-OMEGA, 2.5, -1.0 / 6.0),
        (OMEGA, 2.5, -1.0 / 6.0),
    ),
}


def semi_analytic_window(which, center, window):
    """Windowed integral of the closed-form profile via antiderivatives."""
    a, b = center - window, center + window
    total = 0.0
    for c, wid, wt in STRONG_TABLE[which]:
        total += wt * (np.arctan((b - c) / wid) - np.arctan((a - c) / wid)) / np.pi
    if which == "crossed":
        amp = (1.0 / OMEGA) * 208.0 / 45.0
        for sign in (+1.0, -1.0):
            total += (
                sign
                * amp
                * np.log(
                    ((b + sign * OMEGA / 2) ** 2 + 1.5**2)
                    / ((a + sign * OMEGA / 2) ** 2 + 1.5**2)
                )
                / (2.0 * np.pi)
            )
    return EPS2 * total


@pytest.fixture(scope="module")
def oracle_strong():
    return oracle_spectrum_result(OMEGA, points=2000)


@pytest.mark.parametrize(
    "which,center",
    [
        ("ladder", 0.0),
        ("ladder", OMEGA / 2),
        ("ladder", OMEGA),
        ("ladder", 2 * OMEGA),
        ("crossed", 0.0),
        ("crossed", OMEGA / 2),
        ("crossed", OMEGA),
        ("crossed", -OMEGA),
        ("crossed", 2 * OMEGA),
    ],
)
def test_window_weight_matches_antiderivatives(oracle_strong, which, center):
    got = window_stats(oracle_strong, which, center, 25.0)[0]
    want = semi_analytic_window(which, center, 25.0)
    assert got == pytest.approx(want, rel=1e-6)


def test_window_validation(oracle_strong):
    with pytest.raises(ValueError):
        window_stats(oracle_strong, "ladder", 0.0, MIN_WINDOW - 1.0)
    with pytest.raises(ValueError):
        window_stats(oracle_strong, "ladder", 0.0, OMEGA / 4 + 1.0)
    edge = float(oracle_strong.nu[-1])
    with pytest.raises(ValueError):
        window_stats(oracle_strong, "ladder", edge - 5.0, 25.0)
    for which in ("banana", "both"):
        with pytest.raises(ValueError, match="which must be 'ladder' or 'crossed'"):
            window_stats(oracle_strong, which, 0.0, 25.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda spec, center, window: window_stats(spec, "ladder", center, window),
        lambda spec, center, window: analyze_peak(spec, "crossed", center, window),
        lambda spec, center, window: filtered_enhancement(spec, center, window),
    ],
    ids=["window_stats", "analyze_peak", "filtered_enhancement"],
)
@pytest.mark.parametrize("center, window", [(np.nan, 25.0), (OMEGA, np.nan), (np.nan, np.nan)])
def test_non_finite_window_is_refused(oracle_strong, call, center, window):
    # NaN passes every range comparison, so it would give a NaN result
    with pytest.raises(ValueError, match="finite"):
        call(oracle_strong, center, window)


def test_parity_split_is_normalized(oracle_strong):
    weight, abs_int, even, odd = window_stats(oracle_strong, "crossed", OMEGA, 25.0)
    assert abs_int >= abs(weight)
    assert even**2 + odd**2 == pytest.approx(1.0, abs=1e-12)


def test_ladder_tile_sum_rule(oracle_strong):
    tiles = np.arange(-200.0, 201.0, 50.0)
    total = sum(window_stats(oracle_strong, "ladder", c, 25.0)[0] for c in tiles)
    assert total == pytest.approx((14.0 / 3.0) * EPS2, rel=0.01)


def test_crossed_tile_sum_rule(oracle_strong):
    # the dispersive doublet is even in nu, and its mass inside a finite
    # symmetric range decays only logarithmically, so the tile sum closes
    # noticeably slower than the ladder one
    tiles = np.arange(-200.0, 201.0, 50.0)
    total = sum(window_stats(oracle_strong, "crossed", c, 25.0)[0] for c in tiles)
    assert total == pytest.approx((4.0 / 9.0) * EPS2, rel=0.04)
    dispersive_residue = (1.0 / OMEGA) * (208.0 / 45.0) * 2.0 * np.log(275.0 / 175.0) / np.pi
    assert total - (4.0 / 9.0) * EPS2 == pytest.approx(
        EPS2 * dispersive_residue, rel=0.25
    )


NUMERIC_GREEN_WEIGHTS = [
    ("ladder", 0.0, 0.75),
    ("ladder", OMEGA / 2, 14.0 / 9.0),
    ("ladder", -OMEGA / 2, 14.0 / 9.0),
    ("ladder", OMEGA, 7.0 / 18.0),
    ("crossed", 0.0, 0.75),
    ("crossed", OMEGA, -1.0 / 6.0),
    ("crossed", -OMEGA, -1.0 / 6.0),
]


@pytest.mark.parametrize("which,center,table", NUMERIC_GREEN_WEIGHTS)
def test_numeric_peak_weights(strong_spectrum, which, center, table):
    got = window_stats(strong_spectrum, which, center, 25.0)[0]
    assert got / EPS2 == pytest.approx(table, rel=0.03)


@pytest.mark.xfail(
    strict=True,
    reason="the 2 omega peaks lose about 3.8% of their weight to truncated "
    "Lorentzian tails inside any admissible window (see the README, Validation battery)",
)
def test_numeric_outermost_ladder_weight(strong_spectrum):
    got = window_stats(strong_spectrum, "ladder", 2 * OMEGA, 25.0)[0]
    assert got / EPS2 == pytest.approx(1.0 / 72.0, rel=0.03)


@pytest.mark.xfail(
    strict=True,
    reason="tail truncation plus interference corrections shift the crossed "
    "2 omega window weight by about -7% (see the README, Validation battery)",
)
def test_numeric_outermost_crossed_weight(strong_spectrum):
    got = window_stats(strong_spectrum, "crossed", 2 * OMEGA, 25.0)[0]
    assert got / EPS2 == pytest.approx(1.0 / 72.0, rel=0.03)


@pytest.mark.parametrize(
    "which,center,expected",
    [
        ("ladder", 0.0, "lorentzian_positive"),
        ("ladder", OMEGA / 2, "lorentzian_positive"),
        ("ladder", -OMEGA / 2, "lorentzian_positive"),
        ("ladder", OMEGA, "lorentzian_positive"),
        ("ladder", 2 * OMEGA, "lorentzian_positive"),
        ("crossed", 0.0, "lorentzian_positive"),
        ("crossed", OMEGA, "lorentzian_negative"),
        ("crossed", -OMEGA, "lorentzian_negative"),
        ("crossed", 2 * OMEGA, "lorentzian_positive"),
    ],
)
def test_numeric_classifications(strong_spectrum, which, center, expected):
    assert analyze_peak(strong_spectrum, which, center, 25.0).shape == expected


@pytest.mark.xfail(
    strict=True,
    reason="even-parity leakage from the neighbouring peaks puts about 8.6% "
    "net weight into the half-Rabi crossed window, above the 5% ceiling for "
    "a dispersive verdict (see the README, Validation battery)",
)
def test_crossed_half_rabi_classified_dispersive(strong_spectrum):
    shape = analyze_peak(strong_spectrum, "crossed", OMEGA / 2, 25.0).shape
    assert shape == "dispersive"


def test_crossed_half_rabi_is_odd_dominated(strong_spectrum):
    # the feature really is dispersive to the parity statistic; only the
    # null-weight condition is missed, and the error reports the split
    try:
        shape = analyze_peak(strong_spectrum, "crossed", OMEGA / 2, 25.0).shape
        assert shape == "dispersive"
    except ClassificationError as err:
        assert err.odd_fraction > DOMINANCE_THRESHOLD
        weight, abs_int, _, _ = window_stats(
            strong_spectrum, "crossed", OMEGA / 2, 25.0
        )
        assert abs(weight) > NULL_WEIGHT_FRACTION * abs_int


def test_peak_report_fields(strong_spectrum):
    report = analyze_peak(strong_spectrum, "crossed", OMEGA, 25.0)
    assert report.shape == "lorentzian_negative"
    assert report.center == OMEGA
    assert report.window == 25.0
    assert report.weight < 0.0
    assert report.abs_integral >= abs(report.weight)
    assert report.even_fraction > DOMINANCE_THRESHOLD


def test_mirror_symmetry_of_windowed_weights(strong_spectrum):
    for which in ("ladder", "crossed"):
        for center in (OMEGA / 2, OMEGA, 2 * OMEGA):
            plus = window_stats(strong_spectrum, which, center, 25.0)[0]
            minus = window_stats(strong_spectrum, which, -center, 25.0)[0]
            assert plus == pytest.approx(minus, rel=1e-10)


def test_filtered_enhancement_table(strong_spectrum):
    # elastic weights enter only through the central passband
    assert filtered_enhancement(strong_spectrum, 0.0, 25.0) == pytest.approx(2.0, abs=0.06)
    assert filtered_enhancement(strong_spectrum, OMEGA / 2, 25.0) == pytest.approx(
        1.0, abs=0.05
    )
    assert filtered_enhancement(strong_spectrum, OMEGA, 25.0) == pytest.approx(
        4.0 / 7.0, abs=0.03
    )
    assert filtered_enhancement(strong_spectrum, 2 * OMEGA, 25.0) == pytest.approx(
        2.0, abs=0.1
    )


def test_window_weights_match_fitpack(strong_spectrum, monkeypatch):
    centers = [m * OMEGA for m in (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0)]
    cases = [(which, center) for which in ("ladder", "crossed") for center in centers]
    got = [window_stats(strong_spectrum, which, c, 25.0) for which, c in cases]
    monkeypatch.setattr(
        analysis, "_CubicSpline", lambda x, y: InterpolatedUnivariateSpline(x, y, k=3)
    )
    want = [window_stats(strong_spectrum, which, c, 25.0) for which, c in cases]
    for (weight, abs_integral, _, _), (want_weight, want_abs, _, _) in zip(got, want):
        assert abs(weight - want_weight) <= 1e-13 * want_abs
        assert abs(abs_integral - want_abs) <= 1e-13 * want_abs


def test_cached_legendre_rule_keeps_window_results_bitwise(strong_spectrum, monkeypatch):
    # the rule is computed once per process and handed out read-only; the
    # window results equal those of a rule computed afresh on every call
    centers = [m * OMEGA for m in (0.0, 0.5, -1.0, 2.0)]
    cases = [(which, center) for which in ("ladder", "crossed") for center in centers]
    got = [window_stats(strong_spectrum, which, c, 25.0) for which, c in cases]
    got_enhancement = filtered_enhancement(strong_spectrum, OMEGA, 25.0)
    nodes, weights = analysis._legendre_rule()
    assert analysis._legendre_rule() is analysis._legendre_rule()
    assert not nodes.flags.writeable and not weights.flags.writeable

    def fresh_nodes(window):
        x, w = np.polynomial.legendre.leggauss(96)
        return 0.5 * window * (x + 1.0), 0.5 * window * w

    monkeypatch.setattr(analysis, "_window_nodes", fresh_nodes)
    want = [window_stats(strong_spectrum, which, c, 25.0) for which, c in cases]
    assert np.array(got).tobytes() == np.array(want).tobytes()
    want_enhancement = filtered_enhancement(strong_spectrum, OMEGA, 25.0)
    assert np.float64(got_enhancement).tobytes() == np.float64(want_enhancement).tobytes()


def test_legendre_rule_is_not_computed_at_import():
    code = "import cbs2.analysis as a; print(a._legendre_rule.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


@pytest.mark.parametrize(
    "call",
    [
        lambda spec: window_stats(spec, "ladder", 0.0, MIN_WINDOW),
        lambda spec: analyze_peak(spec, "crossed", 0.0, MIN_WINDOW),
        lambda spec: filtered_enhancement(spec, 0.0, MIN_WINDOW),
    ],
    ids=["window_stats", "analyze_peak", "filtered_enhancement"],
)
@pytest.mark.parametrize("points", [2, 3])
def test_grid_below_4_points_is_refused(call, points):
    # the window fits the grid, but a cubic interpolant needs 4 nodes
    nu = np.linspace(-100.0, 100.0, points)
    spec = SpectrumResult(
        nu=nu,
        ladder_inel=np.ones_like(nu),
        crossed_inel=np.ones_like(nu),
        ladder_el_weight=0.0,
        crossed_el_weight=0.0,
        omega=40.0,
        gamma=1.0,
        delta=0.0,
    )
    with pytest.raises(ValueError, match="cubic interpolant needs a grid of at least 4 points"):
        call(spec)


def test_filtered_enhancement_undefined_when_ladder_vanishes():
    nu = np.linspace(-500.0, 500.0, 2001)
    spec = SpectrumResult(
        nu=nu,
        ladder_inel=np.zeros_like(nu),
        crossed_inel=np.zeros_like(nu),
        ladder_el_weight=0.1,
        crossed_el_weight=0.1,
        omega=200.0,
        gamma=1.0,
        delta=0.0,
    )
    with pytest.raises(UndefinedEnhancementError):
        filtered_enhancement(spec, 100.0, 20.0)
    # the elastic line keeps the central passband well defined
    assert filtered_enhancement(spec, 0.0, 20.0) == pytest.approx(2.0)
