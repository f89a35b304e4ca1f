"""Top-level acceptance battery: one test per advertised guarantee.

Each test runs one check group of AcceptanceSuite at its stated tolerance
and prints one PASS/FAIL line (plus the individual check rows, visible
with -s or on failure).  Groups with known, documented deviations list
them in KNOWN_OPEN; their tests fail only on *unexpected* regressions and
are otherwise marked xfail, keeping the battery honest without hiding the
open items.  Background for every open item is in the README, section
"Validation battery".
"""

import pytest

from cbs2.acceptance import AcceptanceSuite

KNOWN_OPEN = {
    "weak-spectrum": {"weak-spectrum-pointwise"},
    "strong-peaks": {
        "strong-ladder-weight-2rabi",
        "strong-crossed-weight-2rabi",
        "strong-crossed-null",
    },
}


def run_criterion(suite, number, group, title, expect_tols=()):
    rows = suite.run_group(group)
    assert rows, f"group {group} produced no checks"
    failed = [row for row in rows if not row.passed]
    known = KNOWN_OPEN.get(group, set())
    unexpected = [row for row in failed if row.name not in known]
    print(f"criterion {number:02d} {title}: {'PASS' if not failed else 'FAIL'}")
    for row in rows:
        print("  " + row.line())
    by_name = {row.name: row for row in rows}
    for name, tol in expect_tols:
        assert by_name[name].tol == tol, f"{name} must be checked at tolerance {tol}"
    assert not unexpected, "unexpected failures: " + ", ".join(
        row.line() for row in unexpected
    )
    if failed:
        pytest.xfail(
            "known open deviations: "
            + ", ".join(sorted(row.name for row in failed))
            + " (see the README, Validation battery)"
        )
    return by_name


def test_criterion_01_enhancement_curve(suite):
    rows = run_criterion(
        suite, 1, "enhancement-curve",
        "numeric enhancement matches the closed form over the full range",
        expect_tols=(("enhancement-curve-match", 1e-8), ("enhancement-at-s1", 1e-6)),
    )
    assert rows["enhancement-curve-runtime"].actual < 10.0


def test_criterion_02_weak_drive_slope(suite):
    rows = run_criterion(
        suite, 2, "weak-field-slope",
        "contrast decreases linearly with saturation, slope 1/4",
    )
    row = rows["weak-field-slope"]
    assert row.expected == pytest.approx(0.25)
    assert row.tol == pytest.approx(0.0025)


def test_criterion_03_strong_drive_asymptote(suite):
    run_criterion(
        suite, 3, "strong-asymptote",
        "enhancement tends to 23/21 for strong drive",
        expect_tols=(("strong-drive-asymptote", 1e-3),),
    )


def test_criterion_04_elastic_terms(suite):
    run_criterion(
        suite, 4, "elastic-terms",
        "elastic ladder and crossed terms coincide and match s/(1+s)^4",
        expect_tols=(("elastic-terms-match", 1e-8),),
    )


def test_criterion_05_spectrum_closure(suite):
    rows = run_criterion(
        suite, 5, "spectrum-closure",
        "integrated spectra reproduce the stationary intensities",
    )
    closure_rows = [n for n in rows if n.startswith("spectrum-closure")]
    assert len(closure_rows) == 4
    for name in closure_rows:
        assert rows[name].tol == 1e-6


def test_criterion_06_weak_drive_spectra(suite):
    run_criterion(
        suite, 6, "weak-spectrum",
        "weak-drive spectra follow the closed-form profiles",
        expect_tols=(
            ("weak-spectrum-pointwise", 2e-2),
            ("weak-spectrum-integrals", 2e-2),
        ),
    )


def test_criterion_07_strong_drive_spectra(suite):
    run_criterion(
        suite, 7, "strong-peaks",
        "strong-drive peak weights match the asymptotic table",
        expect_tols=(
            ("strong-ladder-weight-center", 3e-2),
            ("strong-crossed-weight-rabi", 3e-2),
            ("strong-crossed-null", 5e-2),
            ("strong-integrated-totals", 1e-2),
        ),
    )


def test_criterion_08_sign_structure(suite):
    run_criterion(
        suite, 8, "sign-structure",
        "crossed density negative near the Rabi sidebands, ladder nonnegative",
    )


def test_criterion_09_filtered_enhancement(suite):
    rows = run_criterion(
        suite, 9, "filtered-enhancement",
        "filtered enhancement interpolates between 2, 1 and 4/7",
    )
    assert rows["filtered-enhancement-rabi"].expected == pytest.approx(4.0 / 7.0)


def test_criterion_10_mirror_symmetry(suite):
    run_criterion(
        suite, 10, "symmetry",
        "resonant spectra are even in the detuning from the laser",
        expect_tols=(("spectral-symmetry", 1e-9),),
    )


def test_criterion_11_drive_phase_invariance(suite):
    run_criterion(
        suite, 11, "gauge-invariance",
        "observables do not depend on the relative drive phase",
        expect_tols=(
            ("gauge-invariance-intensities", 1e-9),
            ("gauge-invariance-spectra", 1e-9),
        ),
    )


def test_criterion_12_perturbative_vs_nonperturbative(suite):
    run_criterion(
        suite, 12, "perturbation-oracle",
        "order-(1,1) intensities agree with a nonperturbative solve",
        expect_tols=(("perturbation-vs-nonperturbative", 1e-2),),
    )


def test_criterion_13_geometry_monte_carlo(suite):
    rows = run_criterion(
        suite, 13, "monte-carlo",
        "isotropic geometry factor reproduces 2/15 within Monte Carlo error",
    )
    assert rows["mc-deterministic"].passed


def test_unknown_profile_is_refused():
    with pytest.raises(ValueError, match="unknown tolerance profile"):
        AcceptanceSuite(profile="slow")
