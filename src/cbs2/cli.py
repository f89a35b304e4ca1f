"""Command-line front end emitting figure data files and validation reports.

Commands
--------
enhancement-curve   interference contrast versus saturation (CSV)
spectrum            inelastic emission spectrum densities (CSV)
validate            run the acceptance battery (JSON report)
mc-average          Monte Carlo geometric averaging of the contrast factor

All numeric output uses 15 significant digits.  Frequencies are reported in
units of the single-atom half linewidth gamma.  Exit codes: 0 success,
1 usage or parameter error, 2 I/O error, 3 validation failure.  Flags may be
preloaded from a plain ``key = value`` file via --config; command-line flags
override file entries, unknown keys are rejected.  A relative --out path is
resolved against $CBS2_OUTDIR when that variable is set.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

import numpy as np

from . import __version__, oracle
from .acceptance import AcceptanceSuite
from .average import ISOTROPIC_FACTOR, AverageSpec, exact_average, mc_average
from .geometry import Configuration, PhysParams
from .perturbation import intensity_terms, numeric_enhancement
from .spectrum import SpectrumEngine

OUTDIR_ENV = "CBS2_OUTDIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # contract pins usage errors to exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _fmt(x: float) -> str:
    return format(float(x), ".15g")


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _emit(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _parse_config_file(path: str) -> list[str]:
    """Turn `key = value` lines into flag tokens understood by argparse."""
    flags: list[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            key = key.strip().lower().replace("_", "-")
            value = value.strip()
            if not key or not value:
                raise UsageError(f"{path}:{lineno}: expected key = value")
            if value.lower() in ("true", "yes", "on"):
                flags.append(f"--{key}")
            elif value.lower() in ("false", "no", "off"):
                flags.append(f"--no-{key}")
            else:
                flags.append(f"--{key}={value}")
    return flags


def _inject_config(argv: list[str], flags: list[str]) -> list[str]:
    for pos, arg in enumerate(argv):
        if not arg.startswith("-"):
            # insert right after the subcommand so explicit flags still win
            return argv[: pos + 1] + flags + argv[pos + 1 :]
    raise UsageError("--config requires a subcommand")


def build_parser() -> _Parser:
    parser = _Parser(prog="cbs2", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"cbs2 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser(
        "enhancement-curve",
        help="interference contrast versus saturation",
    )
    curve.add_argument("--s-min", type=float, default=1e-3)
    curve.add_argument("--s-max", type=float, default=1e3)
    curve.add_argument("--points", type=int, default=61)
    curve.add_argument(
        "--log-spacing",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="logarithmic saturation grid (default) or linear",
    )
    curve.add_argument("--out", default=None, help="output CSV path (default stdout)")

    spec = sub.add_parser("spectrum", help="inelastic emission spectrum densities")
    spec.add_argument("--omega", type=float, required=True, help="drive strength in gamma units")
    spec.add_argument("--nu-min", type=float, default=None)
    spec.add_argument("--nu-max", type=float, default=None)
    spec.add_argument("--points", type=int, default=801)
    spec.add_argument(
        "--method",
        choices=("numeric", "oracle_weak", "oracle_strong"),
        default="numeric",
    )
    # one dest, so the last flag (the command line's) wins; --no- lets keys be false
    spec.add_argument(
        "--normalized",
        "--no-raw",
        dest="normalized",
        action="store_true",
        default=True,
        help="scale so the ladder density integrates to 1 (default)",
    )
    spec.add_argument("--raw", "--no-normalized", dest="normalized", action="store_false")
    spec.add_argument("--out", default=None, help="output CSV path (default stdout)")

    val = sub.add_parser("validate", help="run the acceptance battery")
    val.add_argument("--profile", choices=("default", "quick"), default="default")
    val.add_argument("--only", default=None, help="substring filter on check groups")
    val.add_argument("--out", default=None, help="output JSON path (default stdout)")

    mc = sub.add_parser("mc-average", help="Monte Carlo geometric contrast factor")
    mc.add_argument("--samples", type=int, default=100_000)
    mc.add_argument("--seed", type=int, default=1)
    mc.add_argument("--theta", type=float, default=0.0, help="offset angle in [0, pi], radians")
    mc.add_argument("--ell-k0", type=float, default=1000.0)
    mc.add_argument("--width-frac", type=float, default=0.5)
    mc.add_argument("--out", default=None, help="output CSV path (default stdout)")

    return parser


def cmd_enhancement_curve(args) -> int:
    if not (0.0 < args.s_min < args.s_max < np.inf):
        raise ValueError("need 0 < s-min < s-max < inf")
    if args.points < 2:
        raise ValueError("need at least 2 points")
    if args.log_spacing:
        grid = np.geomspace(args.s_min, args.s_max, args.points)
    else:
        grid = np.linspace(args.s_min, args.s_max, args.points)
    cfg = Configuration()
    buf = io.StringIO()
    buf.write("s,alpha_analytic,alpha_numeric,abs_diff\n")
    for s in grid:
        analytic = float(oracle.enhancement_factor(s))
        numeric = numeric_enhancement(PhysParams.from_saturation(s), cfg)
        buf.write(
            f"{_fmt(s)},{_fmt(analytic)},{_fmt(numeric)},{_fmt(abs(numeric - analytic))}\n"
        )
    _emit(_resolve_out(args.out), buf.getvalue())
    return EXIT_OK


def _spectrum_grid(args) -> np.ndarray:
    nu_max = args.nu_max
    if nu_max is None:
        nu_max = max(5.0, 2.5 * args.omega + 15.0)
    nu_min = args.nu_min if args.nu_min is not None else -nu_max
    if not (-np.inf < nu_min < nu_max < np.inf):
        raise ValueError("need finite nu-min < nu-max")
    if args.points < 2:
        raise ValueError("need at least 2 points")
    return np.linspace(nu_min, nu_max, args.points)


def cmd_spectrum(args) -> int:
    if args.omega <= 0:
        raise ValueError("omega must be positive")
    params = PhysParams(omega=args.omega)
    nu = _spectrum_grid(args)
    s = params.saturation
    if args.method == "numeric":
        engine = SpectrumEngine(params, Configuration())
        ladder, crossed = engine.densities(nu)
        terms = intensity_terms(engine.pert, engine.cfg).normalized()
        ladder_el, crossed_el = terms.ladder_elastic, terms.crossed_elastic
        ladder_inel_total = terms.ladder_inelastic
    elif args.method == "oracle_weak":
        if args.omega > 0.3:
            raise ValueError("oracle_weak requires omega <= 0.3 gamma")
        ladder, crossed = oracle.weak_field_spectra(nu, args.omega)
        ladder_el = crossed_el = float(oracle.elastic_terms(s)[0])
        ladder_inel_total = 7.0 / 16.0 * args.omega**4
    else:
        if args.omega < 10.0:
            raise ValueError("oracle_strong requires omega >= 10 gamma")
        ladder, crossed = oracle.strong_field_spectra(nu, args.omega)
        ladder_el = crossed_el = float(oracle.elastic_terms(s)[0])
        ladder_inel_total = 14.0 / 3.0 / args.omega**2
    if args.normalized:
        scale = 1.0 / ladder_inel_total
        mode = "normalized"
    else:
        scale = 1.0
        mode = "raw"
    buf = io.StringIO()
    buf.write("nu_over_gamma,ladder_inel,crossed_inel\n")
    for x, sl, sc in zip(nu, ladder * scale, crossed * scale):
        buf.write(f"{_fmt(x)},{_fmt(sl)},{_fmt(sc)}\n")
    buf.write(f"# method = {args.method}\n")
    buf.write(f"# normalization = {mode}\n")
    buf.write(f"# omega_over_gamma = {_fmt(args.omega)}\n")
    buf.write(f"# saturation = {_fmt(s)}\n")
    buf.write(f"# ladder_elastic_weight = {_fmt(ladder_el * scale)}\n")
    buf.write(f"# crossed_elastic_weight = {_fmt(crossed_el * scale)}\n")
    buf.write(f"# ladder_inelastic_total = {_fmt(ladder_inel_total)}\n")
    _emit(_resolve_out(args.out), buf.getvalue())
    return EXIT_OK


def cmd_validate(args) -> int:
    suite = AcceptanceSuite(profile=args.profile)
    rows = suite.run_all(only=args.only)
    if not rows:
        raise ValueError(f"no checks match --only {args.only!r}")
    report = {
        "profile": args.profile,
        "n_checks": len(rows),
        "all_pass": all(r.passed for r in rows),
        "checks": [
            {
                "check": r.name,
                "expected": r.expected,
                "actual": r.actual,
                "tol": r.tol,
                "pass": r.passed,
                "detail": r.detail,
            }
            for r in rows
        ],
    }
    _emit(_resolve_out(args.out), json.dumps(report, indent=2, default=float) + "\n")
    for row in rows:
        print(row.line(), file=sys.stderr)
    return EXIT_OK if report["all_pass"] else EXIT_VALIDATION


def cmd_mc_average(args) -> int:
    spec = AverageSpec(
        samples=args.samples,
        seed=args.seed,
        ell_k0=args.ell_k0,
        width_frac=args.width_frac,
    )
    mean, sem = mc_average(spec, theta=args.theta)
    crossed_fac = exact_average(spec, args.theta)
    buf = io.StringIO()
    buf.write(
        "theta,mean,std_error,crossed_factor_analytic,ladder_factor_analytic,"
        "samples,seed\n"
    )
    buf.write(
        f"{_fmt(args.theta)},{_fmt(mean)},{_fmt(sem)},{_fmt(crossed_fac)},"
        f"{_fmt(ISOTROPIC_FACTOR)},{args.samples},{args.seed}\n"
    )
    _emit(_resolve_out(args.out), buf.getvalue())
    return EXIT_OK


_COMMANDS = {
    "enhancement-curve": cmd_enhancement_curve,
    "spectrum": cmd_spectrum,
    "validate": cmd_validate,
    "mc-average": cmd_mc_average,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    # --config is read before the subcommand parser sees the arguments,
    # wherever it stands; the rest keep their order
    pre = _Parser(prog="cbs2", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    try:
        known, argv = pre.parse_known_args(list(argv))
        if known.config is not None:
            argv = _inject_config(argv, _parse_config_file(known.config))
        args = parser.parse_args(argv)
        handler = _COMMANDS[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"cbs2: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"cbs2: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"cbs2: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
