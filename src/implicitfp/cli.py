"""Command-line front end.

Subcommands: table, compare, bounds, datadep, axiom-check.
Exit codes: 0 success, 1 check failed, 2 config error, 3 scheme failure,
4 inconclusive convergence (datadep).

Option precedence: flags > config file (flat key=value lines) > defaults.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import bounds as bounds_mod
from . import experiments, mappings, schemes, spaces
from .errors import (CertificateError, ConfigError, ImplicitFPError, InvalidPointError,
                     NonconvergenceError)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_SCHEME = 3
EXIT_INCONCLUSIVE = 4


def _config_defaults(path, args, command):
    """The config file's flat key = value lines as defaults for `command`.

    argparse converts string defaults with each option's type; booleans
    (store_true flags) are converted here from 1/true/yes/on or
    0/false/no/off, in any case; any other word is a ConfigError.
    """
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line: {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        attr = key.replace("-", "_")
        if attr in ("command", "func") or not hasattr(args, attr):
            raise ConfigError(f"unknown config key {attr.replace('_', '-')!r}")
        if isinstance(command.get_default(attr), bool):
            word = val.lower()
            if word in ("1", "true", "yes", "on"):
                val = True
            elif word in ("0", "false", "no", "off"):
                val = False
            else:
                raise ConfigError(f"bad boolean {val!r} for config key {key!r}")
        values[attr] = val
    return values


def _resolve_schedule(args):
    if getattr(args, "alpha", None):
        return schemes.expression_schedule(args.alpha, getattr(args, "beta", None))
    return schemes.schedule_from_name(args.schedule)


def _resolve_run(args):
    """(space, T, schedule, solver config, x0); --mapping decides the space."""
    try:
        space, t, _sampler = mappings.from_name(args.mapping)
    except CertificateError as exc:  # an out-of-range --mapping parameter
        raise ConfigError(f"bad --mapping {args.mapping!r}: {exc}")
    schedule = _resolve_schedule(args)
    cfg = schemes.InnerSolverConfig(tolerance=args.tol, mode=args.solver)
    return space, t, schedule, cfg, _parse_x0(args.x0, space, t)


def _parse_x0(arg, space, t):
    if arg is None:
        return experiments.default_x0(space, t)
    try:
        if isinstance(space, spaces.Tripod):
            ray, _, r = arg.partition(":")
            x0 = (ray, float(r))
        else:
            x0 = tuple(float(v) for v in arg.split(","))
        return space.check_point(x0)
    except (ValueError, InvalidPointError) as exc:
        raise ConfigError(f"bad --x0 {arg!r} on {space.name}: {exc}")


def _perturbation(arg, space, t):
    """S = T + the --perturb offset (a vector on Euclidean space, a number
    elsewhere); None for a zero Euclidean offset, where S = T.  The offset
    itself is validated by mappings.perturbed."""
    try:
        if not isinstance(space, spaces.Euclidean):
            return mappings.perturbed(space, t, float(arg))
        offset = tuple(float(v) for v in str(arg).split(","))
        if len(offset) == space.dim and not any(offset):
            return None
        return mappings.perturbed(space, t, offset)
    except (ValueError, CertificateError) as exc:
        raise ConfigError(f"bad --perturb {arg!r}: {exc}")


def _emit(text, path):
    if path:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --output: {exc}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_table(args):
    space, t, schedule, cfg, x0 = _resolve_run(args)
    traces = experiments.run_schemes(space, t, schedule.weights(args.n_max), x0, cfg)
    table = experiments.reproduce_table(traces, digits=args.digits)
    _emit(table.to_csv() if args.format == "csv" else table.to_text(),
          args.output)
    if args.verify:
        mismatches = table.verify()
        if args.digits != 15 or args.mapping != "halving" or len(table.rows) != len(experiments.TABLE_ROWS):
            mismatches = mismatches or [("-", "-", "non-reference configuration", "-")]
        if mismatches:
            for n, col, got, exp in mismatches:
                print(f"verify mismatch at n={n} {col}: got {got}, expected {exp}",
                      file=sys.stderr)
            return EXIT_CHECK_FAILED
        print("verify: all table cells match", file=sys.stderr)
    return EXIT_OK


def cmd_compare(args):
    space, t, schedule, cfg, x0 = _resolve_run(args)
    race = experiments.rate_race(space, t, schedule, x0=x0,
                                 n_max=args.n_max, cfg=cfg,
                                 horizon=args.horizon,
                                 threshold=args.threshold)
    lines = []
    for (left, right), verdict in race.actual_verdicts.items():
        lines.append(f"actual {left} vs {right}: {verdict.verdict}"
                     f" (final ratio {verdict.final_ratio!r})")
    for (left, right), verdict in race.envelope_verdicts.items():
        lines.append(f"envelope {left} vs {right}: {verdict.verdict}"
                     f" (final ratio {verdict.final_ratio!r})")
    for scheme, zi in race.converged_exactly.items():
        if zi is not None:
            judged = all(v.verdict != "degenerate"
                         for pair, v in race.actual_verdicts.items() if scheme in pair)
            lines.append(f"{scheme}: converged exactly at n={zi}; "
                         + ("verdict computed on the pre-zero prefix" if judged
                            else "too few points before it for a verdict"))
    _emit("\n".join(lines) + "\n", args.output)
    if args.assert_faster and not race.all_faster:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_bounds(args):
    space, t, schedule, cfg, x0 = _resolve_run(args)
    d0 = space.d(x0, t.fixed_point)
    weights = schedule.weights(args.n_max)
    env = bounds_mod.BoundSequences.compute(weights, t.delta, d0, literal=args.literal)
    traces = experiments.run_schemes(space, t, weights, x0, cfg)
    ds, dm, di = (traces[s].distances()[1:]
                  for s in ("implicit-s", "implicit-mann", "implicit-ishikawa"))
    lines = ["n,a_n,b_n,c_n,dist_s,dist_mann,dist_ishikawa"]
    for i, n in enumerate(range(2, args.n_max + 1)):
        lines.append(f"{n},{env.a[i]!r},{env.b[i]!r},{env.c[i]!r},"
                     f"{ds[i]!r},{dm[i]!r},{di[i]!r}")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_datadep(args):
    space, t, schedule, cfg, x0 = _resolve_run(args)
    s = _perturbation(args.perturb, space, t)
    if s is None:
        # zero perturbation: S = T, observed 0 by construction; the schedule
        # and the solver mode are still checked as run_datadep checks them
        experiments.datadep_weights(schedule, args.n_max)
        schemes.check_mode(cfg, space, t.apply, t.apply)
        p = space.check_point(t.fixed_point)
        report = experiments.DataDepReport(
            epsilon=0.0, delta=t.delta, p=p, q=p, observed=0.0,
            bound=0.0, margin=0.0, converged=True, lemma1=None,
            public=space.public)
        _emit(report.to_text(space), args.output)
        return EXIT_OK
    report = experiments.run_datadep(space, t, s, schedule, x0=x0,
                                     n_max=args.n_max, cfg=cfg,
                                     proof_variant=args.proof_variant)
    _emit(report.to_text(space), args.output)
    if not report.converged:
        return EXIT_INCONCLUSIVE
    return EXIT_OK if report.holds else EXIT_CHECK_FAILED


def cmd_axiom_check(args):
    space = spaces.from_name(args.space or "euclidean:1")
    if args.samples < 1:
        raise ConfigError(f"bad --samples {args.samples}: must be >= 1")
    if not 0.0 < args.tol < math.inf:  # nan fails too
        raise ConfigError(f"bad --tol {args.tol!r}: must be finite and > 0")
    if args.seed < 0:
        raise ConfigError(f"bad --seed {args.seed}: must be >= 0")
    report = spaces.check_axioms(space, n_samples=args.samples,
                                 tol=args.tol, seed=args.seed)
    lines = [f"space={report.space} samples={report.n_samples} tol={report.tol!r}"]
    for name, res in report.results.items():
        status = "pass" if res.passed else "FAIL"
        lines.append(f"{name}: max violation {res.max_violation!r} [{status}]")
        if not res.passed and res.worst_tuple is not None:
            lines.append("  worst tuple: " + " ".join(
                f"{f}={val!r}" if f in ("lam", "mu") else f"{f}={space.format_point(val)}"
                for f, val in zip(spaces.WORST_FIELDS[name], res.worst_tuple)))
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser


def build_parser():
    """The argument parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="implicitfp",
        description="Implicit fixed-point iteration experiments in W-hyperbolic spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n_max_default=50):
        p.add_argument("--mapping", default="halving",
                       help="mapping name, which also decides the space (halving, "
                            "affine:<spec>, tripod-radial:<f>, halfplane-vertical:<f>)")
        p.add_argument("--schedule", default="default",
                       help="schedule preset (default, constant:<a>[,<b>], polynomial:<q>)")
        p.add_argument("--alpha", default=None,
                       help="inline alpha_n expression in n, e.g. '1-1/n'")
        p.add_argument("--beta", default=None,
                       help="inline beta_n expression in n")
        p.add_argument("--x0", default=None, help="starting point")
        p.add_argument("--n-max", type=int, default=n_max_default)
        p.add_argument("--tol", type=float, default=1e-14,
                       help="inner solver residual tolerance")
        p.add_argument("--solver", default="picard",
                       choices=["picard", "exact-affine"])
        p.add_argument("--output", default=None, help="write output to a file")
        p.add_argument("--config", default=None, help="flat key=value config file")

    p = sub.add_parser("table", help="benchmark comparison table")
    common(p)
    p.add_argument("--digits", type=int, default=15)
    p.add_argument("--format", default="table", choices=["table", "csv"])
    p.add_argument("--verify", action="store_true",
                   help="check every cell against embedded reference values")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("compare", help="rate race between the three schemes")
    common(p, n_max_default=200)
    p.add_argument("--assert-faster", action="store_true")
    p.add_argument("--horizon", type=int, default=200)
    p.add_argument("--threshold", type=float, default=1e-6)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bounds", help="emit envelope and trace CSV")
    common(p, n_max_default=200)
    p.add_argument("--literal", action="store_true",
                   help="use the literal (D_n)^n envelope form")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("datadep", help="data-dependence bound experiment")
    common(p, n_max_default=200)
    p.add_argument("--perturb", default="0.01",
                   help="constant offset added to T (vector: comma-separated)")
    p.add_argument("--proof-variant", action="store_true",
                   help="apply S (not T) to v_n in the first line of the u-step")
    p.set_defaults(func=cmd_datadep)

    p = sub.add_parser("axiom-check", help="convexity-axiom checker")
    p.add_argument("--space", default="euclidean:1")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_axiom_check)

    return parser, sub.choices


def _join_negative_values(argv):
    """argv with a token that starts with '-' and a digit or '.' joined onto
    the --flag before it: argparse reads `--x0 -1,2` as a flag with no value,
    and `--x0=-1,2` as the point (-1, 2)."""
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        if (len(arg) > 1 and arg[0] == "-" and arg[1] in "0123456789."
                and prev.startswith("--") and len(prev) > 2 and "=" not in prev):
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser, commands = build_parser()
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # file values become defaults, so flags given explicitly still win
            command = commands[args.command]
            command.set_defaults(**_config_defaults(args.config, args, command))
            args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonconvergenceError, InvalidPointError) as exc:
        # an invalid point that reaches here arose inside a run
        print(f"scheme failure: {exc}", file=sys.stderr)
        return EXIT_SCHEME
    except ImplicitFPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
