"""Command-line interface.

Spec grammars used by the flags:

* distribution function: ``eps:<b>`` (unit step at b),
  ``jumps:<loc>:<val>,<loc>:<val>,...``, or ``json:<path>``
* space: ``equilateral:<n>:<fn spec>``, ``line:<n>:<spacing>``, or a path
  to a JSON file produced by ``FinitePMSpace.to_json``.  A line has 1..50
  points and a finite spacing > 0, snapped to 46 significant bits: every
  distance k*spacing (k < 50) and every sum of two of them is then exact in
  a 53-bit double, so rounding alone never breaks the triangle inequality
  (``line:8:0.1`` places v6 at exactly twice the distance of v3)
* index set: see ``index_set_from_spec`` (evens, squares, finite:1,2,...,
  mod:m,r, block:lo,hi, not:<spec>, ...)
* sequence: ``const:<p>``, ``except:<p>:<set spec>``,
  ``alternate:<p>,<q>:<set spec>``, or ``splice:<seq>@<set spec>@<p>``
* matrix: ``cesaro | identity | constcol | squares | block:<m> |
  weighted:<p> | file:<path>``; ideal: ``fin | density:<matrix spec>``

Exit codes: 0 success (for checks: the property holds), 1 the check or
suite failed, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import string
import sys
from typing import Callable

import numpy as np

from . import convergence as conv
from .convergence import IndexedSequence
from .distfn import StepDistFn, levy_distance, unit_step
from .harness import (
    DEFAULT_SUITE_SIZE,
    DEFAULT_SUITE_TOL,
    SuiteConfig,
    generate_suite,
    random_step_fn,
    render_text,
    report_to_json,
    run_theorem_suite,
    suite_passed,
    validate_report,
    write_csv,
    write_report,
)
from .pmspace import FinitePMSpace, SpaceAxiomReport, build_equilateral, build_metric_induced
from .summability import (
    DEFAULT_HORIZON,
    DEFAULT_TOL,
    ai_density,
    check_regularity,
    ideal_from_spec,
    index_set_from_spec,
    matrix_from_spec,
)
from .triangle import TRIANGLE_KINDS, TriangleFn, check_triangle_axioms

_CONFIG_KEYS = frozenset({"seed", "N", "tol", "size", "matrix", "ideal", "space"})


def fn_from_spec(spec: str) -> StepDistFn:
    spec = spec.strip()
    if spec.startswith("eps:"):
        return unit_step(float(spec[4:]))
    if spec.startswith("jumps:"):
        pairs = []
        for chunk in spec[6:].split(","):
            loc, _, val = chunk.partition(":")
            if not _:
                raise ValueError(f"bad jump {chunk!r}, want <loc>:<val>")
            pairs.append((float(loc), float(val)))
        return StepDistFn.from_pairs(pairs)
    if spec.startswith("json:"):
        with open(spec[5:]) as fh:
            return StepDistFn.from_json(json.load(fh))
    raise ValueError(f"cannot parse distribution function spec {spec!r}")


def space_from_spec(spec: str) -> FinitePMSpace:
    spec = spec.strip()
    if spec.startswith("equilateral:"):
        count, _, fnspec = spec[len("equilateral:") :].partition(":")
        n = int(count)
        if not 1 <= n <= 26:
            raise ValueError("equilateral spaces support 1..26 points")
        return build_equilateral(tuple(string.ascii_lowercase[:n]), fn_from_spec(fnspec))
    if spec.startswith("line:"):
        count, _, spacing = spec[5:].partition(":")
        n = int(count)
        d = float(spacing)
        if not 1 <= n <= 50:
            raise ValueError("line spaces support 1..50 points")
        if not 0.0 < 2 * n * d < math.inf:
            raise ValueError(f"line spacing must be > 0 with 2*n*spacing finite, got {spacing!r}")
        mant, exp = math.frexp(d)
        d = math.ldexp(round(mant * 2**46), exp - 46)
        return build_metric_induced(
            tuple(f"v{i}" for i in range(n)),
            lambda p, q: d * abs(int(p[1:]) - int(q[1:])),
        )
    with open(spec) as fh:
        return FinitePMSpace.from_json(json.load(fh))


def sequence_from_spec(space: FinitePMSpace, spec: str) -> IndexedSequence:
    spec = spec.strip()
    if spec.startswith("const:"):
        return conv.constant_sequence(space, spec[6:])
    if spec.startswith("except:"):
        point, sep, setspec = spec[7:].partition(":")
        if not sep:
            raise ValueError("except needs <point>:<set spec>")
        return conv.eventually_constant(space, point, index_set_from_spec(setspec))
    if spec.startswith("alternate:"):
        pair, sep, setspec = spec[10:].partition(":")
        if not sep or "," not in pair:
            raise ValueError("alternate needs <p>,<q>:<set spec>")
        p, q = pair.split(",", 1)
        return conv.alternating(space, p, q, index_set_from_spec(setspec))
    if spec.startswith("splice:"):
        parts = spec[7:].split("@")
        if len(parts) != 3:
            raise ValueError("splice needs <seq spec>@<set spec>@<fill point>")
        base = sequence_from_spec(space, parts[0])
        return conv.splice(base, index_set_from_spec(parts[1]), parts[2])
    raise ValueError(f"cannot parse sequence spec {spec!r}")


def _emit(args: argparse.Namespace, payload: dict) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report_to_json(payload))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_dl(args: argparse.Namespace) -> int:
    f = fn_from_spec(args.f)
    g = fn_from_spec(args.g)
    d = levy_distance(f, g)
    print(f"levy distance: {d:.9f}")
    _emit(args, {"command": "dl", "f": f.to_json(), "g": g.to_json(), "distance": d})
    return 0


def _cmd_tnorm_check(args: argparse.Namespace) -> int:
    op = TriangleFn(args.tnorm)
    rng = np.random.default_rng(args.seed)
    sample = [random_step_fn(rng) for _ in range(args.samples)] + [unit_step(0.0), unit_step(0.4)]
    report = check_triangle_axioms(op, sample)
    for c in report.checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name} residual={c.residual:.3g}")
    _emit(args, {"command": "tnorm-check", "tnorm": args.tnorm, "report": report.to_json()})
    return 0 if report.ok else 1


def _cmd_space_validate(args: argparse.Namespace) -> int:
    # every space spec is built through from_table, which validates the
    # axioms and raises on the first violation (exit 2): a space that
    # loads holds them all
    space = space_from_spec(args.space)
    print(f"points: {', '.join(space.points)}")
    print(f"thresholds: {', '.join(f'{t:g}' for t in space.thresholds())}")
    print("all axioms hold")
    _emit(args, {"command": "space-validate", "points": list(space.points), "report": SpaceAxiomReport(()).to_json()})
    return 0


def _cmd_matrix_check(args: argparse.Namespace) -> int:
    A = matrix_from_spec(args.matrix)
    report = check_regularity(A, args.N, args.tol)
    for c in report.conditions:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name} residual={c.residual:.3g}")
    _emit(args, {"command": "matrix-check", "report": report.to_json()})
    return 0 if report.ok else 1


def _cmd_density(args: argparse.Namespace) -> int:
    A = matrix_from_spec(args.matrix)
    ideal = ideal_from_spec(args.ideal)
    member = index_set_from_spec(args.set)
    v = ai_density(A, ideal, member, args.N, args.tol)
    print(
        f"A^I-density of {member.name} under {A.name}/{ideal.name}: "
        f"{v.status}, value {v.value}, residual {v.residual:.4g}"
    )
    _emit(
        args,
        {
            "command": "density",
            "set": member.name,
            "matrix": A.name,
            "ideal": ideal.name,
            "horizon": args.N,
            "verdict": v.to_json(),
        },
    )
    return 0


def _detector_env(args: argparse.Namespace):
    x = sequence_from_spec(space_from_spec(args.space), args.seq)
    return x, matrix_from_spec(args.matrix), ideal_from_spec(args.ideal)


def _cmd_converge(args: argparse.Namespace) -> int:
    x, A, ideal = _detector_env(args)
    v = conv.ai_stat_conv_detect(x, args.limit, A, ideal, args.N, args.tol)
    print(f"strong A^I-statistical convergence to {args.limit}: {v.status} (residual {v.residual:.4g})")
    _emit(args, {"command": "converge", "limit": args.limit, "verdict": v.to_json()})
    return 0 if v.converged else 1


def _cmd_cauchy(args: argparse.Namespace) -> int:
    x, A, ideal = _detector_env(args)
    v = conv.ai_stat_cauchy_detect(x, A, ideal, args.N, args.tol)
    print(
        f"strong A^I-statistical Cauchy: {v.status} "
        f"(anchor {v.value}, residual {v.residual:.4g})"
    )
    _emit(args, {"command": "cauchy", "verdict": v.to_json()})
    return 0 if v.converged else 1


def _cmd_point_set(args: argparse.Namespace) -> int:
    x, A, ideal = _detector_env(args)
    detect, kind = (conv.lambda_set, "limit") if args.cmd == "lambda" else (conv.gamma_set, "cluster")
    pts = sorted(detect(x, A, ideal, args.N, args.tol))
    print(f"statistical {kind} points: {{{', '.join(pts)}}}")
    _emit(args, {"command": args.cmd, "points": pts})
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    cfg = SuiteConfig(seed=args.seed, horizon=args.N, tol=args.tol, size=args.size)
    instances = generate_suite(cfg.seed, cfg.size)
    report = run_theorem_suite(instances, cfg)
    if args.out:
        write_report(report, args.out)  # validates the report first
    else:
        validate_report(report)
    sys.stdout.write(render_text(report))
    if args.csv:
        write_csv(report, args.csv)
    return 0 if suite_passed(report) else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmstat",
        description="step distribution functions, finite probabilistic metric spaces, "
        "and matrix-ideal statistical convergence detectors",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write a JSON report to this path")
    common.add_argument("--config", help="JSON file with default option values")

    # each subcommand takes the options its _cmd_* reads: suite --N --tol,
    # matrix-check adds --matrix, density --ideal, and a detector --space
    horizon = argparse.ArgumentParser(add_help=False)
    horizon.add_argument("--N", type=int, default=None, help="finite horizon")
    horizon.add_argument("--tol", type=float, default=None, help="decision tolerance")
    matrix = argparse.ArgumentParser(add_help=False, parents=[horizon])
    matrix.add_argument("--matrix", default=None, help="summability matrix spec")
    ideal = argparse.ArgumentParser(add_help=False, parents=[matrix])
    ideal.add_argument("--ideal", default=None, help="ideal spec")
    detector = argparse.ArgumentParser(add_help=False, parents=[ideal])
    detector.add_argument("--space", default=None, help="space spec (flag or config)")

    p = sub.add_parser("dl", parents=[common], help="Levy distance between two step d.d.f.s")
    p.add_argument("f", help="first distribution function spec")
    p.add_argument("g", help="second distribution function spec")
    p.set_defaults(fn=_cmd_dl)

    p = sub.add_parser("tnorm-check", parents=[common], help="triangle-function axioms on random samples")
    p.add_argument("--tnorm", required=True, choices=TRIANGLE_KINDS)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_tnorm_check)

    p = sub.add_parser("space-validate", parents=[common], help="check the space axioms")
    p.add_argument("space", help="space spec")
    p.set_defaults(fn=_cmd_space_validate)

    p = sub.add_parser("matrix-check", parents=[common, matrix], help="finite-horizon regularity check")
    p.set_defaults(fn=_cmd_matrix_check)

    p = sub.add_parser("density", parents=[common, ideal], help="A^I-density of an index set")
    p.add_argument("set", help="index set spec")
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("converge", parents=[common, detector], help="statistical convergence detector")
    p.add_argument("--seq", required=True, help="sequence spec")
    p.add_argument("--limit", required=True, help="candidate limit point")
    p.set_defaults(fn=_cmd_converge)

    p = sub.add_parser("cauchy", parents=[common, detector], help="statistical Cauchy detector")
    p.add_argument("--seq", required=True, help="sequence spec")
    p.set_defaults(fn=_cmd_cauchy)

    p = sub.add_parser("lambda", parents=[common, detector], help="statistical limit point set")
    p.add_argument("--seq", required=True, help="sequence spec")
    p.set_defaults(fn=_cmd_point_set)

    p = sub.add_parser("gamma", parents=[common, detector], help="statistical cluster point set")
    p.add_argument("--seq", required=True, help="sequence spec")
    p.set_defaults(fn=_cmd_point_set)

    p = sub.add_parser("suite", parents=[common, horizon], help="run the seeded theorem suite")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--size", type=int, default=None, help="number of generated instances")
    p.add_argument("--csv", help="also write the checks as CSV")
    p.set_defaults(fn=_cmd_suite)

    return parser


def _apply_config(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    with open(args.config) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    for key, raw in data.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, raw)


# numeric option -> (type, bound): an integer at least the bound, a float finite and above it
_NUMERIC = {"N": (int, 10), "size": (int, 0), "samples": (int, 0), "seed": (int, 0), "tol": (float, 0)}


def _number(dest: str, raw: object) -> int | float:
    kind, bound = _NUMERIC[dest]
    try:
        value = kind(raw)
        ok = not isinstance(raw, bool) and value == float(raw) and bound <= value < math.inf
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok or (kind is float and value == bound):
        want = f"an integer >= {bound}" if kind is int else f"a finite number > {bound}"
        raise ValueError(f"--{dest} must be {want}, got {raw!r}")
    return value


def _fill_defaults(args: argparse.Namespace) -> None:
    """Fill unset options, then check the numeric ones and the spec strings,
    whether they came from a flag, ``--config`` or the environment."""
    defaults = {
        "N": DEFAULT_HORIZON,
        "tol": DEFAULT_SUITE_TOL if args.cmd == "suite" else DEFAULT_TOL,
        "matrix": "cesaro",
        "ideal": "fin",
        "seed": os.environ.get("PMSTAT_SEED") or 1,
        "size": DEFAULT_SUITE_SIZE,
    }
    for dest, default in defaults.items():
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, default)
    for dest in _NUMERIC:
        if hasattr(args, dest):
            setattr(args, dest, _number(dest, getattr(args, dest)))
    for dest in ("space", "matrix", "ideal"):
        raw = getattr(args, dest, "")
        if raw is None:  # only --space has no default
            raise ValueError(f"{args.cmd} needs --space (flag or config)")
        if not isinstance(raw, str):
            raise ValueError(f"--{dest} must be a spec string, got {raw!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        _fill_defaults(args)
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
