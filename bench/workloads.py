"""Seeded inputs, timed batches and correctness gates for the benchmark workloads.

Each workload is run as a sequence of batches.  A batch has a fixed
composition (the same operation kinds in the same numbers for every seed);
the seed picks the concrete inputs and their order.  Fixed composition keeps
the cost of a batch steady across seeds, so a change in a batch's time is a
change in the program, not in the draw.

The program only ever receives the generated inputs.  Every answer is kept
as a small record and checked after the clock stops against a reference
that does not come from the code path under test: the instance generator's
ground truth, closed-form densities written out below, the brute-force
Levy oracle, and planted axiom violations.
"""

from __future__ import annotations

import json
import os
import statistics
import string
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import pmstat as pm
from speed import REFERENCE_S, SpeedProbe

HORIZON = 10**6
DETECTOR_TOL = 0.02  # the tolerance the generator's ground truth is calibrated for
DENSITY_TOL = pm.DEFAULT_TOL  # what `pmstat density` uses by default
DL_TOL = pm.DEFAULT_DL_TOL
ORACLE_STEP = 0.01

# (1-based recipe number in generate_suite, detector).  Two or three
# recipes per detector, chosen so every matrix kind (cesaro, weighted,
# identity, squares rows, block) and both ideal kinds appear; about 11 s
# per batch for pmstat 0.1.0 on a 2-vCPU host.
DETECTOR_QUERIES = (
    (3, "conv"),
    (22, "conv"),
    (8, "conv"),
    (9, "cauchy"),
    (21, "cauchy"),
    (18, "lambda"),
    (13, "lambda"),
    (20, "gamma"),
    (17, "gamma"),
    (24, "bounded"),
    (15, "bounded"),
)

# Closed-form densities of index sets, per matrix and ideal.  Only
# triples whose density exists are listed, so any `diverged` verdict on
# them is wrong.  cesaro and weighted:1 give natural densities; `squares`
# rows measure the share of j with j*j in the set; block:12 averages blocks
# of 12, which hold a fixed count of any residue class mod 2, 3, 4 or 6
# but spike on thin sets (a limit then exists only modulo the
# density-zero ideal); identity returns the indicator itself.
_ALL = ("cesaro", "weighted:1", "squares", "block:12", "identity")
_FIN = "fin"
_DEN = "density:cesaro"


def _d(cesaro, squares, block_fin, block_den, ident_fin, ident_den):
    out = {}
    for ideal in (_FIN, _DEN):
        out[("cesaro", ideal)] = cesaro
        out[("weighted:1", ideal)] = cesaro
        out[("squares", ideal)] = squares
    out[("block:12", _FIN)] = block_fin
    out[("block:12", _DEN)] = block_den
    out[("identity", _FIN)] = ident_fin
    out[("identity", _DEN)] = ident_den
    return {k: v for k, v in out.items() if v is not None}


DENSITY_SETS = {
    "evens": (lambda: pm.EVENS, _d(1 / 2, 1 / 2, 1 / 2, 1 / 2, None, None)),
    "odds": (lambda: pm.ODDS, _d(1 / 2, 1 / 2, 1 / 2, 1 / 2, None, None)),
    "mod:3,1": (lambda: pm.multiples(3, 1), _d(1 / 3, 2 / 3, 1 / 3, 1 / 3, None, None)),
    "mod:4,0": (lambda: pm.multiples(4, 0), _d(1 / 4, 1 / 2, 1 / 4, 1 / 4, None, None)),
    "squares": (lambda: pm.SQUARES, _d(0.0, 1.0, None, 0.0, None, 0.0)),
    "cubes": (lambda: pm.CUBES, _d(0.0, 0.0, None, 0.0, None, 0.0)),
    "pow2": (lambda: pm.POWERS_OF_TWO, _d(0.0, 0.0, None, 0.0, None, 0.0)),
    "finite:3,17,40,99,250": (
        lambda: pm.finite_set((3, 17, 40, 99, 250)),
        _d(0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    ),
    "not:squares": (lambda: ~pm.SQUARES, _d(1.0, 0.0, None, 1.0, None, 1.0)),
    "evens|squares": (lambda: pm.EVENS | pm.SQUARES, _d(1 / 2, 1.0, None, 1 / 2, None, None)),
    "mod:3,1&evens": (lambda: pm.multiples(3, 1) & pm.EVENS, _d(1 / 6, 1 / 3, 1 / 6, 1 / 6, None, None)),
}

DENSITY_CELLS = tuple((m, i) for m in _ALL for i in (_FIN, _DEN))
DENSITY_ROUNDS = 2  # each batch asks every (matrix, ideal) cell this many times

# Triples on which pmstat 0.1.0 answers `diverged` although the density
# exists (a transient of a few hundred rows outweighs tol under the
# density-zero ideal when only 1000 squares rows, or 83k blocks, fit in the
# horizon).  They stay in the traffic and count as failed operations;
# being listed here only keeps them from marking the whole run incorrect,
# so a new wrong answer anywhere else still does.
KNOWN_DENSITY_DEFECTS = frozenset(
    [("squares", _DEN, s) for s in ("evens", "odds", "mod:3,1", "mod:4,0", "cubes", "pow2", "mod:3,1&evens")]
    + [("block:12", _DEN, s) for s in ("squares", "not:squares")]
)

# ddf batch composition.  The properties that set an operation's cost
# (jump counts, space sizes) are fixed per slot; the seed draws the rest.
NARROW_PAIRS = 200  # at most 5 jumps per function
WIDE_PAIRS = 40  # 10 to 20 jumps per function
AXIOM_JUMPS = (1, 2, 3, 4, 5, 1, 2, 3, 4, 5)  # one sample function per entry
SPACE_SIZES = tuple(range(6, 13))  # one equilateral and one metric-induced space each
SPACE_FN_JUMPS = 3


def batch_rng(seed: int, batch: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, batch]))


def batch_seed(seed: int, batch: int) -> int:
    return int(np.random.SeedSequence([seed, batch]).generate_state(1)[0])


@dataclass
class Outcome:
    """What one batch did: per-kind latencies and the answers to check."""

    times: dict = field(default_factory=dict)  # kind -> list of seconds
    scaled_s: float = 0.0  # the batch's time at reference speed
    answers: list = field(default_factory=list)  # (kind, query, answer)
    errors: list = field(default_factory=list)  # (kind, query, message)
    # its interruptions are not counted as work; a probe never started
    # takes no samples and rescales by 1
    probe: SpeedProbe = field(default_factory=SpeedProbe)

    @property
    def busy_s(self) -> float:
        return sum(sum(v) for v in self.times.values())


def _timed(out: Outcome, kind: str, query, fn):
    probe = out.probe
    spent, first = probe.spent, len(probe.samples)
    t0 = time.perf_counter()
    try:
        answer = fn()
    except Exception as exc:  # a raising operation is a failed one, not a crash
        out.errors.append((kind, query, f"{type(exc).__name__}: {exc}"))
        return
    finally:
        dt = time.perf_counter() - t0 - (probe.spent - spent)
        out.times.setdefault(kind, []).append(dt)
        out.scaled_s += dt * probe.scale_since(first)
    out.answers.append((kind, query, answer))



# ---------------------------------------------------------------------------
# horizon


def horizon_inputs(seed: int, batch: int) -> list[dict]:
    """The batch's query stream: detector and density queries, shuffled."""
    rng = batch_rng(seed, batch)
    instances = pm.generate_suite(batch_seed(seed, batch), pm.DEFAULT_SUITE_SIZE)
    queries = []
    for number, det in DETECTOR_QUERIES:
        inst = instances[number - 1]
        q = {"kind": "detector", "detector": det, "instance": inst}
        if det == "conv":
            q["candidate"] = inst.space.points[int(rng.integers(len(inst.space.points)))]
        elif det == "bounded":
            # statistically bounded inside the cluster set whenever the
            # sequence converges or alternates; otherwise only the whole
            # carrier is a safe claim
            if inst.expected_limit is not None or inst.cluster_pair is not None:
                q["inside"] = tuple(sorted(inst.expected_gamma))
            else:
                q["inside"] = inst.space.points
        q["expected"] = _expected_detector(q, inst)
        q["label"] = f"{det} on {inst.name}"
        queries.append(q)
    for _ in range(DENSITY_ROUNDS):
        for mspec, ispec in DENSITY_CELLS:
            names = sorted(n for n, (_, dens) in DENSITY_SETS.items() if (mspec, ispec) in dens)
            name = names[int(rng.integers(len(names)))]
            queries.append(
                {
                    "kind": "density",
                    "matrix": mspec,
                    "ideal": ispec,
                    "set": name,
                    "expected": DENSITY_SETS[name][1][(mspec, ispec)],
                    "label": f"density of {name} under {mspec}/{ispec}",
                }
            )
    order = rng.permutation(len(queries))
    return [queries[i] for i in order]


def _run_detector(q: dict):
    inst = q["instance"]
    x, A, ideal = inst.x, inst.matrix, inst.ideal
    det = q["detector"]
    if det == "conv":
        return pm.ai_stat_conv_detect(x, q["candidate"], A, ideal, HORIZON, DETECTOR_TOL).converged
    if det == "cauchy":
        return pm.ai_stat_cauchy_detect(x, A, ideal, HORIZON, DETECTOR_TOL).converged
    if det == "lambda":
        return pm.lambda_set(x, A, ideal, HORIZON, DETECTOR_TOL)
    if det == "gamma":
        return pm.gamma_set(x, A, ideal, HORIZON, DETECTOR_TOL)
    if det == "bounded":
        return pm.stat_bounded_check(x, A, ideal, q["inside"], HORIZON, DETECTOR_TOL).converged
    raise ValueError(det)


def _run_density(q: dict):
    A = pm.matrix_from_spec(q["matrix"])
    ideal = pm.ideal_from_spec(q["ideal"])
    member = DENSITY_SETS[q["set"]][0]()
    v = pm.ai_density(A, ideal, member, HORIZON, DENSITY_TOL)
    return (v.status, v.value)


def run_horizon_batch(queries: list[dict], out: Outcome) -> None:
    for q in queries:
        if q["kind"] == "detector":
            _timed(out, "verdicts", q, lambda: _run_detector(q))
            # the sequence is now materialised at 10^6 indices; drop it
            del q["instance"]
        else:
            _timed(out, "densities", q, lambda: _run_density(q))


def _expected_detector(q: dict, inst) -> object:
    det = q["detector"]
    if det == "conv":
        return q["candidate"] == inst.expected_limit
    if det == "cauchy":
        return inst.expected_cauchy
    if det == "lambda":
        return inst.expected_lambda
    if det == "gamma":
        return inst.expected_gamma
    return True


def check_horizon(out: Outcome) -> tuple[list[str], list[str]]:
    """Return (failures, known failures) as readable lines."""
    failures, known = [], []
    for kind, q, msg in out.errors:
        failures.append(f"{q['label']}: raised {msg}")
    for kind, q, answer in out.answers:
        if q["kind"] == "detector":
            if answer != q["expected"]:
                failures.append(f"{q['label']}: got {_show(answer)}, ground truth {_show(q['expected'])}")
            continue
        status, value = answer
        want = q["expected"]
        bad = None
        if status == pm.CONVERGED and abs(float(value) - want) > DENSITY_TOL + 1e-12:
            bad = f"converged to {value}, closed form {want}"
        elif status == pm.DIVERGED:
            bad = f"diverged, closed form {want}"
        if bad:
            line = f"{q['label']}: {bad}"
            (known if (q["matrix"], q["ideal"], q["set"]) in KNOWN_DENSITY_DEFECTS else failures).append(line)
    return failures, known


def _show(v) -> str:
    if isinstance(v, frozenset):
        return "{" + ",".join(sorted(v)) + "}"
    return str(v)


# ---------------------------------------------------------------------------
# ddf


def _fn_with_jumps(rng: np.random.Generator, lo: int, hi: int) -> pm.StepDistFn:
    while True:
        f = pm.random_step_fn(rng, max_jumps=hi)
        if lo <= len(f.jumps) <= hi:
            return f


def _dyadic_points(rng: np.random.Generator, n: int) -> dict[str, tuple[int, int]]:
    # integer grid coordinates; distances are multiples of 1/8, so sums of
    # distances are exact in floating point and the L1 metric's triangle
    # inequality holds exactly
    cells = rng.choice(17 * 17, size=n, replace=False)
    return {f"v{i}": (int(c) // 17, int(c) % 17) for i, c in enumerate(cells)}


def ddf_inputs(seed: int, batch: int) -> dict:
    rng = batch_rng(seed, batch)
    narrow = [(pm.random_step_fn(rng), pm.random_step_fn(rng)) for _ in range(NARROW_PAIRS)]
    wide = [(_fn_with_jumps(rng, 10, 20), _fn_with_jumps(rng, 10, 20)) for _ in range(WIDE_PAIRS)]
    axioms = [(kind, [_fn_with_jumps(rng, j, j) for j in AXIOM_JUMPS]) for kind in pm.TRIANGLE_KINDS]
    spaces = []
    for n in SPACE_SIZES:
        for kind in ("equilateral", "metric"):
            space = {
                "kind": kind,
                "n": n,
                "planted": ("P-3", "P-4")[int(rng.integers(2))],
                "trio": [int(v) for v in rng.choice(n, size=3, replace=False)],
            }
            if kind == "equilateral":
                space["f"] = _fn_with_jumps(rng, SPACE_FN_JUMPS, SPACE_FN_JUMPS)
            else:
                space["coords"] = _dyadic_points(rng, n)
            spaces.append(space)
    return {"narrow": narrow, "wide": wide, "axioms": axioms, "spaces": spaces}


def _shift(f: pm.StepDistFn, by: float) -> pm.StepDistFn:
    return pm.StepDistFn.from_pairs((loc + by, val) for loc, val in f.jumps)


def _space_op(spec: dict):
    n = spec["n"]
    if spec["kind"] == "equilateral":
        points = tuple(string.ascii_lowercase[:n])
        space = pm.build_equilateral(points, spec["f"])
    else:
        coords = spec["coords"]
        points = tuple(coords)

        def metric(p: str, q: str) -> float:
            (a, b), (c, d) = coords[p], coords[q]
            return (abs(a - c) + abs(b - d)) / 8.0

        space = pm.build_metric_induced(points, metric)
    report = space.validate_axioms()
    # plant one violation in a copy of the table and validate again
    p, q, r = (points[i] for i in spec["trio"])
    table = dict(space.table)
    if spec["planted"] == "P-3":
        table[(p, q)] = _shift(table[(p, q)], 0.125)
    else:
        lower = space.tau(table[(p, q)], table[(q, r)])
        table[(p, r)] = table[(r, p)] = _shift(lower, 0.125)
    planted = pm.from_table(points, table, space.tau, validate=False).validate_axioms()
    return report.ok, sorted({a for a, _, _ in planted.violations})


def run_ddf_batch(inputs: dict, out: Outcome) -> None:
    for i, (f, g) in enumerate(inputs["narrow"]):
        _timed(out, "levy_pairs", ("narrow", i, f, g), lambda: pm.levy_distance(f, g, DL_TOL))
    for i, (f, g) in enumerate(inputs["wide"]):
        _timed(out, "levy_wide_pairs", ("wide", i, f, g), lambda: pm.levy_distance(f, g, DL_TOL))
    for kind, sample in inputs["axioms"]:
        op = pm.TriangleFn(kind)
        _timed(
            out,
            "axiom_checks",
            ("axioms", kind),
            lambda: pm.check_triangle_axioms(op, sample, tol=2 * DL_TOL, dl_tol=DL_TOL).ok,
        )
    for spec in inputs["spaces"]:
        _timed(out, "spaces", ("space", spec["kind"], spec["n"], spec["planted"]), lambda: _space_op(spec))


def check_ddf(out: Outcome) -> tuple[list[str], list[str]]:
    failures = [f"{q[0]} {q[1]}: raised {msg}" for _, q, msg in out.errors]
    for kind, q, answer in out.answers:
        if kind in ("levy_pairs", "levy_wide_pairs"):
            _, i, f, g = q
            oracle = pm.oracle_levy_distance(f, g, ORACLE_STEP)
            back = pm.levy_distance(g, f, DL_TOL)
            if abs(answer - oracle) > ORACLE_STEP + 1e-9:
                failures.append(f"{q[0]} pair {i}: levy {answer} vs oracle {oracle}")
            if back != answer:
                failures.append(f"{q[0]} pair {i}: not symmetric ({answer} vs {back})")
        elif kind == "axiom_checks":
            if not answer:
                failures.append(f"triangle axioms for exact operation {q[1]} reported not ok")
        else:
            valid_ok, planted_axioms = answer
            if not valid_ok:
                failures.append(f"valid {q[1]} space of {q[2]} points flagged")
            if q[3] not in planted_axioms:
                failures.append(f"planted {q[3]} in {q[1]} space of {q[2]} points missed (got {planted_axioms})")
    return failures, []


# ---------------------------------------------------------------------------
# suite


SUITE_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "suite_child.py")


@dataclass
class SuiteRun:
    wall_s: float  # spawn to exit, probe time removed
    code: int
    maxrss_kib: int
    scale: float  # speed probe factor measured inside the child


def run_suite_once(root: str, env: dict, seed: int, out_path: str) -> SuiteRun:
    """Run ``pmstat.cli suite --seed <seed> --out <out_path>`` as a child process.

    The child is ``suite_child.py``, which runs the CLI module as
    ``__main__`` (what ``python -m pmstat.cli`` does) with the speed probe
    on, and leaves the probe's samples next to the report.
    """
    probe_path = out_path + ".probe"
    cmd = [sys.executable, SUITE_CHILD, probe_path, "suite", "--seed", str(seed), "--out", out_path]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(probe_path) as fh:
        probe = json.load(fh)
    os.remove(probe_path)
    scale = REFERENCE_S / statistics.median(probe["samples"])
    return SuiteRun(wall - probe["spent"], proc.returncode, usage.ru_maxrss, scale)


def check_suite_report(raw: bytes | None, code: int, first: bytes | None) -> str | None:
    """Why one suite run failed, or None."""
    if code != 0:
        return f"exit code {code}"
    if raw is None:
        return "no report written"
    import jsonschema

    try:
        report = json.loads(raw)
        jsonschema.validate(instance=report, schema=pm.REPORT_SCHEMA)
    except (ValueError, jsonschema.ValidationError) as exc:
        return f"report fails the schema: {str(exc).splitlines()[0]}"
    if not report["summary"]["ok"]:
        return "summary.ok is false"
    if first is not None and raw != first:
        return "report bytes differ from the first run of the same seed"
    return None


# ---------------------------------------------------------------------------
# inputs for the set-up probe


def make_inputs(workload: str, seed: int):
    """Everything generated before a workload's first answer."""
    if workload == "horizon":
        return horizon_inputs(seed, 0)
    if workload == "ddf":
        return ddf_inputs(seed, 0)
    if workload == "suite":
        return pm.generate_suite(seed, pm.DEFAULT_SUITE_SIZE)
    raise ValueError(f"unknown workload {workload!r}")
