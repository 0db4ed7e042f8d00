"""pmstat benchmark: the suite, horizon and ddf workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {suite,horizon,ddf,all} --seed N --seconds S --trace {0,1}

With ``--trace 0`` it measures the end-to-end metrics untraced; with
``--trace 1`` it runs one batch under the span recorder (bench/spans.py)
and reports per-layer metrics plus the tracing overhead.  Human-readable
lines come first: every metric with its unit and sample count, the run
record, and each failed operation.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the metrics it carries are the ones BENCHMARK.json lists for
the mode.  Workloads are described in bench/METRICS.md.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import os

# single-threaded numerics, here and in every child, so no BLAS or OpenMP
# threads compete with the measured work
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("suite", "horizon", "ddf")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
SUITE_TRACE_REPEATS = 2
CHILD_TIMEOUT_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )


# ---------------------------------------------------------------------------
# statistics


def tail(samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if not n:
        return "n=0"
    s = sorted(samples)
    text = f"n={n} p50={statistics.median(s):.6g}"
    for p in (99.9, 99, 95, 90, 75):
        if n - n * p / 100 >= 10:
            k = min(n - 1, int(n * p / 100))
            return text + f" p{p:g}={s[k]:.6g}"
    return text + " (no percentile has 10 samples beyond it)"


class Report:
    """Collects metrics as ``name -> (value, unit, note)`` and failures."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str, str]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.known: list[str] = []
        self.record: dict = {}

    def put(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit, note)

    def count(self, attempted: int, failures: list[str], known: list[str]) -> None:
        self.attempted += attempted
        self.failures.extend(failures)
        self.known.extend(known)

    @property
    def failed(self) -> int:
        return len(self.failures) + len(self.known)


# ---------------------------------------------------------------------------
# set-up, imports and the run record


def setup_probe(workload: str, seed: int) -> list[tuple[float, float]]:
    """Fresh interpreters that import pmstat and build the inputs.

    Returns (seconds, speed scale) per interpreter; the probe runs inside
    the child and its own time is taken out of the wall time.
    """
    module = "pmstat.cli" if workload == "suite" else "pmstat"
    code = (
        f"import json, sys; sys.path.insert(0, {BENCH!r}); import speed; probe = speed.SpeedProbe(); "
        f"probe.start(); import {module}, workloads; workloads.make_inputs({workload!r}, {seed}); "
        "probe.stop(); print(json.dumps([probe.spent, probe.scale]))"
    )
    run_child(["-c", code])  # fills the bytecode cache; users do not pay it per run
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        spent, scale = json.loads(run_child(["-c", code]).stdout)
        out.append((time.perf_counter() - t0 - spent, scale))
    return out


def import_probe() -> tuple[list[float], list[float]]:
    """`import pmstat.cli` in fresh interpreters: wall, and jsonschema's share."""
    code = "import time; t = time.perf_counter(); import pmstat.cli; print(time.perf_counter() - t)"
    walls = [float(run_child(["-c", code]).stdout) for _ in range(IMPORT_REPEATS)]
    jsonschema = []
    for _ in range(IMPORT_REPEATS):
        err = run_child(["-X", "importtime", "-c", "import pmstat.cli"]).stderr
        us = 0
        for line in err.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*jsonschema\s*$", line)
            if m:
                us = int(m.group(1))
        jsonschema.append(us / 1e6)
    return walls, jsonschema


def git_state() -> tuple[str, bool | None]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)", None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown (git failed)", None
    return sha.stdout.strip(), bool(dirty.stdout.strip())


def run_record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    sha, dirty = git_state()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
        "nproc": os.cpu_count(),
        "threads": THREAD_ENV,
    }


# ---------------------------------------------------------------------------
# end-to-end runs


def measure_suite(seed: int, seconds: float, rep: Report) -> None:
    import workloads as wl

    path = os.path.join(OUT, f"suite-report-{os.getpid()}.json")
    runs = []
    first = None
    start = time.perf_counter()
    while True:
        r = wl.run_suite_once(ROOT, child_env(), seed, path)
        raw = None
        if os.path.exists(path):
            with open(path, "rb") as fh:
                raw = fh.read()
            os.remove(path)
        why = wl.check_suite_report(raw, r.code, first)
        if why is None and first is None:
            first = raw
        rep.count(1, [] if why is None else [f"suite run {len(runs) + 1}: {why}"], [])
        runs.append(r)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(x.wall_s for x in runs) > seconds:
            break
    walls = [r.wall_s for r in runs]
    scaled = [r.wall_s * r.scale for r in runs]
    rep.put("batch_s", statistics.median(scaled), "s", f"one CLI suite run at reference speed; {tail(scaled)}")
    rep.put("suite_wall_s", statistics.median(walls), "s", f"as measured; {tail(walls)}")
    rep.put("peak_rss_mb", max(r.maxrss_kib for r in runs) / 1024, "MB", f"largest of {len(runs)} CLI processes")
    rep.record["speed_scale"] = statistics.median(r.scale for r in runs)
    rep.record["samples"] = {"suite_runs": len(runs)}


KIND_UNITS = {
    "verdicts": ("verdicts_per_s", "detector queries at N=10^6"),
    "densities": ("densities_per_s", "density queries at N=10^6"),
    "levy_pairs": ("levy_pairs_per_s", "pairs with at most 5 jumps"),
    "levy_wide_pairs": ("levy_wide_pairs_per_s", "pairs with 10 to 20 jumps"),
    "axiom_checks": ("axiom_checks_per_s", "10-function samples, one per triangle kind"),
    "spaces": ("spaces_per_s", "6 to 12 points, build + validate + planted copy"),
}


def measure_inprocess(workload: str, seed: int, seconds: float, rep: Report) -> None:
    import speed
    import workloads as wl

    make = wl.horizon_inputs if workload == "horizon" else wl.ddf_inputs
    run = wl.run_horizon_batch if workload == "horizon" else wl.run_ddf_batch
    check = wl.check_horizon if workload == "horizon" else wl.check_ddf
    # Batch 0 warms the process and is checked but not timed: the first
    # batch that touches ~100 MB of fresh memory runs about 12% slower
    # than every later one, so timing it would make the result depend on
    # how many batches fit into the run.
    outcomes = []
    start = time.perf_counter()
    with speed.SpeedProbe() as probe:
        while True:
            out = wl.Outcome(probe=probe)
            run(make(seed, len(outcomes)), out)
            failures, known = check(out)
            rep.count(len(out.answers) + len(out.errors), failures, known)
            out.answers.clear()  # keep memory independent of the number of batches
            outcomes.append(out)
            elapsed = time.perf_counter() - start
            if len(outcomes) > 1 and elapsed + elapsed / len(outcomes) > seconds:
                break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcomes = outcomes[1:]
    batches = [o.busy_s for o in outcomes]
    scaled = [o.scaled_s for o in outcomes]
    rep.put("batch_s", statistics.median(scaled), "s", f"one batch's operations at reference speed; {tail(scaled)}")
    rep.put("batch_wall_s", statistics.median(batches), "s", f"as measured; {tail(batches)}")
    rep.put("peak_rss_mb", rss_mb, "MB", "this process")
    rep.record["speed_scale"] = probe.scale
    samples = {"batches": len(outcomes), "warm_up_batches": 1}
    for kind, (name, what) in KIND_UNITS.items():
        times = [t for o in outcomes for t in o.times.get(kind, [])]
        if not times:
            continue
        samples[kind] = len(times)
        lat_ms = [t * 1e3 for t in times]
        rep.put(name, len(times) / sum(times), "1/s", f"{what}; as measured; latency ms {tail(lat_ms)}")
    rep.record["samples"] = samples


def measure(workload: str, seed: int, seconds: float, rep: Report) -> None:
    setup = setup_probe(workload, seed)
    walls = [w for w, _ in setup]
    scaled = [w * scale for w, scale in setup]
    rep.put("setup_s", statistics.median(scaled), "s", f"fresh interpreter, import + inputs, at reference speed; {tail(scaled)}")
    rep.put("setup_wall_s", statistics.median(walls), "s", f"as measured; {tail(walls)}")
    if workload == "suite":
        measure_suite(seed, seconds, rep)
    else:
        measure_inprocess(workload, seed, seconds, rep)
    rep.put("failed_ops_ratio", rep.failed / max(1, rep.attempted), "ratio", f"{rep.failed} of {rep.attempted}")
    rep.record["samples"]["setup"] = len(setup)


# ---------------------------------------------------------------------------
# traced run


def trace_suite(seed: int, rep: Report, tracer_cls) -> tuple[float, float, object]:
    import pmstat.cli
    import workloads as wl

    path = os.path.join(OUT, f"suite-report-{os.getpid()}.json")

    def inprocess(tracer=None) -> tuple[float, bytes, int]:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            with tracer or contextlib.nullcontext():
                code = pmstat.cli.main(["suite", "--seed", str(seed), "--out", path])
            wall = time.perf_counter() - t0
        with open(path, "rb") as fh:
            raw = fh.read()
        os.remove(path)
        return wall, raw, code

    children, plain, raws = [], [], []
    for _ in range(SUITE_TRACE_REPEATS):
        r = wl.run_suite_once(ROOT, child_env(), seed, path)
        children.append(r.wall_s)
        with open(path, "rb") as fh:
            raws.append((fh.read(), r.code))
        os.remove(path)
        wall, raw, code = inprocess()
        plain.append(wall)
        raws.append((raw, code))
    tracer = tracer_cls()
    traced_wall, raw, code = inprocess(tracer)
    raws.append((raw, code))
    failures = []
    for i, (raw, code) in enumerate(raws):
        why = wl.check_suite_report(raw, code, raws[0][0])
        if why:
            failures.append(f"suite run {i + 1}: {why}")
    rep.count(len(raws), failures, [])
    rep.put("cli.overhead_s", statistics.median(children) - statistics.median(plain), "s",
            f"CLI wall {tail(children)} minus in-process {tail(plain)}")
    return statistics.median(plain), traced_wall, tracer


def trace_inprocess(workload: str, seed: int, rep: Report, tracer_cls) -> tuple[float, float, object]:
    import workloads as wl

    make = wl.horizon_inputs if workload == "horizon" else wl.ddf_inputs
    run = wl.run_horizon_batch if workload == "horizon" else wl.run_ddf_batch
    check = wl.check_horizon if workload == "horizon" else wl.check_ddf

    def batch() -> tuple[float, object]:
        out = wl.Outcome()
        t0 = time.perf_counter()
        run(make(seed, 0), out)
        return time.perf_counter() - t0, out

    batch()  # warm-up, as in the untraced run
    plain_wall, _ = batch()
    tracer = tracer_cls()
    with tracer:
        traced_wall, out = batch()
    failures, known = check(out)
    rep.count(len(out.answers) + len(out.errors), failures, known)
    rep.put("cli.overhead_s", 0.0, "s", "no CLI process in this workload")
    return plain_wall, traced_wall, tracer


def measure_traced(workload: str, seed: int, rep: Report) -> None:
    import spans

    imports, jsonschema = import_probe()
    rep.put("cli.import_s", statistics.median(imports), "s", f"fresh `import pmstat.cli`; {tail(imports)}")
    rep.put("cli.import_jsonschema_s", statistics.median(jsonschema), "s", f"-X importtime; {tail(jsonschema)}")
    if workload == "suite":
        plain, traced, tracer = trace_suite(seed, rep, spans.Tracer)
    else:
        plain, traced, tracer = trace_inprocess(workload, seed, rep, spans.Tracer)
    for name, (value, unit) in spans.layer_metrics(tracer.spans, traced).items():
        rep.put(name, value, unit)
    rep.put("trace.overhead_ratio", traced / plain, "ratio", f"traced {traced:.4g} s / untraced {plain:.4g} s")
    spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    tracer.write(spans_path)
    rep.record["spans_file"] = os.path.relpath(spans_path, ROOT)
    rep.record["samples"] = {"traced_batches": 1, "spans": len(tracer.spans), "import_probes": len(imports)}


# ---------------------------------------------------------------------------
# output


def emit(rep: Report, wanted: list[dict], prefix: str = "") -> dict:
    """Metrics BENCHMARK.json lists for this mode, as JSON-ready values."""
    out = {}
    for spec in wanted:
        value, unit, _ = rep.metrics[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"metric {spec['name']} measured in {unit}, BENCHMARK.json says {spec['unit']}")
        out[prefix + spec["name"]] = {"value": value, "unit": unit}
    return out


def print_report(workload: str, rep: Report) -> None:
    r = rep.record
    print(
        f"run workload={workload} seed={r['seed']} seconds={r['seconds']} trace={r['trace']} "
        f"python={r['python']} numpy={r['numpy']} git={r['git_sha']} dirty={r['git_dirty']} "
        f"nproc={r['nproc']} samples={json.dumps(r['samples'], sort_keys=True)}"
    )
    for name, (value, unit, note) in rep.metrics.items():
        print(f"  {workload:7s} {name:45s} {value:14.6g} {unit:6s} {note}")
    for line in rep.failures:
        print(f"  FAILED  {line}")
    for line in rep.known:
        print(f"  FAILED  (known defect, KNOWN_DENSITY_DEFECTS) {line}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "pmstat", "__init__.py")):
        print(f"error: no pmstat sources under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(spec_path):
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path[:0] = [SRC, BENCH]
    import pmstat

    if not os.path.abspath(pmstat.__file__).startswith(SRC + os.sep):
        print(f"error: imported pmstat from {pmstat.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    # one core for this process and every child, so the speed probe times
    # the same core the program runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        rep = Report()
        rep.record = run_record(workload, args.seed, args.seconds, args.trace)
        if args.trace:
            measure_traced(workload, args.seed, rep)
        else:
            measure(workload, args.seed, args.seconds, rep)
        print_report(workload, rep)
        record_path = os.path.join(OUT, f"record-{workload}-seed{args.seed}-trace{args.trace}.json")
        with open(record_path, "w") as fh:
            json.dump(
                {
                    **rep.record,
                    "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in rep.metrics.items()},
                    "attempted": rep.attempted,
                    "failures": rep.failures,
                    "known_defects": rep.known,
                },
                fh,
                indent=2,
            )
        result["correct"] = result["correct"] and not rep.failures
        result["attempted"] += rep.attempted
        result["failed"] += rep.failed
        result["metrics"].update(emit(rep, wanted, f"{workload}." if args.workload == "all" else ""))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
