"""Benchmark of charrig: the rigidity experiment, tensor products and the
CLI over a warm cache.

    python3 bench/run.py [--workload rigidity|tensor|cli|all] [--seed N]
                         [--seconds S] [--trace 0|1]

One workload runs in one process, as a closed loop: one caller, items
back to back.  Set-up is repeated SETUP_REPEATS times and its median
taken; then whole rounds of the workload's items, each round on fresh
seeded inputs, run until --seconds have passed (by default the
run_seconds of BENCHMARK.json).  Every output is checked against the
references in refs.py, outside the timed region.  The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics (end-to-end ones with --trace 0, per-layer ones with --trace 1).
--workload all runs each workload in a process of its own and prints a
summary.

Times are reported at a reference machine speed.  Before each item a
fixed probe that uses no charrig code is timed; an item's observed time
is scaled by PROBE_REF_S over the median of the probes around it.  The
line before the result holds the observed, unscaled round times and
probe times.

The library is imported from the src/ directory of the checkout that
holds this script, and from nowhere else.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("rigidity", "tensor", "cli")
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # items above the tail percentile
PROBE_WINDOW = 5  # probes on each side of an item that give its speed
SETUP_PROBES = 25  # probes before and after each set-up
PROBE_REF_S = 0.0006  # the probe's time at the reference speed
ALL_TIMEOUT_S = 600


def load_library():
    """Import charrig from this checkout's src/ and the benchmark's
    modules; exits 2 when the checkout has no library."""
    if not os.path.isfile(os.path.join(SRC, "charrig", "__init__.py")):
        print(f"bench: no charrig package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import charrig

    if os.path.dirname(os.path.dirname(os.path.abspath(charrig.__file__))) != SRC:
        print(f"bench: charrig was imported from {charrig.__file__}", file=sys.stderr)
        sys.exit(2)
    import tracing
    import workloads

    return tracing, workloads


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least TAIL_BEYOND of n items
    above it."""
    return math.floor(100 * (n - TAIL_BEYOND) / n)


def percentile(values, p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


_PROBE_TERMS = [((i % 7, i % 5 - 2, i // 7), 1 + i % 3) for i in range(40)]


def probe() -> float:
    """Seconds taken by a fixed product of two 40-term Laurent
    polynomials, dicts of exponent tuples as in charrig's ring but
    written here: a measure of the machine's speed at this moment that
    no change to the library moves.  Collection is held off meanwhile."""
    enabled = gc.isenabled()
    gc.disable()
    t = time.perf_counter()
    out = {}
    for a, x in _PROBE_TERMS:
        for b, y in _PROBE_TERMS:
            k = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            out[k] = out.get(k, 0) + x * y
    dt = time.perf_counter() - t
    if enabled:
        gc.enable()
    return dt


def scaled(times, probes) -> list:
    """Each time at the reference speed: times[j] * PROBE_REF_S over the
    median of the probes within PROBE_WINDOW of j."""
    return [
        t * PROBE_REF_S / statistics.median(probes[max(0, j - PROBE_WINDOW):j + PROBE_WINDOW + 1])
        for j, t in enumerate(times)
    ]


@contextlib.contextmanager
def _no_span(name):
    yield


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    tracing, workloads = load_library()
    import_s = time.perf_counter() - _T0
    workdir = os.path.join(OUT, f"{name}-{seed}-{os.getpid()}")
    tracer = tracing.Tracer() if traced else None
    try:
        return _measure(name, seed, seconds, tracer, workloads, workdir, import_s)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def _timed_setup(setup, seed, workdir):
    """(prepared, set-up seconds, median probe seconds around it)."""
    probes = [probe() for _ in range(SETUP_PROBES)]
    t = time.perf_counter()
    prepared = setup(seed, workdir)
    dt = time.perf_counter() - t
    probes += [probe() for _ in range(SETUP_PROBES)]
    return prepared, dt, statistics.median(probes)


def _measure(name, seed, seconds, tracer, workloads, workdir, import_s) -> dict:
    setup = workloads.SETUPS[name]
    if tracer is not None:
        tracer.install()
        with tracer.span("bench.setup"):
            prepared = setup(seed, os.path.join(workdir, "setup0"))
        tracer.record_cache(prepared.cache_dir)
    else:
        runs = [_timed_setup(setup, seed, os.path.join(workdir, f"setup{k}")) for k in range(SETUP_REPEATS)]
        prepared = runs[-1][0]
        setup_scaled = [dt * PROBE_REF_S / p for _, dt, p in runs]
        import_scaled = import_s * PROBE_REF_S / runs[0][2]
    unchecked = tracer.paused if tracer is not None else contextlib.nullcontext

    with unchecked():
        problems = prepared.setup_check()
    times, probes, round_of = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    k = 0
    while True:
        # only the first round of a traced run is traced
        span = tracer.span if tracer is not None and tracer.active else _no_span
        items = prepared.round(k)
        for i, (item, check) in enumerate(items):
            probes.append(probe())
            with span("bench.item"):
                t = time.perf_counter()
                output = item()
                dt = time.perf_counter() - t
            times.append(dt)
            round_of.append(k)
            with unchecked():
                verdicts = check(output)
            for op, problem in verdicts:
                attempted += 1
                if problem is not None:
                    failed += 1
                    if problem != workloads.KNOWN_FAULT:
                        problems.append(f"round {k} item {i} {op}: {problem}")
        if tracer is not None:
            tracer.uninstall()
        k += 1
        if time.perf_counter() - start >= seconds:
            break

    rounds = k
    items_per_round = len(times) // rounds
    item_s = scaled(times, probes)
    round_s = [0.0] * rounds
    observed_s = [0.0] * rounds
    for r, x, t in zip(round_of, item_s, times):
        round_s[r] += x
        observed_s[r] += t
    tail_p = tail_percentile(items_per_round)
    for problem in problems[:20]:
        print(f"PROBLEM {name}: {problem}")
    summary = {
        "workload": name,
        "seed": seed,
        "items_per_round": items_per_round,
        "rounds": rounds,
        "tail_percentile": tail_p,
        "observed_round_s": observed_s,
        "probe_median_ms": 1000 * statistics.median(probes),
        "probe_quartiles_ms": [1000 * q for q in statistics.quantiles(probes, n=4)],
    }
    if tracer is not None:
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans-{name}-seed{seed}.tsv")
        tracer.write(spans)
        summary["spans"] = os.path.relpath(spans, ROOT)
        summary["traced_round_s"] = round_s[0]
        if rounds > 1:
            summary["untraced_round_s"] = statistics.median(round_s[1:])
        metrics = tracer.metrics()
    else:
        summary["observed_setup_s"] = import_s + statistics.median(dt for _, dt, _ in runs)
        metrics = {
            "setup_s": (import_scaled + statistics.median(setup_scaled), "s"),
            "wall_s": (statistics.median(round_s), "s"),
            "item_p50_ms": (1000 * statistics.median(item_s), "ms"),
            "item_tail_ms": (1000 * percentile(item_s, tail_p), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(summary))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Each workload in its own process; a table of what they print."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=ALL_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(f"{name}: {line}")
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<48} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="run length; by default run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
