"""singmap benchmark: drives `singmap.cli.main(argv)` in-process, in a closed
loop with one caller, and checks every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --repeat K

One run measures one workload in this process.  The loop makes whole passes
over the workload's links until `--seconds` have elapsed (at least one
pass), so every run sees the same mix.  With `--trace 0` the table shows
all six end-to-end metrics and the last stdout line is the JSON result with
the gated ones; with `--trace 1` a plain loop and a traced loop run and the
result holds the per-layer metrics.  `--repeat K` runs each named workload K times, each in its own
process with seeds N, N+1, ..., and prints the median and quartile spread
of every metric.  See perfbench/README.md for the metric glossary.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
SHOWN_FAILURES = 5
SPANS_DIR = ".perfbench_out"
# end-to-end metrics in the JSON result; the table also shows the median and
# tail latency and the failed fraction (0 when correct)
GATED = ("links_per_s", "peak_rss_mb", "setup_s")
TAIL_MIN_SAMPLES = 100


class PackageMissing(RuntimeError):
    pass


def import_package(root: Path):
    """Import singmap afresh from root/src and return its cli module."""
    src = (root / "src").resolve()
    if not (src / "singmap" / "__init__.py").is_file():
        raise PackageMissing(f"no singmap package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "singmap" or m.startswith("singmap.")]:
        del sys.modules[name]
    cli = importlib.import_module("singmap.cli")
    if src not in Path(sys.modules["singmap"].__file__).resolve().parents:
        raise PackageMissing(f"singmap was imported from outside {src}")
    return cli


def warm_up(links):
    """Verify each Klein triple the links use, filling the process-wide cache."""
    invariants = sys.modules["singmap.invariants"]
    family = sys.modules["singmap.groups"].GroupFamily
    for name, n in workloads.klein_families(links):
        invariants.klein_invariants(family[name], n)


def set_up(workload: str, seed: int):
    """Import, input generation and warm-up, timed together."""
    start = perf_counter()
    cli = import_package(ROOT)
    links = workloads.generate(workload, seed)
    warm_up(links)
    return perf_counter() - start, cli, links


def call_cli(cli, argv):
    """(exit code, stdout, stderr, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as stop:
        code = stop.code
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), perf_counter() - start


class Loop:
    """Closed loop, one caller: whole passes over the links until `seconds`
    have elapsed.  `busy` sums the CLI calls alone, leaving out the
    benchmark's own output checks."""

    def __init__(self, cli, links, seconds, reference, observe=None):
        self.latencies = []
        self.failures = []
        self.passes = 0
        self.busy = 0.0
        start = perf_counter()
        while True:
            for link in links:
                if observe:
                    observe.begin_link(link, len(self.latencies))
                code, out, err, seconds_taken = call_cli(cli, link.argv)
                self.latencies.append(seconds_taken)
                self.busy += seconds_taken
                problem, data = checks.check(link, code, out, reference)
                if problem:
                    self.failures.append(f"{link.key}: {problem} {err.strip()[-300:]}")
                if observe:
                    observe.end_link(data)
            self.passes += 1
            if perf_counter() - start >= seconds:
                break

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def tail_latency(latencies):
    """(value, percentile) of the highest percentile with >= 10 samples
    beyond it; None below TAIL_MIN_SAMPLES, where it would fall under p90."""
    n = len(latencies)
    if n < TAIL_MIN_SAMPLES:
        return None
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_rows(rows):
    """One metric per line: name, value, unit, then a free-form note."""
    for name, value, unit, note in rows:
        shown = "omitted" if value is None else f"{value:.6g}"
        print(f"  {name:<52} {shown:>14} {unit:<5} {note}".rstrip())


def parse_rows(lines):
    """Inverse of print_rows for the values that were measured."""
    values = {}
    for line in lines:
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 3 and parts[1] != "omitted":
            try:
                values[parts[0]] = float(parts[1])
            except ValueError:
                continue
    return values


def plain_run(workload, seed, seconds):
    setups = []
    for _ in range(SETUP_REPEATS):
        setup_s, cli, links = set_up(workload, seed)
        setups.append(setup_s)
    print(f"workload {workload} seed {seed} links {len(links)} "
          f"inputs sha256:{workloads.inputs_digest(links)}")
    loop = Loop(cli, links, seconds, checks.load_reference())
    completed = loop.attempted - len(loop.failures)
    tail = tail_latency(loop.latencies)
    rows = [
        ("setup_s", statistics.median(setups), "s", f"median of {SETUP_REPEATS} set-ups"),
        ("links_per_s", completed / loop.busy, "1/s",
         f"{completed} links in {loop.busy:.3f} s, {loop.passes} pass(es)"),
        ("latency_p50_ms", 1000 * statistics.median(loop.latencies), "ms", ""),
        ("latency_tail_ms", 1000 * tail[0] if tail else None, "ms",
         f"p{tail[1]:.2f}, n={loop.attempted}, 10 beyond" if tail
         else f"n={loop.attempted}, needs {TAIL_MIN_SAMPLES}"),
        ("failed_frac", len(loop.failures) / loop.attempted, "-",
         f"{len(loop.failures)}/{loop.attempted}"),
        ("peak_rss_mb", peak_rss_mb(), "MB", "ru_maxrss"),
    ]
    print_rows(rows)
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in rows if name in GATED}
    return loop, metrics


def traced_run(workload, seed, seconds):
    from tracing import Tracer

    _, cli, links = set_up(workload, seed)
    print(f"workload {workload} seed {seed} links {len(links)} "
          f"inputs sha256:{workloads.inputs_digest(links)} (traced)")
    reference = checks.load_reference()
    plain = Loop(cli, links, seconds, reference)
    cli = import_package(ROOT)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_link(None, "setup")
        warm_up(links)
        tracer.end_link(None)
        traced = Loop(cli, links, seconds, reference, observe=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(traced.passes, traced.busy)
    overhead = (traced.busy / traced.attempted) / (plain.busy / plain.attempted)
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    spans_dir = ROOT / SPANS_DIR
    spans_dir.mkdir(exist_ok=True)
    path = spans_dir / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(path)
    print(f"  spans written to {path.relative_to(ROOT)}")
    print_rows([(name, body["value"], body["unit"], "") for name, body in metrics.items()])
    plain.failures += traced.failures
    plain.latencies += traced.latencies
    return plain, metrics


def single(args) -> int:
    run = traced_run if args.trace else plain_run
    try:
        loop, metrics = run(args.workload, args.seed, args.seconds)
    except PackageMissing as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for failure in loop.failures[:SHOWN_FAILURES]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
    }))
    return 0


def quartile_spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def repeat(args) -> int:
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    bounds = {}
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for name in names:
        values = {}
        for k in range(args.repeat):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed + k), "--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
            start = perf_counter()
            child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            values.setdefault("run_wall_s", []).append(perf_counter() - start)
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0 or not lines:
                print(child.stderr, file=sys.stderr)
                return child.returncode or 1
            print("\n".join(lines[:-1]))
            for metric_name, value in parse_rows(lines[:-1]).items():
                values.setdefault(metric_name, []).append(value)
        summary[name] = {}
        print(f"{name}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
        for metric_name, series in values.items():
            median, q1, q3, spread = quartile_spread(series)
            summary[name][metric_name] = {"median": median, "q1": q1, "q3": q3,
                                          "spread": spread}
            bound = bounds.get(metric_name)
            note = f"  bound {bound:.0%}" if bound else ""
            print(f"  {metric_name:<52} median {median:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:7.2%}{note}")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run each workload this many times in child processes")
    args = parser.parse_args(argv)
    if args.repeat:
        return repeat(args)
    if args.workload == "all":
        parser.error("--workload all needs --repeat")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
