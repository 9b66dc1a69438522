"""Benchmark for the shintani library: seeded workloads, checked outputs,
end-to-end metrics from untraced passes and per-layer metrics from a
separate traced pass.

Run from the repository root:

    python3 perfbench/run.py --workload cocycle --seed 1 --seconds 30 --trace 0

One process and one closed-loop client: the next op starts when the
previous one returns.  The seed fixes a workload's op list and its order.

``--trace 0`` sets up SETUP_REPS times (import plus input generation),
then runs whole passes over the op list while the next pass still fits in
``--seconds``.  Each pass starts from a fresh import, so no op runs twice
against the same module state and lazy tables fill inside every pass, as
they do for every CLI call.  Each op time is scaled by a calibration loop
timed around it, because the shared hosts this runs on change speed by up
to half for tens of seconds at a time: times are in reference
milliseconds, the time on a host where one calibration loop takes 1 ms.
An op's time is its median over the passes; the metrics of BENCHMARK.json
are taken over those per-op times.

``--trace 1`` runs one untraced and one traced pass over the same op list
and prints the per-layer metrics (see ``tracing.py``) and the tracing
overhead.

Every op is checked by an oracle in ``oracles.py`` and against the digest
of its serialised output in ``digests.json`` when one is recorded; a
failed op is counted by the CLI exit code its exception maps to, and the
run goes on.  The last line of stdout is one JSON object and the exit code
is 0 only when every op was correct.  ``--workload all`` runs every
workload, each in its own process.  ``--record-digests`` rewrites
``digests.json`` from the current library at the default seed.
"""

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns

from tracing import MOVES, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 0
SETUP_REPS = 9
CALIBRATION_LOOP = 300


def fresh_import():
    """Import the package from this checkout's ``src`` with no module left
    over from an earlier import, so lazy tables start empty."""
    for name in [n for n in sys.modules if n == "shintani" or n.startswith("shintani.")]:
        del sys.modules[name]
    pkg = importlib.import_module("shintani")
    importlib.import_module("shintani.cli")
    if Path(pkg.__file__).resolve().parent != SRC / "shintani":
        raise ImportError(f"shintani imported from {pkg.__file__}, not from {SRC}")
    return pkg


def exit_code(pkg, exc):
    """The exit code the CLI's main would give this exception."""
    errors, cli = pkg.errors, pkg.cli
    if isinstance(exc, errors.SchemaError):
        return cli.EXIT_SCHEMA
    if isinstance(exc, errors.TruncationTooSmall):
        return cli.EXIT_TRUNCATION
    if isinstance(exc, (errors.ShintaniError, ZeroDivisionError, ValueError)):
        return cli.EXIT_MATH
    return "uncaught"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def calibrate():
    """Time of a fixed loop of Fraction arithmetic and dict stores, the
    library's own kind of work, at the speed the host runs right now."""
    start = perf_counter_ns()
    acc, table = Fraction(0), {}
    for i in range(CALIBRATION_LOOP):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        table[i & 63] = acc * acc.denominator
    return perf_counter_ns() - start


def scaled_ms(elapsed_ns, calibration_ns):
    """Elapsed time in reference milliseconds: the time the span would take
    on a host where one calibration loop takes exactly 1 ms.  The host's
    speed is the median of the calibrations taken around the span."""
    return elapsed_ns / statistics.median(calibration_ns)


class Pass:
    """One run through a workload's op list: per-op times (None for an op
    that failed), the calibration time taken before each op and after the
    last, and the failures by kind."""

    def __init__(self):
        self.times_ns = []
        self.calibration_ns = []
        self.failures = Counter()
        self.first_failure = None

    @property
    def attempted(self):
        return len(self.times_ns)

    @property
    def failed(self):
        return sum(self.failures.values())

    def fail(self, kind, detail):
        self.times_ns.append(None)
        self.failures[kind] += 1
        if self.first_failure is None:
            self.first_failure = detail


def run_ops(pkg, wl, specs, digests):
    result = Pass()
    for spec in specs:
        result.calibration_ns.append(calibrate())
        start = perf_counter_ns()
        try:
            text = wl.run(pkg, spec)
        except Exception as exc:  # one failing op is counted; the run goes on
            result.fail(exit_code(pkg, exc), traceback.format_exc())
            continue
        elapsed = perf_counter_ns() - start
        problem = wl.check(spec, text)
        if problem is None:
            recorded = digests.get(digest(wl.key(spec)))
            if recorded is not None and recorded != digest(text):
                problem = "output bytes differ from the recorded digest"
        if problem is not None:
            result.fail("wrong", f"{problem}: {wl.key(spec)}")
            continue
        result.times_ns.append(elapsed)
    result.calibration_ns.append(calibrate())
    return result


def op_times_ms(passes):
    """Each op's median over the passes in which it succeeded, in
    reference milliseconds."""
    scaled = [[None if t is None else scaled_ms(t, p.calibration_ns[max(0, i - 1):i + 3])
               for i, t in enumerate(p.times_ns)] for p in passes]
    out = []
    for times in zip(*scaled):
        ok = [t for t in times if t is not None]
        if ok:
            out.append(statistics.median(ok))
    return out


def ops_per_s(ms):
    return len(ms) / (sum(ms) / 1e3) if ms else 0.0


def timed_run(wl, seed, seconds, digests):
    """Set up SETUP_REPS times, then run whole passes over the op list, each
    on a fresh import, while the next pass still fits in ``seconds``."""
    setups = []
    for _ in range(SETUP_REPS):
        before = calibrate()
        start = perf_counter_ns()
        fresh_import()
        specs = wl.specs(seed)
        elapsed = perf_counter_ns() - start
        setups.append(scaled_ms(elapsed, [before, calibrate()]) / 1e3)
    passes = []
    start = perf_counter()
    while True:
        began = perf_counter()
        passes.append(run_ops(fresh_import(), wl, specs, digests))
        now = perf_counter()
        if now - start + (now - began) > seconds:
            break
    return passes, end_to_end_metrics(passes, setups)


def end_to_end_metrics(passes, setups):
    ms = op_times_ms(passes)
    return {
        "ops_per_s": ops_per_s(ms),
        "op_p50_ms": statistics.median(ms) if ms else 0.0,
        "op_p90_ms": statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else max(ms, default=0.0),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(wl, seed, digests):
    """One untraced and one traced pass over the same ops."""
    specs = wl.specs(seed)
    plain = run_ops(fresh_import(), wl, specs, digests)
    pkg = fresh_import()
    tracer = Tracer()
    with tracer.installed(pkg):
        traced = run_ops(pkg, wl, specs, digests)
    for name in tracer.missing:
        print(f"warning: {name} not found; its layer metrics read 0", file=sys.stderr)
    metrics = tracer.layer_metrics()
    plain_rate = ops_per_s(op_times_ms([plain]))
    traced_rate = ops_per_s(op_times_ms([traced]))
    metrics["trace.ops_per_s"] = traced_rate
    metrics["trace.untraced_ops_per_s"] = plain_rate
    metrics["trace.slowdown"] = plain_rate / traced_rate if traced_rate else 0.0
    return [plain, traced], metrics


def record_digests():
    table = {"seed": DEFAULT_SEED}
    for wl in WORKLOADS.values():
        pkg = fresh_import()
        entries = {}
        for spec in wl.specs(DEFAULT_SEED):
            text = wl.run(pkg, spec)
            problem = wl.check(spec, text)
            if problem is not None:
                raise SystemExit(f"{wl.name}: {problem}: {wl.key(spec)}")
            entries[digest(wl.key(spec))] = digest(text)
        table[wl.name] = entries
        print(f"{wl.name}: {len(entries)} digests", file=sys.stderr)
    DIGESTS.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(json.dumps({"workload": name, **json.loads(lines[-1])}) if lines else
              json.dumps({"workload": name, "error": proc.returncode}))
        code = code or proc.returncode
    return code


def report(wl, seed, passes, metrics, declared):
    """Human-readable summary on stderr, then the result line on stdout."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"{wl.name} seed {seed}: {len(passes)} passes of {passes[0].attempted} ops, "
          f"{attempted} ops attempted, {failed} failed "
          f"(fail_ratio {failed / attempted:.4g})", file=sys.stderr)
    for p in passes:
        for kind, count in sorted(p.failures.items(), key=str):
            print(f"  failures with code {kind}: {count}", file=sys.stderr)
        if p.first_failure:
            print(f"  first failure: {p.first_failure}", file=sys.stderr)
    out = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        out[name] = {"value": metrics[name], "unit": unit}
        note = f"  [{MOVES[name]}]" if name in MOVES else ""
        print(f"  {name} = {metrics[name]} {unit}{note}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "shintani" / "__init__.py").is_file():
        print(f"error: no shintani package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_digests:
        return record_digests()
    if args.workload == "all":
        return run_all(args)

    wl = WORKLOADS[args.workload]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    digests = json.loads(DIGESTS.read_text())[wl.name]
    if args.trace:
        passes, metrics = traced_run(wl, args.seed, digests)
        declared = bench["per_layer"]
    else:
        passes, metrics = timed_run(wl, args.seed, args.seconds, digests)
        declared = bench["end_to_end"]
    return report(wl, args.seed, passes, metrics, declared)


if __name__ == "__main__":
    sys.exit(main())
