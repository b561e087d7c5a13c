"""Benchmark of the `penney` command line, end to end and layer by layer.

    python3 bench/run.py --workload solve --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout: the package is imported from the
checkout's `src/`, nothing is installed. One process, one thread, closed
loop with one client, pinned to one CPU: `penney.cli.main(argv)` is called
in-process with stdout captured, the next request starting when the
previous one returns.
Workloads, their seeded inputs and their output checks are in
`workloads.py`; the span recorder of the traced run is in `spans.py`.

--trace 0 replays whole cycles of the workload's rounds for at most
--seconds (at least one cycle) and reports
request_p50_ms, request_tail_ms (the highest percentile with at least ten
samples beyond it), requests_per_s, setup_s (median over fresh interpreters
that import penney.cli and build the inputs, started between cycles) and
peak_rss_mib. The four timings are host-normalised: a fixed ~6 ms mix of
Python work (`host_loop_ms`) runs before and after every request and
set-up probe, and each wall time is scaled by REFERENCE_MS over the mean
of the two loop times on either side of it, so it reads as wall time on a
host where that loop takes REFERENCE_MS. On a shared 2-vCPU host (Xeon,
2.0 GHz) a fixed loop swings up to 2x in CPU time within a minute, and the
unscaled medians of separate runs followed the host more than the program.
The unscaled wall-time figures are printed beside the scaled ones. To see
every workload:

    for w in solve series best-response simulate; do
        python3 bench/run.py --workload $w --seed 1; done

--trace 1 runs the requests of one cycle of the workload's class mix
(`workloads.cycle`) untraced and traced, back to back, for at
least two passes and --seconds, and reports the per-layer metrics of
`spans.Tracer.pass_metrics` plus trace.overhead_ratio (unscaled).

Outputs are checked after the timed phase: each distinct argv against the
chain oracle, every repeat byte for byte against its first output. Human
readable lines go to stdout first; the last line is one JSON object with
the keys correct, attempted, failed and metrics. A run record and, for
--trace 1, the spans are written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections.abc import Mapping
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from spans import EXACT, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 11
PROBES_PER_CYCLE = 2
TAIL_BEYOND = 10
# Timings are scaled to a host on which `host_loop_ms` takes this long
# (about its time on the host named in the docstring when that host is quiet).
REFERENCE_MS = 6.0

END_TO_END_UNITS = {
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "requests_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER_UNITS = {
    "polyalg.determinant.calls": "count",
    "polyalg.determinant.ms": "ms",
    "polyalg.exact_div.calls": "count",
    "polyalg.poly_mul.calls": "count",
    "polyalg.max_coeff_bits": "bits",
    "polyalg.denominator_degree": "count",
    "polyalg.limit.ms": "ms",
    "polyalg.derivative.ms": "ms",
    "polyalg.series.ms": "ms",
    "polyalg.series.coeffs_per_s": "1/s",
    "solver.correlation_matrix.ms": "ms",
    "solver.solve_game.ms": "ms",
    "solver.conway_number.calls": "count",
    "solver.conway_number.ms": "ms",
    "solver.winning_probabilities.ms": "ms",
    "solver.response_table.us_per_candidate": "us",
    "patterns.validate.calls": "count",
    "patterns.validate.ms": "ms",
    "patterns.validate.reject_ratio": "ratio",
    "patterns.parse.ms": "ms",
    "oracle.build_automaton.ms": "ms",
    "oracle.automaton_states": "count",
    "oracle.simulate.games_per_s": "1/s",
    "oracle.simulate.tosses_per_s": "1/s",
    "cli.parse.ms": "ms",
    "cli.format.ms": "ms",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class Capture:
    """Stdout stand-in: hashes and counts what the CLI prints, and keeps the
    text only when asked (the first output of each distinct argv)."""

    def __init__(self, keep: bool) -> None:
        self.keep = keep
        self.parts: list[str] = []
        self.digest = hashlib.sha256()
        self.size = 0

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.digest.update(data)
        self.size += len(data)
        if self.keep:
            self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


class SpilledOutputs(Mapping):
    """Each distinct argv's first output, read from its file on access."""

    def __init__(self, first: dict) -> None:
        self._first = first

    def __getitem__(self, argv: tuple) -> str:
        return self._first[argv][1].read_text(encoding="utf-8")

    def __iter__(self):
        return iter(self._first)

    def __len__(self) -> int:
        return len(self._first)


class Runner:
    """Executes requests and keeps what the checks need. The first output of
    each distinct argv goes to a file in `spill_dir` once its request is
    timed, so that the outputs kept for the check (up to ~3 MB each) do not
    count in peak_rss_mib."""

    def __init__(self, cli_module, spill_dir: Path) -> None:
        self.cli = cli_module
        self.spill_dir = spill_dir
        self.records: list[tuple] = []  # (argv, ns, exit code, error, digest, bytes)
        self.first: dict[tuple, tuple] = {}  # argv -> (digest, output file)

    def execute(self, argv: tuple, record: bool = True) -> tuple:
        keep = record and argv not in self.first
        out, err = Capture(keep), io.StringIO()
        error = None
        start = time.perf_counter_ns()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed request, not a dead benchmark
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
        if code not in (0, None) and error is None:
            error = f"exit code {code}: {err.getvalue().strip()[:300]}"
        digest = out.digest.hexdigest()
        if keep and code == 0:
            path = self.spill_dir / f"{len(self.first)}.out"
            path.write_text("".join(out.parts), encoding="utf-8")
            self.first[argv] = (digest, path)
        entry = (argv, elapsed, code, error, digest, out.size)
        if record:
            self.records.append(entry)
        return entry

    def outputs(self) -> "SpilledOutputs":
        return SpilledOutputs(self.first)

    def failures(self, verdicts: dict) -> list[str]:
        """One message per failed request: nonzero exit, exception, output that
        fails its check, or bytes that differ from the argv's first output."""
        failed = []
        for argv, _, code, error, digest, _ in self.records:
            if error is not None:
                failed.append(error)
            elif argv not in self.first or digest != self.first[argv][0]:
                failed.append(f"output differs between repeats of {' '.join(argv)}")
            elif verdicts.get(argv) is not None:
                failed.append(f"{verdicts[argv]}: {' '.join(argv)}")
        return failed


def host_loop_ms() -> float:
    """Wall time of a fixed mix of the work penney does: small-int arithmetic,
    Fractions, dict and str operations, and big-int multiply and divide. It
    gauges the host's speed; a mix follows contention on a shared core more
    closely than any one kind of work alone."""
    start = time.perf_counter()
    total = 0
    for i in range(10_000):
        total += i * i % 7
    x = Fraction(0)
    for i in range(1, 200):
        x += Fraction(1, i)
    counts: dict = {}
    for i in range(2_000):
        key = i * 7919 % 64
        counts[key] = counts.get(key, 0) + len(str(key))
    a, b = 3**2000, 7**1500
    for i in range(60):
        total += (a * b + i) // (b + i)
    return (time.perf_counter() - start) * 1000


def calibration_ms() -> float:
    """Sixteen host loops before and after a workload, for the record."""
    return sum(host_loop_ms() for _ in range(16))


class HostGauge:
    """Times the host loop between timed steps, so that each step's wall time
    can be scaled by REFERENCE_MS over the mean of the loop times on either
    side of it: the step's time on a host of reference speed."""

    def __init__(self) -> None:
        self.last = host_loop_ms()
        self.loops = [self.last]

    def scale(self) -> float:
        """Call right after a timed step; returns the factor for that step."""
        before, self.last = self.last, host_loop_ms()
        self.loops.append(self.last)
        return 2 * REFERENCE_MS / (before + self.last)


def pin_to_one_cpu() -> None:
    """Keep the benchmark, and the set-up probes it starts, on one CPU: the
    one whose speed the host loop gauges. Unpinned, a probe's interpreter ran
    on whichever CPU was free, and scaled set-up times of separate runs
    spread ~10x wider than pinned ones."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_info() -> dict:
    try:
        ceiling = str(ROOT.parent)
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": ceiling},
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "commit": commit,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def setup_probe(workload: str, seed: int) -> float:
    """Wall time from spawning a fresh interpreter until it has imported
    penney.cli and built the workload's inputs."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, stderr = proc.communicate(timeout=120)
        except BaseException:
            proc.kill()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {stderr.strip()[-500:]}")
    return elapsed


def tail(times_ms: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples above it, and its value."""
    ordered = sorted(times_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def timing_metrics(times_ms: list[float], busy_s: float, setup_s: list[float]) -> tuple[dict, float]:
    """The four timing metrics, and the percentile request_tail_ms is."""
    percentile, tail_ms = tail(times_ms)
    return {
        "request_p50_ms": statistics.median(times_ms),
        "request_tail_ms": tail_ms,
        "requests_per_s": len(times_ms) / busy_s,
        "setup_s": statistics.median(setup_s),
    }, percentile


def untraced(runner: Runner, rounds: list, cycle: int, args) -> tuple[dict, list[str]]:
    runner.execute(rounds[0][0], record=False)  # lazy imports and first-call set-up
    gauge = HostGauge()
    scales: list[float] = []
    setup: list[float] = []
    setup_scales: list[float] = []

    def probe() -> None:
        setup.append(setup_probe(args.workload, args.seed))
        setup_scales.append(gauge.scale())

    start = time.perf_counter()
    cycles = 0
    cycle_s = 0.0
    # Whole cycles of the workload's class mix only, so that every run holds
    # the classes in the same proportions whatever the host's speed: stop
    # before a cycle that, by the last one's length, would end after --seconds.
    while cycles == 0 or time.perf_counter() - start + cycle_s <= args.seconds:
        cycle_start = time.perf_counter()
        first = cycles * cycle % len(rounds)
        for argv in (argv for requests in rounds[first:first + cycle] for argv in requests):
            runner.execute(argv)
            scales.append(gauge.scale())
        # Set-up probes sit between cycles, outside the request timings, so
        # that their median spans the run rather than one moment of load.
        for _ in range(min(PROBES_PER_CYCLE, SETUP_PROBES - len(setup))):
            probe()
        cycles += 1
        cycle_s = time.perf_counter() - cycle_start
    while len(setup) < SETUP_PROBES:
        probe()
    raw_ms = [entry[1] / 1e6 for entry in runner.records]
    raw, percentile = timing_metrics(raw_ms, sum(raw_ms) / 1000, setup)
    scaled_ms = [t * k for t, k in zip(raw_ms, scales)]
    metrics, _ = timing_metrics(
        scaled_ms, sum(scaled_ms) / 1000, [t * k for t, k in zip(setup, setup_scales)]
    )
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    quartiles = statistics.quantiles(gauge.loops, n=4)
    notes = [
        f"timed phase: {len(raw_ms)} requests in {cycles} cycles of {cycle} rounds, "
        f"{time.perf_counter() - start:.3f} s wall with the host loops",
        f"request_tail_ms is p{percentile:.1f} of {len(raw_ms)} samples, "
        f"{min(TAIL_BEYOND, len(raw_ms) - 1)} beyond it",
        f"host loop: median {statistics.median(gauge.loops):.3f} ms, quartiles "
        f"{quartiles[0]:.3f}-{quartiles[2]:.3f} ms over {len(gauge.loops)} loops; "
        f"timings below are scaled to {REFERENCE_MS} ms",
        "raw wall time, unscaled: " + ", ".join(
            f"{name} {value:.6g} {END_TO_END_UNITS[name]}" for name, value in raw.items()
        ),
        "setup_s probes, unscaled (s): " + ", ".join(f"{t:.4f}" for t in setup),
    ]
    return metrics, notes


def traced(runner: Runner, rounds: list, args) -> tuple[dict, list[str], list[str]]:
    tracer = Tracer()
    requests = [argv for requests in rounds for argv in requests]
    runner.execute(requests[0], record=False)
    passes: list[dict] = []
    plain_ns = traced_ns = 0
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < args.seconds:
        tracer.reset_pass()
        output_bytes = 0
        for argv in requests:
            # Alternate which goes first, so neither side always runs warm.
            for with_trace in ((False, True) if len(passes) % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.request += 1
                    tracer.requests += 1
                    tracer.install()
                    try:
                        entry = runner.execute(argv)
                    finally:
                        tracer.uninstall()
                    traced_ns += entry[1]
                    output_bytes += entry[5]
                else:
                    plain_ns += runner.execute(argv)[1]
        passes.append(tracer.pass_metrics(output_bytes))
    problems = [
        f"{name} differs between passes: {[p[name] for p in passes]}"
        for name in EXACT
        if len({p[name] for p in passes}) != 1
    ]
    metrics = {
        name: passes[0][name] if name in EXACT else statistics.median(p[name] for p in passes)
        for name in passes[0]
    }
    metrics["trace.overhead_ratio"] = traced_ns / plain_ns
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    notes = [
        f"traced phase: {len(passes)} passes over {len(requests)} requests, "
        f"each request run untraced and traced",
        f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}",
    ]
    return metrics, notes, problems


def import_penney():
    if not (SRC / "penney" / "cli.py").is_file():
        raise SystemExit(f"bench: no penney sources at {SRC}; run from a penney checkout")
    sys.path.insert(0, str(SRC))
    import penney.cli

    if Path(penney.cli.__file__).resolve().parent != (SRC / "penney").resolve():
        raise SystemExit(f"bench: imported penney from {penney.cli.__file__}, not from {SRC}")
    return penney.cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    cli = import_penney()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    if args.probe_setup:
        workloads.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    pin_to_one_cpu()
    info = run_info()
    info["calibration_ms_before"] = calibration_ms()
    rounds = [[tuple(argv) for argv in requests] for requests in workloads.build(args.workload, args.seed)]
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="outputs-", dir=OUT_DIR) as spill_dir:
        runner = Runner(cli, Path(spill_dir))
        problems: list[str] = []
        if args.trace:
            metrics, notes, problems = traced(runner, rounds[: workloads.cycle(args.workload)], args)
            units = PER_LAYER_UNITS
        else:
            metrics, notes = untraced(runner, rounds, workloads.cycle(args.workload), args)
            units = END_TO_END_UNITS
        verdicts = workloads.check(args.workload, runner.outputs())
        failed = runner.failures(verdicts)
    info["calibration_ms_after"] = calibration_ms()
    attempted = len(runner.records)

    print(f"penney benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"run: python {info['python']}, commit {info['commit']}, nproc {info['nproc']}, "
          f"loadavg {' '.join(f'{x:.2f}' for x in info['loadavg'])}, calibration "
          f"{info['calibration_ms_before']:.1f} ms before, {info['calibration_ms_after']:.1f} ms after")
    for note in notes:
        print(note)
    print(f"failed_ratio {len(failed) / attempted:g} ratio ({len(failed)} of {attempted} requests)")
    for message in (failed + problems)[:10]:
        print(f"FAILED: {message}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")

    result = {
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**info, "notes": notes, "failures": failed + problems, **result}, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
