#!/usr/bin/env python3
"""tilecount benchmark: one workload, one client, a closed loop of passes.

    python3 perfbench/run.py --workload count-wide --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``. One
pass runs every job of the workload once, one job at a time, in this
process. Outputs are checked against witnesses computed beforehand in a
separate process. Stdout gets a line of run context, then one JSON result
line: with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.

End-to-end metrics (untraced):
  wall_norm     sum over jobs of the median over passes of the job's time
                divided by the mean of the reference kernel's times just before
                and after it. The host switches between speeds every few
                seconds, so raw seconds drift between runs; the ratio does much
                less.
  setup_s       median, over fresh processes, of the time to import tilecount,
                build the catalog and the CLI parser, divided by the mean time
                of a fixed stdlib import timed in fresh processes just before
                and after, and given in seconds at that import's nominal time.
  peak_rss_mib  peak resident memory of this process.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(HERE))
import jobs as jobs_mod  # noqa: E402
import spans  # noqa: E402

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import tilecount
from tilecount import cli, sequences
sequences.catalog()
cli.build_parser()
print(time.perf_counter() - t0)
"""
# The set-up time's reference: the same kind of work (finding, loading and
# running modules) on code independent of tilecount. Divided by it, set-up
# medians drifted 4% over minutes where raw ones drifted 26% and ones divided
# by the reference kernel 18%.
IMPORT_REF_CODE = """\
import time
t0 = time.perf_counter()
import unittest
print(time.perf_counter() - t0)
"""
IMPORT_REF_NOMINAL_S = 0.022  # its median time on the host it was chosen on
SETUP_FIRST = 4  # fresh-process samples before the first pass
SETUP_PER_PASS = 1  # and after each pass, so they span the host's speed changes

_REF_SMALL = 3**60000
_REF_LARGE = 3**120000
_REF_DECIMAL = 7**19000


def reference_kernel(decimal: bool) -> int:
    """Fixed pure-Python work, independent of tilecount, that tracks host speed.

    Three parts of about equal time: a dict-of-states sweep (interpreter-bound,
    like a profile DP), products of 95,000-bit integers and one product of
    190,000-bit integers (like a matrix power at small and large sizes). With
    ``decimal``, a fourth: int -> str of a 16,000-digit number. CPython's
    int -> str does not follow the host's speed changes like the rest, so it
    belongs only in the reference of a workload that spends a large share of
    its time printing huge numbers.
    """
    states = {0: 1}
    for step in range(44):
        bit = 1 << (step % 9)
        nxt: dict[int, int] = {}
        for mask, ways in states.items():
            if mask & bit:
                m = mask & ~bit
                nxt[m] = nxt.get(m, 0) + ways
                continue
            m = mask | bit << 1
            nxt[m] = nxt.get(m, 0) + ways
            m = mask | bit
            nxt[m] = nxt.get(m, 0) + ways
        states = nxt
    y = _REF_SMALL
    for _ in range(2):
        y = (y * _REF_SMALL) >> _REF_SMALL.bit_length()
    size = len(states) + y.bit_length() + (_REF_LARGE * _REF_LARGE).bit_length()
    if decimal:
        size += len(str(_REF_DECIMAL))
    return size


def timed_reference(decimal: bool) -> float:
    t0 = perf_counter()
    reference_kernel(decimal)
    return perf_counter() - t0


def child_seconds(code: str) -> float:
    """Run ``code`` in a fresh isolated interpreter; it prints its own timing."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout)


def setup_samples(count: int) -> list[tuple[float, float]]:
    """(raw seconds, ratio) of ``count`` fresh-process set-ups; the ratio
    divides by the mean of the stdlib import timed just before and after."""
    refs = [child_seconds(IMPORT_REF_CODE)]
    samples = []
    for _ in range(count):
        raw = child_seconds(SETUP_CODE)
        refs.append(child_seconds(IMPORT_REF_CODE))
        samples.append((raw, raw / ((refs[-2] + refs[-1]) / 2)))
    return samples


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def host_context() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


class Runner:
    """Runs jobs against the program and judges their outputs."""

    def __init__(self, tc, job_list: list, expected: dict[str, str], decimal: bool) -> None:
        self.tc = tc
        self.jobs = job_list
        self.decimal = decimal  # reference kernel with its int -> str part
        self.expected = expected
        self.first_digest: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def call(self, job) -> tuple[int, object, str]:
        """Exit code, output and stderr of one job; the part that is timed."""
        if job.argv is None:
            rows, cols, layers = job.box
            cross = {(r, c) for r in range(rows) for c in range(cols)}
            return 0, self.tc.solid3d.count_bricks(self.tc.solid3d.Prism3D(cross, layers)), ""
        err = StringIO()
        chunks: list[str] = []
        sink = _Sink(chunks.append)
        with redirect_stdout(sink), redirect_stderr(err):
            code = self.tc.cli.main(list(job.argv))
        return code, chunks, err.getvalue()

    def check_output(self, job, code: int, out) -> bool:
        """Whether one job's exit code and output pass its check."""
        if code != 0:
            return False
        if job.check == "value":
            return str(out) == self.expected[job.label]
        text = "".join(out)
        if job.check == "stdout":
            return text == self.expected[job.label]
        if job.check == "last_line":
            return text.count("\n") == job.lines and text.endswith(
                f"\n{self.expected[job.label]}\n"
            )
        if job.check == "verify_text":
            return f"total: {job.checks} checks, 0 failed" in text.splitlines()
        if job.check == "verify_json":
            # byte-identical between passes, and the summary record says all passed
            digest = hashlib.sha256(text.encode()).hexdigest()
            first = self.first_digest.setdefault(job.label, digest)
            last = json.loads(text.rstrip("\n").rsplit("\n", 1)[-1])
            return digest == first and last == {
                "suite": job.argv[1],
                "checks": job.checks,
                "failed": 0,
            }
        raise ValueError(f"unknown check {job.check!r}")

    def run_job(self, job) -> tuple[float, int]:
        """Run and check one job; returns its wall time and the characters printed."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            code, out, err = self.call(job)
            elapsed = perf_counter() - t0
            ok = self.check_output(job, code, out)
        except Exception:  # a job that raises is a failed job, not a failed benchmark
            traceback.print_exc()
            self.failed += 1
            return perf_counter() - t0, 0
        if not ok:
            self.failed += 1
            print(f"FAILED: {job.label} (exit {code}) {err.strip()[:200]}", file=sys.stderr)
        return elapsed, sum(map(len, out)) if job.argv is not None else 0

    def run_pass(self, tracer: spans.Tracer | None = None) -> tuple[list[float], list[float], int]:
        """One pass: job times, the reference times that bracket them, and
        the characters printed."""
        gc.collect()
        refs = [timed_reference(self.decimal)]
        times = []
        chars = 0
        for index, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = index
            elapsed, printed = self.run_job(job)
            times.append(elapsed)
            chars += printed
            gc.collect()
            refs.append(timed_reference(self.decimal))
        return times, refs, chars


class _Sink:
    """A write-only stdout that keeps what is printed as a list of chunks."""

    def __init__(self, append) -> None:
        self.write = append

    def flush(self) -> None:
        pass


def normalised(times: list[float], refs: list[float]) -> list[float]:
    """Each job's time divided by the mean of the reference times around it."""
    return [t / ((refs[i] + refs[i + 1]) / 2) for i, t in enumerate(times)]


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced passes until the time is up: the end-to-end metrics."""
    setup = setup_samples(SETUP_FIRST)
    norms, walls, refs_all, durations = [], [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        times, refs, _ = runner.run_pass()
        setup += setup_samples(SETUP_PER_PASS)
        durations.append(perf_counter() - t0)
        norms.append(normalised(times, refs))
        walls.append(sum(times))
        refs_all += refs
        if perf_counter() - start + statistics.median(durations) > seconds:
            break
    # Per-job medians, summed: a host speed change inside one job then moves
    # only that job's sample, not the whole pass's.
    wall_norm = sum(statistics.median(job) for job in zip(*norms))
    return {
        "metrics": {
            "wall_norm": (wall_norm, "ratio"),
            "setup_s": (statistics.median(r for _, r in setup) * IMPORT_REF_NOMINAL_S, "s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
        },
        "passes": len(norms),
        "setup_samples": len(setup),
        "raw_setup_s": statistics.median(raw for raw, _ in setup),
        "raw_wall_s": statistics.median(walls),
        "ref_s": statistics.median(refs_all),
        "wall_norm_per_pass": [sum(p) for p in norms],
    }


def measure_traced(runner: Runner, seconds: float, trace_file: Path) -> dict:
    """An untraced and a traced pass in turn: the per-layer metrics.

    Per-layer figures come from the traced pass of median wall time, so its
    self times add up to that pass's time. The tracing overhead is the median
    difference between a traced pass and the untraced pass just before it.
    All spans are written to ``trace_file`` at the end.
    """
    untraced, refs_all, traced, overheads, records, durations = [], [], [], [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        times, refs, _ = runner.run_pass()
        untraced.append(sum(times))
        refs_all += refs
        with spans.Tracer(runner.tc) as tracer:
            times, _, chars = runner.run_pass(tracer)
        traced.append((sum(times), spans.layer_metrics(tracer.spans, times, chars)))
        overheads.append(traced[-1][0] - untraced[-1])
        records += [(len(traced), s.job, s.name, s.start, s.end, s.parent) for s in tracer.spans]
        durations.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(durations) > seconds:
            break
    with open(trace_file, "w") as out:
        out.writelines(json.dumps(r, separators=(",", ":")) + "\n" for r in records)
    traced_wall, layer = sorted(traced, key=lambda pair: pair[0])[(len(traced) - 1) // 2]
    metrics = {k: (v, "s" if k.endswith("_s") else "count") for k, v in layer.items()}
    metrics["run.wall_s"] = (statistics.median(untraced), "s")
    metrics["run.ref_s"] = (statistics.median(refs_all), "s")
    metrics["run.trace_overhead_s"] = (statistics.median(overheads), "s")
    return {"metrics": metrics, "passes": len(traced), "traced_pass_s": traced_wall}


def load_program():
    """Import tilecount from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "tilecount" / "__init__.py").is_file():
        raise FileNotFoundError(f"no tilecount package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tilecount
    from tilecount import cli, count2d, identities, regions2d, sequences, solid3d  # noqa: F401

    if Path(tilecount.__file__).resolve().parent != (SRC / "tilecount").resolve():
        raise ImportError(f"tilecount imported from {tilecount.__file__}, not {SRC}")
    return tilecount


def witnesses(job_list) -> dict[str, str]:
    """Expected outputs, computed in a separate process before any timing."""
    todo = [job for job in job_list if job.witness]
    done = subprocess.run(
        [sys.executable, "-I", str(HERE / "witness.py"), str(SRC)],
        input=json.dumps([list(job.witness) for job in todo]),
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return {job.label: value for job, value in zip(todo, json.loads(done.stdout))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    args = parser.parse_args(argv)

    # cli.main lifts this limit on its first call; set it before any job so
    # the library job and the checks do not depend on job order.
    sys.set_int_max_str_digits(0)
    try:
        tc = load_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(parents=True, exist_ok=True)
    job_list = jobs_mod.build(args.workload, args.seed, WORKDIR, args.tiny)
    context = {
        **host_context(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "jobs": [job.label for job in job_list],
    }
    print(json.dumps({"context": context}), flush=True)

    runner = Runner(tc, job_list, witnesses(job_list), args.workload in jobs_mod.DECIMAL_HEAVY)
    child_seconds(SETUP_CODE)  # fills the bytecode cache; not a sample
    with redirect_stdout(_Sink(lambda s: None)):
        tc.cli.main(["count", "rect:2,2"])  # first-call work, as after any earlier job
    if args.trace:
        trace_file = WORKDIR / f"trace-{args.workload}-{args.seed}.jsonl"
        result = measure_traced(runner, args.seconds, trace_file)
    else:
        result = measure(runner, args.seconds)
    metrics = result.pop("metrics")
    result["fail_frac"] = runner.failed / runner.attempted
    print(json.dumps({"summary": result}), flush=True)
    print(
        json.dumps(
            {
                "correct": runner.failed == 0,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
