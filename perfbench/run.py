"""sweepkit benchmark: four workloads, end-to-end metrics and per-layer spans.

    python3 perfbench/run.py --workload invert_20k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Run from the root of a source checkout; sweepkit is imported from ``src/``
there and nowhere else.  One run is one process serving one workload as a
closed loop with a single caller.  It sends the input pool round after round
until the timed requests add up to ``--seconds`` (BENCHMARK.json's
run_seconds unless given), and between rounds it sets up again (a fresh
import of sweepkit, the frames and the same pool) whenever set-up time so far
is at most a quarter of request time so far, so set-ups sample the whole run.
Checks run outside the timed region.  With ``--trace 1`` it instead sets up
once with tracing, runs an untraced phase of ``--seconds`` and a traced phase
of a fixed number of rounds, and reports per-layer metrics (see
``spans.LAYERS``) and the tracing overhead.  Every line but the last is for
people; the last is one JSON object with the metrics BENCHMARK.json names.
The exit code is 0 only when every check passed.

The gated latency is ``latency_best_ratio``: each input's fastest latency in
the run, averaged over the pool (``latency_best_s``), divided by the fastest
time of a fixed reference loop timed once per round of the same run.  The
mean lets every input's work count, the heavy ones included.  On a 2-core
shared host the same Python code runs at two speeds about 1.6x apart,
switching every few seconds, and the faster speed itself drifts by a fifth
or more over minutes.  The fastest of many short requests removes the first
effect, which is why requests are kept to tens of milliseconds; dividing by
the reference loop removes most of the second.  ``setup_s`` is the median
set-up, and spreading the set-ups over the run keeps one slow spell from
deciding it.  latency_best_s, requests_per_s, latency_p50_s and
latency_tail_s are printed for people but not gated.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

from spans import Tracer
from workloads import WORKLOADS, Modules

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
OUT = HERE / "out"
# Set up at least this many times, and again between rounds while set-up
# time is at most this share of request time.
SETUP_MIN_REPS = 3
SETUP_SHARE = 0.25
PIN_SEED = 1
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0)
SUBMODULES = ("core", "sweep", "fuss", "reduction", "qtcatalan", "cli", "bench")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_sweepkit() -> Modules:
    """Import sweepkit afresh from the checkout's src/ (never an installed copy)."""
    for key in [k for k in sys.modules if k == "sweepkit" or k.startswith("sweepkit.")]:
        del sys.modules[key]
    package = importlib.import_module("sweepkit")
    if Path(package.__file__).resolve().parent != SRC / "sweepkit":
        raise ImportError(f"sweepkit came from {package.__file__}, not {SRC}")
    return Modules(package, *(importlib.import_module(f"sweepkit.{m}") for m in SUBMODULES))


def _feed(h, value) -> None:
    if isinstance(value, str):
        data = value.encode()
        h.update(b"s%d:" % len(data) + data)
    elif isinstance(value, int):
        h.update(b"i%d;" % value)
    elif value and all(type(x) is int for x in value):
        h.update(b"a%d:" % len(value) + array("q", value).tobytes())
    else:
        h.update(b"l%d:" % len(value))
        for x in value:
            _feed(h, x)


def digest(value) -> str:
    h = hashlib.sha256()
    _feed(h, value)
    return h.hexdigest()


def input_digest(items) -> str:
    return digest([[list(item.frame), getattr(item.data, "steps", item.data)] for item in items])


class Run:
    """One process serving one workload: requests, checks and their outcomes."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.sk: Modules | None = None
        self.items: list = []
        self.outcomes: list[tuple[int, str | None]] = []  # (item index, error)
        self.output_digests: dict[int, str] = {}
        self.reference: list[float] = []  # reference_loop() times, one per round

    def set_up(self, tracer: Tracer | None = None) -> float:
        self.sk = self.items = None
        start = perf_counter()
        self.sk = load_sweepkit()
        if tracer is not None:
            tracer.install()
            tracer.recording = True
        self.items = self.workload.build(self.sk, random.Random(f"{self.workload.name}:{self.seed}"))
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.recording = False
            tracer.uninstall()
        return elapsed

    def serve(self, seconds: float | None = None, rounds: int | None = None,
              tracer: Tracer | None = None) -> list[float]:
        """Whole rounds over the pool, until ``rounds`` or ``seconds`` of request time."""
        wl, sk = self.workload, self.sk
        latencies: list[float] = []
        done = 0
        while True:
            self.reference.append(reference_loop())
            for index, item in enumerate(self.items):
                if tracer is not None:
                    tracer.request = len(self.outcomes)
                    tracer.recording = True
                start = perf_counter()
                try:
                    output, error = wl.request(sk, item), None
                except Exception as exc:  # a failed request is counted, not fatal
                    output, error = None, f"request raised {type(exc).__name__}: {exc}"
                latencies.append(perf_counter() - start)
                if tracer is not None:
                    tracer.recording = False
                if error is None:
                    try:
                        error = wl.check(sk, index, item, output)
                        if error is None and index not in self.output_digests:
                            self.output_digests[index] = digest(wl.digest_values(output))
                    except Exception as exc:
                        error = f"check raised {type(exc).__name__}: {exc}"
                self.outcomes.append((index, error))
                del output
            done += 1
            if rounds is not None and done >= rounds:
                return latencies
            if seconds is not None and sum(latencies) >= seconds:
                return latencies

    def final_checks(self) -> None:
        """Heavier once-per-input checks; a failure fails every request on that input."""
        for index, item in enumerate(self.items):
            error = self.workload.final_check(self.sk, index, item)
            if error is None:
                continue
            self.outcomes = [
                (i, error if i == index and e is None else e) for i, e in self.outcomes
            ]

    def check_pins(self, write_pins: bool) -> list[str]:
        """Compare (or store) the digests of the pool's inputs and first outputs."""
        pin = {
            "inputs": input_digest(self.items),
            "outputs": [self.output_digests.get(i) for i in range(len(self.items))],
        }
        pins = json.loads(PINS.read_text()) if PINS.exists() else {"seed": PIN_SEED, "workloads": {}}
        if write_pins:
            pins["workloads"][self.workload.name] = pin
            PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
            return []
        if self.seed != PIN_SEED:
            return []
        expected = pins["workloads"].get(self.workload.name)
        if expected is None:
            return [f"no pinned digests for {self.workload.name}"]
        problems = []
        if pin["inputs"] != expected["inputs"]:
            problems.append("generated inputs differ from the pinned digest")
        differ = [
            i for i, (got, want) in enumerate(zip(pin["outputs"], expected["outputs"]))
            if got is not None and got != want
        ]
        if differ:
            problems.append(f"outputs of pool items {differ} differ from the pinned digests")
        return problems

    def failures(self) -> int:
        return sum(error is not None for _, error in self.outcomes)

    def report_first_failure(self) -> None:
        for request, (index, error) in enumerate(self.outcomes):
            if error is not None:
                print("counterexample " + json.dumps({
                    "workload": self.workload.name, "frame": list(self.items[index].frame),
                    "seed": self.seed, "request": request, "pool_item": index, "error": error,
                }))
                return


def reference_loop() -> float:
    """Time a fixed pure-Python loop, the yardstick of latency_best_ratio.

    It does integer arithmetic, then builds strings, tuples and a dict and
    sorts a list, as the workloads do.  On a shared host code that allocates
    slows more in a slow spell than plain arithmetic does, and a yardstick
    of either kind alone tracked some workloads worse than the two together.
    """
    start = perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    counts: dict[str, int] = {}
    words = []
    for i in range(3000):
        word = "NE"[i & 1] * (i % 13)
        words.append((i % 97, word))
        counts[word] = counts.get(word, 0) + i
    words.sort()
    "".join(word for _, word in words)
    return perf_counter() - start


def tail(latencies: list[float]):
    """Highest listed percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return None


def environment(run: Run, seconds: int, trace: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "sweepkit": run.sk.package.__version__,
        "workload": run.workload.name,
        "seed": run.seed,
        "seconds": seconds,
        "trace": trace,
        "pool_frames": [list(item.frame) for item in run.items],
    }


def requests_per_s(latencies: list[float]) -> float:
    return len(latencies) / sum(latencies)


def untraced_metrics(run: Run, seconds: int) -> tuple[dict, list[str]]:
    setups: list[float] = []
    latencies: list[float] = []
    while sum(latencies) < seconds or len(setups) < SETUP_MIN_REPS:
        if len(setups) < SETUP_MIN_REPS or sum(setups) <= SETUP_SHARE * sum(latencies):
            setups.append(run.set_up())
        latencies += run.serve(rounds=1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.final_checks()
    attempted, failed = len(run.outcomes), run.failures()
    pool = len(run.items)
    # serve() sends whole rounds, so request j went to pool item j % pool.
    best = statistics.fmean(min(latencies[i::pool]) for i in range(pool))
    metrics = {
        "latency_best_ratio": best / min(run.reference),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "passed_ratio": (attempted - failed) / attempted,
    }
    name = run.workload.name
    notes = [
        f"{name} latency_best_s {best:.6g} s (reference loop {min(run.reference):.6g} s)",
        f"{name} requests_per_s {(attempted - failed) / sum(latencies):.6g} 1/s",
        f"{name} latency_p50_s {statistics.median(latencies):.6g} s",
    ]
    found = tail(latencies)
    if found:
        p, value, beyond = found
        notes.append(f"{name} latency_tail_s {value:.6g} s "
                     f"(p{p:g}, {beyond} of {len(latencies)} samples beyond)")
    else:
        notes.append(f"{name} latency_tail_s omitted: {len(latencies)} requests, "
                     "too few for ten beyond any percentile")
    notes += [
        f"{name} failed_ratio {failed / attempted:.6g} ratio ({failed} of {attempted})",
        f"{name} requests {len(latencies)} over {pool} inputs in {sum(latencies):.4g} s",
        f"{name} setup_s is the median of {len(setups)} set-ups; "
        f"the fastest took {min(setups):.6g} s",
    ]
    return metrics, notes


def traced_metrics(run: Run, seconds: int) -> tuple[dict, list[str]]:
    tracer = Tracer()
    run.set_up(tracer)
    untraced = run.serve(seconds=seconds)
    first_traced = len(run.outcomes)
    tracer.install()
    try:
        traced = run.serve(rounds=run.workload.traced_rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    run.final_checks()
    metrics = {
        f"{fn}.{part}": value
        for fn, row in tracer.layer_totals().items() for part, value in row.items()
    }
    metrics["trace.rps_ratio"] = requests_per_s(traced) / requests_per_s(untraced)
    covered = tracer.top_level_time()
    metrics["trace.coverage"] = statistics.median(
        covered.get(first_traced + i, 0.0) / latency for i, latency in enumerate(traced)
    )
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans_{run.workload.name}_seed{run.seed}.jsonl"
    tracer.write(spans_file)
    name = run.workload.name
    notes = [
        f"{name} traced requests {len(traced)}, untraced {len(untraced)}",
        f"{name} {len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}",
    ]
    return metrics, notes


def run_workload(name: str, seed: int, seconds: int, trace: int, write_pins: bool) -> int:
    spec = load_spec()
    if not (SRC / "sweepkit" / "__init__.py").is_file():
        print(f"error: no sweepkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run = Run(WORKLOADS[name](), seed)
    metrics, notes = (traced_metrics if trace else untraced_metrics)(run, seconds)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    problems = run.check_pins(write_pins)
    for key, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} {key} {shown} {units[key]}")
    for note in notes:
        print(note)
    print("env " + json.dumps(environment(run, seconds, trace)))
    run.report_first_failure()
    for problem in problems:
        print(f"pin mismatch: {problem}")
    attempted, failed = len(run.outcomes), run.failures()
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int) -> int:
    """Each workload in its own fresh process, untraced then traced."""
    spec = load_spec()
    status = 0
    summary = []
    for workload in [w["name"] for w in spec["workloads"]]:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
            lines = proc.stdout.strip().splitlines()
            if lines and lines[-1].startswith("{"):
                results.update(json.loads(lines[-1])["metrics"])
        summary.append((workload, results))
    columns = [m["name"] for m in spec["end_to_end"]] + ["trace.rps_ratio"]
    print("\n" + " ".join(f"{c:>16}" for c in ["workload", *columns]))
    for workload, m in summary:
        cells = [f"{m[c]['value']:16.6g}" if c in m else f"{'-':>16}" for c in columns]
        print(" ".join([f"{workload:>16}", *cells]))
    return status


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="request time to measure (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help=f"store this run's input and output digests (seed {PIN_SEED} only)")
    args = parser.parse_args(argv)
    if args.write_pins and (args.seed != PIN_SEED or args.workload is None):
        parser.error(f"--write-pins needs --workload and --seed {PIN_SEED}")
    if args.workload is None:
        return run_all(args.seed)
    return run_workload(args.workload, args.seed, args.seconds, args.trace, args.write_pins)


if __name__ == "__main__":
    sys.exit(main())
