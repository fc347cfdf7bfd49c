"""Benchmark of erasurelab: codec, Monte-Carlo loss and repair-planning workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload codec_blocks --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all           # every workload, one after another
    python3 perfbench/run.py --manifest               # rewrite BENCHMARK.json

The package is imported from ./src, never from an installed copy; without it
the benchmark exits with status 2 and prints no result. With --trace 0 the
last line of output is a JSON object with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run, whose rounds
alternate with untraced ones. The lines before it list each workload's own
metrics with units and sample counts, and a `record` line with the git
commit, a hash of the source, nproc, Python and numpy versions and the seed.
See perfbench/README.md for what each workload and metric is for.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_INTERVAL_S = 0.25
RUN_SECONDS = 30
WORKLOAD_NAMES = ("codec_blocks", "mc_loss", "plan_repair")
END_TO_END = (
    {"name": "round_rel", "unit": "ref", "better": "lower", "bound": 0.2},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_MB", "unit": "MB", "better": "lower", "bound": 0.1},
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--manifest", action="store_true",
                    help="write BENCHMARK.json from the definitions here and exit")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must be in [0, 2**63)")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_package() -> float:
    """Import erasurelab and its CLI from ./src; return the seconds taken."""
    src = ROOT / "src"
    if not (src / "erasurelab" / "__init__.py").is_file():
        print(f"error: {src}/erasurelab not found; run from a checkout of the repository",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import erasurelab.cli  # noqa: F401  (the CLI start-up cost is part of set-up)
    return time.perf_counter() - t0


def time_reimport() -> float:
    """Seconds to import erasurelab.cli once more, from scratch. Dependencies
    such as numpy and click stay loaded, so this is the package's own import
    work. The fresh modules are thrown away and the loaded ones put back, so
    everything already imported keeps working with the same objects."""
    loaded = {name: module for name, module in sys.modules.items()
              if name == "erasurelab" or name.startswith("erasurelab.")}
    for name in loaded:
        del sys.modules[name]
    t0 = time.perf_counter()
    import erasurelab.cli  # noqa: F401
    seconds = time.perf_counter() - t0
    for name in [m for m in sys.modules if m == "erasurelab" or m.startswith("erasurelab.")]:
        del sys.modules[name]
    sys.modules.update(loaded)
    return seconds


class SetupTimer:
    """Times set-up, the package import plus the workload's set-up on a fresh
    instance, again and again while the run lasts: once per SETUP_INTERVAL_S,
    between rounds. The machine's speed changes within a second; the
    shortest of many samples spread over the run is set-up at the machine's
    full speed, which one sample or a burst of them often misses. The
    collector is frozen during a sample, so that, as in a fresh process, it
    sees only the objects set-up makes and not the heap the rounds have
    left."""

    def __init__(self, make_workload):
        self.make_workload = make_workload
        self.imports: list[float] = []
        self.totals: list[float] = []
        self.parts: list[dict[str, float]] = []
        self.last = time.perf_counter()

    def sample(self, workload=None) -> None:
        gc.freeze()
        try:
            self.imports.append(time_reimport())
            t0 = time.perf_counter()
            self.parts.append((workload or self.make_workload()).setup())
            self.totals.append(time.perf_counter() - t0)
        finally:
            gc.unfreeze()
        # the thrown-away modules and workload hold reference cycles; free
        # them now, or they pile up in the oldest generation between samples
        gc.collect()
        self.last = time.perf_counter()

    def catch_up(self) -> None:
        for _ in range(int((time.perf_counter() - self.last) / SETUP_INTERVAL_S)):
            self.sample()


def git_sha() -> str | None:
    """Commit of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure(workload, seconds: float, tracer, setup_timer):
    """Repeat rounds until `seconds` have passed. With a tracer, rounds
    alternate untraced and traced, starting untraced, and at least one of
    each runs. Returns, for untraced and traced rounds, each round's list of
    call times in nanoseconds."""
    import tracing

    times = {False: [], True: []}
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(times[True]) < len(times[False])
        if traced:
            tracing.install(tracer)
        try:
            times[traced].append(workload.run_round(tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        setup_timer.catch_up()
        if time.perf_counter() - start >= seconds and (tracer is None or times[True]):
            return times


def per_layer(workload, tracer, times, setup):
    import layers
    import tracing
    import workloads

    rounds = len(times[True])
    phases = {tracer.name_id(p) for p in layers.MC_PHASES}
    lookups = sum(n for phase, n in tracer.lookups if phase in phases) / rounds
    overhead = (sum(workloads.typical_call_seconds(workload.labels, times[True]).values())
                / sum(workloads.typical_call_seconds(workload.labels, times[False]).values())
                - 1.0)
    view = layers.LayerView(tracing.SpanTable(tracer), rounds)
    return layers.layer_metrics(view, workload.layer_context(), lookups, setup, overhead)


def run_workload(args) -> None:
    cold_import_s = import_package()
    import reference
    import tracing
    import workloads

    def make_workload():
        return workloads.WORKLOADS[args.workload](args.seed)

    workload = make_workload()
    setup_timer = SetupTimer(make_workload)
    setup_timer.sample(workload)
    tracer = tracing.Tracer() if args.trace else None
    sampler = reference.Sampler(workload.reference_work)
    workload.between_calls = sampler
    times = measure(workload, args.seconds, tracer, setup_timer)

    parts = setup_timer.parts
    setup = {part: min(p[part] for p in parts) for part in parts[0]}
    setup["import_s"] = min(setup_timer.imports)
    setup["cold_import_s"] = cold_import_s
    setup_s = setup["import_s"] + min(setup_timer.totals)
    rounds = times[False]
    call_s = workloads.typical_call_seconds(workload.labels, rounds)
    round_s = sum(call_s.values())
    reference_s = workloads.trimmed_mean(sampler.samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ratio = workload.failed / workload.attempted

    import numpy

    named = {} if args.trace else {name: (value, unit, len(rounds)) for name, (value, unit)
                                   in workload.named_metrics(call_s).items()}
    named["round_s"] = (round_s, "s", len(rounds))
    named["reference_s"] = (reference_s, "s", len(sampler.samples))
    named["round_rel"] = (round_s / reference_s, "ref", len(rounds))
    named["setup_s"] = (setup_s, "s", len(parts))
    named["peak_rss_MB"] = (peak_rss_mb, "MB", 1)
    named["failed_ops_ratio"] = (ratio, "ratio", workload.attempted)
    print(f"workload {workload.name} seed {args.seed}: {len(rounds)} untraced and "
          f"{len(times[True])} traced rounds, {workload.attempted} checks, "
          f"{workload.failed} failed")
    for name, (value, unit, samples) in named.items():
        print(f"  {name:32s} {value:14.6g} {unit:6s} (n={samples})")
    for message in workload.failures:
        print(f"check failed: {message}", file=sys.stderr)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "source_sha256": source_sha256(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "untraced_rounds": len(rounds),
        "traced_rounds": len(times[True]),
        "named": {n: {"value": v, "unit": u, "samples": s} for n, (v, u, s) in named.items()},
    }
    print("record " + json.dumps(record))

    if args.trace:
        metrics = per_layer(workload, tracer, times, setup)
    else:
        metrics = {"round_rel": (round_s / reference_s, "ref"),
                   "setup_s": (setup_s, "s"), "peak_rss_MB": (peak_rss_mb, "MB")}
    print(json.dumps({"correct": workload.failed == 0, "attempted": workload.attempted,
                      "failed": workload.failed,
                      "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}))


def run_all(args) -> None:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    metrics = {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))


def write_manifest() -> None:
    import_package()
    import layers
    import tracing
    import workloads

    empty = layers.LayerView(tracing.SpanTable(tracing.Tracer()), 1)
    names = layers.layer_metrics(empty, {}, 0.0, dict.fromkeys(layers.SETUP_PARTS, 0.0), 0.0)
    manifest = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": workloads.WORKLOADS[n].why} for n in WORKLOAD_NAMES],
        "end_to_end": list(END_TO_END),
        "per_layer": [{"name": n, "unit": u, "better": _better(n)} for n, (_, u) in names.items()],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _better(name: str) -> str:
    """Times, call counts and overhead are better lower; rates, ratios of
    useful work and throughput better higher."""
    higher = ("per_s", "ratio", "speedup")
    lower_ratios = ("oracle_calls_per_pattern_round", "overhead_ratio")
    if any(tag in name for tag in lower_ratios):
        return "lower"
    return "higher" if any(tag in name for tag in higher) else "lower"


def main(argv=None) -> None:
    args = parse_args(argv)
    if args.manifest:
        write_manifest()
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
