#!/usr/bin/env python3
"""Benchmark of ncjets: four workloads, end-to-end metrics, and a traced per-layer run.

Run one workload from the repository root:

    python3 benchmarks/run.py --workload catalog-cli --seed 1 --seconds 22 --trace 0

Each run sets up its inputs eleven times (fresh import of ncjets each
time) and reports the median set-up time, then runs passes over the
workload's query list for about --seconds, one query at a time in this
single-threaded process, and checks every answer after its pass.  A
fixed reference loop (reference.py) runs once after each set-up and
between queries for about a seventh of the query time.  wall_norm_s is
the mean untraced pass and setup_s the median set-up, each multiplied by
the reference's nominal time over its mean time in those passes or after
the set-ups, so that the machine's own speed swings cancel.  The raw
medians, wall_s and setup_raw_s, are printed beside them.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics
of the traced ones plus the tracing overhead.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.

    python3 benchmarks/run.py --workload all --seed 1 --seconds 22 [--out BENCH_label.json]

runs every workload in its own process, untraced and then traced, and
prints every metric with its unit.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import importlib
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 11
_NCJETS_MODULES = ("linalg", "algebra", "modules", "diffop", "jets", "documents", "catalog", "cli")

END_TO_END = [
    ("setup_s", "s"),
    ("wall_norm_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
]
# Printed with every run but left out of the result line: on a shared
# machine these raw times spread more across seeds than the bounds
# BENCHMARK.json may set (see README.md).
LATENCY = [
    ("setup_raw_s", "s"),
    ("wall_s", "s"),
    ("ref_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("query_max_s", "s"),
]
TRACE_EXTRA = [
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]


def fresh_import() -> SimpleNamespace:
    """Import ncjets (and the generators built on it) from this checkout's src, afresh."""
    for name in list(sys.modules):
        if name == "ncjets" or name.startswith("ncjets.") or name == "generators":
            del sys.modules[name]
    pkg = importlib.import_module("ncjets")
    if Path(pkg.__file__).resolve().parent != (SRC / "ncjets").resolve():
        raise RuntimeError(f"ncjets imported from {pkg.__file__}, not from {SRC}")
    nc = SimpleNamespace(**{m: importlib.import_module(f"ncjets.{m}") for m in _NCJETS_MODULES})
    nc.gen = importlib.import_module("generators")
    return nc


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str:
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
    return "unknown (not a git checkout)"


class Checker:
    """Compares each answer with its pinned value; counts attempts and failures."""

    def __init__(self, pinned: dict, seed: int, label: str):
        self.pinned = pinned
        self.seed = seed
        self.label = label
        self.digests: dict[str, str] = {}
        self.bad: set[str] = set()
        self.attempted = 0
        self.failed = 0

    def check(self, case, out, err) -> bool:
        self.attempted += 1
        problem = err.strip().splitlines()[-1] if err else None
        if problem is None:
            problem = self._compare(case, out)
        if problem is not None:
            self.failed += 1
            if case.id not in self.bad:
                print(f"[{self.label}] {case.id}: {problem}", file=sys.stderr)
            self.bad.add(case.id)
        return problem is None

    def _compare(self, case, out):
        answer, blob = case.summarize(out)
        answer = json.loads(json.dumps(answer))
        digest = hashlib.sha256(blob.encode()).hexdigest()
        want = self.pinned.get(case.id)
        if want is None:
            return "no pinned answer"
        if answer != want["answer"]:
            return f"answer {answer} differs from pinned {want['answer']}"
        if self.seed == 0 and "digest" in want and digest != want["digest"]:
            return "report digest differs from the pinned seed-0 digest"
        if self.digests.setdefault(case.id, digest) != digest:
            return "report bytes differ from an earlier pass (traced or untraced)"
        return None


def run_pass(nc, order, log=None):
    """One closed-loop pass: each query starts when the previous one returned.

    After each query, and never inside one, the reference loop runs until
    its time adds up to REF_SHARE of the query time so far, so its samples
    cover the pass evenly.  The pass's wall time is the sum of its query
    latencies, so it leaves the reference out.
    """
    uninstall = tracing.install(nc, log) if log is not None else None
    latencies, results, refs = [], [], []
    try:
        for case in order:
            t0 = perf_counter()
            try:
                out, err = case.call(), None
            except Exception:  # a failed query is counted, never fatal
                out, err = None, traceback.format_exc()
            latencies.append(perf_counter() - t0)
            results.append((out, err))
            while sum(refs) < reference.REF_SHARE * sum(latencies):
                refs.append(reference.time_reference())
    finally:
        if uninstall is not None:
            uninstall()
    return sum(latencies), latencies, results, refs


def run_workload(args) -> dict:
    wl = workloads.WORKLOADS[args.workload]
    pinned = json.loads((HERE / "expected.json").read_text())[wl.name]
    env = environment(args.seed)
    workdir = HERE / f".work-{os.getpid()}" if wl.uses_files else None
    home = Path.cwd()
    if workdir is not None:
        workdir.mkdir()
    try:
        setup_times, setup_refs = [], []
        for _ in range(SETUPS):
            gc.collect()
            t0 = perf_counter()
            nc = fresh_import()
            cases, probes = wl.build(nc, args.seed, workdir)
            setup_times.append(perf_counter() - t0)
            setup_refs.append(reference.time_reference())
        if workdir is not None:
            os.chdir(workdir)  # CLI reports echo the file names, so keep them relative
        order = list(cases)
        if args.seed:
            random.Random(args.seed).shuffle(order)
        checker = Checker(pinned["cases"], args.seed, wl.name)
        passes, rounds = [], []
        start = perf_counter()
        while True:
            t_round = perf_counter()
            traced = bool(args.trace) and len(passes) % 2 == 1
            log = tracing.SpanLog() if traced else None
            gc.collect()
            wall, latencies, results, refs = run_pass(nc, order, log)
            for case, (out, err) in zip(order, results):
                checker.check(case, out, err)
            del results
            passes.append(
                {"traced": traced, "wall": wall, "latencies": latencies, "log": log, "refs": refs}
            )
            rounds.append(perf_counter() - t_round)
            have_traced = not args.trace or any(p["traced"] for p in passes)
            # Stop before a round that would end past --seconds, so runs last --seconds.
            if have_traced and perf_counter() - start + max(rounds[-2:]) > args.seconds:
                break
        probe_checker = Checker(pinned.get("probes", {}), args.seed, wl.name + " probe")
        for probe in probes:
            _, _, [(out, err)], _ = run_pass(nc, [probe])
            probe_checker.check(probe, out, err)
    finally:
        os.chdir(home)
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    lat = [x for p in plain for x in p["latencies"]]
    ok_cases = len(cases) - len(checker.bad) + len(probes) - len(probe_checker.bad)
    wall = statistics.median(p["wall"] for p in plain)
    setup = statistics.median(setup_times)
    refs = [r for p in plain for r in p["refs"]]
    # Means, not medians: the reference samples are short and many, and the
    # mean of each side weighs the machine's slow and fast spells alike.
    nominal = reference.REF_NOMINAL_S
    e2e = {
        "setup_s": setup * nominal / statistics.fmean(setup_refs),
        "wall_norm_s": statistics.fmean(p["wall"] for p in plain) * nominal / statistics.fmean(refs),
        "setup_raw_s": setup,
        "wall_s": wall,
        "ref_s": statistics.median(refs),
        "query_p50_ms": 1000 * statistics.median(lat),
        "query_p90_ms": 1000 * (statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]),
        "query_max_s": statistics.median(max(p["latencies"]) for p in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": ok_cases / (len(cases) + len(probes)),
    }
    record = {
        "workload": wl.name,
        "why": wl.why,
        "env": env,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_times_s": setup_times,
        "pass_walls_s": [p["wall"] for p in passes],
        "pass_traced": [p["traced"] for p in passes],
        "ref_samples": len(refs),
        "pass_refs_s": [p["refs"] for p in passes],
        "pass_latencies_s": [p["latencies"] for p in passes],
        "queries": len(cases),
        "query_samples": len(lat),
        "probes": len(probes),
        "probes_failed": sorted(probe_checker.bad),
        "end_to_end": {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END},
        "latency": {k: {"value": e2e[k], "unit": u} for k, u in LATENCY},
        "case_median_s": {
            case.id: statistics.median(p["latencies"][i] for p in plain)
            for i, case in enumerate(order)
        },
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
    }
    if args.trace:
        logs = [p["log"] for p in passes if p["traced"]]
        traced_wall = statistics.median(p["wall"] for p in passes if p["traced"])
        layers = tracing.per_layer_metrics([tracing.aggregate(log) for log in logs])
        layers["trace.overhead_s"] = {"value": traced_wall - e2e["wall_s"], "unit": "s"}
        layers["trace.spans"] = {"value": sum(map(len, logs)) / len(logs), "unit": "count"}
        record["per_layer"] = layers
        record["spans_last_traced_pass"] = logs[-1].rows() if args.out else None
    return record


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_record(record: dict):
    env = record["env"]
    print(f"# workload {record['workload']}: {record['why']}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    walls = " ".join(
        f"{w:.3f}{'t' if t else ''}" for w, t in zip(record["pass_walls_s"], record["pass_traced"])
    )
    print(
        f"# {len(record['pass_walls_s'])} passes of {record['queries']} queries "
        f"({record['query_samples']} untraced query samples; pass walls s, t = traced: {walls}), "
        f"{len(record['setup_times_s'])} set-ups, "
        f"{record['ref_samples']} reference samples, "
        f"{record['probes']} untimed probes ({len(record['probes_failed'])} failed)"
    )
    for name, m in record["end_to_end"].items():
        print(f"{name:28s} {_fmt(m['value']):>14s} {m['unit']}")
    for name, m in record["latency"].items():
        print(f"{name:28s} {_fmt(m['value']):>14s} {m['unit']}  (printed only)")
    if "per_layer" in record:
        layers = record["per_layer"]
        for name, m in layers.items():
            print(f"{name:40s} {_fmt(m['value']):>14s} {m['unit']}")
    print(f"# correct={record['correct']} attempted={record['attempted']} failed={record['failed']}")


def result_line(record: dict) -> dict:
    if record["trace"]:
        wanted = tracing.metric_names() + TRACE_EXTRA
        metrics = {k: record["per_layer"][k] for k, _ in wanted}
    else:
        metrics = record["end_to_end"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload in a fresh process, untraced then traced."""
    combined = {"env": environment(args.seed), "seconds": args.seconds, "workloads": {}}
    ok, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"# {name} trace={trace}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            combined["workloads"].setdefault(name, {})["trace" if trace else "plain"] = result
            ok &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            if not trace:
                metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    if args.out:
        Path(args.out).write_text(json.dumps(combined, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record (JSON) to this file")
    args = parser.parse_args(argv)
    if args.out:
        args.out = str(Path(args.out).resolve())
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args)
    print_record(record)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result_line(record)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
