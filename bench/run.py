#!/usr/bin/env python3
"""mayacal benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 bench/run.py --workload paper-cli --seed 1 --seconds 25 --trace 0

Run from the root of a mayacal checkout; the benchmark runs that checkout's
``src`` (``python -m mayacal`` with ``src`` on ``PYTHONPATH``).  Standard
library only.  One closed-loop client sends each operation after the
previous one has finished and been checked by the oracle (``oracle.py``,
which imports nothing from mayacal).  A run repeats whole passes of its
seeded operations (``inputs.py``) until ``--seconds`` have elapsed, and at
least one pass.

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` runs the same passes in one worker process through
``mayacal.cli.main`` (or the library calls, for ``day-batch``) with span
wrappers installed (``tracer.py``), then one pass untraced, and reports the
per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object: ``correct`` (no output
contradicted the oracle), ``attempted``, ``failed`` (wrong outputs, wrong exit
codes, round trips that did not come back and calls stopped at the cap) and
``metrics``.  A record of the run, with the environment and every call that
hit the cap, is written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import oracle

BENCH = Path(__file__).resolve().parent
CAP_S = 8.0  # per-call cap for every CLI operation
SETUP_EVERY_S = 2.0  # a worker start-up at least this often; setup_s is their median
BATCH = 250  # days per day-batch request
WARM_UP = 10  # days a timed day-batch request runs untimed before timing
PROBE_ROUNDS = 5  # bare-interpreter, importtime and cold-call rounds in a traced run
# Coarse steps keep the chosen percentile fixed when a run makes one pass more
# or less; the ladder stops at p99 so that rare stalls of the machine, not the
# program, do not set the tail of microsecond operations.
TAIL_LADDER = (50, 60, 65, 70, 75, 80, 90, 99)
# A day costs the same to within a few percent whichever day it is, so above
# p90 the per-day latencies of day-batch are set by interruptions from the
# shared host: between runs on five seeds their p99 moved by up to a quarter
# while p50 moved by 6%.  Its ladder stops at p90.
TAIL_CEILING = {"day-batch": 90}
LAYERS = ("cli", "notation", "cycles", "correlation", "arith", "lunar", "supernumber")
IMPORT_MODULES = ("mayacal", "mayacal.arith", "mayacal.checks", "mayacal.cycles", "mayacal.notation",
                  "mayacal.correlation", "mayacal.supernumber", "mayacal.lunar", "mayacal.cli")


class Checkout:
    """The mayacal source tree under test, the environment to run it in and a
    ``spawner.py`` process that starts its cold calls."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        if not (self.src / "mayacal" / "cli.py").is_file():
            raise SystemExit(f"bench: no mayacal source tree at {self.src}")
        env = {k: v for k, v in os.environ.items() if k != "MAYACAL_FORMAT"}
        env["PYTHONPATH"] = str(self.src)
        self.env = env
        self.out = BENCH / "out"
        self.out.mkdir(exist_ok=True)
        self.spawner = self.popen([str(BENCH / "spawner.py")], stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, text=True)

    def popen(self, args: list[str], **kwargs) -> subprocess.Popen:
        return subprocess.Popen([sys.executable, *args], env=self.env, cwd=self.root, **kwargs)

    def run(self, args: list[str], cap_s: float) -> dict:
        """Run one cold process through the spawner; it is killed at the cap.

        Its output goes to files, so a large envelope never fills a pipe."""
        out, err = self.out / "child.out", self.out / "child.err"
        self.spawner.stdin.write(json.dumps({"args": args, "cap_s": cap_s, "out": str(out), "err": str(err)}) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise SystemExit("bench: the spawner exited")
        res = json.loads(line)
        res["out"] = out.read_bytes().decode("utf-8", "replace")
        res["err"] = err.read_bytes().decode("utf-8", "replace")
        return res

    def close(self) -> None:
        """End the spawner's input and wait for it to exit."""
        try:
            self.spawner.stdin.close()
        except BrokenPipeError:  # it has already exited
            pass
        self.spawner.wait()
        self.spawner.stdout.close()


class Worker:
    """A ``worker.py`` process; ``start_s`` is its time from spawn to ready."""

    def __init__(self, checkout: Checkout):
        t0 = time.perf_counter()
        self.proc = checkout.popen([str(BENCH / "worker.py")], stdin=subprocess.PIPE,
                                   stdout=subprocess.PIPE, text=True)
        ready = json.loads(self.proc.stdout.readline() or "{}")
        self.start_s = time.perf_counter() - t0
        if not ready.get("ready"):
            self.close()
            raise SystemExit("bench: worker did not start")

    def ask(self, **msg) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise SystemExit(f"bench: worker exited during {msg['cmd']!r}")
        return json.loads(line)

    def close(self) -> int:
        """End the worker's input, wait for it to exit and return its peak RSS in KiB,
        as it reports it (0 if it exited without reporting)."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:  # it has already exited
            pass
        last = self.proc.stdout.readline()
        self.proc.wait()
        self.proc.stdout.close()
        return json.loads(last)["vm_hwm_kib"] if last else 0


class Setup:
    """Worker start-ups spread over a run, so their median spans its length."""

    def __init__(self, checkout: Checkout):
        self.checkout = checkout
        self.times: list[float] = []
        self.last = -math.inf

    def due(self) -> bool:
        return time.perf_counter() - self.last >= SETUP_EVERY_S

    def start(self) -> Worker:
        worker = Worker(self.checkout)
        self.times.append(worker.start_s)
        self.last = time.perf_counter()
        return worker


# --- statistics ---------------------------------------------------------------------

def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def tail_percentile(n: int, ceiling: float = 100) -> float:
    """Highest ladder percentile up to ``ceiling`` with at least ten samples beyond it."""
    return max((p for p in TAIL_LADDER if p <= ceiling and n * (1 - p / 100) >= 10), default=TAIL_LADDER[0])


class Tally:
    """Outcomes of the operations of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: dict[str, int] = {}
        self.cap_hits: list[dict] = []

    def add(self, verdict: str, reason: str) -> None:
        self.attempted += 1
        if verdict != oracle.OK:
            self.failed += 1
            self.wrong += verdict == oracle.WRONG
            key = f"{verdict}: {reason}"[:160]
            self.reasons[key] = self.reasons.get(key, 0) + 1

    def add_cli(self, spec: dict, rc: int | None, out: str, capped: bool, elapsed_s: float) -> None:
        self.add(*oracle.check_cli(spec, rc, out, capped))
        if capped:
            self.cap_hits.append({"argv": spec["argv"], "elapsed_s": elapsed_s})


def latency_metrics(lat_s: list[float], pass_s: list[float], tally: Tally,
                    ceiling: float = 100) -> tuple[dict, dict]:
    pct = tail_percentile(len(lat_s), ceiling)
    per_pass = len(lat_s) // len(pass_s)
    return {
        "latency_ms.p50": (statistics.median(lat_s) * 1e3, "ms"),
        "latency_ms.tail": (nearest_rank(lat_s, pct) * 1e3, "ms"),
        "ops_per_s": (statistics.median(per_pass / busy for busy in pass_s), "1/s"),
        "success_frac": (1 - tally.failed / tally.attempted, "fraction"),
    }, {"tail_percentile": pct, "samples": len(lat_s), "passes": len(pass_s)}


# --- timed runs (trace 0) ---------------------------------------------------------------

def timed_cli(checkout: Checkout, setup: Setup, ops: list[dict], seconds: float,
              tally: Tally) -> tuple[list[float], list[float], int, dict]:
    """Cold calls; returns latencies, busy seconds per pass, the peak RSS in KiB
    and each call's latencies."""
    latencies, pass_s, peak, per_call = [], [], 0, {}
    deadline = time.perf_counter() + seconds
    while not pass_s or time.perf_counter() < deadline:
        busy = 0.0
        for spec in ops:
            if setup.due():
                setup.start().close()
            res = checkout.run(["-m", "mayacal", "--format", spec["fmt"], *spec["argv"]], CAP_S)
            tally.add_cli(spec, res["rc"], res["out"], res["capped"], res["elapsed_s"])
            latencies.append(CAP_S if res["capped"] else res["elapsed_s"])
            per_call.setdefault(" ".join([spec["fmt"], *spec["argv"]]), []).append(latencies[-1])
            busy += latencies[-1]
            peak = max(peak, res["maxrss_kib"])
        pass_s.append(busy)
    return latencies, pass_s, peak, per_call


def run_batch(worker: Worker, days: list[int], tally: Tally, warm_up: int = 0) -> dict:
    reply = worker.ask(cmd="days", days=days, warm_up=warm_up)
    for d, result in zip(days, reply["results"], strict=True):
        tally.add(*oracle.check_day_result(d, json.loads(result)))
    return reply


def timed_days(setup: Setup, days: list[int], seconds: float,
               tally: Tally) -> tuple[list[float], list[float], int]:
    """Batches in a worker, replaced by a fresh one as start-ups fall due."""
    latencies, pass_s, peak = [], [], 0
    worker = None
    try:
        deadline = time.perf_counter() + seconds
        while not pass_s or time.perf_counter() < deadline:
            busy_ns = 0
            for i in range(0, len(days), BATCH):
                if setup.due():
                    if worker is not None:
                        peak = max(peak, worker.close())
                    worker = None
                    worker = setup.start()
                reply = run_batch(worker, days[i:i + BATCH], tally, WARM_UP)
                latencies += [ns / 1e9 for ns in reply["lat_ns"]]
                busy_ns += sum(reply["lat_ns"])
            pass_s.append(busy_ns / 1e9)
    finally:
        if worker is not None:
            peak = max(peak, worker.close())
    return latencies, pass_s, peak


# --- traced runs (trace 1) --------------------------------------------------------------

_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)")


def importtime(checkout: Checkout, code: str) -> list[tuple[int, int, int, str]]:
    """(self_us, cumulative_us, depth, module) per line of ``-X importtime``."""
    res = checkout.run(["-X", "importtime", "-c", code], 60)
    if res["rc"] != 0:
        raise SystemExit(f"bench: importing failed: {res['err'][-500:]}")
    return [(int(m[1]), int(m[2]), len(m[3]), m[4]) for m in _IMPORT_LINE.finditer(res["err"])]


def startup_probe(checkout: Checkout, calls: list[dict]) -> tuple[dict, float]:
    """Bare interpreter, the import tree of ``mayacal.cli`` and a cold paper-cli
    call, interleaved; returns the metrics and the cold calls' median seconds."""
    startup = {name for *_, name in importtime(checkout, "pass")}
    interp, cold, totals, selfs = [], [], [], {m: [] for m in IMPORT_MODULES}
    for spec in calls[:PROBE_ROUNDS]:
        interp.append(checkout.run(["-c", "pass"], 60)["elapsed_s"])
        cold.append(checkout.run(["-m", "mayacal", "--format", spec["fmt"], *spec["argv"]], CAP_S)["elapsed_s"])
        rows = importtime(checkout, "import mayacal.cli")
        top = min(depth for _, _, depth, _ in rows)
        totals.append(sum(cum for _, cum, depth, name in rows if depth == top and name not in startup))
        found = {name: own for own, _, _, name in rows}
        for m in IMPORT_MODULES:
            selfs[m].append(found.get(m, 0))
    metrics = {
        "startup.interp_ms": statistics.median(interp) * 1e3,
        "import.total_ms": statistics.median(totals) / 1e3,
    }
    for m in IMPORT_MODULES:
        metrics[f"import.self_ms.{m}"] = statistics.median(selfs[m]) / 1e3
    own = sum(metrics[f"import.self_ms.{m}"] for m in IMPORT_MODULES)
    metrics["import.stdlib_ms"] = metrics["import.total_ms"] - own
    return metrics, statistics.median(cold)


def traced_pass(worker: Worker, workload: str, ops: list, tally: Tally) -> tuple[list[float], list[bool]]:
    """One pass in the worker; returns each op's seconds and whether it hit the cap."""
    if workload == "day-batch":
        seconds = []
        for i in range(0, len(ops), BATCH):
            reply = run_batch(worker, ops[i:i + BATCH], tally)
            seconds += [ns / 1e9 for ns in reply["lat_ns"]]
        return seconds, [False] * len(ops)
    seconds, capped = [], []
    for spec in ops:
        reply = worker.ask(cmd="cli", argv=["--format", spec["fmt"], *spec["argv"]], cap_s=CAP_S)
        tally.add_cli(spec, reply["rc"], reply["out"], reply["capped"], reply["elapsed_ns"] / 1e9)
        seconds.append(reply["elapsed_ns"] / 1e9)
        capped.append(reply["capped"])
    return seconds, capped


def layer_metrics(report: dict, passes: int, ops_per_pass: int) -> dict:
    stats, counts = report["stats"], report["counts"]

    def calls(name):
        return stats.get(name, [0])[0]

    def mean(names, scale, field=1):
        n = sum(calls(x) for x in names)
        return sum(stats[x][field] for x in names if x in stats) / n / scale if n else 0.0

    def layer_sum(layer, field):
        return sum(s[field] for name, s in stats.items() if name.split(".")[0] == layer)

    renders = ("cli.OutputEnvelope.to_json", "cli.OutputEnvelope.to_text")
    metrics = {
        "cli.build_parser_ms": mean(["cli.build_parser"], 1e6),
        "cli.main_self_ms": mean(["cli.main"], 1e6, field=2),
        "cli.render_ms": mean(renders, 1e6),
        "cli.render_bytes": mean(renders, 1, field=4),
        "notation.parse_us": mean(["notation.parse"], 1e3),
        "notation.format_us": mean(["notation.format_date"], 1e3),
        "notation.resolution_ms": mean(["notation.resolution"], 1e6),
        "notation.cycle_date_calls_per_hit":
            counts["resolution_cycle_date"] / counts["resolution_hits"] if counts["resolution_hits"] else 0.0,
        "cycles.cycle_date_us": mean(["cycles.cycle_date"], 1e3),
        "cycles.cycle_date_calls": calls("cycles.cycle_date") / passes,
        "correlation.describe_us": mean(["correlation.describe"], 1e3),
        "correlation.describe_calls": calls("correlation.describe") / passes,
        "arith.factorize_ms": mean(["arith.factorize"], 1e6),
        "arith.factorize_calls": calls("arith.factorize") / passes,
        "arith.lcm_many_calls": calls("arith.lcm_many") / passes,
        "lunar.search_ms": mean(["lunar.search"], 1e6),
        "lunar.candidates_built": counts["candidates_built"] / passes,
        "lunar.kept_per_built": counts["search_kept"] / counts["search_built"] if counts["search_built"] else 0.0,
        "supernumber.self_ms": layer_sum("supernumber", 2) / 1e6 / (passes * ops_per_pass),
        "supernumber.calls": layer_sum("supernumber", 0) / passes,
    }
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = layer_sum(layer, 3) / passes
    return metrics


def traced_run(checkout: Checkout, worker: Worker, workload: str, ops: list, seconds: float,
               tally: Tally, tag: str) -> tuple[dict, dict]:
    metrics, cold_s = startup_probe(checkout, inputs.paper_cli(random.Random(0)))
    deadline = time.perf_counter() + seconds
    passes, capped = [], [False] * len(ops)
    worker.ask(cmd="trace", on=True)
    while not passes or time.perf_counter() < deadline:
        times, hit = traced_pass(worker, workload, ops, tally)
        passes.append(times)
        capped = [a or b for a, b in zip(capped, hit)]
    report = worker.ask(cmd="report", spans_path=str(checkout.out / f"spans-{tag}.jsonl"))
    worker.ask(cmd="trace", on=False)
    # Overhead: the same operations untraced, leaving out those stopped at the cap.
    kept = [i for i, hit in enumerate(capped) if not hit]
    untraced, _ = traced_pass(worker, workload, [ops[i] for i in kept], Tally())
    traced = statistics.median(sum(times[i] for i in kept) for times in passes)
    metrics.update(layer_metrics(report, len(passes), len(ops)))
    metrics["trace.overhead_pct"] = (traced / sum(untraced) - 1) * 100
    return metrics, {"traced_passes": len(passes), "overhead_ops": len(kept), "probe_cold_cli_ms": cold_s * 1e3}


# --- the run ------------------------------------------------------------------------------

def environment(checkout: Checkout) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((checkout.src / "mayacal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "commit": git_commit(checkout.root),
        "src_sha256": digest.hexdigest(),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Checkout(Path.cwd())
    try:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                  "cap_s": CAP_S, "environment": environment(checkout), "loadavg_before": loadavg()}
        ops = inputs.WORKLOADS[args.workload](random.Random(args.seed))
        tally = Tally()
        if args.trace:
            worker = Worker(checkout)
            try:
                tag = f"{args.workload}-seed{args.seed}"
                metrics, info = traced_run(checkout, worker, args.workload, ops, args.seconds, tally, tag)
            finally:
                worker.close()
            record.update(info)
            units = {}
        else:
            setup = Setup(checkout)
            if args.workload == "day-batch":
                latencies, pass_s, peak_kib = timed_days(setup, ops, args.seconds, tally)
            else:
                latencies, pass_s, peak_kib, per_call = timed_cli(checkout, setup, ops, args.seconds, tally)
                record["median_ms_per_call"] = {k: statistics.median(v) * 1e3 for k, v in per_call.items()}
            values, info = latency_metrics(latencies, pass_s, tally, TAIL_CEILING.get(args.workload, 100))
            values["peak_rss_mib"] = (peak_kib / 1024, "MiB")
            values["setup_s"] = (statistics.median(setup.times), "s")
            record.update(info, setup_times_s=setup.times)
            metrics = {k: v for k, (v, _) in values.items()}
            units = {k: u for k, (_, u) in values.items()}
    finally:
        checkout.close()

    record.update({
        "loadavg_after": loadavg(),
        "ops_per_pass": len(ops),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_frac": tally.failed / tally.attempted,
        "wrong": tally.wrong,
        "failure_reasons": tally.reasons,
        "cap_hits": tally.cap_hits,
        "metrics": metrics,
    })
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (checkout.out / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"bench: {args.workload} seed {args.seed}: {tally.attempted} ops, {tally.failed} failed, "
          f"{len(tally.cap_hits)} at the cap; record in bench/out/{name}", file=sys.stderr)

    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units.get(k, unit_of(k))} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("per_hit") or name.endswith("per_built"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
