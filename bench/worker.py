"""Long-lived mayacal process for the benchmark, driven over stdin/stdout.

Run with the checkout's ``src`` on ``PYTHONPATH``.  The worker imports the
package and the CLI, prints ``{"ready": true}`` and then answers one JSON
line per request line:

* ``{"cmd": "days", "days": [...], "warm_up": n}`` runs the forward
  conversion and both round trips of each day and returns the fields,
  each encoded as a JSON string, and per-day latencies, after running its
  first ``n`` days once untimed;
* ``{"cmd": "cli", "argv": [...], "cap_s": s}`` runs ``mayacal.cli.main``
  in-process with output captured, stopped by SIGALRM after ``s`` seconds;
* ``{"cmd": "trace", "on": bool}`` installs or removes the span wrappers;
* ``{"cmd": "report", "spans_path": p}`` returns the span aggregates and
  writes the sampled spans to ``p``.

When its input ends it prints ``{"vm_hwm_kib": n}``, its own peak resident
set, and exits.  (Its ``ru_maxrss`` would report at least the peak of the
process that started it; see ``spawner.py``.)
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys
import time
import traceback

import mayacal
import mayacal.cli
from tracer import CapHit, Tracer

MODULES = [sys.modules[f"mayacal.{name}"] for name in
           ("arith", "checks", "cycles", "notation", "correlation", "supernumber", "lunar", "cli")]


def forward(d: int):
    """One day through cycles, correlation and notation, and back by parsing."""
    m = mayacal
    cd = m.cycle_date(d)
    corr = m.describe(d)
    expr = m.expression_from_day(d)
    plain = m.format_date(expr, "plain")
    annotated = m.format_date(expr, "annotated")
    back = []
    for text in (plain, annotated):
        try:
            back.append(list(m.resolution(m.parse(text), (d, d)).days))
        except ValueError as exc:
            back.append(f"{type(exc).__name__}: {exc}")
    return cd, corr, plain, annotated, back


def fields(cd, corr, plain, annotated, back) -> dict:
    return {
        "tzolkin": [cd.tzolkin.number, cd.tzolkin.name_index],
        "haab": [cd.haab.day, cd.haab.month_index],
        "kawil": [cd.kawil, cd.direction_color],
        "long_count": str(cd.long_count),
        "jdn": corr.jdn,
        "julian": [corr.julian.year, corr.julian.month, corr.julian.day],
        "gregorian": [corr.gregorian.year, corr.gregorian.month, corr.gregorian.day],
        "plain": plain,
        "annotated": annotated,
        "plain_back": back[0],
        "annotated_back": back[1],
    }


def run_days(days: list[int], warm_up: int, tracer: Tracer) -> dict:
    # The worker sat blocked on its pipe while the client checked the last
    # batch; the first days after that wake-up ran up to 2.5 times slower, a
    # cost of the harness that a library loop does not pay.  Run ``warm_up``
    # of the batch's days untimed first; an error is reported by the timed
    # run of the same day below.
    for d in days[:warm_up]:
        with contextlib.suppress(Exception):
            forward(d)
    # Each result is kept as a JSON string: holding its dict and lists until
    # the reply would add seven tracked objects a day, and the garbage
    # collections they trigger would land inside the timed days.
    results, latencies = [], []
    clock = time.perf_counter_ns
    for d in days:
        tracer.begin_op()
        t0 = clock()
        try:
            out = forward(d)
        except Exception as exc:  # reported to the oracle as a wrong answer
            latencies.append(clock() - t0)
            results.append(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
            continue
        latencies.append(clock() - t0)
        results.append(json.dumps(fields(*out)))
    return {"lat_ns": latencies, "results": results}


def _alarm(signum, frame):
    raise CapHit()


def run_cli(argv: list[str], cap_s: float, tracer: Tracer) -> dict:
    out, err = io.StringIO(), io.StringIO()
    tracer.begin_op()
    capped = False
    t0 = time.perf_counter_ns()
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = mayacal.cli.main(argv)
    except CapHit:
        capped, rc = True, None
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is reported like a non-zero exit of the CLI
        rc = 1
        err.write(traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter_ns() - t0
    return {"elapsed_ns": elapsed, "rc": rc, "out": out.getvalue(), "capped": capped}


def report(tracer: Tracer, spans_path: str) -> dict:
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(("op", "id", "parent", "name", "start_ns", "end_ns", "status"), span))))
            fh.write("\n")
    return {"stats": tracer.stats, "counts": tracer.counts}


def vm_hwm_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def main() -> None:
    signal.signal(signal.SIGALRM, _alarm)
    tracer = Tracer()
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        msg = json.loads(line)
        cmd = msg["cmd"]
        if cmd == "days":
            reply = run_days(msg["days"], msg.get("warm_up", 0), tracer)
        elif cmd == "cli":
            reply = run_cli(msg["argv"], msg["cap_s"], tracer)
        elif cmd == "trace":
            if msg["on"]:
                tracer.install(mayacal, MODULES)
            else:
                tracer.uninstall()
            reply = {}
        elif cmd == "report":
            reply = report(tracer, msg["spans_path"])
        else:
            raise ValueError(f"unknown request {cmd!r}")
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    print(json.dumps({"vm_hwm_kib": vm_hwm_kib()}), flush=True)


if __name__ == "__main__":
    main()
