"""One seeded pass of the benchmark's day-batch workload, in-process, against its oracle.

The benchmark's inputs, the worker's round trip and its independent oracle
(``bench/inputs.py``, ``bench/worker.py``, ``bench/oracle.py``) are used as
they are, so this fails when the library and the oracle disagree on any
day's cycles, civil dates, notation or round trip.  Nothing here is timed.
"""

import json
import random
from pathlib import Path

import pytest

BENCH = Path(__file__).parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import inputs
    import oracle
    import worker

    return inputs, oracle, worker


def test_day_batch_pass_agrees_with_oracle(bench):
    inputs, oracle, worker = bench
    days = inputs.day_batch(random.Random(1))
    verdicts = []
    for d in days:
        # Through JSON, as the worker sends each result to the oracle.
        result = json.loads(json.dumps(worker.fields(*worker.forward(d))))
        verdicts.append(oracle.check_day_result(d, result))
    assert [reason for verdict, reason in verdicts if verdict == oracle.WRONG] == []
    failed = [reason for verdict, reason in verdicts if verdict != oracle.OK]
    assert failed == []
