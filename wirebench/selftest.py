"""Toy-scale self-test of the benchmark.

    python3 wirebench/selftest.py

Runs every workload ``run.py`` defines at a tiny key count, untraced and
traced, and asserts that each run is correct and prints exactly the metrics
``BENCHMARK.json`` names, each with its unit.  It then checks that the
counts the report calls exact repeat across two identical runs, and that a
deliberately corrupted verdict makes the run fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

import run  # noqa: E402  (sets up the import path for the benchmark)
from ladder import EXACT_COUNTS  # noqa: E402

TOY_POSITIVES = 2000
SECONDS = 1


def invoke(workload: str, trace: int, seed: int = 1):
    """One benchmark run in this process: ``(exit code, result line, output)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main([
            "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS),
            "--trace", str(trace), "--positives", str(TOY_POSITIVES),
        ])
    text = out.getvalue()
    return code, json.loads(text.strip().splitlines()[-1]), text


def check_metrics(workload: str, result: dict, declared: list) -> None:
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    wanted = {metric["name"]: metric["unit"] for metric in declared}
    if printed != wanted:
        missing = sorted(set(wanted) - set(printed))
        extra = sorted(set(printed) - set(wanted))
        wrong = sorted(n for n in set(wanted) & set(printed) if wanted[n] != printed[n])
        raise AssertionError(
            f"{workload}: missing {missing}, undeclared {extra}, wrong unit {wrong}"
        )


def drop_timed_phase(original):
    """A ``run_phase`` whose timed phase loses its connection."""

    def run_phase(socks, streams, seconds=None, rebuilds=None):
        if seconds is not None:
            raise run.loadgen.WireError("connection closed by the server")
        return original(socks, streams, seconds, rebuilds)

    return run_phase


def corrupt_first_timed_reply(original):
    """A ``run_phase`` that flips the last verdict of the timed phase's first reply."""

    def run_phase(socks, streams, seconds=None, rebuilds=None):
        result = original(socks, streams, seconds, rebuilds)
        if seconds is not None and result.replies:
            reply = result.replies[0]
            flipped = b"0" if reply.line.endswith(b"1") else b"1"
            reply.line = reply.line[:-1] + flipped
        return result

    return run_phase


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            start = time.perf_counter()
            code, result, text = invoke(workload, trace)
            if code != 0 or not result["correct"] or result["failed"]:
                raise AssertionError(f"{workload} trace={trace} failed:\n{text}")
            check_metrics(workload, result, bench[section])
            print(f"{workload:<14} trace={trace} ok in {time.perf_counter() - start:.1f}s")

    _, first, _ = invoke("lookup_small", 1, seed=7)
    _, second, _ = invoke("lookup_small", 1, seed=7)
    for name in sorted(EXACT_COUNTS):
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        if a != b:
            raise AssertionError(f"exact count {name} read {a} then {b}")
    print(f"exact counts repeat: {', '.join(sorted(EXACT_COUNTS))}")

    original = run.loadgen.run_phase
    for fault, patch in (("corrupted verdict", corrupt_first_timed_reply),
                         ("dropped connection", drop_timed_phase)):
        run.loadgen.run_phase = patch(original)
        try:
            code, result, text = invoke("lookup_small", 0)
        finally:
            run.loadgen.run_phase = original
        if code == 0 or result["correct"] or result["failed"] < 1:
            raise AssertionError(f"a {fault} went unnoticed:\n{text}")
        print(f"{fault} caught: exit {code}, failed {result['failed']}")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
