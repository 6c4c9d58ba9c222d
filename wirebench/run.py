"""Wire-level benchmark of the served HABF gateway.

    python3 wirebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run starts the served stack (``served.py``: ``AsyncMembershipServer``
over a ``MembershipService`` or ``ReplicaPool`` with the ``habf`` backend)
as its own process, loads it through ``POST /rebuild`` with keys generated
from the seed, and drives it over TCP/HTTP from one single-threaded,
closed-loop load generator.  Every answer is checked.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (``ladder.py`` and ``scrape.py``) with ``--trace 1``.  A
failed check exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from stack import ROOT, SRC, ServerProcess, StackError

if not (SRC / "repro").is_dir():
    sys.exit(f"wirebench: no repro sources under {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import loadgen  # noqa: E402
import scrape  # noqa: E402
from repro.hashing import vectorized as vec  # noqa: E402
from repro.metrics.benchmeta import bench_environment  # noqa: E402
from repro.service import ShardRouter  # noqa: E402
from served import NUM_SHARDS, ROUTER_SEED  # noqa: E402
from traffic import POSITIVE, Inputs  # noqa: E402

NPROC = os.cpu_count() or 1
#: Lookup connections: the closed loop never opens more than there are cores.
CONNECTIONS = max(1, min(2, NPROC))
#: Server launches per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Keys per line in the final accuracy/correctness probe.
PROBE_CHUNK = 2048
#: Width of the slices whose median throughput ``lookup_qps`` reports.
SLICE_S = 1.0
#: Tail percentile reported when the phase holds enough requests for it.
TAIL_PERCENTILE = 99.0


@dataclass(frozen=True)
class Workload:
    name: str
    keys: Tuple[int, int]
    #: Requests pre-encoded per connection; the timed phase cycles them.
    stream_len: int
    replicas: int = 0
    #: Post churn specs beside the lookups (one lookup connection, one HTTP).
    churn: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lookup_small", (8, 8), 8192),
        Workload("lookup_bulk", (1024, 2048), 160),
        Workload("rebuild_churn", (8, 8), 8192, churn=True),
        Workload("pool_small", (8, 8), 8192, replicas=NPROC),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "lookup_qps": "keys/s",
    "lookup_p50_ms": "ms",
    "rebuild_p50_s": "s",
    "fpr_unseen": "ratio",
    "bits_per_key": "bits",
    "rss_mb": "MB",
}


class Checker:
    """Counts requests whose answers break a correctness rule.

    The rules: no false negative (a positive answers 1), no ``E`` line or
    non-200 reply, one verdict per key, generations monotone per connection,
    and every negative's verdict equal to the final probe's for the same
    filter content.
    """

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: generation -> churn spec index it serves, or -1 for the base set.
        self.generation_spec: Dict[int, int] = {}
        self.probe_verdicts: Optional[np.ndarray] = None
        self._negative_shard: Optional[np.ndarray] = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)

    def verdicts(self, request, line: bytes) -> Tuple[int, Optional[np.ndarray]]:
        """Parse a ``V`` reply; ``(generation, 0/1 array)`` or ``(0, None)``."""
        parts = line.split()
        if len(parts) != len(request.keys) + 2 or parts[0] != b"V":
            return 0, None
        bits = np.frombuffer(b"".join(parts[2:]), dtype=np.uint8) - ord("0")
        if bits.size != len(request.keys) or bits.max(initial=0) > 1:
            return 0, None
        return int(parts[1]), bits

    def rebuild(self, reply: loadgen.RebuildReply, spec: int) -> None:
        self.attempted += 1
        if reply.status != 200 or reply.generation in self.generation_spec:
            self.fail(
                f"rebuild of spec {spec}: status {reply.status}, generation {reply.generation}"
            )
            return
        self.generation_spec[reply.generation] = spec

    def probe(self, requests, result: loadgen.PhaseResult) -> None:
        """Record the final probe: every positive 1, each negative's verdict."""
        table = np.full(len(self.inputs.probe_negatives), -1, dtype=np.int8)
        for reply in result.replies:
            self.attempted += 1
            request = requests[reply.conn][reply.index]
            _, bits = self.verdicts(request, reply.line)
            if bits is None:
                self.fail(f"probe reply {reply.line[:60]!r}")
                continue
            positive = request.expect == POSITIVE
            if not bits[positive].all():
                self.fail(f"false negative among {int((bits[positive] == 0).sum())} probe keys")
                continue
            table[request.expect[~positive]] = bits[~positive]
        self.probe_verdicts = table

    def lookups(self, streams, result: loadgen.PhaseResult) -> None:
        """Check every timed-phase reply against the probe (call after it)."""
        churn_shard = self.inputs.churn_shard
        last_generation: Dict[int, int] = {}
        for reply in result.replies:
            self.attempted += 1
            stream = streams[reply.conn]
            request = stream[reply.index % len(stream)]
            generation, bits = self.verdicts(request, reply.line)
            if bits is None:
                self.fail(f"lookup reply {reply.line[:60]!r}")
                continue
            if generation < last_generation.get(reply.conn, 0):
                self.fail(f"connection {reply.conn} saw generation {generation} after "
                          f"{last_generation[reply.conn]}")
                continue
            last_generation[reply.conn] = generation
            positive = request.expect == POSITIVE
            if not bits[positive].all():
                self.fail(f"false negative in generation {generation}")
                continue
            spec = self.generation_spec.get(generation)
            if spec is None:
                self.fail(f"reply from unannounced generation {generation}")
                continue
            codes = request.expect[~positive]
            checked = np.ones(codes.size, dtype=bool)
            if spec != -1:
                # Churn specs rebuild one shard; its negatives may answer
                # differently from the base set's, every other shard may not.
                checked = self.negative_shard()[codes] != churn_shard
            if not np.array_equal(bits[~positive][checked], self.probe_verdicts[codes][checked]):
                self.fail(f"negative verdicts of generation {generation} differ from the probe")

    def negative_shard(self) -> np.ndarray:
        if self._negative_shard is None:
            router = ShardRouter(NUM_SHARDS, seed=ROUTER_SEED)
            self._negative_shard = router.shard_of_many(
                vec.KeyBatch(self.inputs.probe_negatives)
            )
        return self._negative_shard


def sliced_qps(phase: loadgen.PhaseResult, streams, seconds: float) -> float:
    """Median keys/s over the phase's ``SLICE_S`` slices.

    A slice's rate counts the keys of the replies that completed in it.  The
    median keeps a stall of a few hundred milliseconds (another tenant on
    the machine, a collection pause) from moving the figure.
    """
    start = phase.deadline - seconds
    slices = [0] * max(1, int(seconds / SLICE_S))
    for reply in phase.replies:
        index = int((reply.end - start) / SLICE_S)
        if 0 <= index < len(slices):
            stream = streams[reply.conn]
            slices[index] += len(stream[reply.index % len(stream)].keys)
    return statistics.median(slices) / SLICE_S


def tail(latencies: List[float]) -> Tuple[float, float]:
    """``(percentile, value)``: p99, or with under 1000 samples the highest
    percentile that still has ten samples beyond it."""
    n = len(latencies)
    percentile = min(TAIL_PERCENTILE, 100.0 * (1.0 - 10.0 / n)) if n > 10 else 50.0
    return percentile, float(np.percentile(latencies, percentile))


class Session:
    """One launched server plus the client sockets a run keeps on it."""

    def __init__(self, scratch, workload: Workload, inputs: Inputs, base: bytes,
                 checker: Checker, tag: str) -> None:
        self.server = ServerProcess(scratch, workload.replicas, tag)
        self.socks = []
        try:
            self.http = loadgen.connect(self.server.http_port)
            checker.generation_spec = {}
            checker.rebuild(loadgen.post_rebuild(self.http, base), -1)
            self.socks = [loadgen.connect(self.server.tcp_port) for _ in range(CONNECTIONS)]
            first = inputs.positives[:8]
            reply = loadgen.command(self.socks[0], ("M " + " ".join(first) + "\n").encode())
            self.setup_s = time.perf_counter() - self.server.started
            checker.attempted += 1
            if reply.split()[2:] != [b"1"] * len(first):
                checker.fail(f"first answer {reply[:60]!r}")
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for sock in self.socks + [getattr(self, "http", None)]:
            if sock is not None:
                sock.close()
        self.server.stop()


def _launch(scratch, workload, inputs, base, checker, count):
    """``count`` fresh server launches; returns their setup times and the last."""
    setups = []
    for attempt in range(count):
        session = Session(scratch, workload, inputs, base, checker, str(attempt))
        setups.append(session.setup_s)
        if attempt + 1 < count:
            session.close()
    return setups, session


def _timed_phase(workload, session, streams, churn, base, seconds, checker):
    """The closed-loop lookups (plus scheduled rebuilds on ``rebuild_churn``).

    Ends serving the base key set: the churn run posts it back afterwards.
    Returns the phase and the rebuild round trips it timed.
    """
    if not workload.churn:
        return loadgen.run_phase(session.socks, streams, seconds), []
    # Back to back: every lookup of the phase runs beside a rebuild, so the
    # phase measures one steady regime rather than a mix of two.
    bodies = [churn[i % len(churn)] for i in range(int(seconds) + 2)]
    timed = loadgen.run_phase(
        session.socks[: len(streams)], streams, seconds, (session.http, bodies)
    )
    for reply in timed.rebuilds:
        checker.rebuild(reply, reply.spec % len(churn))
    checker.rebuild(loadgen.post_rebuild(session.http, base), -1)
    return timed, [reply.end - reply.start for reply in timed.rebuilds]


def _idle_rebuilds(session, churn, base, checker) -> List[float]:
    """Every churn spec, then the base set again, posted with no lookups running."""
    times = []
    for spec, body in list(enumerate(churn)) + [(-1, base)]:
        reply = loadgen.post_rebuild(session.http, body, spec)
        checker.rebuild(reply, spec)
        times.append(reply.end - reply.start)
    return times


def run(workload: Workload, seed: int, seconds: float, trace: bool, positives: int,
        scratch) -> dict:
    """One benchmark run; a dropped connection or timeout fails it, not the process."""
    inputs = Inputs(seed, positives)
    checker = Checker(inputs)
    report: dict = {"environment": bench_environment(seed=seed, workload=workload.name)}
    try:
        _measure(report, workload, inputs, checker, seconds, trace, scratch)
    except (loadgen.WireError, StackError, OSError) as exc:
        checker.attempted += 1
        checker.fail(f"{type(exc).__name__}: {exc}")
    report["correct"] = checker.failed == 0
    report["attempted"] = checker.attempted
    report["failed"] = checker.failed
    report["problems"] = checker.problems
    return report


def _measure(report: dict, workload: Workload, inputs: Inputs, checker: Checker,
             seconds: float, trace: bool, scratch) -> None:
    base = inputs.base_body()
    churn = inputs.churn_bodies()
    lookups = 1 if workload.churn else CONNECTIONS
    streams = [
        inputs.request_stream(i, workload.stream_len, *workload.keys) for i in range(lookups)
    ]
    probe = inputs.probe_requests(PROBE_CHUNK)
    probe_split = [probe[i::CONNECTIONS] for i in range(CONNECTIONS)]
    setups, session = _launch(scratch, workload, inputs, base, checker, 1 if trace else SETUPS)
    try:
        timed, rebuild_times = _timed_phase(
            workload, session, streams, churn, base, seconds, checker
        )
        requests_sent = 1 + len(timed.replies)
        if trace:
            import ladder

            traced = ladder.Ladder(workload, streams)
            requests_sent += traced.replay_wire(session)
        lookup_scrape = scrape.scrape(session.socks[0])
        if not workload.churn:
            rebuild_times = _idle_rebuilds(session, churn, base, checker)
        probed = loadgen.run_phase(session.socks, probe_split)
        checker.probe(probe_split, probed)
        checker.lookups(streams, timed)
        final_scrape = scrape.scrape(session.socks[0])
        rss_mb = session.server.pss_mb()
        latencies = [
            (r.end - r.start) * 1e3 for r in timed.replies if r.end <= timed.deadline
        ]
        percentile, tail_ms = tail(latencies)
        known = checker.probe_verdicts[: len(inputs.negatives)]
        unseen = checker.probe_verdicts[len(inputs.negatives):]
        costs = np.fromiter((inputs.costs[k] for k in inputs.negatives), dtype=np.float64)
        report["end_to_end"] = {
            "setup_s": statistics.median(setups),
            "lookup_qps": sliced_qps(timed, streams, seconds),
            "lookup_p50_ms": statistics.median(latencies),
            "rebuild_p50_s": statistics.median(rebuild_times),
            "fpr_unseen": float(unseen.mean()),
            "bits_per_key": scrape.served_bits(final_scrape[0]) / len(inputs.positives),
            "rss_mb": rss_mb,
        }
        # The tail is reported, not bounded: on a shared 2-core machine it
        # mostly measures the host's scheduling stalls, and its run-to-run
        # spread exceeded every bound a regression check could use.
        report["detail"] = {
            "setups_s": setups,
            "lookup_requests": len(latencies),
            f"lookup_p{percentile:.3g}_ms": tail_ms,
            "rebuilds": len(rebuild_times),
            "fpr_cost": float(costs[known == 1].sum() / costs.sum()),
            "known_false_positives": int(known.sum()),
            "client.cpu_share": timed.cpu / timed.wall,
        }
        layers = scrape.layer_counts(lookup_scrape, final_scrape, requests_sent)
        layers["client.cpu_share"] = timed.cpu / timed.wall
        layers["core.fpr_cost"] = report["detail"]["fpr_cost"]
        report["per_layer"] = layers
        if trace:
            report["ladder"] = traced.replay(
                inputs, session, churn, base, checker, scratch,
                untraced_p50_ms=report["end_to_end"]["lookup_p50_ms"],
            )
            layers.update(report["ladder"]["metrics"])
    finally:
        session.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--positives", type=int, default=50_000,
        help="positive keys (the self-test runs a toy scale)",
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".wirebench" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    tempfile.tempdir = str(scratch)
    try:
        report = run(workload, args.seed, args.seconds, bool(args.trace), args.positives, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print_report(report, bool(args.trace))
    return 0 if report["correct"] else 1


def print_report(report: dict, trace: bool) -> None:
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    for name, value in report.get("end_to_end", {}).items():
        print(f"  {name:<24} {value:>14.6g} {END_TO_END_UNITS[name]}")
    for name, value in report.get("detail", {}).items():
        print(f"  {name:<24} {value}")
    print(f"  {'error_rate':<24} {report['failed'] / max(report['attempted'], 1):>14.6g} ratio")
    for problem in report["problems"]:
        print(f"  FAILED: {problem}")
    if trace and "ladder" in report:
        import ladder

        ladder.print_ladder(report)
        metrics = {
            name: {"value": value, "unit": ladder.PER_LAYER_UNITS[name]}
            for name, value in report["per_layer"].items()
        }
    elif not trace:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in report.get("end_to_end", {}).items()
        }
    else:
        metrics = {}
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    sys.exit(main())
