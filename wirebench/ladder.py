"""Traced ladder replay: where a served request's time goes, module by module.

The same seeded requests are replayed one tier at a time, top to bottom,
each rung calling one module's entry point:

    lookup:  wire request (against the server process)
             -> AdaptiveMicroBatcher.query_many_with_generation (as many
                concurrent in-process callers as the workload has
                connections, so windows keep their shape)
             -> ReplicaPool.query_batch (on every workload; it sits between
                the batcher and the service only when the server is a pool)
             -> MembershipService.query_batch
             -> ShardedFilterStore.query_many
             -> ShardedFilterStore.shards_of_many
             -> each shard filter's batch probe on its take() of the window
                batch (the call query_many makes; see _replay_engine)
             -> KeyBatch(keys)
    rebuild: POST /rebuild (idle server) -> MembershipService.rebuild
             -> ShardedFilterStore.rebuild_from
             -> get_backend("habf").create_filter per dirty shard
             -> codec.dumps per dirty shard -> DiskShardStore.commit

A module's self time is its rung minus the rungs below it.  The engine rungs
(below the batcher) run back to back per window, so their self times are
medians of per-window differences; the wire and batcher rungs are separate
replays, compared by their medians.  A self time below the noise between
replays can read slightly negative.  Every call is one span (layer, start,
end, request id, parent rung) kept in memory and written to
``.wirebench/spans-<workload>-seed<seed>.jsonl`` when the run ends.  Every
lookup rung's verdicts must equal scalar ``contains`` on the in-process
store.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import statistics
import time
from typing import Dict, List, Sequence

import numpy as np

from repro.hashing import vectorized as vec
from repro.service import (
    AdaptiveMicroBatcher,
    DiskShardStore,
    ShardedFilterStore,
    ShardRouter,
    codec,
    get_backend,
)

import loadgen
from served import BITS_PER_KEY, NUM_SHARDS, ROUTER_SEED, build_service
from stack import ROOT

#: Requests replayed per connection (about two seconds of wire time), and
#: how many times each engine rung replays their windows.
REPLAY_REQUESTS = {"small": 256, "bulk": 24}
ENGINE_ROUNDS = {"small": 1, "bulk": 3}
#: In-process callers pause this long between requests, as a wire client's
#: reply-to-next-request turnaround does, and start this far apart.  Without
#: both, callers answered by one window resubmit in the same event-loop tick
#: and every window coalesces all of them, a shape the wire never produces:
#: there, each connection's next request arrives after the other's window
#: has closed.
TURNAROUND_S = 0.0005
STAGGER_S = 0.001
#: Replicas of the in-process pool the multiproc rung dispatches to.
REPLICAS = os.cpu_count() or 1

PER_LAYER_UNITS = {
    "aserve.self_ms": "ms",
    "aserve.batcher_self_ms": "ms",
    "aserve.queue_wait_ms": "ms",
    "aserve.window_keys_p50": "keys",
    "aserve.bypass_share": "ratio",
    "aserve.rebuild_overhead_s": "s",
    "server.self_ms": "ms",
    "server.rebuild_self_s": "s",
    "server.rebuild_s": "s",
    "multiproc.self_ms": "ms",
    "multiproc.replica_skew": "ratio",
    "shards.route_ms": "ms",
    "shards.self_ms": "ms",
    "shards.per_window": "count",
    "shards.dirty_per_rebuild": "count",
    "shards.rebuild_self_s": "s",
    "core.probe_ms": "ms",
    "core.probe_us_per_key": "us",
    "core.round2_share": "ratio",
    "core.round2_probe_share": "ratio",
    "core.build_s": "s",
    "core.fpr_cost": "ratio",
    "hashing.encode_us_per_key": "us",
    "codec.dumps_ms": "ms",
    "diskstore.commit_ms": "ms",
    "diskstore.pages_per_commit": "count",
    "diskstore.cold_read_ms": "ms",
    "diskstore.hit_ratio": "ratio",
    "client.cpu_share": "ratio",
    "trace.overhead_share": "ratio",
}

#: Counts that repeat exactly for a seed.  The other counts depend on
#: timing (how requests coalesce, how many rebuilds fit in the phase) and
#: are reported as noisy; the remaining metrics are times or time ratios.
EXACT_COUNTS = frozenset(
    {
        "shards.dirty_per_rebuild",
        "core.round2_share",
        "core.round2_probe_share",
        "core.fpr_cost",
    }
)
NOISY_COUNTS = frozenset(
    {
        "shards.per_window",
        "aserve.window_keys_p50",
        "aserve.bypass_share",
        "multiproc.replica_skew",
        "diskstore.pages_per_commit",
        "diskstore.hit_ratio",
    }
)


class Spans:
    """Spans of the traced replay, held in memory until the run ends."""

    def __init__(self) -> None:
        self.rows: List[tuple] = []

    def add(self, layer: str, start: float, end: float, request: str, parent: str) -> None:
        self.rows.append((layer, start, end, request, parent))

    def durations(self, layer: str) -> List[float]:
        return [end - start for name, start, end, _, _ in self.rows if name == layer]

    def median_ms(self, layer: str) -> float:
        values = self.durations(layer)
        return statistics.median(values) * 1e3 if values else 0.0

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for layer, start, end, request, parent in self.rows:
                handle.write(
                    json.dumps(
                        {
                            "layer": layer,
                            "start": start,
                            "end": end,
                            "request": request,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


class _WindowRecorder:
    """The service the in-process batcher dispatches to, recording each window.

    Lower rungs replay exactly the windows the batcher formed.  Only the
    ``KeyBatch`` reference is kept inside the timed call; keys are read
    after the replay.
    """

    def __init__(self, target) -> None:
        self._target = target
        self.batches: list = []

    def __getattr__(self, name):
        return getattr(self._target, name)

    def query_batch(self, keys):
        self.batches.append(keys)
        return self._target.query_batch(keys)

    def windows(self) -> List[List[str]]:
        return [list(getattr(batch, "keys", batch)) for batch in self.batches]


class _Oracle:
    """Scalar ``contains`` on the in-process store: the verdict reference."""

    def __init__(self, store: ShardedFilterStore, checker) -> None:
        self.store = store
        self.checker = checker
        self._verdicts: Dict[str, bool] = {}

    def verdict(self, key: str) -> bool:
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = bool(self.store.filters[self.store.shard_of(key)].contains(key))
            self._verdicts[key] = verdict
        return verdict

    def check(self, rung: str, keys: Sequence[str], verdicts) -> None:
        expected = [self.verdict(key) for key in keys]
        self.checker.attempted += 1
        if [bool(v) for v in verdicts] != expected:
            self.checker.fail(f"{rung} verdicts differ from scalar contains")


def _replay_batcher(service, streams, count, spans, oracle) -> List[List[str]]:
    """The batcher rung; returns the windows it dispatched."""
    recorder = _WindowRecorder(service)

    async def replay() -> None:
        batcher = AdaptiveMicroBatcher(recorder)

        async def caller(conn: int, stream) -> None:
            await asyncio.sleep(conn * STAGGER_S)
            for index in range(count):
                keys = stream[index].keys
                await asyncio.sleep(TURNAROUND_S)
                start = time.perf_counter()
                verdicts, _ = await batcher.query_many_with_generation(keys)
                end = time.perf_counter()
                spans.add("aserve.batcher", start, end, f"c{conn}.r{index}", "wire")
                answered.append((keys, verdicts))

        try:
            await asyncio.gather(*(caller(c, s) for c, s in enumerate(streams)))
        finally:
            await batcher.aclose()

    answered: list = []
    asyncio.run(replay())
    # Checked after the replay: the scalar oracle must not sit between the
    # callers' requests on the event loop and change how windows form.
    for keys, verdicts in answered:
        oracle.check("AdaptiveMicroBatcher", keys, verdicts)
    return recorder.windows()


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3


def _replay_engine(service, pool, reference, windows, rounds, spans, oracle):
    """The in-process rungs below the batcher.

    Every window runs down all rungs back to back, ``rounds`` times, so a
    slow stretch of the machine hits every rung of a window alike and the
    per-window differences (self times) stay paired.  Returns each rung's
    per-window median seconds (``rung -> [window...]``) and the counts.
    Verdicts are checked against the scalar oracle afterwards.
    """
    store = service.snapshot.store
    rungs = [
        # (layer, parent rung, call, hand it a fresh KeyBatch built untimed)
        ("multiproc", "aserve.batcher", lambda keys: pool.query_batch(keys).verdicts, False),
        ("server", "multiproc", lambda batch: service.query_batch(batch).verdicts, True),
        ("shards", "server", store.query_many, True),
        ("shards.route", "shards", store.shards_of_many, True),
        ("hashing", "aserve.batcher", vec.KeyBatch, False),
    ]
    times: Dict[str, List[List[float]]] = {
        layer: [[] for _ in windows] for layer in [r[0] for r in rungs] + ["core"]
    }
    answers: Dict[str, list] = {layer: [] for layer, _, _, _ in rungs[:3]}
    probed = []
    for round_number in range(rounds):
        for number, keys in enumerate(windows):
            wid = f"w{number}"
            for layer, parent, call, encode in rungs:
                argument = vec.KeyBatch(keys) if encode else keys
                start = time.perf_counter()
                value = call(argument)
                end = time.perf_counter()
                spans.add(layer, start, end, wid, parent)
                times[layer][number].append(end - start)
                if round_number == 0 and layer in answers:
                    answers[layer].append(value)
            # Each shard probes a take() of one window batch, as query_many
            # does: sub-batches share the window's hashing pass, which
            # per-shard contains_many calls on separate key lists would each
            # redo.  (The router pass runs first, as in query_many.)
            window = vec.KeyBatch(keys)
            route = store.shards_of_many(window)
            probe = 0.0
            for shard in np.unique(route).tolist():
                positions = np.flatnonzero(route == shard)
                sub = window.take(positions)
                filt = reference.filters[shard]
                start = time.perf_counter()
                verdicts = filt._contains_batch(sub)
                end = time.perf_counter()
                spans.add("core", start, end, f"{wid}.s{shard}", "shards")
                probe += end - start
                if round_number == 0:
                    probed.append((shard, [keys[i] for i in positions.tolist()], verdicts))
            times["core"][number].append(probe)
    for layer, label in (("multiproc", "ReplicaPool.query_batch"),
                         ("server", "MembershipService.query_batch"),
                         ("shards", "ShardedFilterStore.query_many")):
        for keys, verdicts in zip(windows, answers[layer]):
            oracle.check(label, keys, verdicts)
    counts = {"keys": sum(len(keys) for keys in windows), "round2": 0, "selected": 0,
              "shards": len(probed)}
    for shard, shard_keys, verdicts in probed:
        oracle.check(f"shard {shard} probe", shard_keys, verdicts.tolist())
        filt = reference.filters[shard]
        first_round = filt.bloom.contains_many(shard_keys)
        second = [key for key, hit in zip(shard_keys, first_round) if not hit]
        counts["round2"] += len(second)
        if filt.expressor is not None:
            k = filt.params.k
            counts["selected"] += sum(filt.expressor.query(key, k) is not None for key in second)
    per_window = {
        layer: [statistics.median(samples) for samples in lists]
        for layer, lists in times.items()
    }
    return per_window, counts


def _shard_inputs(keys, negatives, costs, shard: int):
    """The keys, negatives and costs ``shard`` is built from."""
    router = ShardRouter(NUM_SHARDS, seed=ROUTER_SEED)

    def routed(group):
        shards = router.shard_of_many(vec.KeyBatch(group)).tolist()
        return [key for key, placed in zip(group, shards) if placed == shard]

    mine, negs = routed(keys), routed(negatives)
    return mine, negs, {key: costs[key] for key in negs if key in costs}


def _replay_rebuilds(session, service, reference, bodies, scratch, spans, checker) -> dict:
    """Rebuild rungs on the churn specs, then back to the base set."""
    backend = get_backend("habf", bits_per_key=BITS_PER_KEY)
    disk = DiskShardStore.create(scratch / "ladder-disk", reference, generation=1)
    previous = reference
    totals = {"post": [], "rebuild": [], "rebuild_from": [], "build": [], "dumps": [],
              "commit": []}
    try:
        for number, body in enumerate(bodies):
            rid = f"rebuild{number}"
            reply = loadgen.post_rebuild(session.http, body)
            checker.attempted += 1
            if reply.status != 200:
                checker.fail(f"traced rebuild answered {reply.status}")
            spans.add("wire.rebuild", reply.start, reply.end, rid, "")
            totals["post"].append(reply.end - reply.start)
            spec = json.loads(body)
            keys, negatives, costs = spec["keys"], spec["negatives"], spec["costs"]
            start = time.perf_counter()
            service.rebuild(keys, negatives=negatives, costs=costs)
            end = time.perf_counter()
            spans.add("server.rebuild", start, end, rid, "wire.rebuild")
            totals["rebuild"].append(end - start)
            start = time.perf_counter()
            store, dirty, _ = ShardedFilterStore.rebuild_from(
                previous, keys, negatives=negatives, costs=costs, backend="habf",
                bits_per_key=BITS_PER_KEY,
            )
            end = time.perf_counter()
            spans.add("shards.rebuild", start, end, rid, "server.rebuild")
            totals["rebuild_from"].append(end - start)
            build = dumps = 0.0
            for shard in dirty:
                shard_keys, shard_negatives, shard_costs = _shard_inputs(
                    keys, negatives, costs, shard
                )
                start = time.perf_counter()
                filt = backend.create_filter(
                    shard_keys, negatives=shard_negatives, costs=shard_costs
                )
                middle = time.perf_counter()
                codec.dumps(filt)
                end = time.perf_counter()
                spans.add("core.build", start, middle, rid, "shards.rebuild")
                spans.add("codec.dumps", middle, end, rid, "diskstore.commit")
                build += middle - start
                dumps += end - middle
            totals["build"].append(build)
            totals["dumps"].append(dumps)
            start = time.perf_counter()
            disk.commit(store, disk.generation + 1, rebuilt_shards=dirty)
            end = time.perf_counter()
            spans.add("diskstore.commit", start, end, rid, "server.rebuild")
            totals["commit"].append(end - start)
            previous = store
    finally:
        disk.close()
    return {name: statistics.median(values) for name, values in totals.items()}


class Ladder:
    """The traced replay of one workload's first seeded requests.

    :meth:`replay_wire` runs the top rung against the server process right
    after the untraced timed phase, under the same conditions;
    :meth:`replay` then builds the same configuration in-process and runs
    every lower rung on the same requests.
    """

    def __init__(self, workload, streams) -> None:
        self.workload = workload
        self.streams = streams
        size = "bulk" if workload.keys[0] >= 256 else "small"
        self.count = REPLAY_REQUESTS[size]
        self.rounds = ENGINE_ROUNDS[size]
        self.spans = Spans()
        self.wire_replies: list = []

    def replay_wire(self, session) -> int:
        """The wire rung; returns how many requests it sent."""
        socks = session.socks[: len(self.streams)]
        result = loadgen.run_phase(socks, [stream[: self.count] for stream in self.streams])
        for reply in result.replies:
            self.spans.add("wire", reply.start, reply.end, f"c{reply.conn}.r{reply.index}", "")
        self.wire_replies = result.replies
        return len(result.replies)

    def _check_wire(self, oracle) -> None:
        for reply in self.wire_replies:
            keys = self.streams[reply.conn][reply.index].keys
            parts = reply.line.split()
            if parts[:1] != [b"V"]:
                oracle.checker.attempted += 1
                oracle.checker.fail(f"traced wire reply {reply.line[:60]!r}")
                continue
            oracle.check("wire", keys, [part == b"1" for part in parts[2:]])

    def replay(self, inputs, session, churn, base, checker, scratch,
               untraced_p50_ms: float) -> dict:
        """Every in-process rung and the rebuild rungs; returns the rows."""
        workload, spans = self.workload, self.spans
        # This process's large inputs are frozen out of garbage collection
        # while the in-process rungs run: a server holds no such heap, full
        # collections over it would stall the timed calls, and replicas
        # forked from this process would copy every page a collection walks.
        gc.collect()
        gc.freeze()
        pool = build_service(workload.replicas or REPLICAS, str(scratch / "ladder-pool"))
        service = build_service(0, str(scratch / "ladder-store"))
        try:
            spec = json.loads(base)
            for target in (pool, service):
                target.load(spec["keys"], negatives=spec["negatives"], costs=spec["costs"])
            # Real filters (not the disk tier's lazy proxies), for the shard
            # probe rung, its counts and the scalar oracle.
            reference = service.disk_store.materialize()
            oracle = _Oracle(reference, checker)
            self._check_wire(oracle)
            windows = _replay_batcher(
                pool if workload.replicas else service, self.streams, self.count, spans, oracle
            )
            per_window, counts = _replay_engine(
                service, pool, reference, windows, self.rounds, spans, oracle
            )
            rebuild = _replay_rebuilds(
                session, service, reference, churn[:2] + [base], scratch, spans, checker
            )
        finally:
            pool.close()
            if service.disk_store is not None:  # None when the load failed
                service.disk_store.close()
            gc.unfreeze()
        path = ROOT / ".wirebench" / f"spans-{workload.name}-seed{inputs.seed}.jsonl"
        spans.write(path)

        wire = spans.median_ms("wire")
        batcher = spans.median_ms("aserve.batcher")
        rung = {layer: _median_ms(values) for layer, values in per_window.items()}

        def self_ms(layer: str, *below: str) -> float:
            """Median over windows of the rung minus the rungs below it."""
            rows = zip(per_window[layer], *(per_window[name] for name in below))
            return _median_ms([upper - sum(lower) for upper, *lower in rows])

        below_batcher = "multiproc" if workload.replicas else "server"
        lookup_rows = {
            "aserve": wire - batcher,
            "aserve.batcher": batcher - rung[below_batcher] - rung["hashing"],
            "server": self_ms("server", "shards"),
            "shards": self_ms("shards", "shards.route", "core"),
            "shards.route": rung["shards.route"],
            "core": rung["core"],
            "hashing": rung["hashing"],
        }
        multiproc = self_ms("multiproc", "server")
        if workload.replicas:
            lookup_rows["multiproc"] = multiproc
        rebuild_rows = {
            "aserve": rebuild["post"] - rebuild["rebuild"],
            "server": rebuild["rebuild"] - rebuild["rebuild_from"] - rebuild["commit"],
            "shards": rebuild["rebuild_from"] - rebuild["build"],
            "core": rebuild["build"],
            "diskstore": rebuild["commit"] - rebuild["dumps"],
            "codec": rebuild["dumps"],
        }
        metrics = {
            "aserve.self_ms": lookup_rows["aserve"],
            "aserve.batcher_self_ms": lookup_rows["aserve.batcher"],
            "aserve.rebuild_overhead_s": rebuild_rows["aserve"],
            "server.self_ms": lookup_rows["server"],
            "server.rebuild_self_s": rebuild_rows["server"],
            "multiproc.self_ms": multiproc,
            "shards.route_ms": lookup_rows["shards.route"],
            "shards.self_ms": lookup_rows["shards"],
            "shards.per_window": counts["shards"] / len(windows),
            "shards.rebuild_self_s": rebuild_rows["shards"],
            "core.probe_ms": lookup_rows["core"],
            "core.probe_us_per_key": sum(per_window["core"]) / counts["keys"] * 1e6,
            "core.round2_share": counts["round2"] / counts["keys"],
            "core.round2_probe_share": (
                counts["selected"] / counts["round2"] if counts["round2"] else 0.0
            ),
            "hashing.encode_us_per_key": sum(per_window["hashing"]) / counts["keys"] * 1e6,
            "codec.dumps_ms": rebuild["dumps"] * 1e3,
            "diskstore.commit_ms": rebuild["commit"] * 1e3,
            "trace.overhead_share": wire / untraced_p50_ms - 1.0,
        }
        return {
            "metrics": metrics,
            "lookup_rows": lookup_rows,
            "lookup_ms": wire,
            "rebuild_rows": rebuild_rows,
            "rebuild_s": rebuild["post"],
            "windows": len(windows),
            "spans": str(path.relative_to(ROOT)),
            "untraced_p50_ms": untraced_p50_ms,
        }


def _print_rows(title: str, rows: Dict[str, float], total: float, unit: str) -> None:
    dominant = max(rows, key=rows.get)
    print(f"  {title}: {total:.6g} {unit} median, dominant module {dominant}")
    for module, value in sorted(rows.items(), key=lambda item: -item[1]):
        print(f"    {module:<16} {value:>12.6g} {unit}  {100 * value / total:6.1f}%")


def print_ladder(report: dict) -> None:
    ladder = report["ladder"]
    print(f"ladder ({ladder['windows']} windows, spans in {ladder['spans']})")
    _print_rows("lookup", ladder["lookup_rows"], ladder["lookup_ms"], "ms")
    _print_rows("rebuild", ladder["rebuild_rows"], ladder["rebuild_s"], "s")
    print(
        f"  tracing overhead: traced median request {ladder['lookup_ms']:.6g} ms against "
        f"{ladder['untraced_p50_ms']:.6g} ms untraced "
        f"({100 * ladder['metrics']['trace.overhead_share']:+.1f}%)"
    )
    print("per-layer metrics")
    for name, value in report["per_layer"].items():
        kind = (
            "count" if name in EXACT_COUNTS
            else "noisy count" if name in NOISY_COUNTS
            else "time"
        )
        print(f"  {name:<28} {value:>14.6g} {PER_LAYER_UNITS[name]:<6} {kind}")
