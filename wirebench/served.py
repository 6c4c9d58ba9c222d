"""The served stack under test, run as its own process.

    python3 wirebench/served.py --store DIR [--replicas N]

Serves ``AsyncMembershipServer`` (TCP line protocol and HTTP) over a
``MembershipService`` or, with ``--replicas``, a ``ReplicaPool``, both with
the ``habf`` backend and the disk tier in ``DIR``, which must not hold a
store yet.  The process starts empty: keys arrive through
``POST /rebuild``.  It prints ``READY <tcp port> <http port>`` once both
listeners are bound, and shuts down cleanly when its standard input closes
or it receives SIGTERM.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys

from repro.service import AsyncMembershipServer, MembershipService, ReplicaPool

NUM_SHARDS = 8
BITS_PER_KEY = 10.0
ROUTER_SEED = 0


def build_service(replicas: int, store: str):
    """The service configuration every workload serves (and the ladder rebuilds)."""
    options = dict(
        backend="habf",
        num_shards=NUM_SHARDS,
        router_seed=ROUTER_SEED,
        bits_per_key=BITS_PER_KEY,
        store_path=store,
    )
    if replicas:
        return ReplicaPool(replicas=replicas, **options)
    return MembershipService(**options)


async def serve(service) -> None:
    server = AsyncMembershipServer(service)
    _, tcp_port = await server.start_tcp()
    _, http_port = await server.start_http()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)

    def on_stdin() -> None:
        if not os.read(sys.stdin.fileno(), 4096):
            stop.set()

    loop.add_reader(sys.stdin.fileno(), on_stdin)
    print(f"READY {tcp_port} {http_port}", flush=True)
    try:
        await stop.wait()
    finally:
        loop.remove_reader(sys.stdin.fileno())
        await server.aclose()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replicas", type=int, default=0)
    parser.add_argument("--store", required=True)
    args = parser.parse_args()
    service = build_service(args.replicas, args.store)
    try:
        asyncio.run(serve(service))
    finally:
        if args.replicas:
            service.close()
        elif service.disk_store is not None:
            service.disk_store.close()


if __name__ == "__main__":
    main()
