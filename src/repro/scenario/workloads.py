"""The workload-recipe registry: named builders scenarios instantiate.

Each recipe registers a ``build(machine, params) -> pids`` callable
with a params schema.  The scenario compiler validates ``workload:
params:`` against the schema (unknown keys get did-you-mean errors),
and the runner builds the same recipe on the failure-free and faulted
machines so the invariants can compare them.

The ``flood`` recipe is itself written as a plugin — two small
programs defined *here*, registered like any third-party workload
would be — and drives a server whose unread queue grows deep, the
queue its backup must save in full (section 5.2).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..backup.modes import BackupMode
from ..core.machine import Machine
from ..programs.actions import (Compute, Exit, Open, Read, ReadAny,
                                Write)
from ..programs.program import StateProgram
from ..types import Pid
from ..workloads import (MemoryChurnProgram, PingProgram, PongProgram,
                         TtyWriterProgram, build_bank_workload,
                         build_pipeline)
from ..workloads.generator import generate_scenario
from .registry import EntryMetadata, ParamSpec, Registry

BuildFn = Callable[[Machine, Dict[str, Any]], List[Pid]]

WORKLOAD_REGISTRY: Registry[BuildFn] = Registry("workload recipe")


def register_workload(name: str, build: BuildFn,
                      metadata: EntryMetadata) -> BuildFn:
    """Register a workload recipe (the plugin entry point)."""
    return WORKLOAD_REGISTRY.register(name, build, metadata)


_MODES = {"quarterback": BackupMode.QUARTERBACK,
          "halfback": BackupMode.HALFBACK,
          "fullback": BackupMode.FULLBACK}


def _mode(name: Optional[str]) -> Optional[BackupMode]:
    return _MODES[name] if name is not None else None


# ----------------------------------------------------------------------
# built-in recipes
# ----------------------------------------------------------------------

def _build_generated(machine: Machine,
                     params: Dict[str, Any]) -> List[Pid]:
    scenario = generate_scenario(params["seed"],
                                 n_clusters=machine.config.n_clusters,
                                 max_items=params["max_items"])
    return scenario.build(machine)


register_workload(
    "generated", _build_generated,
    EntryMetadata(
        description="the seeded random workload generator behind the "
                    "property tests and campaigns",
        params={
            "seed": ParamSpec(int, "workload generator seed",
                              default=0),
            "max_items": ParamSpec(int, "maximum program mix size",
                                   default=4),
        }))


def _build_pipeline_recipe(machine: Machine,
                           params: Dict[str, Any]) -> List[Pid]:
    return build_pipeline(
        machine, stages=params["stages"], items=params["items"],
        tag=params["tag"], mode=_mode(params["mode"]),
        sync_reads_threshold=params["sync_reads_threshold"])


register_workload(
    "pipeline", _build_pipeline_recipe,
    EntryMetadata(
        description="source -> N relays -> sink, spread round-robin "
                    "across clusters",
        params={
            "stages": ParamSpec(int, "relay stages", default=3),
            "items": ParamSpec(int, "items pushed through", default=10),
            "tag": ParamSpec(str, "terminal tag prefix",
                             default="pipe"),
            "mode": ParamSpec(str, "backup mode for every stage",
                              default=None, nullable=True,
                              choices=tuple(_MODES)),
            "sync_reads_threshold": ParamSpec(
                int, "reads between syncs", default=4),
        }))


def _build_oltp(machine: Machine, params: Dict[str, Any]) -> List[Pid]:
    server, clients, _ = build_bank_workload(
        machine, n_clients=params["n_clients"],
        txns_per_client=params["txns_per_client"],
        accounts=params["accounts"], seed=params["seed"],
        server_mode=_mode(params["server_mode"]),
        client_mode=_mode(params["client_mode"]),
        server_cluster=params["server_cluster"])
    return [server] + list(clients)


register_workload(
    "oltp", _build_oltp,
    EntryMetadata(
        description="the bank workload: one transfer server, N "
                    "clients, conserved-balance audit",
        params={
            "n_clients": ParamSpec(int, "client processes", default=3),
            "txns_per_client": ParamSpec(int,
                                         "transfers per client",
                                         default=8),
            "accounts": ParamSpec(int, "bank accounts", default=16),
            "seed": ParamSpec(int, "transfer-stream seed", default=7),
            "server_mode": ParamSpec(str, "server backup mode",
                                     default=None, nullable=True,
                                     choices=tuple(_MODES)),
            "client_mode": ParamSpec(str, "client backup mode",
                                     default=None, nullable=True,
                                     choices=tuple(_MODES)),
            "server_cluster": ParamSpec(int,
                                        "pin the server here "
                                        "(null: round-robin)",
                                        default=None, nullable=True),
        }))


def _build_memory_churn(machine: Machine,
                        params: Dict[str, Any]) -> List[Pid]:
    return [machine.spawn(
        MemoryChurnProgram(pages=params["pages"],
                           rounds=params["rounds"],
                           compute=params["compute"],
                           total_pages=params["total_pages"]),
        backup_mode=BackupMode.QUARTERBACK)
        for _ in range(params["workers"])]


register_workload(
    "memory_churn", _build_memory_churn,
    EntryMetadata(
        description="page-dirtying compute loops: the sync-traffic "
                    "stress shape",
        params={
            "workers": ParamSpec(int, "churn processes", default=2),
            "pages": ParamSpec(int, "pages dirtied per round",
                               default=4),
            "rounds": ParamSpec(int, "churn rounds", default=30),
            "compute": ParamSpec(int, "compute ticks per round",
                                 default=2_000),
            "total_pages": ParamSpec(int, "data-space size, pages",
                                     default=48),
        }))


def _build_tty(machine: Machine, params: Dict[str, Any]) -> List[Pid]:
    return [machine.spawn(
        TtyWriterProgram(lines=params["lines"],
                         compute=params["compute"],
                         tag=f"w{index}"),
        cluster=index % machine.config.n_clusters,
        sync_reads_threshold=params["sync_reads_threshold"])
        for index in range(params["writers"])]


register_workload(
    "tty", _build_tty,
    EntryMetadata(
        description="terminal writers: the quickstart observable",
        params={
            "writers": ParamSpec(int, "writer processes", default=2),
            "lines": ParamSpec(int, "lines per writer", default=8),
            "compute": ParamSpec(int, "compute ticks per line",
                                 default=1_000),
            "sync_reads_threshold": ParamSpec(
                int, "reads between syncs", default=3),
        }))


def _build_pingpong(machine: Machine,
                    params: Dict[str, Any]) -> List[Pid]:
    pids: List[Pid] = []
    n_clusters = machine.config.n_clusters
    for index in range(params["pairs"]):
        channel = f"chan:pp{index}"
        pids.append(machine.spawn(
            PingProgram(channel=channel, rounds=params["rounds"],
                        compute=params["compute"]),
            cluster=index % n_clusters))
        pids.append(machine.spawn(
            PongProgram(channel=channel, rounds=params["rounds"]),
            cluster=(index + 1) % n_clusters))
    return pids


register_workload(
    "pingpong", _build_pingpong,
    EntryMetadata(
        description="request/response pairs across clusters: the "
                    "round-trip latency shape",
        params={
            "pairs": ParamSpec(int, "ping/pong pairs", default=1),
            "rounds": ParamSpec(int, "round trips per pair",
                                default=6),
            "compute": ParamSpec(int, "compute ticks between sends",
                                 default=500),
        }))


# ----------------------------------------------------------------------
# the flood recipe (a plugin: a slow server with a deep queue)
# ----------------------------------------------------------------------

class _FloodProducer(StateProgram):
    """Streams items down one channel with no pacing, so the
    consumer's inbox builds depth."""

    name = "scenario_flood_producer"
    start_state = "open"

    def __init__(self, items: int = 10,
                 channel: str = "chan:scenario_flood") -> None:
        self._items = items
        self._channel = channel

    def declare(self, space) -> None:
        space.declare("i", 1)

    def init(self, mem, regs) -> None:
        super().init(mem, regs)
        mem.set("i", 0)

    def state_open(self, ctx):
        ctx.goto("send")
        return Open(self._channel)

    def state_send(self, ctx):
        if ctx.regs.get("fd") is None:
            ctx.regs["fd"] = ctx.rv
        index = ctx.mem.get("i")
        if index >= self._items:
            return Exit(0)
        ctx.mem.set("i", index + 1)
        ctx.goto("send")
        return Write(ctx.regs["fd"], ("item", index))


class _SlowServer(StateProgram):
    """Consumes the flood with a long service time per item — the
    slow server the producer(s) overrun.  ``items`` is the *total*
    across every channel."""

    name = "scenario_slow_server"
    start_state = "open"

    def __init__(self, items: int = 10, service: int = 3_000,
                 channels=("chan:scenario_flood",)) -> None:
        self._items = items
        self._service = service
        self._channels = tuple(channels)

    def declare(self, space) -> None:
        space.declare("i", 1)

    def init(self, mem, regs) -> None:
        super().init(mem, regs)
        mem.set("i", 0)

    def state_open(self, ctx):
        ctx.regs["opened"] = 0
        ctx.goto("opened")
        return Open(self._channels[0])

    def state_opened(self, ctx):
        ctx.regs[f"fd{ctx.regs['opened']}"] = ctx.rv
        ctx.regs["opened"] += 1
        if ctx.regs["opened"] < len(self._channels):
            ctx.goto("opened")
            return Open(self._channels[ctx.regs["opened"]])
        ctx.goto("read")
        return Compute(10)

    def state_read(self, ctx):
        if ctx.mem.get("i") >= self._items:
            return Exit(0)
        ctx.goto("got")
        if len(self._channels) == 1:
            return Read(ctx.regs["fd0"])
        return ReadAny(fds=())

    def state_got(self, ctx):
        ctx.mem.set("i", ctx.mem.get("i") + 1)
        ctx.goto("read")
        return Compute(self._service)


def _build_flood(machine: Machine, params: Dict[str, Any]) -> List[Pid]:
    n_clusters = machine.config.n_clusters
    producers = params["producers"]
    server_cluster = 1 % n_clusters
    kernel = machine.clusters[server_cluster].kernel
    if producers == 1:
        channels = ["chan:scenario_flood"]
    else:
        channels = [f"chan:scenario_flood{i}" for i in range(producers)]
    # The consumer is registered as a *server* process, so its queue
    # depth lands in the queue.depth.server gauge.
    server = kernel.create_process(
        _SlowServer(items=params["items"] * producers,
                    service=params["service"], channels=channels),
        BackupMode.QUARTERBACK, is_server=True)
    pids = [server.pid]
    # One producer per channel, spread over the non-server clusters.
    for index, channel in enumerate(channels):
        pids.append(machine.spawn(
            _FloodProducer(items=params["items"], channel=channel),
            cluster=(server_cluster + 1 + index) % n_clusters))
    return pids


register_workload(
    "flood", _build_flood,
    EntryMetadata(
        description="unpaced producer(s) overrunning a slow server: "
                    "a deep unread server queue",
        params={
            "items": ParamSpec(int, "items flooded per producer",
                               default=10),
            "service": ParamSpec(int, "server ticks per item",
                                 default=3_000),
            "producers": ParamSpec(int, "producer processes, one "
                                        "channel each", default=1),
        }))
