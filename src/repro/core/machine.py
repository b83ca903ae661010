"""The public facade: build and drive a fault-tolerant Auragen machine.

Typical use::

    from repro import Machine, MachineConfig
    from repro.backup.modes import BackupMode

    machine = Machine(MachineConfig(n_clusters=3))
    pid = machine.spawn(MyProgram(), backup_mode=BackupMode.FULLBACK)
    machine.crash_cluster(0, at=500_000)
    machine.run_until_idle()
    print(machine.tty_output())

A Machine owns the simulator, hardware, one kernel per cluster, the four
well-known servers (file, page, tty, process), the failure detector and
the metrics.  Everything is deterministic given (config, the spawn/crash
calls you make, and their order).

A machine's components refer to one another in cycles, so a finished one
is reclaimed only by the cyclic collector unless :meth:`Machine.close`
takes it apart first.  A driver that builds more than one machine calls
``close()`` on each once it has read its results.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..backup.modes import BackupMode
from ..config import WORDS_PER_PAGE, MachineConfig
from ..hardware.bus import InterclusterBus
from ..hardware.cluster import Cluster
from ..hardware.topology import Topology
from ..kernel.directory import Directory
from ..kernel.kernel import ClusterKernel
from ..kernel.pcb import ProcessControlBlock
from ..messages.message import (Delivery, DeliveryRole, Message,
                                MessageKind)
from ..messages.routing import PeerKind, RoutingEntry
from ..metrics import MetricSet
from ..paging.store import PageStore
from ..fs.shadowfs import ShadowFS
from ..programs.program import Program
from ..recovery.detector import HeartbeatMonitor, schedule_detection
from ..servers import (PeripheralServerHarness, TtyDevice,
                       register_server_actions)
from ..servers.fileserver import FileServerProgram, fs_resource_handler
from ..servers.pageserver import PageServerProgram, page_resource_handler
from ..servers.processserver import ProcessServerProgram
from ..servers.rawserver import RawServerProgram, raw_resource_handler
from ..servers.ttyserver import TtyServerProgram, tty_resource_handler
from ..sim import Simulator, TraceLog
from ..types import ClusterId, Pid, Ticks


class MachineError(Exception):
    """Raised on invalid facade usage (bad cluster id, double crash, any
    use after :meth:`Machine.close`)."""


class Machine:
    """A complete simulated Auragen 4000 running Auros."""

    def __init__(self, config: Optional[MachineConfig] = None,
                 topology: Optional[Topology] = None) -> None:
        self.config = (config or MachineConfig()).validate()
        self.metrics = MetricSet(
            keep_series=self.config.metrics_raw_series)
        self.trace = TraceLog(enabled=self.config.trace_enabled)
        self.sim = Simulator(trace=self.trace)
        self.topology = (topology if topology is not None
                         else Topology.default(self.config))
        self.disks = self.topology.build_disks()
        self.bus = InterclusterBus(self.sim, self.config.costs,
                                   self.metrics, self.trace)
        # With rates at zero no fault layer is installed and the bus
        # keeps its fault-free fast path untouched.
        self.bus.configure_faults(self.config.bus_faults)
        self.clusters: List[Cluster] = [
            Cluster(cid, self.config, self.sim, self.bus, self.metrics,
                    self.trace)
            for cid in range(self.config.n_clusters)]
        self.directory = Directory(n_clusters=self.config.n_clusters)
        self.kernels: List[ClusterKernel] = [
            ClusterKernel(cluster, self.config, self.directory, self.sim,
                          self.metrics, self.trace)
            for cluster in self.clusters]
        #: pid -> exit code for every cleanly exited process.
        self.exits: Dict[Pid, int] = {}
        #: pid -> virtual time of the exit (completion-latency metric).
        self.exit_times: Dict[Pid, Ticks] = {}
        for kernel in self.kernels:
            register_server_actions(kernel)
            kernel.on_exit = self._record_exit
            kernel.on_fatal = self._on_fatal_hardware
        self._spawn_cluster_rr = 0
        self._restore_epoch = 0
        self._crashed: set = set()
        self.tty_device = TtyDevice()
        self._tty_input_seq = 0
        #: Fault injectors armed on this machine (they add themselves);
        #: :meth:`close` detaches them from the trace.
        self.injectors: list = []
        self._closed = False
        # Same post-construction idiom as the bus fault layer: with the
        # poll detector alone this is None, no hook fires, and the
        # machine's traces stay byte-identical to a build without it.
        self.heartbeat = None
        if self.config.detector == "heartbeat":
            self.heartbeat = HeartbeatMonitor(self)
            for kernel in self.kernels:
                kernel.heartbeat = self.heartbeat
        self._boot_servers()

    # ------------------------------------------------------------------
    # boot
    # ------------------------------------------------------------------

    def _boot_servers(self) -> None:
        """Create the well-known servers.  Placement follows the topology:
        peripheral servers sit in the two clusters ported to their device
        (section 7.9)."""
        kernel0, kernel1 = self.kernels[0], self.kernels[1]
        fs_pid = kernel0.alloc_pid()
        page_pid = kernel0.alloc_pid()
        tty_pid = kernel0.alloc_pid()
        proc_pid = kernel0.alloc_pid()
        raw_pid = kernel0.alloc_pid()
        self.directory.register_server("fs", fs_pid, 0, 1)
        self.directory.register_server("page", page_pid, 0, 1)
        self.directory.register_server("tty", tty_pid, 0, 1)
        self.directory.register_server("proc", proc_pid, 0, 1)
        self.directory.register_server("raw", raw_pid, 0, 1)

        def install(name, program, device, resource_handler):
            harness = PeripheralServerHarness(
                name, program, device, ports=(0, 1),
                resource_handler=resource_handler,
                sync_every_requests=self.config.server_sync_requests)
            harness.install(kernel0, kernel1,
                            self.directory.server(name).pid)
            return harness

        self.page_harness = install(
            "page", PageServerProgram,
            PageStore(self.disks["pagedisk"], cluster_id=0),
            page_resource_handler)
        self.fs_harness = install(
            "fs", FileServerProgram,
            ShadowFS(self.disks["disk0"], cluster_id=0,
                     words_per_block=WORDS_PER_PAGE),
            fs_resource_handler)
        self.tty_harness = install("tty", TtyServerProgram, self.tty_device,
                                   tty_resource_handler)
        self._wire_tty_device_channel(tty_pid)
        self.raw_harness = install("raw", RawServerProgram,
                                   self.disks["rawdisk"],
                                   raw_resource_handler)

        proc_mode = (BackupMode.FULLBACK if self.config.n_clusters >= 3
                     else BackupMode.HALFBACK)
        kernel0.create_process(
            ProcessServerProgram(), proc_mode, fixed_pid=proc_pid,
            is_server=True, notify_backup=True)

    def _wire_tty_device_channel(self, tty_pid: Pid) -> None:
        """The terminal multiplexor's input channel: one entry per port."""
        kernel0, kernel1 = self.kernels[0], self.kernels[1]
        self._tty_dev_channel = kernel0.alloc_channel_id()
        primary_entry = RoutingEntry(
            channel_id=self._tty_dev_channel, owner_pid=tty_pid,
            is_backup=False, peer_pid=None, peer_cluster=None,
            peer_backup_cluster=None, peer_kind=PeerKind.SERVER)
        kernel0.routing.add(primary_entry)
        pcb = kernel0.pcbs[tty_pid]
        primary_entry.fd = pcb.alloc_fd(self._tty_dev_channel)
        kernel1.routing.add(RoutingEntry(
            channel_id=self._tty_dev_channel, owner_pid=tty_pid,
            is_backup=True, peer_pid=None, peer_cluster=None,
            peer_backup_cluster=None, peer_kind=PeerKind.SERVER))
        self.tty_harness.device_channels.append(self._tty_dev_channel)

    # ------------------------------------------------------------------
    # disposal
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Take the finished machine apart so refcounting frees it.

        Drops the pending events, detaches the bus, clusters, kernels,
        schedulers, heartbeat monitor and fault injectors from one
        another, and lets go of all of them.  Call it once the results
        have been read: ``config``, ``metrics``, ``trace``, ``exits``,
        ``exit_times``, ``tty_output()`` and ``sim.now`` stay readable,
        every other use raises :class:`MachineError`.  Idempotent.  Not
        a resource release: a machine that is never closed is merely
        left to the collector.
        """
        if self._closed:
            return
        self._closed = True
        for injector in self.injectors:
            injector.detach()
        self.sim.close()
        self.bus.close()
        for cluster in self.clusters:
            cluster.close()
        for kernel in self.kernels:
            kernel.close()
        self.injectors = []
        self.clusters = []
        self.kernels = []
        self.bus = self.heartbeat = None

    def _check_open(self) -> None:
        if self._closed:
            raise MachineError("machine is closed: close() released its "
                               "simulator, clusters and kernels")

    # ------------------------------------------------------------------
    # process management
    # ------------------------------------------------------------------

    def spawn(self, program: Program,
              backup_mode: Optional[BackupMode] = BackupMode.QUARTERBACK,
              cluster: Optional[ClusterId] = None,
              sync_reads_threshold: Optional[int] = None,
              sync_time_threshold: Optional[Ticks] = None,
              checkpoint_every: Optional[int] = None) -> Pid:
        """Create a new head-of-family user process.  Returns its pid.

        ``backup_mode=None`` runs the process *unprotected* (the no-FT
        baseline).  ``checkpoint_every=N`` switches the process to the
        section 2 explicit-checkpointing baseline: a whole-data-space copy
        every N operations instead of incremental syncs.
        """
        self._check_open()
        if backup_mode is BackupMode.FULLBACK and self.config.n_clusters < 3:
            raise MachineError("fullbacks need at least three clusters "
                               "(section 7.3)")
        if cluster is None:
            cluster = self._spawn_cluster_rr % self.config.n_clusters
            self._spawn_cluster_rr += 1
        if not self.clusters[cluster].alive:
            raise MachineError(f"cluster {cluster} is down")
        if checkpoint_every is not None:
            # Checkpoint mode replaces the incremental sync triggers.
            sync_reads_threshold = 10 ** 9
            sync_time_threshold = 10 ** 15
        pcb = self.kernels[cluster].create_process(
            program, backup_mode,
            sync_reads_threshold=sync_reads_threshold,
            sync_time_threshold=sync_time_threshold,
            notify_backup=backup_mode is not None)
        if checkpoint_every is not None:
            pcb.checkpoint_every = checkpoint_every
        return pcb.pid

    def find_pcb(self, pid: Pid) -> Optional[ProcessControlBlock]:
        """Locate a live process anywhere in the machine."""
        self._check_open()
        for kernel in self.kernels:
            if kernel.alive and pid in kernel.pcbs:
                return kernel.pcbs[pid]
        return None

    def _record_exit(self, pid: Pid, code: int, cluster: ClusterId) -> None:
        self.exits[pid] = code
        self.exit_times[pid] = self.sim.now

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    def run(self, until: Optional[Ticks] = None,
            max_events: Optional[int] = None) -> Ticks:
        """Advance the simulation (see :meth:`Simulator.run`)."""
        self._check_open()
        return self.sim.run(until=until, max_events=max_events)

    def run_until_idle(self, max_events: int = 10_000_000) -> Ticks:
        """Run until nothing is scheduled (blocked processes may remain)."""
        self._check_open()
        return self.sim.run_until_idle(max_events=max_events)

    # ------------------------------------------------------------------
    # failure injection and repair
    # ------------------------------------------------------------------

    def crash_cluster(self, cluster_id: ClusterId,
                      at: Optional[Ticks] = None) -> None:
        """Hard-crash one cluster, now or at virtual time ``at``."""
        self._check_open()
        if not 0 <= cluster_id < self.config.n_clusters:
            raise MachineError(f"no cluster {cluster_id}")

        def do_crash() -> None:
            if cluster_id in self._crashed:
                return
            self._crashed.add(cluster_id)
            self.clusters[cluster_id].crash()
            schedule_detection(self.kernels, cluster_id, self.heartbeat)

        if at is None:
            do_crash()
        else:
            self.sim.post(at - self.sim.now, do_crash)

    def _on_fatal_hardware(self, cluster_id: ClusterId,
                           reason: str) -> None:
        """A kernel hit unrecoverable hardware (e.g. both drives of its
        disk dead): convert it into a clean whole-cluster crash so the
        failure surfaces through the detector path, never as an
        exception escaping the event loop."""
        self.crash_cluster(cluster_id)

    def fail_process(self, pid: Pid, at: Optional[Ticks] = None) -> None:
        """Fail one process without crashing its cluster (the section 10
        individual-failure extension): its backup alone is brought up."""
        self._check_open()
        from ..recovery.procfail import ProcFailure, fail_process

        def do_fail() -> None:
            for kernel in self.kernels:
                if kernel.alive and pid in kernel.pcbs:
                    fail_process(kernel, pid)
                    return
            raise ProcFailure(f"pid {pid} is not running anywhere")

        if at is None:
            do_fail()
        else:
            self.sim.post(at - self.sim.now, do_fail)

    def restore_cluster(self, cluster_id: ClusterId) -> None:
        """Return a crashed cluster to service with a fresh kernel.

        Halfbacks that lost a backup there get a new one via a full sync
        (section 7.3: "new backups created only when the cluster in which
        the original primary ran is returned to service").
        """
        self._check_open()
        if cluster_id not in self._crashed:
            raise MachineError(f"cluster {cluster_id} is not down")
        self._crashed.discard(cluster_id)
        self._restore_epoch += 1
        cluster = self.clusters[cluster_id]
        cluster.revive()
        # Crash handling elsewhere reads only messages and the directory,
        # never the dead kernel: release it (and its scheduler) now, or
        # the pair outlives the machine as a cycle.
        self.kernels[cluster_id].close()
        fresh = ClusterKernel(cluster, self.config, self.directory,
                              self.sim, self.metrics, self.trace)
        # Restarted kernels allocate from a fresh epoch so ids never
        # collide with survivors of the crashed incarnation.
        epoch_base = self._restore_epoch * 100_000
        fresh._next_pid = epoch_base + 1
        fresh._next_chan = epoch_base + 1
        fresh._next_msg = epoch_base + 1
        fresh.known_dead = set(self._crashed)
        fresh.on_exit = self._record_exit
        fresh.on_fatal = self._on_fatal_hardware
        register_server_actions(fresh)
        fresh.heartbeat = self.heartbeat
        self.kernels[cluster_id] = fresh
        self.directory.mark_restored(cluster_id)
        self.trace.emit(self.sim.now, "cluster.restore",
                        cluster=cluster_id)
        # Peripheral servers whose backup lived in the restored cluster
        # get a fresh active backup there (server halfback semantics,
        # section 7.3).
        for harness in (self.page_harness, self.fs_harness,
                        self.tty_harness, self.raw_harness):
            if harness.backup_cluster is None \
                    and cluster_id in harness.ports \
                    and harness.primary_cluster != cluster_id \
                    and self.clusters[harness.primary_cluster].alive:
                harness.reinstall_backup(
                    fresh, self.kernels[harness.primary_cluster])
        for kernel in self.kernels:
            if not kernel.alive:
                continue
            kernel.known_dead.discard(cluster_id)
            for pcb in kernel.pcbs.values():
                if pcb.lost_backup_in == cluster_id \
                        and pcb.backup_mode is BackupMode.HALFBACK \
                        and not pcb.is_server:
                    pcb.lost_backup_in = None
                    pcb.full_sync_target = cluster_id
                    pcb.sync_forced = True
                    if pcb.state.value.startswith("blocked"):
                        from ..backup.sync import perform_sync
                        perform_sync(kernel, pcb)

    # ------------------------------------------------------------------
    # terminal IO
    # ------------------------------------------------------------------

    def tty_type(self, text: str, at: Optional[Ticks] = None) -> None:
        """Inject one line of terminal input (device-level event)."""
        self._check_open()

        def deliver() -> None:
            harness = self.tty_harness
            primary = harness.primary_cluster
            self._tty_input_seq += 1
            deliveries = [Delivery(primary, DeliveryRole.PRIMARY_DEST,
                                   harness.pid, self._tty_dev_channel)]
            if harness.backup_cluster is not None:
                deliveries.append(
                    Delivery(harness.backup_cluster,
                             DeliveryRole.DEST_BACKUP, harness.pid,
                             self._tty_dev_channel))
            message = Message(
                msg_id=-self._tty_input_seq, kind=MessageKind.DATA,
                src_pid=None, dst_pid=harness.pid,
                channel_id=self._tty_dev_channel,
                payload=("input", text), size_bytes=len(text) + 8,
                deliveries=tuple(deliveries))
            # Deliver through every live port: if the primary's cluster is
            # down (pre-detection window), the copy saved at the backup's
            # port is what the promoted server will consume.
            for leg in deliveries:
                if self.clusters[leg.cluster_id].alive:
                    self.clusters[leg.cluster_id].receive(message)

        if at is None:
            deliver()
        else:
            self.sim.post(at - self.sim.now, deliver)

    def tty_output(self) -> List[str]:
        """Lines printed at the terminal, in device order (the externally
        visible behaviour experiment E8 compares)."""
        return self.tty_device.output_texts()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def live_process_count(self) -> int:
        self._check_open()
        return sum(len(k.pcbs) for k in self.kernels if k.alive)

    def backup_record_count(self) -> int:
        self._check_open()
        return sum(len(k.backups) for k in self.kernels if k.alive)

    def describe(self) -> Dict[str, Any]:
        """A snapshot of machine state for reports and debugging."""
        return {
            "now": self.sim.now,
            "clusters": {c.cluster_id: ("up" if c.alive else "DOWN")
                         for c in self.clusters},
            "processes": self.live_process_count(),
            "backups": self.backup_record_count(),
            "exits": dict(self.exits),
            "tty_lines": len(self.tty_device.output),
        }
