"""Machine topology: clusters, bus, dual-ported peripherals.

This module also renders the section 7.1 architecture figure (experiment
F1): the Auragen 4000's clusters of work/executive processors on the dual
intercluster bus, with peripherals dual-ported between cluster pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..config import PAGE_SIZE, WORK_PROCESSORS_PER_CLUSTER, MachineConfig
from ..types import ClusterId
from .disk import MirroredDisk


@dataclass
class PeripheralSpec:
    """A peripheral and the two clusters it is ported to."""

    name: str
    kind: str  # "disk" | "tty"
    ports: Tuple[ClusterId, ClusterId]


@dataclass
class Topology:
    """Static shape of a machine: which peripherals hang off which clusters.

    Default placement: one mirrored disk (file system + paging space)
    ported to clusters (0, 1) and one tty ported to (0, 1); larger machines
    get an additional disk per adjacent cluster pair, mirroring the paper's
    "it is possible for a cluster to have no peripherals".
    """

    config: MachineConfig
    peripherals: List[PeripheralSpec] = field(default_factory=list)

    @classmethod
    def default(cls, config: MachineConfig) -> "Topology":
        topo = cls(config=config)
        topo.peripherals.append(
            PeripheralSpec(name="disk0", kind="disk", ports=(0, 1)))
        topo.peripherals.append(
            PeripheralSpec(name="pagedisk", kind="disk", ports=(0, 1)))
        topo.peripherals.append(
            PeripheralSpec(name="rawdisk", kind="disk", ports=(0, 1)))
        topo.peripherals.append(
            PeripheralSpec(name="tty0", kind="tty", ports=(0, 1)))
        # One extra data disk per further pair of clusters.
        extra = 0
        for low in range(2, config.n_clusters - 1, 2):
            extra += 1
            topo.peripherals.append(
                PeripheralSpec(name=f"disk{extra}", kind="disk",
                               ports=(low, low + 1)))
        return topo

    def disks_for(self, cluster_id: ClusterId) -> List[PeripheralSpec]:
        return [p for p in self.peripherals
                if p.kind == "disk" and cluster_id in p.ports]

    def build_disks(self) -> Dict[str, MirroredDisk]:
        """Instantiate the mirrored disks named by the topology."""
        disks: Dict[str, MirroredDisk] = {}
        for index, spec in enumerate(p for p in self.peripherals
                                     if p.kind == "disk"):
            disks[spec.name] = MirroredDisk(
                disk_id=index, ports=spec.ports, costs=self.config.costs,
                block_size=PAGE_SIZE)
        return disks

    # -- figure F1: the section 7.1 architecture diagram --------------------

    def render(self) -> str:
        """Render the machine as ASCII art in the style of the paper's
        processor-cluster figure."""
        lines: List[str] = []
        width = 30
        for cid in range(self.config.n_clusters):
            attached = [p.name for p in self.peripherals if cid in p.ports]
            lines.append(f"+{'-' * width}+")
            lines.append(f"| Processor Cluster {cid:<2}{' ' * (width - 21)} |")
            lines.append(f"|  Work Processor(s) x{WORK_PROCESSORS_PER_CLUSTER}"
                         f"{' ' * (width - 23)} |")
            lines.append(f"|  Executive Processor{' ' * (width - 21)} |")
            lines.append(f"|  Shared Memory{' ' * (width - 15)} |")
            if attached:
                label = f"  IO: {', '.join(attached)}"
                lines.append(f"|{label:<{width}} |")
            lines.append(f"+{'-' * width}+")
            lines.append(f"{' ' * (width // 2)}||")
        lines.append("=" * (width + 8) + "  << dual intercluster bus >>")
        shared = [f"{p.name}({p.kind}) <-> clusters {p.ports[0]},{p.ports[1]}"
                  for p in self.peripherals]
        lines.append("dual-ported peripherals: " + "; ".join(shared))
        return "\n".join(lines)

    def summary(self) -> Dict[str, object]:
        """Structured facts about the topology (used by the F1 bench)."""
        return {
            "clusters": self.config.n_clusters,
            "work_processors": (self.config.n_clusters
                                * WORK_PROCESSORS_PER_CLUSTER),
            "executive_processors": self.config.n_clusters,
            "disks": sum(1 for p in self.peripherals if p.kind == "disk"),
            "ttys": sum(1 for p in self.peripherals if p.kind == "tty"),
            "all_peripherals_dual_ported": all(
                p.ports[0] != p.ports[1] for p in self.peripherals),
        }
