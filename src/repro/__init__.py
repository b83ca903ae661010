"""repro: a reproduction of Borg, Baumbach & Glazer,
"A Message System Supporting Fault Tolerance" (SOSP 1983).

The package simulates the Auragen 4000 / Auros system: three-way atomic
message delivery keeps inactive backup processes recoverable; periodic
synchronization bounds rollforward; crash handling promotes backups with
exactly-once externally visible behaviour.

Quickstart::

    from repro import Machine, MachineConfig, BackupMode
"""

from .backup.modes import BackupMode
from .config import CostModel, MachineConfig
from .core.machine import Machine, MachineError

__version__ = "1.0.0"

__all__ = [
    "BackupMode",
    "CostModel",
    "MachineConfig",
    "Machine",
    "MachineError",
    "__version__",
]
