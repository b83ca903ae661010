"""The negative ablations of experiment E13, as in-process method patches.

Each ablation removes one pillar of the design from ``ClusterKernel`` for
the duration of a ``with`` block, so a run inside it shows what recovery
loses without that pillar:

* :func:`no_saved_queues` — section 5.1: DEST_BACKUP copies are dropped
  instead of saved, so a promoted backup has no input to replay;
* :func:`no_send_suppression` — section 5.4: a rolling-forward process
  ignores its writes-since-sync counts and re-sends what the lost
  primary already sent.

Both patch the class, so build and run the machine inside the block.
"""

from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.kernel.kernel import ClusterKernel


@contextmanager
def _patched(name: str, method: Callable[..., Any]) -> Iterator[None]:
    original = getattr(ClusterKernel, name)
    setattr(ClusterKernel, name, method)
    try:
        yield
    finally:
        setattr(ClusterKernel, name, original)


def no_saved_queues():
    """Section 5.1 ablated: every DEST_BACKUP copy is dropped, and
    counted as ``ablation.backup_copies_dropped``."""
    def drop_dest_backup(self, message, delivery, seqno):
        self.metrics.incr("ablation.backup_copies_dropped")

    return _patched("_deliver_dest_backup", drop_dest_backup)


def no_send_suppression():
    """Section 5.4 ablated: no send is suppressed during rollforward;
    each send zeroes the entry's writes-since-sync count first."""
    original = ClusterKernel.send_user_message

    def send_unsuppressed(self, pcb, entry, *args, **kwargs):
        entry.writes_since_sync = 0
        return original(self, pcb, entry, *args, **kwargs)

    return _patched("send_user_message", send_unsuppressed)
