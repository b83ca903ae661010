"""Operating-system server processes (sections 7.6 and 7.9)."""

from .base import (ApplyServerSync, ChannelOf, FdOfChannel, LookupServer,
                   PeripheralServerHarness, PeripheralServerProgram,
                   ResourceOp, SendServerSync, ServerError,
                   register_server_actions)
from .fileserver import FS_CHANNEL_BASE, FileServerProgram
from .pageserver import PageServerProgram
from .processserver import ProcessServerProgram
from .rawserver import RawServerProgram
from .ttyserver import TtyDevice, TtyServerProgram

__all__ = [
    "ApplyServerSync",
    "ChannelOf",
    "FdOfChannel",
    "LookupServer",
    "PeripheralServerHarness",
    "PeripheralServerProgram",
    "ResourceOp",
    "SendServerSync",
    "ServerError",
    "register_server_actions",
    "FS_CHANNEL_BASE",
    "FileServerProgram",
    "PageServerProgram",
    "ProcessServerProgram",
    "RawServerProgram",
    "TtyDevice",
    "TtyServerProgram",
]
