"""S4 — coreutils implemented as vOS processes.

Importing this package populates the command registry
(:data:`repro.commands.base.REGISTRY`): streaming implementations of the
POSIX utilities the paper's pipelines use, each charging CPU and IO
against the virtual machine model.
"""

from .base import (
    CPU_PER_BYTE,
    PROC_STARTUP,
    REGISTRY,
    SORT_CMP_COST,
    Args,
    Grammar,
    LineStream,
    OutBuf,
    UsageError,
    command,
    cpu_coeff,
    lookup,
    parse_args,
)
from . import awk_lite, filters, fs_cmds, io_cmds, sorting, xargs  # noqa: F401 - registration

__all__ = [
    "CPU_PER_BYTE", "PROC_STARTUP", "REGISTRY", "SORT_CMP_COST", "Args",
    "Grammar", "LineStream", "OutBuf", "UsageError", "command", "cpu_coeff",
    "lookup", "parse_args",
]
