"""S3 — the virtual OS substrate: discrete-event kernel, filesystem,
devices, pipes, and machine profiles.

This package substitutes for the paper's EC2 testbed: commands process
real bytes while the kernel charges virtual time against CPU, disk
(throughput + IOPS + burst credits), and pipe backpressure models.
"""

from .devices import Disk, DiskSpec, gp2_spec, gp3_spec
from .errors import (
    BadFileDescriptor,
    BrokenPipe,
    FileNotFound,
    InjectedDiskError,
    InjectedFault,
    InjectedNetError,
    InjectedPartialWrite,
    InjectedPipeBreak,
    IsADirectory,
    KernelStall,
    NotADirectory,
    VosError,
)
from .faults import (
    CRASH_STATUS,
    EX_IOERR,
    FAULT_STATUSES,
    FaultEvent,
    FaultPlan,
    FaultSpec,
)
from .fs import FileNode, FileSystem, normalize
from .handles import (
    Collector,
    FileHandle,
    Handle,
    NullHandle,
    PipeReader,
    PipeWriter,
    StringSource,
    make_pipe,
)
from .kernel import Kernel, Node, SIGPIPE_STATUS
from .machines import (
    MachineSpec,
    PROFILES,
    aws_c5_2xlarge_gp2,
    aws_c5_2xlarge_gp3,
    laptop,
    profile,
    raspberry_pi,
    supercomputer_node,
)
from .pipes import Pipe
from .process import CHUNK, Process
from .syscalls import (
    CloseReq,
    CpuReq,
    CpuVReq,
    KillReq,
    NetSendReq,
    OpenReq,
    ReadReq,
    ReadVReq,
    SleepReq,
    SpawnReq,
    SpliceReq,
    WaitReq,
    WriteReq,
    WriteVReq,
)

__all__ = [
    "Disk", "DiskSpec", "gp2_spec", "gp3_spec",
    "BadFileDescriptor", "BrokenPipe", "FileNotFound", "InjectedDiskError",
    "InjectedFault", "InjectedNetError", "InjectedPartialWrite",
    "InjectedPipeBreak", "IsADirectory", "KernelStall",
    "NotADirectory", "VosError",
    "CRASH_STATUS", "EX_IOERR", "FAULT_STATUSES", "FaultEvent", "FaultPlan",
    "FaultSpec",
    "FileNode", "FileSystem", "normalize",
    "Collector", "FileHandle", "Handle", "NullHandle", "PipeReader",
    "PipeWriter", "StringSource", "make_pipe",
    "Kernel", "Node", "SIGPIPE_STATUS",
    "MachineSpec", "PROFILES", "aws_c5_2xlarge_gp2", "aws_c5_2xlarge_gp3",
    "laptop", "profile", "raspberry_pi", "supercomputer_node",
    "Pipe", "CHUNK", "Process",
    "CloseReq", "CpuReq", "CpuVReq", "KillReq", "NetSendReq",
    "OpenReq", "ReadReq", "ReadVReq", "SleepReq", "SpawnReq", "SpliceReq",
    "WaitReq", "WriteReq", "WriteVReq",
]
