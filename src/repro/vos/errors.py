"""Error types for the virtual OS."""

from __future__ import annotations


class VosError(Exception):
    """Base class for virtual-OS errors (maps to errno-style failures)."""


class FileNotFound(VosError):
    strerror = "No such file or directory"


class IsADirectory(VosError):
    strerror = "Is a directory"


class NotADirectory(VosError):
    pass


class BadFileDescriptor(VosError):
    pass


class BrokenPipe(VosError):
    """Write to a pipe whose read end has been closed (SIGPIPE analogue)."""


class NoSuchProcess(VosError):
    pass


class KernelStall(VosError):
    """The kernel's main loop stopped making progress: iteration after
    iteration moved neither the virtual clock nor any process."""


class InjectedFault(VosError):
    """Base class for failures injected by :mod:`repro.vos.faults`.

    Deliberately *not* a subclass of :class:`BrokenPipe`: an injected
    fault must surface as an I/O error (exit status 74, sysexits
    ``EX_IOERR``) rather than be masked as a benign SIGPIPE death.
    """


class InjectedDiskError(InjectedFault):
    """Injected disk I/O failure (EIO analogue)."""


class InjectedPipeBreak(InjectedFault):
    """Injected pipe breakage (the read end 'vanished')."""


class InjectedPartialWrite(InjectedFault):
    """Injected torn write: a prefix of the data reached the target
    (file bytes or pipe buffer) before the operation failed.  Unlike
    :class:`InjectedDiskError`, state HAS been mutated — recovery layers
    must roll the torn prefix back (staged sinks) or overwrite it
    (journal resume), never trust it."""


class InjectedNetError(InjectedFault):
    """Injected network failure: a cross-node transfer was lost (message
    drop) or refused (partition).  The sender dies with EX_IOERR like a
    connection reset, so distributed recovery retries the branch on a
    surviving replica."""


class ReadOnlyHandle(VosError):
    pass


class WriteOnlyHandle(VosError):
    pass
