"""Kernel pipe objects with bounded buffers (backpressure).

The bounded buffer is essential for realistic pipeline behaviour: stages
overlap, fast producers block on slow consumers, and ``head``-style early
exit propagates upstream as :class:`~repro.vos.errors.BrokenPipe`.

The buffer is a **deque of producer chunks**, not one flat ``bytearray``:
``push_vector`` keeps whole chunks by reference (``bytes`` or
``memoryview``; a zero-copy ``memoryview`` split is taken only where a
chunk straddles the capacity limit) and ``pull_chunks`` hands the same
objects back to the reader, at byte granularity: a pull of ``nbytes``
always removes ``min(nbytes, size)`` bytes, so blocking/wake order — and
therefore virtual time — is that of a flat buffer (DESIGN.md §11).
"""

from __future__ import annotations

from collections import deque

from .errors import BrokenPipe

DEFAULT_PIPE_CAPACITY = 64 * 1024


class Pipe:
    """A unidirectional byte channel shared by reader/writer handles."""

    _counter = 0

    def __init__(self, capacity: int = DEFAULT_PIPE_CAPACITY):
        Pipe._counter += 1
        self.id = Pipe._counter
        self.capacity = capacity
        self.chunks: deque = deque()  # bytes-like producer chunks
        self.size = 0  # total buffered bytes across chunks
        self.readers = 0  # open read handles
        self.writers = 0  # open write handles
        self.read_waiters: list = []  # processes blocked on empty buffer
        self.write_waiters: list = []  # processes blocked on full buffer
        # accounting
        self.total_bytes = 0
        self.peak_bytes = 0  # high-water mark of buffer occupancy

    # -- state queries -----------------------------------------------------

    @property
    def at_eof(self) -> bool:
        return self.writers == 0 and not self.size

    def space(self) -> int:
        return self.capacity - self.size

    # -- data movement (kernel performs blocking around these) ----------------

    def _accept(self, n: int) -> None:
        self.size += n
        self.total_bytes += n
        if self.size > self.peak_bytes:
            self.peak_bytes = self.size

    def push_vector(self, parts: list) -> tuple[int, list]:
        """Accept a vector of chunks; returns ``(accepted_bytes,
        remaining_parts)`` where ``remaining_parts`` references the
        unaccepted suffix without copying."""
        if self.readers == 0:
            raise BrokenPipe(f"pipe {self.id}")
        accepted = 0
        for i, part in enumerate(parts):
            n = len(part)
            if n == 0:  # nothing to wait for, even when full
                continue
            space = self.space()
            if space <= 0:
                return accepted, parts[i:]
            if n <= space:
                self.chunks.append(part)
                self._accept(n)
                accepted += n
            else:
                view = memoryview(part)
                self.chunks.append(view[:space])
                self._accept(space)
                accepted += space
                rest = [view[space:]]
                rest.extend(parts[i + 1:])
                return accepted, rest
        return accepted, []

    def pull_chunks(self, nbytes: int) -> list:
        """Remove and return up to ``nbytes`` bytes as a list of whole
        producer chunks (zero-copy); the final chunk is split with a
        ``memoryview`` if it straddles the limit.  Total length is exactly
        ``min(nbytes, size)``."""
        out: list = []
        taken = 0
        chunks = self.chunks
        while chunks and taken < nbytes:
            chunk = chunks[0]
            n = len(chunk)
            if taken + n <= nbytes:
                out.append(chunks.popleft())
                taken += n
            else:
                keep = nbytes - taken
                view = chunk if isinstance(chunk, memoryview) else memoryview(chunk)
                out.append(view[:keep])
                chunks[0] = view[keep:]
                taken += keep
        self.size -= taken
        return out
