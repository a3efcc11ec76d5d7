"""Command infrastructure: registry, option grammars, streaming helpers,
CPU cost table.

A command is a generator function executed as a vOS process body.
Commands stream: they read chunks, charge CPU work proportional to
bytes/lines handled (coefficients below), and write incrementally, so
pipeline stages overlap and backpressure applies — the properties the
paper's G2 ("stream processing") celebrates.

Each command's option grammar is declared once, on its ``@command``
registration: ``@command("sort", Grammar("rnumcf", valued="kto"))``.
The registered ``run(proc, argv)`` parses the argv with it — a usage
error is the body's ``NAME: ERR`` on fd 2 and status 2 — and calls the
body as ``body(proc, opts, operands)``.  Everything else that reads an
argv reads it through :func:`parse_args`, the same grammar: the
annotation rules (:mod:`repro.annotations.library`), the pool matcher,
the sort merge, the misuse guard and ``explain``.  A command registered
without a grammar reads its argv itself, and every word of it counts
as an operand.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from ..vos.errors import FileNotFound, IsADirectory
from ..vos.process import CHUNK, Process

# ---------------------------------------------------------------------------
# CPU cost coefficients (reference-CPU seconds)
# ---------------------------------------------------------------------------

#: seconds of CPU per byte processed, per command family.  Derived from
#: rough GNU coreutils throughputs on one core: cat moves ~1 GB/s, tr ~150
#: MB/s, grep ~250 MB/s, sort ~30 MB/s (comparison dominated).
CPU_PER_BYTE = {
    "cat": 1.0e-9,
    "tee": 1.2e-9,
    "tr": 6.5e-9,
    "grep": 4.0e-9,
    "cut": 5.0e-9,
    "wc": 2.5e-9,
    "head": 0.8e-9,
    "tail": 0.8e-9,
    "uniq": 3.0e-9,
    "comm": 3.5e-9,
    "sed": 7.0e-9,
    "sort": 9.0e-9,  # plus per-comparison cost below
    "join": 4.0e-9,
    "paste": 2.0e-9,
    "rev": 3.0e-9,
    "shuf": 4.0e-9,
    "seq": 1.5e-9,
    "split": 1.2e-9,
    "xargs": 2.0e-9,
    "default": 2.0e-9,
}

#: extra cost per line-comparison for sorting (n log n term).
SORT_CMP_COST = 120e-9

#: fixed process start-up cost (fork+exec analogue).
PROC_STARTUP = 0.002


def cpu_coeff(name: str) -> float:
    return CPU_PER_BYTE.get(name, CPU_PER_BYTE["default"])


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

CommandFn = Callable  # (proc, argv) -> generator returning int

REGISTRY: dict[str, CommandFn] = {}

#: each registered command's argv reader: ``grammar(argv) -> Args``
GRAMMARS: dict[str, Callable[[list[str]], "Args"]] = {}


def command(name: str, grammar: Optional[Callable] = None):
    """Decorator registering a command implementation under ``name``.

    With a ``grammar`` (a :class:`Grammar`, or a function ``argv ->
    Args`` raising :class:`UsageError`) the body is ``fn(proc, opts,
    operands)`` and the registered ``run(proc, argv)`` parses first;
    without one the body is ``fn(proc, argv)`` itself."""

    def wrap(fn: CommandFn) -> CommandFn:
        if grammar is None:
            run = fn
        else:
            def run(proc, argv):
                try:
                    args = grammar(argv)
                except UsageError as err:
                    return usage_error(proc, name, err)
                return fn(proc, args.opts, args.operands)

            GRAMMARS[name] = grammar
        REGISTRY[name] = run
        run.command_name = name
        return run

    return wrap


def lookup(name: str) -> Optional[CommandFn]:
    return REGISTRY.get(name)


# ---------------------------------------------------------------------------
# Streaming helpers (sub-generators used with `yield from`)
# ---------------------------------------------------------------------------


class LineStream:
    """Incremental line reader over an fd.

    ``line = yield from stream.next_line()`` returns one line (with its
    newline, except possibly the stream's last) as ``bytes``, None at EOF.
    """

    def __init__(self, proc: Process, fd: int, chunk: int = CHUNK):
        self.proc = proc
        self.fd = fd
        self.chunk = chunk
        self._buf = bytearray()  # the partial line carried between reads
        self._eof = False
        self._lines: list[bytes] = []  # parsed; pending delivery from _pos
        self._pos = 0

    def _fill(self):
        """One read, parsed into the line buffer; callers fill only
        once every buffered line has been delivered."""
        data = yield from self.proc.read(self.fd, self.chunk)
        if not data:
            self._eof = True
            if self._buf:
                self._lines, self._pos = [bytes(self._buf)], 0
                self._buf.clear()
        elif b"\n" not in data:
            self._buf += data
        else:
            buf = b"".join((self._buf, data)) if self._buf else data
            if b"\r" in buf:  # bytes.splitlines would split there too
                *complete, rest = buf.split(b"\n")
                self._lines = [line + b"\n" for line in complete]
            else:  # one C call, the newlines kept
                self._lines = buf.splitlines(True)
                rest = b"" if buf.endswith(b"\n") else self._lines.pop()
            self._pos, self._buf = 0, bytearray(rest)

    def next_line(self):
        while self._pos == len(self._lines):
            if self._eof:
                return None
            yield from self._fill()
        line = self._lines[self._pos]
        self._pos += 1
        return line

    def next_batch(self):
        """Return all currently-buffered complete lines plus at least one
        read's worth; None at EOF.  Cheaper than line-at-a-time."""
        if self._pos == len(self._lines) and not self._eof:
            yield from self._fill()
        batch = self._lines[self._pos:]
        self._lines, self._pos = [], 0
        if batch:
            return batch
        return None if self._eof else []


class OutBuf:
    """Buffered writer: accumulates bytes, flushes in CHUNK units."""

    def __init__(self, proc: Process, fd: int, threshold: int = CHUNK):
        self.proc = proc
        self.fd = fd
        self.threshold = threshold
        self._chunks: list[bytes] = []
        self._size = 0

    def add(self, data: bytes) -> bool:
        """``put`` for a per-record loop: True when a flush is now due —
        the caller yields from ``flush()`` on that very record, so only
        the record that trips the threshold pays for a generator."""
        self._chunks.append(data)
        self._size += len(data)
        return self._size >= self.threshold

    def put(self, data: bytes):
        if data and self.add(data):
            yield from self.flush()

    def room_for(self, data: bytes) -> int:
        """How many ``put(data)`` calls from now end in a flush (>= 1)."""
        return -((self._size - self.threshold) // len(data))

    def put_run(self, data: bytes, count: int):
        """``count`` calls of ``put(data)``: the same flushes at the same
        sizes, each stretch between two flushes held as one chunk."""
        while count:
            m = min(count, self.room_for(data))
            self._chunks.append(data * m)
            self._size += len(data) * m
            count -= m
            if self._size >= self.threshold:
                yield from self.flush()

    def put_each(self, lines: list[bytes]):
        """``put`` of each line in turn: a flush wherever one trips."""
        for line in lines:
            if self.add(line):
                yield from self.flush()

    def put_lines(self, lines: list[bytes]):
        self._chunks.extend(lines)
        self._size += sum(map(len, lines))
        if self._size >= self.threshold:
            yield from self.flush()

    def flush(self):
        if self._chunks:
            chunks = self._chunks
            self._chunks = []
            self._size = 0
            # vectored write: one logical write (one dispatch, one disk
            # request / pipe transfer) whatever the vector's shape, so
            # many small parts are joined once here instead of walked in
            # every handle downstream; a few large chunks stay zero-copy
            if len(chunks) > 16:
                chunks = [b"".join(chunks)]
            yield from self.proc.writev(self.fd, chunks)


def write_err(proc: Process, message: str):
    """Write an error line to stderr (fd 2), tolerating a missing fd."""
    if 2 in proc.fds:
        yield from proc.write(2, message.encode() + b"\n")


def open_input(proc: Process, path: str):
    """Open an input operand, honouring the '-' (stdin) convention.
    Returns (fd, needs_close)."""
    if path == "-":
        return 0, False
    fd = yield from proc.open(path, "r")
    return fd, True


def open_operand(proc: Process, name: str, path: str):
    """``open_input`` for a command that goes on past an operand it cannot
    read: ``NAME: PATH: reason`` on fd 2 and ``(None, False)`` — the
    caller skips to its next operand and exits 2."""
    try:
        return (yield from open_input(proc, path))
    except (FileNotFound, IsADirectory) as err:
        yield from write_err(proc, f"{name}: {path}: {err.strerror}")
        return None, False


class UsageError(Exception):
    """Bad command-line arguments; commands exit 2."""


def usage_error(proc: Process, name: str, err: Exception):
    """A command's usage-error reply: ``NAME: ERR`` on fd 2, status 2."""
    yield from write_err(proc, f"{name}: {err}")
    return 2


class Args(NamedTuple):
    """An argv as its command reads it."""

    argv: list[str]
    #: each flag True, each valued option its value (the last one wins),
    #: a repeatable option the list of its values; first-seen order
    opts: dict
    operands: list[str]
    #: each operand's index in ``argv``
    at: tuple[int, ...]
    #: the options one word each, value detached, in argv order and
    #: repeats kept: ``-rk2 -r`` -> ``-r -k 2 -r``
    words: tuple[str, ...] = ()


class Grammar(NamedTuple):
    """A command's option grammar: boolean ``flags``, ``valued`` options
    (argument attached or following, the last occurrence winning) and
    the valued options in ``repeat``, which collect every occurrence
    into a list, in order.  A ``#`` in ``valued`` admits the historical
    ``-NUM`` form.  Calling it parses an argv POSIX-style: clusters
    (``-rn``) and ``--`` are supported."""

    flags: str = ""
    valued: str = ""
    repeat: str = ""

    def __call__(self, argv: list[str]) -> Args:
        opts: dict = {}
        at: list[int] = []
        words: list[str] = []
        i = 0
        while i < len(argv):
            arg = argv[i]
            if arg == "--":
                at.extend(range(i + 1, len(argv)))
                break
            if arg.startswith("-") and arg != "-" and len(arg) > 1:
                if "#" in self.valued and arg[1:].isdigit():
                    opts["#"] = arg[1:]
                    words.append(arg)
                    i += 1
                    continue
                j = 1
                while j < len(arg):
                    ch = arg[j]
                    if ch in self.flags:
                        opts[ch] = True
                        words.append("-" + ch)
                        j += 1
                    elif ch in self.valued:
                        value = arg[j + 1 :]
                        if not value:
                            i += 1
                            if i >= len(argv):
                                raise UsageError(f"option -{ch} requires an argument")
                            value = argv[i]
                        if ch in self.repeat:
                            opts.setdefault(ch, []).append(value)
                        else:
                            opts[ch] = value
                        words += ("-" + ch, value)
                        break
                    else:
                        raise UsageError(f"unknown option -{ch}")
                i += 1
            else:
                at.append(i)
                i += 1
        return Args(list(argv), opts, [argv[k] for k in at], tuple(at),
                    tuple(words))


def parse_args(name: str, argv: list[str]) -> Args:
    """``argv`` read by command ``name``'s registered grammar; every word
    an operand for a command registered without one (or not at all).
    Raises :class:`UsageError` where the command would."""
    grammar = GRAMMARS.get(name)
    if grammar is None:
        return Args(list(argv), {}, list(argv), tuple(range(len(argv))))
    return grammar(argv)
