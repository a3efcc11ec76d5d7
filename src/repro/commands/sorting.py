"""Ordering commands: sort, uniq, comm, join, shuf, seq.

``sort`` is the paper's flagship expensive stage (Figure 1 sorts the
words of a 3 GB file) and carries an n·log n comparison cost on top of
per-byte handling.  ``sort -m`` (merge of pre-sorted inputs) is the
aggregator the parallelizing compiler uses.
"""

from __future__ import annotations

import heapq
import math
import operator
import random
import re
from bisect import bisect_right
from collections import Counter
from itertools import accumulate, compress, groupby, islice, repeat

from ..vos.errors import FileNotFound, IsADirectory
from ..vos.process import CHUNK, Process
from .base import (
    Args,
    Grammar,
    LineStream,
    OutBuf,
    SORT_CMP_COST,
    UsageError,
    command,
    cpu_coeff,
    open_input,
    parse_args,
    usage_error,
    write_err,
)


def _numeric_key(body: bytes) -> float:
    """POSIX sort -n: leading numeric value, 0 when none."""
    text = body.lstrip()
    i = 0
    if i < len(text) and text[i : i + 1] in (b"-", b"+"):
        i += 1
    j = i
    while j < len(text) and (text[j : j + 1].isdigit() or text[j : j + 1] == b"."):
        j += 1
    try:
        return float(text[:j] or b"0")
    except ValueError:
        return 0.0


_KEY_SPEC = re.compile(r"^(\d+)(?:,(\d+))?$")


def parse_key_spec(raw: str) -> tuple[int, int | None]:
    """Parse a -k KEYDEF.  Only the ``N[,M]`` form is supported; char
    offsets (``N.C``) and per-key modifier letters (``-k2n``) raise a
    loud UsageError instead of silently misbehaving."""
    m = _KEY_SPEC.match(str(raw))
    if m is None:
        raise UsageError(
            f"unsupported key spec -k {raw!r} (only -k N[,M] is supported)")
    start = int(m.group(1))
    end = int(m.group(2)) if m.group(2) else None
    if start < 1 or (end is not None and end < start):
        raise UsageError(f"invalid key spec -k {raw!r}")
    return start, end


def _ws_field_starts(body: bytes) -> list[int]:
    """Byte offsets where each whitespace-delimited field starts.  GNU
    semantics: a field *includes* its leading blanks, so field k+1 starts
    right where field k's non-blank run ends."""
    starts = [0]
    i, n = 0, len(body)
    while True:
        while i < n and body[i : i + 1] in (b" ", b"\t"):
            i += 1
        while i < n and body[i : i + 1] not in (b" ", b"\t"):
            i += 1
        if i >= n:
            break
        starts.append(i)
    return starts


def _key_slice(body: bytes, start_field: int, end_field: int | None,
               delim: bytes | None) -> bytes:
    """The portion of ``body`` a -k N[,M] key compares: from the start of
    field N to the end of field M (end of line when M is omitted)."""
    if delim:
        fields = body.split(delim)
        if start_field - 1 >= len(fields):
            return b""
        return delim.join(fields[start_field - 1 : end_field])
    starts = _ws_field_starts(body)
    if start_field - 1 >= len(starts):
        return b""
    lo = starts[start_field - 1]
    hi = starts[end_field] if (end_field is not None
                               and end_field < len(starts)) else len(body)
    return body[lo:hi]


def _line_body(line: bytes) -> bytes:
    return line.rstrip(b"\n")


def make_sort_key(numeric: bool, key_field: int | None, delim: bytes | None,
                  fold: bool = False, key_end: int | None = None):
    """Primary comparison key: field restriction (-k/-t), then -n numeric
    value or -f case folding.  No last-resort tie-break — combine with
    :func:`make_cmp_key` for full GNU ordering."""
    if key_field is None and not numeric and not fold:
        return _line_body

    def key(line: bytes):
        body = line.rstrip(b"\n")
        if key_field is not None:
            body = _key_slice(body, key_field, key_end, delim)
        if numeric:
            return _numeric_key(body)
        if fold:
            return body.upper()
        return body

    return key


def make_cmp_key(primary):
    """Full ordering key: the primary key plus GNU sort's last-resort
    comparison on the entire line (applied unless -u is given)."""
    if primary is _line_body:
        return primary  # (body, body) orders exactly as body

    def key(line: bytes):
        return (primary(line), line.rstrip(b"\n"))

    return key


def split_bodies(data: bytes) -> list[bytes]:
    """Newline-free line bodies: a missing final newline still yields a
    final body; a trailing newline does not yield an empty one."""
    bodies = data.split(b"\n")
    if bodies[-1] == b"":
        bodies.pop()
    return bodies


class LineCounter:
    """Sort by counting: tallies line bodies chunk by chunk as they
    arrive, so a stream made of duplicate runs never becomes a list of
    lines.  ``counts`` turns None, for good, once more than half the
    lines seen are distinct (the caller then sorts the lines themselves)
    — unless the table is still ``SMALL``, when finishing costs less
    than giving up would save.
    """

    SMALL = 4096  # distinct bodies

    def __init__(self):
        self.counts: Counter | None = Counter()
        self.lines = 0
        self._tail = b""

    def feed(self, data: bytes) -> None:
        if self.counts is None:
            return
        nl = data.rfind(b"\n")
        if nl < 0:
            self._tail += data
            return
        bodies = (self._tail + data[:nl]).split(b"\n")
        self._tail = data[nl + 1:]
        self.counts.update(bodies)
        self.lines += len(bodies)
        distinct = len(self.counts)
        if distinct > self.SMALL and 2 * distinct > self.lines:
            self.counts = None


def sorted_runs(counts: dict, reverse: bool, unique: bool) -> list[bytes]:
    """The sorted stream of counted bodies, one bytes object per run."""
    return [body + b"\n" if unique else (body + b"\n") * counts[body]
            for body in sorted(counts, reverse=reverse)]


def _open_operand(proc: Process, path: str):
    """``open_input`` for a sort operand; one that cannot be read is the
    command's typed failure: diagnostic on fd 2, status 2 (all inputs
    are read before any output, so nothing has been written)."""
    try:
        return (yield from open_input(proc, path))
    except (FileNotFound, IsADirectory) as err:
        raise UsageError(f"cannot read: {path}: {err.strerror}") from err


@command("sort", Grammar("rnumcf", valued="kto"))
def sort_cmd(proc: Process, opts: dict, operands: list[str]):
    """sort [-rnumf] [-u] [-k N[,M]] [-t DELIM] [-o FILE] [-c] [FILE...]

    GNU/POSIX semantics: -k N keys on the text from the start of field N
    (including its leading blanks) to the end of the line, -k N,M stops
    at the end of field M; -f folds case; ties fall back to a whole-line
    bytewise comparison unless -u is given (with -u the sort is stable
    and keeps the first input line of each equal-key group).  Unsupported
    key specs (char offsets, per-key modifiers), an unreadable operand
    and a second operand to -c exit 2 loudly.
    """
    try:
        return (yield from _sort(proc, opts, operands))
    except UsageError as err:
        return (yield from usage_error(proc, "sort", err))


def _ordering(opts: dict):
    """(ordering key, equality key, reverse, unique) of parsed sort flags."""
    key_field, key_end = (parse_key_spec(opts["k"]) if "k" in opts
                          else (None, None))
    delim = opts["t"].encode()[:1] if "t" in opts else None
    unique = bool(opts.get("u"))
    primary = make_sort_key(bool(opts.get("n")), key_field, delim,
                            bool(opts.get("f")), key_end)
    # -u disables the last-resort comparison (GNU): stable on primary only
    return (primary if unique else make_cmp_key(primary), primary,
            bool(opts.get("r")), unique)


def _sort(proc: Process, opts: dict, operands: list[str]):
    order_key, primary, reverse, unique = _ordering(opts)
    coeff = cpu_coeff("sort")
    files = operands or ["-"]

    if opts.get("c"):
        if len(files) > 1:
            raise UsageError(f"extra operand '{files[1]}' not allowed with -c")
        fd, needs_close = yield from _open_operand(proc, files[0])
        stream = LineStream(proc, fd)
        # with -u equal neighbours are disorder too: the test is strict
        in_order = ((operator.gt, operator.lt) if unique
                    else (operator.ge, operator.le))[reverse]
        prev = None
        lineno = 0
        status = 0
        while not status:
            line = yield from stream.next_line()
            if line is None:
                break
            lineno += 1
            proc.charge(len(line) * coeff)
            k = order_key(line)
            if prev is not None and not in_order(k, prev):
                yield from write_err(
                    proc, f"sort: {files[0]}:{lineno}: disorder: "
                    + _line_body(line).decode(errors="replace"))
                status = 1
            prev = k
        if needs_close:
            yield from proc.close(fd)
        return status

    if opts.get("m"):
        opened = []
        for path in files:
            opened.append((yield from _open_operand(proc, path)))
        status = yield from kway_merge(
            proc, [fd for fd, _ in opened], order_key, reverse, unique,
            coeff, eq_key=primary)
        for fd, needs_close in opened:
            if needs_close:
                yield from proc.close(fd)
        return status

    if primary is _line_body:
        # plain bytewise ordering: C-sort newline-free bodies directly
        return (yield from _sort_plain(proc, files, reverse, unique,
                                       coeff, opts))

    lines: list[bytes] = []
    for path in files:
        fd, needs_close = yield from _open_operand(proc, path)
        stream = LineStream(proc, fd)
        while True:
            batch = yield from stream.next_batch()
            if batch is None:
                break
            if not batch:
                continue
            yield from proc.cpu(sum(map(len, batch)) * coeff)
            lines.extend(batch)
        if needs_close:
            yield from proc.close(fd)
    # normalize missing trailing newline so ordering is on bodies
    lines = [l if l.endswith(b"\n") else l + b"\n" for l in lines]
    n = len(lines)
    if n > 1:
        yield from proc.cpu(n * math.log2(n) * SORT_CMP_COST)
    lines.sort(key=order_key, reverse=reverse)
    if unique:  # the sort is stable: the first input line of each key
        lines = [next(group) for _, group in groupby(lines, key=primary)]
    out_fd = (yield from proc.open(opts["o"], "w")) if "o" in opts else 1
    out = OutBuf(proc, out_fd)
    yield from out.put_lines(lines)
    yield from out.flush()
    if out_fd != 1:
        yield from proc.close(out_fd)
    return 0


def _sort_plain(proc: Process, files: list[str], reverse: bool,
                unique: bool, coeff: float, opts: dict):
    """Whole-buffer fast path for sorts whose order is plain bytewise
    comparison of line bodies (no -n/-f/-k): read chunks, charge CPU at
    exactly the LineStream batch granularity (bytes up to the last
    newline of each read; the unterminated tail is charged at EOF), then
    emit the sorted stream as one write.  Bodies are counted as the
    chunks arrive (:class:`LineCounter`); if the counter gives up, the
    retained chunks are split and C-sorted instead.  Either way the
    virtual-op sequence is the same, with far less Python work.
    """
    # S21: a host-pool oracle may hold this sort's precomputed output;
    # raw chunks are still retained so a validation mismatch at any
    # point falls back to sorting in-process at zero extra cost
    oracle = getattr(proc, "host_oracle", None)
    if oracle is not None and getattr(oracle, "kind", "") != "sort":
        oracle = None
    counter = LineCounter() if oracle is None else None
    chunks: list[bytes] = []
    for path in files:
        fd, needs_close = yield from _open_operand(proc, path)
        tail_len = 0
        while True:
            data = yield from proc.read(fd, CHUNK)
            if not data:
                if tail_len:
                    yield from proc.cpu(tail_len * coeff)
                    chunks.append(b"\n")  # normalize missing final newline
                    if counter is not None:
                        counter.feed(b"\n")
                break
            chunks.append(data)
            if oracle is not None:
                oracle.feed(data)
            else:
                counter.feed(data)
            nl = data.rfind(b"\n")
            if nl < 0:
                tail_len += len(data)
            else:
                yield from proc.cpu((tail_len + nl + 1) * coeff)
                tail_len = len(data) - nl - 1
        if needs_close:
            yield from proc.close(fd)
    precomputed = oracle.finish() if oracle is not None else None
    if precomputed is not None:
        stream, n = precomputed
    elif counter is not None and counter.counts is not None:
        n = counter.lines
        stream = b"".join(sorted_runs(counter.counts, reverse, unique))
    else:
        bodies = split_bodies(b"".join(chunks))
        n = len(bodies)
        bodies.sort(reverse=reverse)
        if unique:
            bodies = list(dict.fromkeys(bodies))
        stream = b"\n".join(bodies) + b"\n" if bodies else b""
    if n > 1:
        yield from proc.cpu(n * math.log2(n) * SORT_CMP_COST)
    out_fd = (yield from proc.open(opts["o"], "w")) if "o" in opts else 1
    if stream:
        yield from proc.write(out_fd, stream)
    if out_fd != 1:
        yield from proc.close(out_fd)
    return 0


class _Rev:
    """Inverts comparison for reverse merges."""

    __slots__ = ("k",)

    def __init__(self, k):
        self.k = k

    def __lt__(self, other):
        return other.k < self.k

    def __eq__(self, other):
        return self.k == other.k


def _runs_of(buf: bytes):
    """The ``(line, count)`` runs of adjacent byte-identical lines in
    ``buf`` up to its last newline, found without splitting it: a run of
    ``n`` lines is ``line * n`` in the buffer, so its length is galloped
    for (double the step while the next ``step`` copies match, then
    halve it) with O(log n) C-speed compares.  Nothing is assumed about
    the order of the lines."""
    pos, end = 0, buf.rfind(b"\n") + 1
    while pos < end:
        width = buf.index(b"\n", pos) + 1 - pos
        line = buf[pos:pos + width]
        count = step = 1
        while buf.startswith(line * step, pos + count * width):
            count += step
            step *= 2
        while step > 1:
            step //= 2
            if buf.startswith(line * step, pos + count * width):
                count += step
        yield line, count
        pos += count * width


class _RunReader:
    """The merge's view of one input: each ``CHUNK`` read is parsed once
    into ``(line, count)`` runs.  It reads when, and only when,
    ``LineStream.next_line`` would; a run never extends across a read,
    and an unterminated last line is a run of its own (delivered without
    a newline, as ``next_line`` does)."""

    def __init__(self, proc: Process, fd: int):
        self.proc = proc
        self.fd = fd
        self._buf = bytearray()  # the partial line carried between reads
        self._eof = False
        self._runs = iter(())

    def next_run(self):
        while True:
            run = next(self._runs, None)
            if run is not None or self._eof:
                return run
            data = yield from self.proc.read(self.fd, CHUNK)
            self._buf += data
            if not data:
                self._eof = True
                if self._buf:
                    self._runs = iter([(bytes(self._buf), 1)])
            elif b"\n" in data:
                buf = bytes(self._buf)
                del self._buf[:buf.rfind(b"\n") + 1]
                self._runs = _runs_of(buf)


#: ``kway_merge`` issues its accumulated per-line CPU as one request
#: each time the sum passes this many virtual seconds.
_CHARGE_TRIP = 1e-4


def kway_merge(proc: Process, in_fds: list[int], key, reverse: bool,
               unique: bool, coeff: float, eq_key):
    """Streaming heap-based k-way merge of pre-sorted inputs on open fds:
    the one sorted-run aggregator (``sort -m``, the plan's merge node,
    dshell).  Each emitted line costs one heap sift: log2(k) comparisons.
    ``eq_key`` is the equality key -u dedups on, which may be coarser
    than the ordering key.

    The heap holds ``(line, count)`` runs: a run's lines have the same
    bytes and stream => the same heap entry, and each would have been
    the very next pop.  The lines behind its first are replayed in bulk
    as the virtual ops a line-at-a-time loop issues, in its order
    (DESIGN.md §11): ``pending`` advances by the same float adds (never
    ``cost * m``); on one line the charge comes before the put and its
    flush; the refill read follows the run's last line."""
    readers = [_RunReader(proc, fd) for fd in in_fds]
    heap: list = []
    wrap = _Rev if reverse else (lambda k: k)
    for i, reader in enumerate(readers):
        run = yield from reader.next_run()
        if run is not None:
            heapq.heappush(heap, (wrap(key(run[0])), i, run))
    out = OutBuf(proc, 1)
    cmp_cost = SORT_CMP_COST * math.log2(max(2, len(readers)))
    prev_key = object()
    pending = 0.0
    while heap:
        _, i, (line, n) = heapq.heappop(heap)
        cost = len(line) * coeff + cmp_cost
        text = line if line.endswith(b"\n") else line + b"\n"
        # a run's first line, inline: all a distinct-heavy input is made of
        pending += cost
        if pending > _CHARGE_TRIP:
            yield from proc.cpu(pending)
            pending = 0.0
        k = eq_key(line) if unique else None
        if not (unique and k == prev_key):
            yield from out.put(text)
        prev_key = k
        n -= 1  # the lines behind it: all written, or with -u none
        while n:
            # m lines, ending on the first that charges, flushes or ends
            # the run; the estimate only bounds how far ahead to add
            m = min(n, int((_CHARGE_TRIP - pending) / cost) + 2)
            if not unique:
                m = min(m, out.room_for(text))
            sums = list(accumulate(repeat(cost, m), initial=pending))
            trip = bisect_right(sums, _CHARGE_TRIP)
            if trip <= m:
                m = trip
                yield from proc.cpu(sums[m])
                pending = 0.0
            else:
                pending = sums[m]
            if not unique:
                yield from out.put_run(text, m)
            n -= m
        nxt = yield from readers[i].next_run()
        if nxt is not None:
            heapq.heappush(heap, (wrap(key(nxt[0])), i, nxt))
    if pending:
        yield from proc.cpu(pending)
    yield from out.flush()
    return 0


def merge_fds(proc: Process, in_fds: list[int], flags: list[str]):
    """The SORT_MERGE aggregator over open fds: ``kway_merge`` under
    ``sort``'s own reading of ``flags`` (-m itself is accepted)."""
    opts = parse_args("sort", list(flags)).opts
    order_key, primary, reverse, unique = _ordering(opts)
    return (yield from kway_merge(proc, in_fds, order_key, reverse, unique,
                                  cpu_coeff("sort"), eq_key=primary))


#: a galloped run shorter than this many lines is short; after
#: ``_SHORT_RUNS`` of them a blob's remainder is split and grouped
_SHORT_RUN = 4
_SHORT_RUNS = 8


def _line_runs(blob: bytes) -> tuple[list[bytes], list[int]]:
    """The runs of adjacent equal lines in ``blob`` (complete lines), as
    parallel lists of their bodies (no newline) and line counts.
    ``_runs_of`` gallops over a long run in O(log n) compares but pays a
    Python step per run, ~6x what a split + compare pays per line, so
    once the blob has shown ``_SHORT_RUNS`` short runs its remainder is
    split and its run starts found by one C-level pairwise compare."""
    keys: list[bytes] = []
    counts: list[int] = []
    pos = short = 0
    for line, n in _runs_of(blob):
        keys.append(line[:-1])
        counts.append(n)
        pos += len(line) * n
        short += n < _SHORT_RUN
        if short == _SHORT_RUNS:
            break
    bodies = blob[pos:].split(b"\n")
    bodies.pop()  # the trailing b"" after the final newline
    if bodies:
        starts = [0, *compress(range(1, len(bodies)), map(
            operator.ne, bodies, islice(bodies, 1, None)))]
        ends = starts[1:]
        ends.append(len(bodies))
        keys += map(bodies.__getitem__, starts)
        counts += map(operator.sub, ends, starts)
    return keys, counts


@command("uniq", Grammar("cdu"))
def uniq(proc: Process, opts: dict, operands: list[str]):
    """One body for plain, -c, -d and -u: each ``CHUNK`` read's complete
    lines are one blob, charged as one CPU request (zero for a read with
    no newline; the bare tail at EOF is a blob of its own), parsed into
    runs, and each group put the moment a later run (or EOF) ends it —
    the reads, charges and puts of a line-at-a-time loop."""
    if len(operands) > 2:
        return (yield from usage_error(
            proc, "uniq", UsageError(f"extra operand '{operands[2]}'")))
    flags = [bool(opts.get(flag)) for flag in "cdu"]
    coeff = cpu_coeff("uniq")
    fd, needs_close = yield from open_input(
        proc, operands[0] if operands else "-")
    out_fd = (yield from proc.open(operands[1], "w")) \
        if len(operands) > 1 and operands[1] != "-" else 1
    out = OutBuf(proc, out_fd)
    carry: bytes | None = None  # body of the still-open trailing group
    carried = 0  # its line count so far
    tail = b""
    eof = False
    while not eof:
        data = yield from proc.read(fd, CHUNK)
        eof = not data
        buf = tail + data if tail else data
        # the complete lines, or at EOF the unterminated last one
        nl = len(buf) if eof else buf.rfind(b"\n") + 1
        if not nl:
            tail = buf
            continue
        blob, tail = buf[:nl], buf[nl:]
        keys, counts = _line_runs(blob if data else blob + b"\n")
        yield from proc.cpu(len(blob) * coeff)
        if carry is not None:
            if keys[0] == carry:
                counts[0] += carried
            else:
                keys.insert(0, carry)
                counts.insert(0, carried)
        carry, carried = keys.pop(), counts.pop()
        yield from out.put_each(_uniq_out(keys, counts, *flags))
    if carry is not None:
        yield from out.put_each(_uniq_out([carry], [carried], *flags))
    yield from out.flush()
    if needs_close:
        yield from proc.close(fd)
    if out_fd != 1:
        yield from proc.close(out_fd)
    return 0


def _uniq_out(keys: list[bytes], counts: list[int], count: bool,
              dup_only: bool, uniq_only: bool) -> list[bytes]:
    """The output lines of ended groups under uniq's -c, -d and -u."""
    if not (count or dup_only or uniq_only):
        return [key + b"\n" for key in keys]
    return [b"%7d %s\n" % (n, key) if count else key + b"\n"
            for key, n in zip(keys, counts)
            if not (dup_only and n < 2 or uniq_only and n > 1)]


def comm_args(argv: list[str]) -> Args:
    """comm's own argv reading: a word of dash and column digits 1-3
    suppresses those columns; every other word is an operand."""
    opts: dict = {}
    at = []
    for i, arg in enumerate(argv):
        if arg.startswith("-") and arg != "-" and all(c in "123" for c in arg[1:]):
            opts.update(dict.fromkeys(arg[1:], True))
        else:
            at.append(i)
    return Args(list(argv), opts, [argv[i] for i in at], tuple(at))


@command("comm", comm_args)
def comm(proc: Process, suppress: dict, operands: list[str]):
    """comm [-123] file1 file2 — three-column set comparison of sorted
    inputs; the spell pipeline's last stage is ``comm -13 dict -``."""
    if len(operands) != 2:
        yield from write_err(proc, "comm: need exactly two files")
        return 2
    coeff = cpu_coeff("comm")
    fd1, close1 = yield from open_input(proc, operands[0])
    fd2, close2 = yield from open_input(proc, operands[1])
    s1, s2 = LineStream(proc, fd1), LineStream(proc, fd2)
    out = OutBuf(proc, 1)
    l1 = yield from s1.next_line()
    l2 = yield from s2.next_line()
    indent2 = b"" if "1" in suppress else b"\t"
    indent3 = indent2 + (b"" if "2" in suppress else b"\t")
    body = _line_body

    while l1 is not None or l2 is not None:
        if l1 is not None:
            proc.charge(len(l1) * coeff * 0.5)
        if l2 is not None:
            proc.charge(len(l2) * coeff * 0.5)
        if l2 is None or (l1 is not None and body(l1) < body(l2)):
            if "1" not in suppress:
                yield from out.put(body(l1) + b"\n")
            l1 = yield from s1.next_line()
        elif l1 is None or body(l2) < body(l1):
            if "2" not in suppress:
                yield from out.put(indent2 + body(l2) + b"\n")
            l2 = yield from s2.next_line()
        else:
            if "3" not in suppress:
                yield from out.put(indent3 + body(l1) + b"\n")
            l1 = yield from s1.next_line()
            l2 = yield from s2.next_line()
    yield from out.flush()
    if close1:
        yield from proc.close(fd1)
    if close2:
        yield from proc.close(fd2)
    return 0


@command("join", Grammar(valued="t12"))
def join_cmd(proc: Process, opts: dict, operands: list[str]):
    """join [-t DELIM] [-1 F] [-2 F] file1 file2 (sorted on join fields)."""
    if len(operands) != 2:
        yield from write_err(proc, "join: need exactly two files")
        return 2
    delim = opts["t"].encode()[:1] if "t" in opts else None
    f1 = int(opts.get("1", "1"))
    f2 = int(opts.get("2", "1"))
    coeff = cpu_coeff("join")

    def fields_of(line: bytes) -> list[bytes]:
        body = line.rstrip(b"\n")
        return body.split(delim) if delim else body.split()

    def key_of(fields: list[bytes], idx: int) -> bytes:
        return fields[idx - 1] if idx - 1 < len(fields) else b""

    fd1, close1 = yield from open_input(proc, operands[0])
    fd2, close2 = yield from open_input(proc, operands[1])
    s1, s2 = LineStream(proc, fd1), LineStream(proc, fd2)
    out = OutBuf(proc, 1)
    sep = delim if delim else b" "
    l1 = yield from s1.next_line()
    l2 = yield from s2.next_line()
    while l1 is not None and l2 is not None:
        proc.charge((len(l1) + len(l2)) * coeff * 0.5)
        fld1, fld2 = fields_of(l1), fields_of(l2)
        k1, k2 = key_of(fld1, f1), key_of(fld2, f2)
        if k1 < k2:
            l1 = yield from s1.next_line()
        elif k2 < k1:
            l2 = yield from s2.next_line()
        else:
            # gather the run of equal keys in file2 for cross product
            run: list[list[bytes]] = []
            while l2 is not None and key_of(fields_of(l2), f2) == k1:
                run.append(fields_of(l2))
                l2 = yield from s2.next_line()
            while l1 is not None and key_of(fields_of(l1), f1) == k1:
                fld1 = fields_of(l1)
                rest1 = [f for i, f in enumerate(fld1) if i != f1 - 1]
                for fld in run:
                    rest2 = [f for i, f in enumerate(fld) if i != f2 - 1]
                    yield from out.put(sep.join([k1] + rest1 + rest2) + b"\n")
                l1 = yield from s1.next_line()
    yield from out.flush()
    if close1:
        yield from proc.close(fd1)
    if close2:
        yield from proc.close(fd2)
    return 0


def shuf_args(argv: list[str]) -> Args:
    """shuf's own argv reading: ``--seed N`` anywhere, every other word
    an operand."""
    opts: dict = {}
    at = []
    i = 0
    while i < len(argv):
        if argv[i] == "--seed":
            try:
                opts["seed"] = int(argv[i + 1])
            except (IndexError, ValueError):
                raise UsageError("option --seed requires an integer") from None
            i += 2
        else:
            at.append(i)
            i += 1
    return Args(list(argv), opts, [argv[i] for i in at], tuple(at))


@command("shuf", shuf_args)
def shuf(proc: Process, opts: dict, operands: list[str]):
    """shuf [--seed N] [FILE] — seeded for reproducibility."""
    seed = opts.get("seed", 42)
    path = operands[0] if operands else "-"
    fd, needs_close = yield from open_input(proc, path)
    data = yield from proc.read_all(fd)
    yield from proc.cpu(len(data) * cpu_coeff("shuf"))
    lines = data.splitlines(keepends=True)
    if lines and not lines[-1].endswith(b"\n"):
        lines[-1] += b"\n"
    random.Random(seed).shuffle(lines)
    yield from proc.write(1, b"".join(lines))
    if needs_close:
        yield from proc.close(fd)
    return 0


@command("seq")
def seq(proc: Process, argv: list[str]):
    try:
        if len(argv) == 1:
            start, step, end = 1, 1, int(argv[0])
        elif len(argv) == 2:
            start, step, end = int(argv[0]), 1, int(argv[1])
        elif len(argv) == 3:
            start, step, end = int(argv[0]), int(argv[1]), int(argv[2])
        else:
            raise ValueError("wrong number of operands")
    except ValueError as err:
        return (yield from usage_error(proc, "seq", err))
    out = OutBuf(proc, 1)
    coeff = cpu_coeff("seq")
    value = start
    while (step > 0 and value <= end) or (step < 0 and value >= end):
        line = str(value).encode() + b"\n"
        proc.charge(len(line) * coeff)
        yield from out.put(line)
        value += step
    yield from out.flush()
    return 0
