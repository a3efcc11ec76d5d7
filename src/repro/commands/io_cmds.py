"""IO-oriented commands: cat, tee, head, tail, split, echo, printf, yes,
true, false, sleep."""

from __future__ import annotations

import re

from ..vos.handles import FileHandle
from ..vos.process import CHUNK, Process
from ..vos.syscalls import SpliceReq
from .base import (
    Grammar,
    LineStream,
    command,
    cpu_coeff,
    open_input,
    open_operand,
    usage_error,
    write_err,
)


@command("cat", Grammar("u"))
def cat(proc: Process, opts: dict, operands: list[str]):
    files = operands or ["-"]
    coeff = cpu_coeff("cat")
    status = 0
    out = getattr(proc.fds.get(1), "node", None)  # fd 1's file, if one
    for path in files:
        fd, needs_close = yield from open_operand(proc, "cat", path)
        src = proc.fds.get(fd)
        if fd is None:
            status = 1
        elif isinstance(src, FileHandle) and src.node is out \
                and src.offset < out.size:  # GNU's rule: `cat f >> f`
            yield from write_err(proc, f"cat: {path}: input file is output file")
            status = 1
        else:  # the kernel pump: one dispatch for the whole file
            yield SpliceReq(fd, (1,), coeff, CHUNK)
        if needs_close:
            yield from proc.close(fd)
    return status


@command("tee", Grammar("a"))
def tee(proc: Process, opts: dict, operands: list[str]):
    mode = "a" if opts.get("a") else "w"
    out_fds = []
    for path in operands:
        out_fds.append((yield from proc.open(path, mode)))
    yield SpliceReq(0, (1, *out_fds), cpu_coeff("tee"), CHUNK)
    return 0


def _parse_count(opts: dict, default_lines: int = 10) -> tuple[str, int, bool, bool]:
    """head/tail count parsing: -n N, -c N, historic -N.

    Returns (unit, count, from_start, from_end).  ``tail -n +K`` /
    ``tail -c +K`` set from_start: output begins at line/byte K (so
    ``+1`` is the whole input) instead of printing the last K units.
    ``head -n -K`` / ``head -c -K`` set from_end: print everything *but*
    the last K units (GNU extension; tail ignores the flag, where an
    explicit ``-K`` equals ``K``).
    """
    if "c" in opts:
        raw, unit = str(opts["c"]), "bytes"
    elif "n" in opts:
        raw, unit = str(opts["n"]), "lines"
    elif "#" in opts:
        raw, unit = str(opts["#"]), "lines"
    else:
        return "lines", default_lines, False, False
    from_start = raw.startswith("+")
    from_end = raw.startswith("-")
    count = abs(int(raw))
    return unit, count, from_start, from_end


@command("head", Grammar("q", valued="nc#"))
def head(proc: Process, opts: dict, operands: list[str]):
    try:
        unit, count, _, from_end = _parse_count(opts)
    except ValueError as err:
        return (yield from usage_error(proc, "head", err))
    files = operands or ["-"]
    coeff = cpu_coeff("head")
    for path in files:
        fd, needs_close = yield from open_input(proc, path)
        if from_end and unit == "bytes":
            # head -c -K: everything but the last K bytes, streamed with a
            # K-byte holdback buffer (-0 keeps everything)
            held = b""
            while (data := (yield from proc.read(fd, CHUNK))):
                yield from proc.cpu(len(data) * coeff)
                held += data
                if len(held) > count:
                    yield from proc.write(1, held[: len(held) - count])
                    held = held[len(held) - count :]
        elif from_end:
            # head -n -K: everything but the last K lines (a final
            # unterminated line counts as a line), K-line lag buffer
            stream = LineStream(proc, fd)
            pending: list[bytes] = []
            while (batch := (yield from stream.next_batch())) is not None:
                pending.extend(batch)
                if count and len(pending) > count:
                    take = pending[: len(pending) - count]
                    pending = pending[len(pending) - count :]
                elif not count:
                    take, pending = pending, []
                else:
                    continue
                yield from proc.cpu(sum(map(len, take)) * coeff)
                for line in take:
                    yield from proc.write(1, line)
        elif unit == "bytes":
            remaining = count
            while remaining > 0 and (data := (yield from proc.read(
                    fd, min(CHUNK, remaining)))):
                yield from proc.cpu(len(data) * coeff)
                yield from proc.write(1, data)
                remaining -= len(data)
        else:
            stream = LineStream(proc, fd)
            emitted = 0
            while emitted < count and (
                    batch := (yield from stream.next_batch())) is not None:
                if not batch:
                    continue
                take = batch[: count - emitted]
                yield from proc.cpu(sum(map(len, take)) * coeff)
                for line in take:
                    yield from proc.write(1, line)
                emitted += len(take)
        if needs_close:
            yield from proc.close(fd)
    return 0


@command("tail", Grammar("q", valued="nc#"))
def tail(proc: Process, opts: dict, operands: list[str]):
    try:
        unit, count, from_start, _ = _parse_count(opts)
    except ValueError as err:
        return (yield from usage_error(proc, "tail", err))
    files = operands or ["-"]
    coeff = cpu_coeff("tail")
    for path in files:
        fd, needs_close = yield from open_input(proc, path)
        data = yield from proc.read_all(fd)
        yield from proc.cpu(len(data) * coeff)
        if from_start:
            # tail -n +K / -c +K: emit from unit K onwards (+0 == +1)
            skip = max(0, count - 1)
            if unit == "bytes":
                out = data[skip:]
            else:
                out = b"".join(data.splitlines(keepends=True)[skip:])
        elif unit == "bytes":
            out = data[-count:] if count else b""
        else:
            lines = data.splitlines(keepends=True)
            out = b"".join(lines[-count:]) if count else b""
        yield from proc.write(1, out)
        if needs_close:
            yield from proc.close(fd)
    return 0


@command("split", Grammar(valued="lbn"))
def split_cmd(proc: Process, opts: dict, operands: list[str]):
    """split -l N [-b BYTES] [file [prefix]]: materialize chunks to files.

    This is the materializing splitter PaSh-style AOT compilation leans on
    ("lots of available storage space for buffering", §3.2).
    """
    path = operands[0] if operands else "-"
    prefix = operands[1] if len(operands) > 1 else "x"
    coeff = cpu_coeff("split")
    fd, needs_close = yield from open_input(proc, path)

    def suffix(i: int) -> str:
        letters = "abcdefghijklmnopqrstuvwxyz"
        return letters[i // 26] + letters[i % 26]

    idx = 0
    if "b" in opts:
        size = int(opts["b"].rstrip("kKmM")) * (
            1024 if opts["b"][-1:] in "kK" else 1024 * 1024 if opts["b"][-1:] in "mM" else 1
        )
        while (data := (yield from proc.read(fd, size))):
            yield from proc.cpu(len(data) * coeff)
            out = yield from proc.open(prefix + suffix(idx), "w")
            yield from proc.write(out, data)
            yield from proc.close(out)
            idx += 1
    else:
        per_file = int(opts.get("l", "1000"))
        stream = LineStream(proc, fd)
        done = False
        while not done:
            lines: list[bytes] = []
            while len(lines) < per_file:
                line = yield from stream.next_line()
                if line is None:
                    done = True
                    break
                lines.append(line)
            if lines:
                data = b"".join(lines)
                yield from proc.cpu(len(data) * coeff)
                out = yield from proc.open(prefix + suffix(idx), "w")
                yield from proc.write(out, data)
                yield from proc.close(out)
                idx += 1
    if needs_close:
        yield from proc.close(fd)
    return 0


@command("echo")
def echo(proc: Process, argv: list[str]):
    suppress_nl = False
    args = list(argv)
    if args and args[0] == "-n":
        suppress_nl = True
        args = args[1:]
    text = " ".join(args)
    out = text.encode()
    if not suppress_nl:
        out += b"\n"
    yield from proc.cpu(len(out) * 1e-9)
    yield from proc.write(1, out)
    return 0


@command("printf")
def printf_cmd(proc: Process, argv: list[str]):
    if not argv:
        yield from write_err(proc, "printf: missing format")
        return 2
    fmt = argv[0]
    args = argv[1:]
    out, status = _printf_format(fmt, args)
    yield from proc.cpu(len(out) * 2e-9)
    yield from proc.write(1, out)
    if status:
        yield from write_err(proc, "printf: expected numeric value")
    return status


#: full POSIX conversion spec: %[flags][width][.precision]conversion
_PRINTF_SPEC = re.compile(r"%([#0\- +']*)(\d*)(\.\d*)?([diouxXeEfgGcs%])")

_PRINTF_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", "r": "\r",
                   "a": "\a", "b": "\b", "f": "\f", "v": "\v"}


def _printf_int(arg: str) -> tuple[int, bool]:
    """Parse a printf integer argument like C strtol: 0x/0 prefixes, a
    leading quote yields the character code, and on garbage the longest
    valid prefix (or 0) is used with a False 'ok' flag (exit status 1)."""
    text = arg.strip()
    if not text:
        return 0, True
    if text[0] in "'\"":
        return (ord(text[1]) if len(text) > 1 else 0), True
    m = re.match(r"([+-]?)(0[xX][0-9a-fA-F]+|0[0-7]+|[1-9][0-9]*|0)", text)
    if m is None:
        return 0, False
    sign, digits = m.group(1), m.group(2)
    if digits[:2].lower() == "0x":
        val = int(digits, 16)
    elif len(digits) > 1 and digits[0] == "0":
        val = int(digits, 8)
    else:
        val = int(digits, 10)
    if sign == "-":
        val = -val
    return val, m.end() == len(text)


def _printf_float(arg: str) -> tuple[float, bool]:
    text = arg.strip()
    if not text:
        return 0.0, True
    try:
        return float(text), True
    except ValueError:
        m = re.match(r"[+-]?\d*\.?\d+(?:[eE][+-]?\d+)?", text)
        if m:
            try:
                return float(m.group(0)), False
            except ValueError:
                pass
        return 0.0, False


def _printf_render(fmt: str, args: list[str]) -> tuple[str, int]:
    """One pass of printf formatting with full flag/width/precision
    handling (%05d, %-10s, %.3s, %x, %f, ...); returns (text, status)."""
    arg_iter = iter(args)
    out: list[str] = []
    status = 0
    i = 0
    while i < len(fmt):
        c = fmt[i]
        if c == "\\" and i + 1 < len(fmt):
            nxt = fmt[i + 1]
            if nxt in "01234567":
                j = i + 1
                digits = ""
                while j < len(fmt) and len(digits) < 3 and fmt[j] in "01234567":
                    digits += fmt[j]
                    j += 1
                out.append(chr(int(digits, 8) & 0xFF))
                i = j
                continue
            out.append(_PRINTF_ESCAPES.get(nxt, "\\" + nxt))
            i += 2
            continue
        if c == "%":
            m = _PRINTF_SPEC.match(fmt, i)
            if m is None:
                # unknown conversion: emit literally, like before
                out.append(fmt[i : i + 2] if i + 1 < len(fmt) else "%")
                i += 2 if i + 1 < len(fmt) else 1
                continue
            flags, width, prec, conv = m.groups()
            i = m.end()
            if conv == "%":
                out.append("%")
                continue
            flags = flags.replace("'", "")  # thousands grouping: ignored
            spec = "%" + flags + width + (prec or "")
            arg = next(arg_iter, "")
            ok = True
            if conv in "di":
                val, ok = _printf_int(arg)
                out.append((spec + "d") % val)
            elif conv == "u":
                val, ok = _printf_int(arg)
                out.append((spec + "d") % (val + (1 << 64) if val < 0 else val))
            elif conv in "oxX":
                val, ok = _printf_int(arg)
                if val < 0:
                    val += 1 << 64
                text = (spec + conv) % val
                if conv == "o" and "#" in flags:
                    text = text.replace("0o", "0", 1)  # C prints 017, not 0o17
                out.append(text)
            elif conv in "eEfgG":
                val, ok = _printf_float(arg)
                out.append((spec + conv) % val)
            elif conv == "c":
                out.append((spec + "s") % arg[:1])
            else:  # s
                out.append((spec + "s") % arg)
            if not ok:
                status = 1
            continue
        out.append(c)
        i += 1
    return "".join(out), status


def _printf_format(fmt: str, args: list[str]) -> tuple[bytes, int]:
    """POSIX printf reapplies the format until the arguments run out."""
    n_specs = sum(1 for m in _PRINTF_SPEC.finditer(fmt) if m.group(4) != "%")
    if not args or n_specs == 0:
        text, status = _printf_render(fmt, args)
        return text.encode(), status
    pieces = []
    status = 0
    for i in range(0, len(args), n_specs):
        text, st = _printf_render(fmt, args[i : i + n_specs])
        status = status or st
        pieces.append(text)
    return "".join(pieces).encode(), status


@command("yes")
def yes(proc: Process, argv: list[str]):
    text = (" ".join(argv) if argv else "y").encode() + b"\n"
    block = text * max(1, CHUNK // max(1, len(text)))
    while True:
        yield from proc.cpu(len(block) * 0.5e-9)
        yield from proc.write(1, block)
    # unreachable: terminated by SIGPIPE when the consumer exits


@command("true")
def true_cmd(proc: Process, argv: list[str]):
    yield from proc.cpu(1e-6)
    return 0


@command("false")
def false_cmd(proc: Process, argv: list[str]):
    yield from proc.cpu(1e-6)
    return 1


@command("sleep")
def sleep_cmd(proc: Process, argv: list[str]):
    try:
        seconds = float(argv[0]) if argv else 0.0
    except ValueError:
        yield from write_err(proc, f"sleep: invalid time interval {argv[0]!r}")
        return 1
    yield from proc.sleep(seconds)
    return 0
