"""Streaming filters: tr, grep, cut, sed, wc, rev, paste, nl, tac."""

from __future__ import annotations

import re
from functools import lru_cache, partial
from typing import NamedTuple, Optional

from ..vos.process import CHUNK, Process
from .base import (
    Grammar,
    LineStream,
    OutBuf,
    UsageError,
    command,
    cpu_coeff,
    open_input,
    open_operand,
    usage_error,
    write_err,
)
from .bre import RegexTranslationError, bre_to_python, compile_posix, posix_sub

# ---------------------------------------------------------------------------
# tr
# ---------------------------------------------------------------------------

_TR_CLASSES = {
    "alpha": "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
    "digit": "0123456789",
    "alnum": "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789",
    "lower": "abcdefghijklmnopqrstuvwxyz",
    "upper": "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
    "space": " \t\n\r\v\f",
    "blank": " \t",
    "punct": r"""!"#$%&'()*+,-./:;<=>?@[\]^_`{|}~""",
}

_TR_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", "a": "\a", "b": "\b",
               "f": "\f", "v": "\v", "0": "\0"}


def parse_tr_set(spec: str) -> bytes:
    """Expand a tr set spec: literals, escapes, a-z ranges, [:class:]."""
    out: list[str] = []
    i = 0
    while i < len(spec):
        if spec.startswith("[:", i):
            end = spec.find(":]", i + 2)
            if end < 0:
                raise UsageError(f"unterminated character class in {spec!r}")
            cls = spec[i + 2 : end]
            if cls not in _TR_CLASSES:
                raise UsageError(f"unknown character class [:{cls}:]")
            out.append(_TR_CLASSES[cls])
            i = end + 2
            continue
        c = spec[i]
        if c == "\\" and i + 1 < len(spec):
            nxt = spec[i + 1]
            out.append(_TR_ESCAPES.get(nxt, nxt))
            i += 2
            continue
        # range a-z (the '-' must be flanked)
        if i + 2 < len(spec) and spec[i + 1] == "-" and spec[i + 2] != "]":
            lo, hi = ord(c), ord(spec[i + 2])
            if lo > hi:
                raise UsageError(f"invalid range {c}-{spec[i+2]}")
            out.append("".join(chr(x) for x in range(lo, hi + 1)))
            i += 3
            continue
        out.append(c)
        i += 1
    return "".join(out).encode("latin-1")


class TrPlan(NamedTuple):
    """Precomputed translation artifacts for one tr invocation shape."""

    delete: Optional[bytes]       # bytes to drop (``-d``), else None
    table: Optional[bytes]        # 256-entry translation table, else None
    squeeze: bytes                # bytes whose runs collapse (``-s``)
    squeeze_re: Optional[re.Pattern]  # their runs, for two bytes or more


@lru_cache(maxsize=128)
def _tr_plan(operands: tuple, complement: bool, squeeze: bool,
             delete: bool) -> TrPlan:
    """The :class:`TrPlan` for one invocation.  Cached because loops
    re-run the same tr spec thousands of times and rebuilding the
    256-entry tables dominates short invocations."""
    if delete:
        if len(operands) != (2 if squeeze else 1):
            raise UsageError("wrong number of operands for -d")
        set1 = parse_tr_set(operands[0])
        set2 = parse_tr_set(operands[1]) if squeeze else b""
    elif squeeze and len(operands) == 1:
        set1 = parse_tr_set(operands[0])
        set2 = b""
    else:
        if len(operands) != 2:
            raise UsageError("missing operand")
        set1 = parse_tr_set(operands[0])
        set2 = parse_tr_set(operands[1])

    members = bytearray(256)
    for b in set1:
        members[b] = 1
    if complement:
        members = bytearray(0 if m else 1 for m in members)

    table = None
    squeeze_set = b""
    delete_chars = None
    if delete:
        delete_chars = bytes(b for b in range(256) if members[b])
        squeeze_set = set2
    elif squeeze and not set2:
        squeeze_set = bytes(b for b in range(256) if members[b])
    else:
        # translation: members of set1 (in order; complement = ascending
        # order) map to set2 padded with its last char
        src = (bytes(b for b in range(256) if members[b]) if complement
               else set1)
        padded = set2 + set2[-1:] * max(0, len(src) - len(set2)) if set2 else b""
        tbl = bytearray(range(256))
        for i, b in enumerate(src):
            if i < len(padded):
                tbl[b] = padded[i]
        table = bytes(tbl)
        squeeze_set = set2 if squeeze else b""
    # a run of any squeeze-set byte collapses to a single occurrence
    squeeze_re = (re.compile(b"([" + re.escape(squeeze_set) + b"])\\1+")
                  if len(squeeze_set) > 1 else None)
    return TrPlan(delete_chars, table, squeeze_set, squeeze_re)


def tr_block(data: bytes, plan: TrPlan, carry: int) -> tuple[bytes, int]:
    """tr as a one-state transducer over one block: ``carry`` is the
    previous *kept output* byte (-1 if none yet), returned updated.
    The ``tr`` command's chunk loop, the host pool's pure-Python kernel
    and its oracle's sub-block remainder resolver are all this
    function."""
    if plan.delete is not None:
        data = data.translate(None, plan.delete)
    elif plan.table is not None:
        data = data.translate(plan.table)
    if plan.squeeze and data:
        # continue a squeeze run that straddled the block boundary
        if carry >= 0 and carry in plan.squeeze:
            data = data.lstrip(bytes((carry,)))
        if data:
            if plan.squeeze_re is None:
                # one byte: a run of k halves per C replace pass, so it
                # takes ceil(log2 k) passes (past ~30 bytes the regex wins)
                pair = plan.squeeze * 2
                while pair in data:
                    data = data.replace(pair, plan.squeeze)
            else:
                data = plan.squeeze_re.sub(b"\\1", data)
            carry = data[-1]
    return data, carry


def tr_plan(opts: dict, operands: list[str]) -> TrPlan:
    """The plan of a parsed ``tr`` argv; raises UsageError."""
    return _tr_plan(tuple(operands), bool(opts.get("c") or opts.get("C")),
                    bool(opts.get("s")), bool(opts.get("d")))


@command("tr", Grammar("cCsd"))
def tr(proc: Process, opts: dict, operands: list[str]):
    try:
        plan = tr_plan(opts, operands)
    except UsageError as err:
        return (yield from usage_error(proc, "tr", err))

    coeff = cpu_coeff("tr")
    # S21: a host-pool oracle may hold this stage's precomputed output;
    # every incoming chunk is validated against the snapshot stream and
    # a mismatch reconstructs the serial carry and resumes in-process
    oracle = getattr(proc, "host_oracle", None)
    if oracle is not None and getattr(oracle, "kind", "") != "tr":
        oracle = None
    last_byte = -1
    while True:
        data = yield from proc.read(0, CHUNK)
        if not data:
            break
        yield from proc.cpu(len(data) * coeff)
        if oracle is not None:
            out = oracle.try_chunk(data)
            if out is not None:
                yield from proc.write(1, out)
                continue
            # prefix-stable mapping: bytes emitted so far are exactly
            # the serial bytes, so the serial squeeze carry is the
            # last emitted byte
            last_byte = oracle.last_emitted_byte()
            oracle = None
        data, last_byte = tr_block(data, plan, last_byte)
        yield from proc.write(1, data)
    if oracle is not None:
        oracle.finish()
    return 0


# ---------------------------------------------------------------------------
# grep
# ---------------------------------------------------------------------------


def _literal_needle(pattern: str, ere: bool, fixed: bool,
                    ignorecase: bool) -> bytes | None:
    """A substring every match of ``pattern`` must contain, or None.

    Used as a byte-level prefilter: ``needle in line`` is a C memmem
    scan, so lines that cannot match skip the regex engine entirely.
    Conservative — any char adjacent to a metacharacter is dropped from
    its run, and anything shorter than 3 bytes is not worth the scan.
    """
    if ignorecase:
        return None
    if fixed:
        needle = pattern.encode("utf-8", "surrogateescape")
        return needle if len(needle) >= 3 and b"\n" not in needle else None
    if any(c in pattern for c in "[|({"):
        # bracket expressions, alternation, groups, intervals: their
        # contents are not simple required literals — no prefilter
        return None
    meta = "].*^$" + ("+?})" if ere else "")
    runs: list[str] = []
    cur: list[str] = []
    i, n = 0, len(pattern)
    while i < n:
        c = pattern[i]
        if c == "\\":
            # escaped char: operator (BRE \+ \? \{ \| ...) or literal —
            # either way exclude it, and drop the char a repetition
            # operator would make optional
            if cur and i + 1 < n and pattern[i + 1] in "*+?{|":
                cur.pop()
            if cur:
                runs.append("".join(cur))
            cur = []
            i += 2
            continue
        if c in meta:
            if cur and c in "*?{":
                cur.pop()  # preceding char may repeat zero times
            if cur:
                runs.append("".join(cur))
            cur = []
        else:
            cur.append(c)
        i += 1
    if cur:
        runs.append("".join(cur))
    # longest run wins; among equals prefer punctuation/whitespace-heavy
    # ones, which are rarer in typical text and filter harder
    best = max(runs, default="",
               key=lambda r: (len(r), sum(not c.isalnum() for c in r)))
    if len(best) < 3 or "\n" in best:
        return None
    return best.encode("utf-8", "surrogateescape")


@command("grep", Grammar("vicnqFlxE", valued="em"))
def grep(proc: Process, opts: dict, operands: list[str]):
    """grep [-vicnqFEx] [-m NUM] [-e PATTERN] [PATTERN] [FILE...].

    Patterns are POSIX BREs by default (`+ ? |` and unescaped `{` are
    literal), EREs with -E, fixed strings with -F; see
    :mod:`repro.commands.bre` for the translation to Python `re`.
    """
    if "e" in opts:
        pattern = opts["e"]
    elif operands:
        pattern = operands.pop(0)
    else:
        yield from write_err(proc, "grep: missing pattern")
        return 2
    try:
        regex = compile_posix(pattern, ere=bool(opts.get("E")),
                              fixed=bool(opts.get("F")),
                              ignorecase=bool(opts.get("i")))
    except (re.error, RegexTranslationError) as err:
        yield from write_err(proc, f"grep: bad pattern: {err}")
        return 2
    invert = bool(opts.get("v"))
    count_only = bool(opts.get("c"))
    quiet = bool(opts.get("q"))
    number = bool(opts.get("n"))
    whole_line = bool(opts.get("x"))
    max_count = int(opts["m"]) if "m" in opts else None
    needle = _literal_needle(pattern, ere=bool(opts.get("E")),
                             fixed=bool(opts.get("F")),
                             ignorecase=bool(opts.get("i")))

    files = operands or ["-"]
    multi = len(files) > 1
    coeff = cpu_coeff("grep")
    # whole-buffer scan: when no match can span a newline (needle found
    # => no brackets/groups/alternation; `.` never matches \n) and no
    # per-line bookkeeping is needed, run the regex over raw chunks and
    # pay per *match*, not per line
    blob_scan = (needle is not None and not invert and not number
                 and not whole_line
                 and "^" not in pattern and "$" not in pattern)
    overall_match = False
    for path in files:
        fd, needs_close = yield from open_operand(proc, "grep", path)
        if fd is None:
            continue
        out = OutBuf(proc, 1)
        lineno = 0
        matches = 0
        if blob_scan:
            prefix = path.encode() + b":" if multi else b""
            tail = b""
            done = False
            while not done:
                data = yield from proc.read(fd, CHUNK)
                if not data:
                    if not tail:
                        break
                    blob, tail, done = tail + b"\n", b"", True
                    yield from proc.cpu((len(blob) - 1) * coeff)
                else:
                    buf = tail + data if tail else data
                    nl = buf.rfind(b"\n")
                    if nl < 0:
                        tail = buf
                        continue
                    blob, tail = buf[: nl + 1], buf[nl + 1 :]
                    yield from proc.cpu(len(blob) * coeff)
                line_end = -1  # end of the last line already counted
                for m in regex.finditer(blob):
                    if m.start() < line_end:
                        continue  # second match on an already-hit line
                    matches += 1
                    overall_match = True
                    if quiet:
                        return 0
                    start = blob.rfind(b"\n", 0, m.start()) + 1
                    line_end = blob.index(b"\n", m.end()) + 1
                    if not count_only:
                        yield from out.put(prefix + blob[start:line_end])
                    if max_count is not None and matches >= max_count:
                        done = True
                        break
        else:
            stream = LineStream(proc, fd)
            while True:
                batch = yield from stream.next_batch()
                if batch is None:
                    break
                if not batch:
                    continue
                yield from proc.cpu(sum(map(len, batch)) * coeff)
                for line in batch:
                    lineno += 1
                    if needle is not None and needle not in line:
                        m = None  # cannot match: skip the regex engine
                    else:
                        body = line.rstrip(b"\n")
                        if whole_line:
                            m = regex.fullmatch(body)
                        else:
                            m = regex.search(body)
                    hit = bool(m) != invert
                    if not hit:
                        continue
                    matches += 1
                    overall_match = True
                    if quiet:
                        return 0
                    if not count_only:
                        prefix = b""
                        if multi:
                            prefix += path.encode() + b":"
                        if number:
                            prefix += str(lineno).encode() + b":"
                        yield from out.put(prefix + line if line.endswith(b"\n") else prefix + line + b"\n")
                    if max_count is not None and matches >= max_count:
                        break
                if max_count is not None and matches >= max_count:
                    break
        if count_only:
            prefix = (path.encode() + b":") if multi else b""
            yield from out.put(prefix + str(matches).encode() + b"\n")
        yield from out.flush()
        if needs_close:
            yield from proc.close(fd)
    return 0 if overall_match else 1


# ---------------------------------------------------------------------------
# cut
# ---------------------------------------------------------------------------


def parse_cut_list(spec: str) -> list[tuple[int, int]]:
    """Parse a cut LIST: 1, 1-3, -3, 5- (1-based, inclusive).  LIST is a
    set, not a sequence: the ranges come back sorted and merged, so each
    selected position is written once, in input order."""
    ranges: list[tuple[int, int]] = []
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "-" in piece:
            lo_s, hi_s = piece.split("-", 1)
            lo = int(lo_s) if lo_s else 1
            hi = int(hi_s) if hi_s else 10**9
        else:
            lo = hi = int(piece)
        if lo < 1 or hi < lo:
            raise UsageError(f"invalid range {piece!r}")
        ranges.append((lo, hi))
    if not ranges:
        raise UsageError("empty list")
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(ranges):
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return merged


def _cut_picker(ranges: list[tuple[int, int]], delim: Optional[bytes],
                only_delimited: bool):
    """LIST compiled once into a function on a batch of newline-ended
    lines; a single range is one comprehension.  ``-c``: no ``delim``."""
    slices = [slice(lo - 1, hi) for lo, hi in ranges]
    one, last = slices[0], ranges[-1][1]
    if delim is None:
        if len(slices) == 1:
            return lambda batch: [line[:-1][one] + b"\n" for line in batch]
        return lambda batch: [
            b"".join([line[:-1][s] for s in slices]) + b"\n" for line in batch]

    def fields_of(line: bytes) -> bytes:  # any LIST, any line
        fields = line[:-1].split(delim, last)
        if len(fields) == 1:  # no delimiter: the whole line, unless -s
            return b"" if only_delimited else line
        return delim.join([f for s in slices for f in fields[s]]) + b"\n"

    if len(slices) > 1:
        return lambda batch: [fields_of(line) for line in batch]
    # one range: a line with fields left over keeps its newline in them
    return lambda batch: [
        delim.join(parts[one]) + b"\n"
        if len(parts := line.split(delim, last)) > last else fields_of(line)
        for line in batch]


def _map_batches(proc: Process, name: str, operands: list[str], fn):
    """A line command that is a function on batches, ``f(x·y) = f(x)·f(y)``:
    over each operand, one charge per batch of newline-ended lines and
    ``fn(batch)`` written.  Status 2 if an operand could not be read."""
    coeff = cpu_coeff(name)
    status = 0
    for path in operands or ["-"]:
        fd, needs_close = yield from open_operand(proc, name, path)
        if fd is None:
            status = 2
            continue
        stream = LineStream(proc, fd)
        out = OutBuf(proc, 1)
        while True:
            batch = yield from stream.next_batch()
            if batch is None:
                break
            if not batch:
                continue
            yield from proc.cpu(sum(map(len, batch)) * coeff)
            if batch[-1][-1] != 10:  # the stream's unterminated last line
                batch[-1] += b"\n"
            yield from out.put_lines(fn(batch))
        yield from out.flush()
        if needs_close:
            yield from proc.close(fd)
    return status


@command("cut", Grammar("s", valued="cfd"))
def cut(proc: Process, opts: dict, operands: list[str]):
    try:
        if ("c" in opts) == ("f" in opts):
            raise UsageError("specify exactly one of -c or -f")
        delim = opts.get("d", "\t").encode()
        if len(delim) != 1:
            raise UsageError("the delimiter must be a single character")
        ranges = parse_cut_list(opts.get("c") or opts.get("f"))
    except (UsageError, ValueError) as err:
        return (yield from usage_error(proc, "cut", err))
    pick = _cut_picker(ranges, None if "c" in opts else delim,
                       bool(opts.get("s")))
    return (yield from _map_batches(proc, "cut", operands, pick))


# ---------------------------------------------------------------------------
# sed (restricted)
# ---------------------------------------------------------------------------

_SED_ESCAPES = {"n": "\n", "t": "\t"}
_SED_PIECE = re.compile(r"\\([1-9])|(&)|\\(.)|([^\\&]+|\\)", re.DOTALL)


def _sed_template(repl: str, groups: int):
    """An ``s`` replacement parsed once, by our own rules (``re``'s
    template parser is private and reads ``\\&`` and ``\\\\`` differently),
    into ``match -> replacement bytes`` (and those bytes, if constant):
    ``&`` and ``\\1``-``\\9`` are the match and its groups, ``\\n`` a newline,
    any other escaped character (``\\&``, ``\\\\``, the separator) itself."""
    pieces: list = []
    for group, whole, escaped, text in _SED_PIECE.findall(repl):
        if int(group or 0) > groups:
            raise UsageError(f"invalid reference \\{group} on s command's RHS")
        pieces.append(int(group or 0) if group or whole else
                      (_SED_ESCAPES.get(escaped, escaped) or text).encode())
    if not any(isinstance(piece, int) for piece in pieces):
        literal = b"".join(pieces)
        return (lambda match: literal), literal
    if len(pieces) == 1:  # an unmatched group is empty
        return (lambda match: match[pieces[0]] or b""), None
    return (lambda match: b"".join([piece if piece.__class__ is bytes
                                    else match[piece] or b""
                                    for piece in pieces])), None


class _SedQuit(Exception):
    """``Nq`` reached line N; ``args[0]`` is the body left to autoprint."""


class _SedCmd:
    def __init__(self, kind: str, regex=None, expand=None, literal=None,
                 global_: bool = False, print_: bool = False, nth: int = 1):
        self.kind = kind  # "s" | "d" | "p" | "q"
        self.regex = regex
        self.expand = expand  # s: match -> replacement
        self.global_ = global_
        self.print_ = print_
        self.nth = nth  # s///N: first match substituted; Nq: the line
        if literal is not None and global_ and nth == 1:
            # s/re/literal/g where re cannot match empty (the parser
            # vouches): re.subn agrees with sed, and stays in C
            self.substitute = partial(regex.subn, literal)

    def substitute(self, body: bytes) -> tuple[bytes, int]:
        """Apply an ``s`` command: (new body, substitutions made)."""
        return posix_sub(self.regex, self.expand, body, self.nth, self.global_)

    def before(self, rest):
        """This command in front of ``rest``, the script's later commands
        (None at its end): a step ``(body, lineno, outs) -> body`` returns
        what is left to autoprint — None once deleted — and appends what
        the line prints on the way to ``outs``; ``q`` raises _SedQuit."""
        kind, nth, print_, expand = self.kind, self.nth, self.print_, self.expand
        search = self.regex.search if self.regex else None
        substitute = self.substitute

        def quit_(body, lineno, outs):
            if lineno == nth:
                raise _SedQuit(body)
            return rest(body, lineno, outs) if rest else body

        def delete(body, lineno, outs):
            if not search(body):
                return rest(body, lineno, outs) if rest else body

        def print_if(body, lineno, outs):
            if search(body):
                outs.append(body + b"\n")
            return rest(body, lineno, outs) if rest else body

        def first(body, lineno, outs):  # s/re/repl/: search and splice
            match = search(body)
            if match:
                start, end = match.span()
                body = body[:start] + expand(match) + body[end:]
                if print_:
                    outs.append(body + b"\n")
            return rest(body, lineno, outs) if rest else body

        def general(body, lineno, outs):  # s///g, s///N
            body, n = substitute(body)
            if n and print_:
                outs.append(body + b"\n")
            return rest(body, lineno, outs) if rest else body

        if kind == "s":
            return first if nth == 1 and not self.global_ else general
        return {"q": quit_, "d": delete, "p": print_if}[kind]


def _parse_s_flags(flags: str) -> tuple[bool, bool, int]:
    """``[N][g][p]`` -> (global, print, N); anything else (``w file``,
    ``I``, a second number, zero) is refused, not ignored."""
    match = re.fullmatch(r"[gp]*([1-9]\d*)?[gp]*", flags)
    if match is None:
        raise UsageError(f"unknown option to s: {flags!r}")
    return "g" in flags, "p" in flags, int(match.group(1) or 1)


def _sed_field(script: str, i: int, stops: str, must: bool = True):
    """(the text from ``i`` to the next unescaped character of ``stops``,
    the index past it); without ``must`` the script's end stops it too."""
    start = i
    while i < len(script) and script[i] not in stops:
        i += 2 if script[i] == "\\" else 1
    if must and i >= len(script):
        raise UsageError(f"unterminated command in {script!r}")
    return script[start:i], i + 1


@lru_cache(maxsize=128)
def parse_sed_script(script: str) -> tuple[_SedCmd, ...]:
    """Supported: ``s<sep>re<sep>repl<sep>[N][g][p]``, ``/re/d``, ``/re/p``,
    ``[N]q``; commands separated by ``;`` or newlines.  The script is read
    left to right, so a ``;`` inside an ``s`` command is text.

    Addresses and s/// patterns are POSIX BREs (like real sed), so `+`,
    `?`, `|` and unescaped `{` are literal characters.
    """
    cmds: list[_SedCmd] = []
    i = 0
    while i < len(script):
        c, sep = script[i], script[i + 1 : i + 2]
        if c in " \t;\n":
            i += 1
        elif c == "s" and sep not in ("", "\n", "\\"):
            pat, i = _sed_field(script, i + 2, sep)
            repl, i = _sed_field(script, i, sep)
            flags, i = _sed_field(script, i, ";\n", False)
            regex = re.compile(
                bre_to_python(pat.replace("\\" + sep, sep)).encode())
            expand, literal = _sed_template(repl, regex.groups)
            if not pat or set(pat) & set("*^$\\") or b"\\" in (literal or b""):
                literal = None  # re may match empty, or re.subn would read \\
            cmds.append(_SedCmd("s", regex, expand, literal,
                                *_parse_s_flags(flags.strip())))
        elif c == "/":
            pat, i = _sed_field(script, i + 1, "/")
            action, i = _sed_field(script, i, ";\n", False)
            if action.strip() not in ("d", "p"):
                raise UsageError(f"unsupported sed action {action!r}")
            cmds.append(_SedCmd(action.strip(),
                                re.compile(bre_to_python(pat).encode())))
        else:
            text, i = _sed_field(script, i, ";\n", False)
            if not re.fullmatch(r"([1-9]\d*)?q", text.strip()):
                raise UsageError(f"unsupported sed command {text!r}")
            cmds.append(_SedCmd("q", nth=int(text.strip()[:-1] or 1)))
    return tuple(cmds)


def parse_sed_args(opts: dict, operands: list[str]) -> tuple[bool, tuple, list[str]]:
    """A parsed ``sed [-n] [-e script]... [script] [file...]`` ->
    (quiet, commands, files).  Every ``-e`` counts, in order; without
    one the first operand is the script.  Raises UsageError / re.error
    for what sed refuses."""
    if "e" in opts:
        script, files = "\n".join(opts["e"]), operands
    elif operands:
        script, files = operands[0], operands[1:]
    else:
        raise UsageError("missing script")
    return bool(opts.get("n")), parse_sed_script(script), files


@command("sed", Grammar("n", valued="e", repeat="e"))
def sed(proc: Process, opts: dict, operands: list[str]):
    try:
        quiet, cmds, operands = parse_sed_args(opts, operands)
    except (UsageError, RegexTranslationError, re.error) as err:
        return (yield from usage_error(proc, "sed", err))

    # the script as one function of a line, last command first
    run = None
    for cmd in reversed(cmds):
        run = cmd.before(run)
    run = run or (lambda body, lineno, outs: body)
    coeff = cpu_coeff("sed")
    charge = proc.charge

    status = 0
    quit_now = False
    lineno = 0
    outs: list[bytes] = []  # what p and s///p print, ahead of the autoprint
    for path in operands or ["-"]:
        if quit_now:
            break
        fd, needs_close = yield from open_operand(proc, "sed", path)
        if fd is None:
            status = 2
            continue
        stream = LineStream(proc, fd)
        out = OutBuf(proc, 1)
        add = out.add
        while not quit_now:
            batch = yield from stream.next_batch()
            if batch is None:
                break
            for line in batch:
                charge(len(line) * coeff)
                lineno += 1
                try:
                    body = run(line[:-1] if line[-1] == 10 else line,
                               lineno, outs)
                except _SedQuit as stop:
                    body, quit_now = stop.args[0], True
                if outs:
                    for text in outs:
                        if add(text):
                            yield from out.flush()
                    outs.clear()
                # the flush falls on the line that trips it, not the batch's end
                if body is not None and not quiet and add(body + b"\n"):
                    yield from out.flush()
                if quit_now:
                    break
        yield from out.flush()
        if needs_close:
            yield from proc.close(fd)
    return status


# ---------------------------------------------------------------------------
# wc / rev / paste / tac / nl
# ---------------------------------------------------------------------------


@command("wc", Grammar("lwc"))
def wc(proc: Process, opts: dict, operands: list[str]):
    show = [k for k in "lwc" if opts.get(k)] or ["l", "w", "c"]
    need_words = "w" in show
    coeff = cpu_coeff("wc")
    files = operands or ["-"]
    totals = {"l": 0, "w": 0, "c": 0}
    for path in files:
        fd, needs_close = yield from open_input(proc, path)
        counts = {"l": 0, "w": 0, "c": 0}
        in_word = False
        while True:
            data = yield from proc.read(fd, CHUNK)
            if not data:
                break
            yield from proc.cpu(len(data) * coeff)
            counts["c"] += len(data)
            counts["l"] += data.count(b"\n")
            if need_words:
                # whole-buffer word count; a word straddling the chunk
                # boundary was already counted in the previous chunk
                words = len(data.split())
                if in_word and words and not data[:1].isspace():
                    words -= 1
                counts["w"] += words
                in_word = not data[-1:].isspace()
        for k in counts:
            totals[k] += counts[k]
        fields = [str(counts[k]) for k in show]
        label = f" {path}" if path != "-" else ""
        yield from proc.write(1, (" ".join(fields) + label).encode() + b"\n")
        if needs_close:
            yield from proc.close(fd)
    if len(files) > 1:
        fields = [str(totals[k]) for k in show]
        yield from proc.write(1, (" ".join(fields) + " total").encode() + b"\n")
    return 0


@command("rev")
def rev(proc: Process, argv: list[str]):
    return (yield from _map_batches(
        proc, "rev", argv,
        lambda batch: [line[-2::-1] + b"\n" for line in batch]))


@command("tac")
def tac(proc: Process, argv: list[str]):
    files = argv or ["-"]
    coeff = cpu_coeff("rev")
    for path in files:
        fd, needs_close = yield from open_input(proc, path)
        data = yield from proc.read_all(fd)
        yield from proc.cpu(len(data) * coeff)
        lines = data.splitlines(keepends=True)
        if lines and not lines[-1].endswith(b"\n"):
            lines[-1] += b"\n"
        yield from proc.write(1, b"".join(reversed(lines)))
        if needs_close:
            yield from proc.close(fd)
    return 0


def parse_paste_delims(spec: str) -> list[bytes]:
    """Expand a paste -d LIST: cycled delimiters with \\t \\n \\\\ and
    \\0 (empty string) escapes."""
    delims: list[bytes] = []
    i = 0
    while i < len(spec):
        c = spec[i]
        if c == "\\" and i + 1 < len(spec):
            nxt = spec[i + 1]
            delims.append({"t": b"\t", "n": b"\n", "\\": b"\\",
                           "0": b""}.get(nxt, nxt.encode()))
            i += 2
        else:
            delims.append(c.encode())
            i += 1
    if not delims:
        raise UsageError("empty delimiter list")
    return delims


@command("paste", Grammar("s", valued="d"))
def paste(proc: Process, opts: dict, operands: list[str]):
    """paste [-s] [-d LIST] [FILE...]: merge lines column-wise, or with
    -s serialize each file onto one line; -d delimiters cycle."""
    try:
        delims = parse_paste_delims(opts.get("d", "\t"))
    except UsageError as err:
        return (yield from usage_error(proc, "paste", err))
    serial = bool(opts.get("s"))
    coeff = cpu_coeff("paste")
    out = OutBuf(proc, 1)

    if serial:
        # one output line per input file; delimiters cycle within a file
        for path in operands or ["-"]:
            fd, needs_close = yield from open_input(proc, path)
            stream = LineStream(proc, fd)
            pieces: list[bytes] = []
            idx = 0
            while True:
                line = yield from stream.next_line()
                if line is None:
                    break
                if pieces:
                    pieces.append(delims[(idx - 1) % len(delims)])
                pieces.append(line.rstrip(b"\n"))
                idx += 1
            joined = b"".join(pieces) + b"\n"
            yield from proc.cpu(len(joined) * coeff)
            yield from out.put(joined)
            if needs_close:
                yield from proc.close(fd)
        yield from out.flush()
        return 0

    streams = []
    closers = []
    for path in operands or ["-"]:
        fd, needs_close = yield from open_input(proc, path)
        streams.append(LineStream(proc, fd))
        if needs_close:
            closers.append(fd)
    while True:
        row: list[bytes] = []
        all_eof = True
        for stream in streams:
            line = yield from stream.next_line()
            if line is None:
                row.append(b"")
            else:
                all_eof = False
                row.append(line.rstrip(b"\n"))
        if all_eof:
            break
        pieces = []
        for col, cell in enumerate(row):
            if col:
                pieces.append(delims[(col - 1) % len(delims)])
            pieces.append(cell)
        joined = b"".join(pieces) + b"\n"
        yield from proc.cpu(len(joined) * coeff)
        yield from out.put(joined)
    yield from out.flush()
    for fd in closers:
        yield from proc.close(fd)
    return 0


@command("nl")
def nl(proc: Process, argv: list[str]):
    files = argv or ["-"]
    n = 0
    for path in files:
        fd, needs_close = yield from open_input(proc, path)
        stream = LineStream(proc, fd)
        out = OutBuf(proc, 1)
        while True:
            line = yield from stream.next_line()
            if line is None:
                break
            n += 1
            rendered = f"{n:6d}\t".encode() + line
            yield from proc.cpu(len(rendered) * 2e-9)
            yield from out.put(rendered)
        yield from out.flush()
        if needs_close:
            yield from proc.close(fd)
    return 0
