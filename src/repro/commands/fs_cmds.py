"""Filesystem and utility commands: test/[, ls, mkdir, rm, mv, cp, touch,
basename, dirname, du, date, stat."""

from __future__ import annotations

import operator

from ..vos.errors import VosError
from ..vos.fs import normalize
from ..vos.process import CHUNK, Process
from .base import Grammar, UsageError, command, usage_error, write_err


# ---------------------------------------------------------------------------
# test / [
# ---------------------------------------------------------------------------


#: test's comparisons: of strings, then of integers
_COMPARE = {"=": operator.eq, "!=": operator.ne, "-eq": operator.eq,
            "-ne": operator.ne, "-gt": operator.gt, "-ge": operator.ge,
            "-lt": operator.lt, "-le": operator.le}


def _binary(left: str, op: str, right: str) -> bool:
    if not op.startswith("-"):
        return _COMPARE[op](left, right)
    try:
        return _COMPARE[op](int(left), int(right))
    except ValueError:
        raise UsageError(f"integer expression expected: {left} {op} {right}")


def eval_test(args: list[str], fs, cwd: str) -> bool:
    """Evaluate a test(1) expression; raises UsageError on bad syntax.

    Up to four arguments follow POSIX's argument-count rules, so an
    operand that looks like an operator is a string (``[ -n ]`` is
    true, ``[ ! = x ]`` compares); longer expressions go through the
    precedence parser.  The file system is read only by file tests."""
    n = len(args)
    if n < 2:
        return n == 1 and args[0] != ""
    if n == 3 and args[1] in _COMPARE:
        return _binary(*args)
    if n <= 4 and args[0] == "!":
        return not eval_test(args[1:], fs, cwd)
    if n in (3, 4) and args[0] == "(" and args[-1] == ")":
        return eval_test(args[1:-1], fs, cwd)
    pos = 0

    def peek():
        return args[pos] if pos < len(args) else None

    def take():
        nonlocal pos
        tok = args[pos]
        pos += 1
        return tok

    def parse_or() -> bool:
        value = parse_and()
        while peek() == "-o":
            take()
            rhs = parse_and()
            value = value or rhs
        return value

    def parse_and() -> bool:
        value = parse_not()
        while peek() == "-a":
            take()
            rhs = parse_not()
            value = value and rhs
        return value

    def parse_not() -> bool:
        if peek() == "!":
            take()
            return not parse_not()
        return parse_primary()

    def parse_primary() -> bool:
        tok = peek()
        if tok is None:
            return False
        if tok == "(":
            take()
            value = parse_or()
            if peek() != ")":
                raise UsageError("missing ')'")
            take()
            return value
        if tok in ("-f", "-e", "-d", "-s", "-r", "-w", "-x", "-n", "-z"):
            take()
            operand = take() if peek() is not None else ""
            if tok in ("-n", "-z"):
                return (operand != "") == (tok == "-n")
            path = normalize(operand, cwd)
            if tok == "-f":
                return fs.is_file(path)
            if tok == "-d":
                return fs.is_dir(path)
            if tok == "-s":  # a directory's size is never zero
                return fs.is_dir(path) or fs.is_file(path) and fs.size(path) > 0
            return fs.exists(path)  # -e; -r, -w, -x: no permissions modelled
        # binary operators
        left = take()
        op = peek()
        if op in _COMPARE:
            take()
            if peek() is None:
                raise UsageError(f"missing operand after {op}")
            return _binary(left, op, take())
        # single string: true iff non-empty
        return left != ""

    result = parse_or()
    if pos != len(args):
        raise UsageError(f"unexpected argument {args[pos]!r}")
    return result


@command("test")
def test_cmd(proc: Process, argv: list[str]):
    yield from proc.cpu(1e-6)
    try:
        return 0 if eval_test(list(argv), proc.fs, proc.cwd) else 1
    except UsageError as err:
        return (yield from usage_error(proc, "test", err))


def bracket_expression(argv: list[str]) -> list[str]:
    """The expression of ``[ ... ]``; raises UsageError without ``]``."""
    if not argv or argv[-1] != "]":
        raise UsageError("missing ']'")
    return argv[:-1]


@command("[")
def bracket_cmd(proc: Process, argv: list[str]):
    try:
        expression = bracket_expression(argv)
    except UsageError as err:
        return (yield from usage_error(proc, "[", err))
    return (yield from test_cmd(proc, expression))


# ---------------------------------------------------------------------------
# file manipulation
# ---------------------------------------------------------------------------


@command("ls", Grammar("la1"))
def ls(proc: Process, opts: dict, operands: list[str]):
    paths = operands or ["."]
    status = 0
    lines: list[str] = []
    for path in paths:
        resolved = proc.resolve(path)
        fs = proc.fs
        if fs.is_dir(resolved):
            names = fs.listdir(resolved)
            if opts.get("l"):
                for name in names:
                    child = resolved.rstrip("/") + "/" + name
                    size = fs.size(child) if fs.is_file(child) else 0
                    kind = "d" if fs.is_dir(child) else "-"
                    lines.append(f"{kind}rw-r--r-- 1 user user {size:>10} {name}")
            else:
                lines.extend(names)
        elif fs.is_file(resolved):
            lines.append(path)
        else:
            yield from write_err(proc, f"ls: {path}: No such file or directory")
            status = 1
    out = ("\n".join(lines) + "\n").encode() if lines else b""
    yield from proc.cpu(len(out) * 2e-9 + 1e-6)
    yield from proc.write(1, out)
    return status


@command("mkdir", Grammar("p"))
def mkdir(proc: Process, opts: dict, operands: list[str]):
    yield from proc.cpu(1e-6)
    status = 0
    for path in operands:
        resolved = proc.resolve(path)
        if proc.fs.exists(resolved) and not opts.get("p"):
            yield from write_err(proc, f"mkdir: {path}: File exists")
            status = 1
            continue
        proc.fs.mkdir(resolved, parents=True)
    return status


@command("rm", Grammar("rf"))
def rm(proc: Process, opts: dict, operands: list[str]):
    yield from proc.cpu(1e-6)
    status = 0
    fs = proc.fs
    for path in operands:
        resolved = proc.resolve(path)
        if fs.is_file(resolved):
            fs.unlink(resolved)
        elif fs.is_dir(resolved) and opts.get("r"):
            prefix = resolved.rstrip("/") + "/"
            for p in [p for p in list(fs.files) if p.startswith(prefix)]:
                fs.unlink(p)
            fs.dirs.discard(resolved)
        elif not opts.get("f"):
            yield from write_err(proc, f"rm: {path}: No such file or directory")
            status = 1
    return status


@command("mv")
def mv(proc: Process, argv: list[str]):
    if len(argv) != 2:
        yield from write_err(proc, "mv: need source and destination")
        return 2
    yield from proc.cpu(1e-6)
    src, dst = proc.resolve(argv[0]), proc.resolve(argv[1])
    fs = proc.fs
    try:
        if fs.is_dir(dst):
            dst = dst.rstrip("/") + "/" + src.rsplit("/", 1)[-1]
        fs.rename(src, dst)
    except VosError:
        yield from write_err(proc, f"mv: {argv[0]}: No such file or directory")
        return 1
    return 0


@command("cp", Grammar("r"))
def cp(proc: Process, opts: dict, operands: list[str]):
    if len(operands) != 2:
        yield from write_err(proc, "cp: need source and destination")
        return 2
    src, dst = operands
    fs = proc.fs
    resolved_src = proc.resolve(src)
    if not fs.is_file(resolved_src):
        yield from write_err(proc, f"cp: {src}: No such file or directory")
        return 1
    resolved_dst = proc.resolve(dst)
    if fs.is_dir(resolved_dst):
        resolved_dst = resolved_dst.rstrip("/") + "/" + resolved_src.rsplit("/", 1)[-1]
    # charge real IO: read + write through the disk
    in_fd = yield from proc.open(resolved_src, "r")
    out_fd = yield from proc.open(resolved_dst, "w")
    while (data := (yield from proc.read(in_fd, CHUNK))):
        yield from proc.write(out_fd, data)
    yield from proc.close(in_fd)
    yield from proc.close(out_fd)
    return 0


@command("touch")
def touch(proc: Process, argv: list[str]):
    yield from proc.cpu(1e-6)
    for path in argv:
        resolved = proc.resolve(path)
        if proc.fs.is_file(resolved):
            proc.fs.files[resolved].mtime = proc.kernel.now
        else:
            proc.fs.create(resolved, b"", mtime=proc.kernel.now)
    return 0


@command("basename")
def basename(proc: Process, argv: list[str]):
    if not argv:
        yield from write_err(proc, "basename: missing operand")
        return 1
    name = argv[0].rstrip("/").rsplit("/", 1)[-1] or "/"
    if len(argv) > 1 and name.endswith(argv[1]) and name != argv[1]:
        name = name[: -len(argv[1])]
    yield from proc.cpu(1e-6)
    yield from proc.write(1, name.encode() + b"\n")
    return 0


@command("dirname")
def dirname(proc: Process, argv: list[str]):
    if not argv:
        yield from write_err(proc, "dirname: missing operand")
        return 1
    path = argv[0].rstrip("/")
    parent = path.rsplit("/", 1)[0] if "/" in path else "."
    yield from proc.cpu(1e-6)
    yield from proc.write(1, (parent or "/").encode() + b"\n")
    return 0


@command("du", Grammar("sb"))
def du(proc: Process, opts: dict, operands: list[str]):
    yield from proc.cpu(1e-5)
    fs = proc.fs
    lines = []
    for path in operands or ["."]:
        resolved = proc.resolve(path)
        if fs.is_file(resolved):
            lines.append(f"{fs.size(resolved)}\t{path}")
        elif fs.is_dir(resolved):
            prefix = resolved.rstrip("/") + "/"
            total = sum(node.size for p, node in fs.files.items() if p.startswith(prefix))
            lines.append(f"{total}\t{path}")
        else:
            yield from write_err(proc, f"du: {path}: No such file or directory")
    if lines:
        yield from proc.write(1, ("\n".join(lines) + "\n").encode())
    return 0


@command("date")
def date(proc: Process, argv: list[str]):
    """Prints the *virtual* clock (seconds since simulation start)."""
    yield from proc.cpu(1e-6)
    if argv and argv[0] == "+%s":
        text = str(int(proc.kernel.now))
    else:
        text = f"virtual+{proc.kernel.now:.6f}s"
    yield from proc.write(1, text.encode() + b"\n")
    return 0


@command("stat", Grammar(valued="cf"))
def stat_cmd(proc: Process, opts: dict, operands: list[str]):
    yield from proc.cpu(1e-6)
    status = 0
    for path in operands:
        resolved = proc.resolve(path)
        if not proc.fs.is_file(resolved):
            yield from write_err(proc, f"stat: {path}: No such file or directory")
            status = 1
            continue
        size = proc.fs.size(resolved)
        mtime = proc.fs.mtime(resolved)
        if opts.get("c") == "%s":
            yield from proc.write(1, f"{size}\n".encode())
        else:
            yield from proc.write(1, f"  File: {path}\n  Size: {size}\n  Modify: {mtime:.6f}\n".encode())
    return status
