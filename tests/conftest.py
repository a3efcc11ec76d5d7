"""Shared fixtures: fast virtual machines and script-running helpers."""

from __future__ import annotations

import functools
from contextlib import contextmanager
from unittest import mock

import pytest

from repro.commands.base import (
    REGISTRY,
    LineStream,
    OutBuf,
    cpu_coeff,
    open_input,
    parse_args,
)
from repro.shell import Shell
from repro.vos import SpliceReq, VosError
from repro.vos.devices import DiskSpec
from repro.vos.machines import MachineSpec


def fast_machine() -> MachineSpec:
    """A machine whose IO/CPU are effectively free: correctness tests
    should not wait on the simulated clock."""
    return MachineSpec(
        name="test-fast",
        cores=8,
        cpu_speed=1e6,
        disk=DiskSpec(name="ram", throughput_bps=1e12, base_iops=1e9,
                      burst_iops=1e9),
    )


@pytest.fixture
def shell() -> Shell:
    return Shell(fast_machine())


@pytest.fixture
def sh_run(shell):
    """Run a script, returning the RunResult."""

    def run(script: str, files: dict | None = None, args: list | None = None,
            stdin: bytes = b"", env: dict | None = None):
        for path, data in (files or {}).items():
            shell.fs.write_bytes(path, data)
        return shell.run(script, args=args, stdin=stdin, env=env)

    run.shell = shell
    return run


@pytest.fixture
def out_of(sh_run):
    """Run a script and return decoded stdout (asserts status 0)."""

    def run(script: str, **kw):
        result = sh_run(script, **kw)
        assert result.status == 0, (result.status, result.err)
        return result.out

    return run


# -- the reference a SpliceReq is held to (DESIGN.md §11) ---------------------


def copy_loop(proc, request: SpliceReq):
    """What the kernel pump must be indistinguishable from: per chunk one
    ReadReq, one CpuReq of ``cpu_coeff`` per byte, one WriteReq per
    destination in order, until EOF.  Returns the bytes moved."""
    total = 0
    while True:
        data = yield from proc.read(request.src_fd, request.chunk)
        if not data:
            return total
        total += len(data)
        yield from proc.cpu(len(data) * request.cpu_coeff)
        for fd in request.dst_fds:
            yield from proc.write(fd, data)


def with_copy_loop(body):
    """``body`` with every SpliceReq it yields served by :func:`copy_loop`
    inside the process; every other request, and every error the kernel
    throws back, passes through.  The body differs from the one under
    test in nothing but who copies."""

    @functools.wraps(body)
    def looped(proc, *args):
        gen = body(proc, *args)
        step, arg = gen.send, None
        while True:
            try:
                request = step(arg)
            except StopIteration as stop:
                return stop.value
            step = gen.send
            try:
                if isinstance(request, SpliceReq):
                    arg = yield from copy_loop(proc, request)
                else:
                    arg = yield request
            except VosError as err:
                step, arg = gen.throw, err

    return looped


@contextmanager
def reference_copy():
    """``cat`` and ``tee`` copy with :func:`copy_loop` until the block
    ends (plan-runtime bodies are wrapped directly, they are not looked
    up by name)."""
    looped = {name: with_copy_loop(REGISTRY[name]) for name in ("cat", "tee")}
    with mock.patch.dict(REGISTRY, looped):
        yield


# -- the reference the run-based uniq is held to (DESIGN.md §11) --------------


def uniq_line_loop(proc, argv):
    """What ``uniq`` must be indistinguishable from: a line at a time
    through ``LineStream`` batches, one CPU request per batch, each
    group's line put the moment a different line (or EOF) ends it.
    Reads its first operand and writes stdout."""
    args = parse_args("uniq", argv)
    count, dup_only, uniq_only = (bool(args.opts.get(f)) for f in "cdu")
    coeff = cpu_coeff("uniq")
    fd, needs_close = yield from open_input(
        proc, args.operands[0] if args.operands else "-")
    stream = LineStream(proc, fd)
    out = OutBuf(proc, 1)
    prev: bytes | None = None
    repeat = 0

    def emit(line: bytes, n: int):
        if dup_only and n < 2:
            return
        if uniq_only and n > 1:
            return
        if count:
            yield from out.put(f"{n:7d} ".encode() + line)
        else:
            yield from out.put(line)

    while True:
        batch = yield from stream.next_batch()
        if batch is None:
            break
        if not batch:
            continue
        yield from proc.cpu(sum(map(len, batch)) * coeff)
        for line in batch:
            body = line.rstrip(b"\n") + b"\n"
            if prev is not None and body == prev:
                repeat += 1
            else:
                if prev is not None:
                    yield from emit(prev, repeat)
                prev = body
                repeat = 1
    if prev is not None:
        yield from emit(prev, repeat)
    yield from out.flush()
    if needs_close:
        yield from proc.close(fd)
    return 0


@contextmanager
def reference_uniq():
    """``uniq`` runs as :func:`uniq_line_loop` inside a ``with`` block."""
    with mock.patch.dict(REGISTRY, {"uniq": uniq_line_loop}):
        yield


# -- inputs that cross a split on purpose (ROADMAP "right across a seam") -----


def seam_lines(count: int = 60, block: int = 7) -> list[bytes]:
    """``count`` lines that make a cut visible wherever it falls.  Every
    line is empty or opens with a separator byte (what a squeezing
    ``tr`` must not see first, so any byte-range cut qualifies); the two
    lines around every multiple of ``block`` are equal and differ from
    every other such pair (an adjacent duplicate straddles each
    round-robin block edge); in between come runs of equal lines."""
    fill = [b"", b"  led by spaces l%d", b"\techo %d", b"\techo %d",
            b"-- dashes, x and l %d", b".lima x%d"]
    lines = []
    for i in range(count):
        edge = (i + 1) // block
        if i % block in (0, block - 1) and 0 < edge * block < count:
            lines.append(b" .straddle l%d" % edge)
        else:
            text = fill[i % len(fill)]
            lines.append(text % (i // 2) if b"%" in text else text)
    return lines


def seam_input(count: int = 60, block: int = 7) -> bytes:
    """:func:`seam_lines` joined, the last line left unterminated."""
    return b"\n".join(seam_lines(count, block))
