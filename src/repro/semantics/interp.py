"""The shell interpreter — an executable POSIX semantics (Smoosh's role).

The interpreter runs *inside* the virtual OS as a process generator:
every potentially blocking operation (pipes, files, child processes) is a
``yield from`` into the kernel.  Compound commands, functions, built-ins,
and word expansion follow POSIX XCU 2; divergences are documented in
DESIGN.md.

An optional ``optimizer`` hook (duck-typed, see :mod:`repro.jit`) is
consulted before pipelines and simple commands execute — this is the
integration point the paper's Jash proposal describes: "the JIT tightly
couples with the shell, switching back and forth between interpretation
and optimization".
"""

from __future__ import annotations

from typing import Optional

from ..commands.base import PROC_STARTUP, lookup
from ..parser.ast_nodes import (
    AndOr,
    BraceGroup,
    Case,
    Command,
    CommandList,
    For,
    FuncDef,
    If,
    Lit,
    Pipeline,
    Redirect,
    SimpleCommand,
    Subshell,
    While,
    Word,
)
from ..vos.errors import VosError
from ..vos.handles import Collector, NullHandle, StringSource, make_pipe
from ..vos.process import Process
from .builtins import REGULAR_BUILTINS, SPECIAL_BUILTINS
from .control import FuncReturn, LoopBreak, LoopContinue, ShellExit
from .expansion import (
    expand_pattern,
    expand_text,
    expand_word_single,
    expand_words,
)
from .state import ShellError, ShellState


class Interpreter:
    """Evaluates a parsed script against a ShellState inside a vOS."""

    def __init__(self, state: ShellState, optimizer=None,
                 host_coord=None, stage_oracle=None):
        self.state = state
        self.optimizer = optimizer
        #: S21 host-pool coordinator (None when --jobs 1) and, in a
        #: pipeline-stage child, the stage's precomputed-stream oracle
        self.host_coord = host_coord
        self.stage_oracle = stage_oracle
        self.jobs: set[int] = set()
        self.traps: dict[str, str] = {}
        self._local_frames: list[dict] = []
        self._read_buffers: dict[int, bytearray] = {}
        self.condition_depth = 0
        self._last_cmdsub_status = 0

    # -- top level ---------------------------------------------------------------

    def main_body(self, program: Command):
        """A vOS process body executing ``program`` to completion."""

        def body(proc: Process):
            try:
                status = yield from self.exec(program, proc)
            except ShellExit as exit_:
                status = exit_.status
            except ShellError as err:
                yield from self.write_err(proc, f"jash: {err}")
                status = 2
            if "EXIT" in self.traps:
                from ..parser import parse

                try:
                    yield from self.exec(parse(self.traps.pop("EXIT")), proc)
                except (ShellExit, ShellError):
                    pass
            return status

        return body

    # -- helpers -------------------------------------------------------------------

    def write_err(self, proc: Process, message: str):
        if 2 in proc.fds:
            yield from proc.write(2, message.encode() + b"\n")

    def local_frame(self) -> Optional[dict]:
        return self._local_frames[-1] if self._local_frames else None

    def maybe_errexit(self, status: int) -> None:
        if (
            status != 0
            and self.state.options.get("errexit")
            and self.condition_depth == 0
        ):
            raise ShellExit(status)

    def read_line(self, proc: Process, fd: int):
        """Buffered line read for the ``read`` built-in; buffers are keyed
        by handle identity so ``while read x; do ...; done < file`` keeps
        its position across iterations."""
        handle = proc.fds.get(fd)
        key = id(handle)
        buf = self._read_buffers.setdefault(key, bytearray())
        while b"\n" not in buf:
            data = yield from proc.read(fd, 4096)
            if not data:
                if buf:
                    line = bytes(buf).decode("utf-8", "replace")
                    buf.clear()
                    return line
                return None
            buf.extend(data)
        idx = buf.index(b"\n")
        line = bytes(buf[: idx + 1]).decode("utf-8", "replace")
        del buf[: idx + 1]
        return line

    # -- dispatch ----------------------------------------------------------------------

    def exec(self, node: Command, proc: Process):
        if self.state.options.get("noexec"):
            return 0
        if self.optimizer is not None and isinstance(node, (Pipeline, SimpleCommand)):
            plan = yield from self.optimizer.try_execute(self, proc, node)
            if plan is not None:
                status = plan
                self.state.last_status = status
                self.maybe_errexit(status)
                return status
        if isinstance(node, CommandList):
            return (yield from self.exec_list(node, proc))
        if isinstance(node, SimpleCommand):
            return (yield from self.exec_simple(node, proc))
        if isinstance(node, Pipeline):
            return (yield from self.exec_pipeline(node, proc))
        if isinstance(node, AndOr):
            return (yield from self.exec_andor(node, proc))
        if isinstance(node, Subshell):
            return (yield from self.exec_subshell(node, proc))
        if isinstance(node, BraceGroup):
            return (yield from self.exec_brace_group(node, proc))
        if isinstance(node, If):
            return (yield from self.exec_if(node, proc))
        if isinstance(node, While):
            return (yield from self.exec_while(node, proc))
        if isinstance(node, For):
            return (yield from self.exec_for(node, proc))
        if isinstance(node, Case):
            return (yield from self.exec_case(node, proc))
        if isinstance(node, FuncDef):
            self.state.functions[node.name] = node.body
            self.state.last_status = 0
            return 0
        raise ShellError(f"cannot execute node {type(node).__name__}")

    # -- lists / and-or / pipelines ----------------------------------------------------

    def exec_list(self, node: CommandList, proc: Process):
        status = self.state.last_status
        for item in node.items:
            if item.is_async:
                body = self.subshell_body(item.command)
                pid = yield from proc.spawn(
                    body, name="async", fds=self._async_fds(proc)
                )
                self.jobs.add(pid)
                self.state.last_async_pid = pid
                status = 0
                self.state.last_status = 0
            else:
                status = yield from self.exec(item.command, proc)
        return status

    def _async_fds(self, proc: Process) -> dict:
        fds = dict(proc.fds)
        fds[0] = NullHandle()  # POSIX: async stdin is /dev/null
        return fds

    def exec_andor(self, node: AndOr, proc: Process):
        self.condition_depth += 1
        try:
            left = yield from self.exec(node.left, proc)
        finally:
            self.condition_depth -= 1
        run_right = (left == 0) if node.op == "&&" else (left != 0)
        if not run_right:
            self.state.last_status = left
            return left
        right = yield from self.exec(node.right, proc)
        return right

    def exec_pipeline(self, node: Pipeline, proc: Process):
        oracles = (self.host_coord.oracles_for(node)
                   if self.host_coord is not None else None)
        if node.negated:
            self.condition_depth += 1
        try:
            status = yield from self._run_pipeline(node.commands, proc,
                                                   oracles)
        finally:
            if node.negated:
                self.condition_depth -= 1
        if node.negated:
            status = 0 if status != 0 else 1
        self.state.last_status = status
        if not node.negated:
            self.maybe_errexit(status)
        return status

    def _run_pipeline(self, commands: tuple[Command, ...], proc: Process,
                      oracles=None):
        pids = []
        prev_reader = None
        for i, cmd in enumerate(commands):
            fds = dict(proc.fds)
            if prev_reader is not None:
                fds[0] = prev_reader
            if i < len(commands) - 1:
                reader, writer = make_pipe()
                fds[1] = writer
                next_reader = reader
            else:
                next_reader = None
            body = self.subshell_body(
                cmd, stage_oracle=oracles[i] if oracles else None)
            pid = yield from proc.spawn(body, name=f"pipe[{i}]", fds=fds)
            pids.append(pid)
            prev_reader = next_reader
        statuses = []
        for pid in pids:
            st = yield from proc.wait(pid)
            statuses.append(st)
        if self.state.options.get("pipefail"):
            failing = [s for s in statuses if s != 0]
            return failing[-1] if failing else 0
        return statuses[-1] if statuses else 0

    def subshell_body(self, cmd: Command, state: Optional[ShellState] = None,
                      stage_oracle=None):
        forked = (state or self.state).fork()

        def body(child_proc: Process):
            child = Interpreter(forked, self.optimizer,
                                host_coord=self.host_coord,
                                stage_oracle=stage_oracle)
            child_proc.cwd = forked.cwd
            try:
                status = yield from child.exec(cmd, child_proc)
            except ShellExit as exit_:
                status = exit_.status
            except ShellError as err:
                yield from child.write_err(child_proc, f"jash: {err}")
                status = 2
            return status

        return body

    # -- redirections ---------------------------------------------------------------------

    def build_redirect_fds(self, redirects: tuple[Redirect, ...], proc: Process,
                           base_fds: dict):
        """Apply redirections to a *copy* of an fd map (child semantics)."""
        fds = dict(base_fds)
        for redirect in redirects:
            yield from self._apply_one_redirect(redirect, proc, fds)
        return fds

    def _apply_one_redirect(self, redirect: Redirect, proc: Process, fds: dict):
        fd = redirect.default_fd()
        op = redirect.op
        if op in ("<<", "<<-"):
            body = redirect.heredoc
            text = "" if body is None else body.constant
            if text is None:
                text = yield from expand_text(self, proc, body)
            fds[fd] = StringSource(text.encode())
            return
        target = yield from expand_word_single(self, proc, redirect.target)
        if op in ("<&", ">&"):
            if target == "-":
                fds.pop(fd, None)
            elif target.isdigit():
                src = fds.get(int(target))
                if src is None:
                    raise ShellError(f"{target}: bad file descriptor")
                fds[fd] = src
            else:
                raise ShellError(f"{op}{target}: bad file descriptor target")
            return
        mode = {"<": "r", ">": "w", ">>": "a", "<>": "rw", ">|": "w"}[op]
        try:
            handle = proc.kernel.open_handle(proc.node, target, mode, self.state.cwd)
        except VosError:
            raise ShellError(f"{target}: cannot open")
        fds[fd] = handle

    def apply_redirects_local(self, redirects: tuple[Redirect, ...], proc: Process):
        """Apply redirections to the current process, returning a token for
        :meth:`restore_fds` (built-ins run in the current shell)."""
        if not redirects:
            return None
        new_fds = yield from self.build_redirect_fds(redirects, proc, proc.fds)
        saved = proc.fds
        proc.fds = {fd: handle.dup() for fd, handle in new_fds.items()}
        return saved

    def restore_fds(self, proc: Process, saved) -> None:
        if saved is None:
            return
        current = proc.fds
        proc.fds = saved
        for handle in current.values():
            fully = handle.release()
            if fully:
                proc.kernel._handle_closed(handle)

    def commit_fds(self, proc: Process, saved) -> None:
        """Make redirections applied by apply_redirects_local permanent
        (the ``exec`` built-in): release displaced old handles."""
        if saved is None:
            return
        live = set(map(id, proc.fds.values()))
        for handle in saved.values():
            if id(handle) not in live:
                fully = handle.release()
                if fully:
                    proc.kernel._handle_closed(handle)

    # -- simple commands --------------------------------------------------------------------

    def exec_simple(self, node: SimpleCommand, proc: Process,
                    skip_functions: bool = False):
        self._last_cmdsub_status = self.state.last_status
        # an expansion error ends a non-interactive shell (XCU 2.8.1)
        argv = yield from expand_words(self, proc, node.words)

        if self.state.options.get("xtrace") and (argv or node.assigns):
            ps4 = self.state.get("PS4") or "+ "
            shown = " ".join(argv) if argv else "(assignment)"
            yield from self.write_err(proc, f"{ps4}{shown}")

        if not argv:
            # assignments persist in the current environment
            for assign in node.assigns:
                value = yield from expand_word_single(self, proc, assign.word)
                self.state.set(assign.name, value)
            if node.redirects:
                saved = yield from self.apply_redirects_local(node.redirects, proc)
                self.restore_fds(proc, saved)
            status = self._last_cmdsub_status if node.assigns else 0
            self.state.last_status = status
            self.maybe_errexit(status)
            return status

        name = argv[0]

        # 1. functions
        if not skip_functions and name in self.state.functions:
            status = yield from self.call_function(name, argv[1:], node, proc)
            self.state.last_status = status
            self.maybe_errexit(status)
            return status

        # 2. built-ins (special first)
        builtin = SPECIAL_BUILTINS.get(name) or REGULAR_BUILTINS.get(name)
        if builtin is not None:
            status = yield from self._run_builtin(builtin, name, argv[1:], node, proc)
            self.state.last_status = status
            self.maybe_errexit(status)
            return status

        # 3. external utilities
        status = yield from self._run_external(name, argv[1:], node, proc)
        self.state.last_status = status
        self.maybe_errexit(status)
        return status

    def _apply_temp_assigns(self, node: SimpleCommand, proc: Process):
        """Expand and apply assignment prefixes; returns restore info."""
        saved: dict[str, Optional[tuple[str, bool]]] = {}
        for assign in node.assigns:
            value = yield from expand_word_single(self, proc, assign.word)
            if assign.name not in saved:
                var = self.state.vars.get(assign.name)
                saved[assign.name] = (var.value, var.exported) if var else None
            self.state.set(assign.name, value, export=True)
        return saved

    def _restore_assigns(self, saved: dict) -> None:
        for name, prior in saved.items():
            if prior is None:
                self.state.vars.pop(name, None)
            else:
                value, exported = prior
                self.state.set(name, value, export=exported)

    def _run_builtin(self, builtin, name: str, args: list[str],
                     node: SimpleCommand, proc: Process):
        special = name in SPECIAL_BUILTINS
        assigns_saved = yield from self._apply_temp_assigns(node, proc)
        fd_saved = None
        commit = name == "exec"  # exec's redirections persist
        try:
            fd_saved = yield from self.apply_redirects_local(node.redirects, proc)
            status = yield from builtin(self, proc, args)
        except ShellError as err:
            yield from self.write_err(proc, f"{name}: {err}")
            status = 2
            if special:
                raise ShellExit(2)
        finally:
            if commit:
                self.commit_fds(proc, fd_saved)
            else:
                self.restore_fds(proc, fd_saved)
            if not special:
                self._restore_assigns(assigns_saved)
        return status if status is not None else 0

    def _run_external(self, name: str, args: list[str],
                      node: SimpleCommand, proc: Process):
        fn = lookup(name)
        if fn is None:
            # the not-found message honours the command's redirections
            fd_saved = None
            try:
                fd_saved = yield from self.apply_redirects_local(
                    node.redirects, proc
                )
                yield from self.write_err(
                    proc, f"jash: {name}: command not found"
                )
            except ShellError:
                pass
            finally:
                self.restore_fds(proc, fd_saved)
            return 127
        assigns_saved = yield from self._apply_temp_assigns(node, proc)
        try:
            try:
                fds = yield from self.build_redirect_fds(node.redirects, proc, proc.fds)
            except ShellError as err:
                yield from self.write_err(proc, f"jash: {err}")
                return 1

            # S21: a pipeline-stage oracle travels via the stage child's
            # interpreter; a bare top-level region (e.g. ``sort FILE``)
            # resolves directly against the coordinator
            oracle = self.stage_oracle
            if oracle is None and self.host_coord is not None:
                oracle = self.host_coord.oracle_for_simple(node)

            def body(child: Process, fn=fn, args=args, oracle=oracle):
                if oracle is not None:
                    child.host_oracle = oracle
                yield from child.cpu(PROC_STARTUP)
                status = yield from fn(child, args)
                return status if status is not None else 0

            pid = yield from proc.spawn(body, name=name, fds=fds,
                                        cwd=self.state.cwd)
            status = yield from proc.wait(pid)
        finally:
            self._restore_assigns(assigns_saved)
        return status

    def call_function(self, name: str, args: list[str],
                      node: SimpleCommand, proc: Process):
        body = self.state.functions[name]
        saved_positionals = self.state.positionals
        self.state.positionals = list(args)
        self._local_frames.append({})
        fd_saved = None
        try:
            fd_saved = yield from self.apply_redirects_local(node.redirects, proc)
            try:
                status = yield from self.exec(body, proc)
            except FuncReturn as ret:
                status = ret.status
        finally:
            self.restore_fds(proc, fd_saved)
            frame = self._local_frames.pop()
            for var_name, prior in frame.items():
                if prior is None:
                    self.state.vars.pop(var_name, None)
                else:
                    value, exported = prior
                    self.state.set(var_name, value, export=exported)
            self.state.positionals = saved_positionals
        return status

    # -- compound commands ----------------------------------------------------------------------

    def exec_subshell(self, node: Subshell, proc: Process):
        fds = yield from self.build_redirect_fds(node.redirects, proc, proc.fds)
        body = self.subshell_body(node.body)
        pid = yield from proc.spawn(body, name="subshell", fds=fds,
                                    cwd=self.state.cwd)
        status = yield from proc.wait(pid)
        self.state.last_status = status
        self.maybe_errexit(status)
        return status

    def exec_brace_group(self, node: BraceGroup, proc: Process):
        fd_saved = yield from self.apply_redirects_local(node.redirects, proc)
        try:
            status = yield from self.exec(node.body, proc)
        finally:
            self.restore_fds(proc, fd_saved)
        return status

    def exec_if(self, node: If, proc: Process):
        fd_saved = yield from self.apply_redirects_local(node.redirects, proc)
        try:
            self.condition_depth += 1
            try:
                cond = yield from self.exec(node.cond, proc)
            finally:
                self.condition_depth -= 1
            if cond == 0:
                return (yield from self.exec(node.then_body, proc))
            for elif_cond, elif_body in node.elifs:
                self.condition_depth += 1
                try:
                    cond = yield from self.exec(elif_cond, proc)
                finally:
                    self.condition_depth -= 1
                if cond == 0:
                    return (yield from self.exec(elif_body, proc))
            if node.else_body is not None:
                return (yield from self.exec(node.else_body, proc))
            self.state.last_status = 0
            return 0
        finally:
            self.restore_fds(proc, fd_saved)

    def exec_while(self, node: While, proc: Process):
        fd_saved = yield from self.apply_redirects_local(node.redirects, proc)
        status = 0
        try:
            while True:
                self.condition_depth += 1
                try:
                    cond = yield from self.exec(node.cond, proc)
                finally:
                    self.condition_depth -= 1
                should_run = (cond != 0) if node.until else (cond == 0)
                if not should_run:
                    break
                try:
                    status = yield from self.exec(node.body, proc)
                except LoopBreak as brk:
                    if brk.levels > 1:
                        raise LoopBreak(brk.levels - 1)
                    break
                except LoopContinue as cont:
                    if cont.levels > 1:
                        raise LoopContinue(cont.levels - 1)
                    continue
        finally:
            self.restore_fds(proc, fd_saved)
        self.state.last_status = status
        return status

    def exec_for(self, node: For, proc: Process):
        fd_saved = yield from self.apply_redirects_local(node.redirects, proc)
        status = 0
        try:
            if node.words is None:
                values = list(self.state.positionals)
            else:
                values = yield from expand_words(self, proc, node.words)
            for value in values:
                self.state.set(node.var, value)
                try:
                    status = yield from self.exec(node.body, proc)
                except LoopBreak as brk:
                    if brk.levels > 1:
                        raise LoopBreak(brk.levels - 1)
                    break
                except LoopContinue as cont:
                    if cont.levels > 1:
                        raise LoopContinue(cont.levels - 1)
                    continue
        finally:
            self.restore_fds(proc, fd_saved)
        self.state.last_status = status
        return status

    def exec_case(self, node: Case, proc: Process):
        from .patterns import match

        fd_saved = yield from self.apply_redirects_local(node.redirects, proc)
        try:
            subject = yield from expand_word_single(self, proc, node.word)
            for item in node.items:
                for pattern_word in item.patterns:
                    pattern = yield from expand_pattern(self, proc, pattern_word)
                    if match(pattern, subject):
                        if item.body is None:
                            self.state.last_status = 0
                            return 0
                        return (yield from self.exec(item.body, proc))
            self.state.last_status = 0
            return 0
        finally:
            self.restore_fds(proc, fd_saved)

    # -- command substitution -----------------------------------------------------------------------

    def command_substitution(self, proc: Process, command: Command):
        reader, writer = make_pipe()
        body = self.subshell_body(command)
        fds = dict(proc.fds)
        fds[1] = writer
        pid = yield from proc.spawn(body, name="cmdsub", fds=fds,
                                    cwd=self.state.cwd)
        # read in the parent while the child runs (bounded pipe!)
        reader.dup()
        chunks: list[bytes] = []
        try:
            while True:
                data = proc_read = yield from self._read_pipe(proc, reader)
                if not data:
                    break
                chunks.append(data)
        finally:
            fully = reader.release()
            if fully:
                proc.kernel._handle_closed(reader)
        status = yield from proc.wait(pid)
        self._last_cmdsub_status = status
        # a shell string holds no NUL byte: sh drops them from the output
        return b"".join(chunks).replace(b"\0", b"").decode("utf-8", "replace")

    def _read_pipe(self, proc: Process, reader):
        """Read from a pipe handle not installed in our fd table."""
        fd = proc.next_fd()
        proc.fds[fd] = reader.dup()
        try:
            data = yield from proc.read(fd, 65536)
        finally:
            handle = proc.fds.pop(fd)
            fully = handle.release()
            if fully:
                proc.kernel._handle_closed(handle)
        return data
