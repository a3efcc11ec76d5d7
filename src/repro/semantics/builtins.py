"""Shell built-in utilities (POSIX special and regular built-ins).

Each built-in is a generator ``fn(interp, proc, argv) -> int`` executed in
the *current* shell process (that is the point of built-ins).
"""

from __future__ import annotations

from typing import Optional

from ..vos.fs import normalize
from .control import FuncReturn, LoopBreak, LoopContinue, ShellExit
from .state import ShellError

SPECIAL_BUILTINS = {}
REGULAR_BUILTINS = {}


def special(name):
    def wrap(fn):
        SPECIAL_BUILTINS[name] = fn
        return fn

    return wrap


def regular(name):
    def wrap(fn):
        REGULAR_BUILTINS[name] = fn
        return fn

    return wrap


def _err(interp, proc, message: str):
    yield from interp.write_err(proc, message)


# -- special built-ins ---------------------------------------------------------


@special(":")
def colon(interp, proc, argv):
    yield from proc.cpu(1e-7)
    return 0


@special("exit")
def exit_b(interp, proc, argv):
    yield from proc.cpu(1e-7)
    status = interp.state.last_status
    if argv:
        try:
            status = int(argv[0])
        except ValueError:
            status = 2
    raise ShellExit(status)


@special("return")
def return_b(interp, proc, argv):
    yield from proc.cpu(1e-7)
    status = interp.state.last_status
    if argv:
        try:
            status = int(argv[0])
        except ValueError:
            status = 2
    raise FuncReturn(status)


@special("break")
def break_b(interp, proc, argv):
    yield from proc.cpu(1e-7)
    raise LoopBreak(int(argv[0]) if argv else 1)


@special("continue")
def continue_b(interp, proc, argv):
    yield from proc.cpu(1e-7)
    raise LoopContinue(int(argv[0]) if argv else 1)


@special("export")
def export_b(interp, proc, argv):
    yield from proc.cpu(1e-7)
    for arg in argv:
        if "=" in arg:
            name, value = arg.split("=", 1)
            interp.state.set(name, value, export=True)
        else:
            interp.state.export(arg)
    return 0


@special("readonly")
def readonly_b(interp, proc, argv):
    yield from proc.cpu(1e-7)
    for arg in argv:
        if "=" in arg:
            name, value = arg.split("=", 1)
            interp.state.set(name, value)
            interp.state.mark_readonly(name)
        else:
            interp.state.mark_readonly(arg)
    return 0


@special("unset")
def unset_b(interp, proc, argv):
    yield from proc.cpu(1e-7)
    args = [a for a in argv if not a.startswith("-")]
    drop_funcs = "-f" in argv
    for name in args:
        if drop_funcs:
            interp.state.functions.pop(name, None)
        else:
            interp.state.unset(name)
    return 0


_SET_FLAGS = {"e": "errexit", "u": "nounset", "x": "xtrace", "f": "noglob",
              "n": "noexec"}


def parse_set(argv: list[str]) -> tuple[dict[str, bool], Optional[list[str]]]:
    """``set``'s arguments as (option name -> on, the last setting
    winning; the new positional parameters, or None when they stay).  An
    ``-o`` name the shell does not have is the caller's to ignore."""
    options: dict[str, bool] = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--":
            return options, argv[i + 1:]
        if arg == "-o" or arg == "+o":
            if i + 1 < len(argv):
                options[argv[i + 1]] = arg == "-o"
            i += 2
        elif len(arg) > 1 and arg[0] in "-+":
            for ch in arg[1:]:
                if ch in _SET_FLAGS:
                    options[_SET_FLAGS[ch]] = arg[0] == "-"
            i += 1
        else:
            return options, argv[i:]
    return options, None


@special("set")
def set_b(interp, proc, argv):
    yield from proc.cpu(1e-7)
    state = interp.state
    options, positionals = parse_set(argv)
    state.options.update((name, on) for name, on in options.items()
                         if name in state.options)
    if positionals is not None:
        state.positionals = list(positionals)
    return 0


@special("shift")
def shift_b(interp, proc, argv):
    yield from proc.cpu(1e-7)
    n = int(argv[0]) if argv else 1
    if n > len(interp.state.positionals):
        return 1
    interp.state.positionals = interp.state.positionals[n:]
    return 0


@special("eval")
def eval_b(interp, proc, argv):
    from ..parser import parse

    yield from proc.cpu(1e-6)
    text = " ".join(argv)
    if not text.strip():
        return 0
    program = parse(text)
    status = yield from interp.exec(program, proc)
    return status


@special(".")
def dot_b(interp, proc, argv):
    from ..parser import parse

    yield from proc.cpu(1e-6)
    if not argv:
        yield from _err(interp, proc, ".: filename argument required")
        return 2
    path = normalize(argv[0], interp.state.cwd)
    if not proc.fs.is_file(path):
        yield from _err(interp, proc, f".: {argv[0]}: No such file")
        return 1
    text = proc.fs.read_bytes(path).decode("utf-8", "replace")
    program = parse(text)
    status = yield from interp.exec(program, proc)
    return status


@special("exec")
def exec_b(interp, proc, argv):
    # only the redirection-applying use of exec is supported; the
    # interpreter handles the redirects before calling us, so with no
    # arguments this is a no-op.  `exec cmd` runs cmd then exits.
    if argv:
        from ..parser.ast_nodes import Lit, SimpleCommand, Word

        cmd = SimpleCommand(
            words=tuple(Word((Lit(a),), a) for a in argv)
        )
        status = yield from interp.exec(cmd, proc)
        raise ShellExit(status)
    yield from proc.cpu(1e-7)
    return 0


@special("times")
def times_b(interp, proc, argv):
    yield from proc.write(1, b"0m0.00s 0m0.00s\n0m0.00s 0m0.00s\n")
    return 0


@special("trap")
def trap_b(interp, proc, argv):
    yield from proc.cpu(1e-7)
    if len(argv) >= 2:
        action, conditions = argv[0], argv[1:]
        for cond in conditions:
            interp.traps[cond.upper()] = action
    return 0


# -- regular built-ins -----------------------------------------------------------


@regular("cd")
def cd_b(interp, proc, argv):
    yield from proc.cpu(1e-7)
    state = interp.state
    target = argv[0] if argv else (state.get("HOME") or "/")
    if target == "-":
        target = state.get("OLDPWD") or state.cwd
    path = normalize(target, state.cwd)
    if not proc.fs.is_dir(path):
        yield from _err(interp, proc, f"cd: {target}: No such file or directory")
        return 1
    state.set("OLDPWD", state.cwd)
    state.set("PWD", path, export=True)
    proc.cwd = path
    return 0


@regular("pwd")
def pwd_b(interp, proc, argv):
    yield from proc.write(1, interp.state.cwd.encode() + b"\n")
    return 0


@regular("read")
def read_b(interp, proc, argv):
    yield from proc.cpu(1e-7)
    raw_mode = False
    names = []
    for arg in argv:
        if arg == "-r":
            raw_mode = True
        else:
            names.append(arg)
    if not names:
        names = ["REPLY"]
    line = yield from interp.read_line(proc, 0)
    if line is None:
        return 1
    text = line.rstrip("\n")
    if not raw_mode:
        text = text.replace("\\\n", "").replace("\\", "")
    ifs = interp.state.ifs
    if len(names) == 1:
        interp.state.set(names[0], text.strip(ifs) if ifs else text)
        return 0
    parts = text.split(None, len(names) - 1) if ifs.strip() == "" else [
        p for p in text.split(ifs[0])
    ]
    for i, name in enumerate(names):
        if i < len(parts):
            value = parts[i]
            if i == len(names) - 1 and len(parts) > len(names):
                value = ifs[0].join(parts[i:])
            interp.state.set(name, value)
        else:
            interp.state.set(name, "")
    return 0


@regular("wait")
def wait_b(interp, proc, argv):
    yield from proc.cpu(1e-7)
    if not argv:
        # XCU: wait with no operands waits for all jobs and returns 0,
        # regardless of the children's statuses
        for pid in sorted(interp.jobs):
            yield from proc.wait(pid)
        interp.jobs.clear()
        return 0
    status = 0
    for arg in argv:
        try:
            pid = int(arg)
        except ValueError:
            status = 127
            continue
        if pid in interp.jobs:
            interp.jobs.discard(pid)
            status = yield from proc.wait(pid)
        else:
            # unknown (or already-reaped) pid: 127, like host shells
            status = 127
    return status


#: signal name -> number, the kill(1) subset that matters for scripts
_SIGNALS = {
    "HUP": 1, "INT": 2, "QUIT": 3, "ABRT": 6, "KILL": 9, "USR1": 10,
    "SEGV": 11, "USR2": 12, "PIPE": 13, "ALRM": 14, "TERM": 15,
}
_SIGNAL_NAMES = {num: name for name, num in _SIGNALS.items()}


def _parse_signal(text: str):
    text = text.upper()
    if text.startswith("SIG"):
        text = text[3:]
    if text in _SIGNALS:
        return _SIGNALS[text]
    try:
        num = int(text)
    except ValueError:
        return None
    return num if 0 <= num < 128 else None


@regular("kill")
def kill_b(interp, proc, argv):
    # let already-spawned jobs run first: on a host, fork/exec latency
    # means a fast-exiting `cmd & kill $!` child is already a zombie by
    # the time kill fires, while a blocking child (sleep) is still alive.
    # A short virtual sleep reproduces that race resolution determinately.
    yield from proc.sleep(1e-4)
    signum = 15  # SIGTERM
    pids = []
    i = 0
    if argv and argv[0] == "-l":
        names = " ".join(
            _SIGNAL_NAMES[n] for n in sorted(_SIGNAL_NAMES)
        )
        yield from proc.write(1, names.encode() + b"\n")
        return 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--":
            i += 1
            break
        if arg == "-s" and i + 1 < len(argv):
            sig = _parse_signal(argv[i + 1])
            if sig is None:
                yield from _err(interp, proc, f"kill: unknown signal {argv[i + 1]}")
                return 1
            signum = sig
            i += 2
            continue
        if arg.startswith("-") and len(arg) > 1:
            sig = _parse_signal(arg[1:])
            if sig is None:
                break  # negative pid / unknown flag: treat as operand
            signum = sig
            i += 1
            continue
        break
    pids = argv[i:]
    if not pids:
        yield from _err(interp, proc, "kill: usage: kill [-s signal] pid ...")
        return 2
    status = 0
    for spid in pids:
        try:
            pid = int(spid)
        except ValueError:
            yield from _err(interp, proc, f"kill: Illegal number: {spid}")
            status = 1
            continue
        fatal = None if signum == 0 else 128 + signum
        outcome = yield from proc.kill(pid, fatal)
        # outcome 2 = victim already exited: that is a successful no-op
        # while the job is an unreaped zombie (still in the job table),
        # but ESRCH once the shell has waited on it — host semantics
        reaped = outcome == 0 or (outcome == 2 and pid not in interp.jobs)
        if reaped:
            yield from _err(interp, proc, f"kill: {spid}: No such process")
            status = 1
    return status


@regular("getopts")
def getopts_b(interp, proc, argv):
    yield from proc.cpu(1e-7)
    state = interp.state
    if len(argv) < 2:
        yield from _err(interp, proc, "getopts: usage: getopts optstring name [arg...]")
        return 2
    optstring, name = argv[0], argv[1]
    silent = optstring.startswith(":")
    opts = optstring[1:] if silent else optstring
    args = list(argv[2:]) if len(argv) > 2 else list(state.positionals)

    try:
        optind = int(state.get("OPTIND") or "1")
    except ValueError:
        optind = 1
    cache = getattr(interp, "_getopts_cache", None)
    # a script assigning OPTIND (e.g. OPTIND=1) restarts the scan
    pos = cache[1] if cache is not None and cache[0] == optind else 0
    if optind > len(args) + 1:
        # OPTIND left past the end by a scan of a longer list: sh
        # restarts at the first argument (nargs + 1 still means "done")
        optind, pos = 1, 0
        state.set("OPTIND", "1")

    def finish(next_idx: int) -> int:
        """No more options: name='?', OPTIND points at the first operand."""
        interp._getopts_cache = None
        state.set("OPTIND", str(next_idx + 1))
        state.set(name, "?")
        state.unset("OPTARG")
        return 1

    idx = optind - 1  # 0-based token index
    if pos == 0:
        if (
            idx < 0
            or idx >= len(args)
            or not args[idx].startswith("-")
            or args[idx] == "-"
        ):
            return finish(max(idx, 0))
        if args[idx] == "--":
            return finish(idx + 1)
        pos = 1

    token = args[idx]
    ch = token[pos]
    spec = opts.find(ch)
    takes_arg = spec >= 0 and spec + 1 < len(opts) and opts[spec + 1] == ":"

    def advance_char() -> None:
        """Consume one clustered option character."""
        if pos + 1 < len(token):
            interp._getopts_cache = (optind, pos + 1)
        else:
            state.set("OPTIND", str(optind + 1))
            interp._getopts_cache = (optind + 1, 0)

    if spec < 0 or ch == ":":
        state.set(name, "?")
        if silent:
            state.set("OPTARG", ch)
        else:
            state.unset("OPTARG")
            yield from _err(interp, proc, f"getopts: illegal option -- {ch}")
        advance_char()
        return 0

    if not takes_arg:
        state.set(name, ch)
        state.unset("OPTARG")
        advance_char()
        return 0

    # option with a required argument: rest-of-token, else the next token
    if pos + 1 < len(token):
        state.set(name, ch)
        state.set("OPTARG", token[pos + 1 :])
        state.set("OPTIND", str(optind + 1))
        interp._getopts_cache = (optind + 1, 0)
        return 0
    if idx + 1 < len(args):
        state.set(name, ch)
        state.set("OPTARG", args[idx + 1])
        state.set("OPTIND", str(optind + 2))
        interp._getopts_cache = (optind + 2, 0)
        return 0
    # missing argument
    state.set("OPTIND", str(optind + 1))
    interp._getopts_cache = (optind + 1, 0)
    if silent:
        state.set(name, ":")
        state.set("OPTARG", ch)
    else:
        state.set(name, "?")
        state.unset("OPTARG")
        yield from _err(interp, proc, f"getopts: option requires an argument -- {ch}")
    return 0


@regular("umask")
def umask_b(interp, proc, argv):
    if not argv:
        yield from proc.write(1, b"0022\n")
    return 0


@regular("type")
def type_b(interp, proc, argv):
    from ..commands import lookup

    status = 0
    for name in argv:
        if name in interp.state.functions:
            kind = f"{name} is a function"
        elif name in SPECIAL_BUILTINS or name in REGULAR_BUILTINS:
            kind = f"{name} is a shell builtin"
        elif lookup(name) is not None:
            kind = f"{name} is /usr/bin/{name}"
        else:
            kind = f"{name}: not found"
            status = 1
        yield from proc.write(1, kind.encode() + b"\n")
    return status


@regular("local")
def local_b(interp, proc, argv):
    yield from proc.cpu(1e-7)
    frame = interp.local_frame()
    if frame is None:
        yield from _err(interp, proc, "local: can only be used in a function")
        return 1
    for arg in argv:
        if "=" in arg:
            name, value = arg.split("=", 1)
        else:
            name, value = arg, ""
        if name not in frame:
            var = interp.state.vars.get(name)
            frame[name] = (var.value, var.exported) if var is not None else None
        interp.state.set(name, value)
    return 0


@regular("alias")
def alias_b(interp, proc, argv):
    yield from proc.cpu(1e-7)
    return 0  # aliases intentionally unsupported (documented)


@regular("command")
def command_b(interp, proc, argv):
    argv = [a for a in argv if a != "-p"]
    if not argv:
        return 0
    from ..parser.ast_nodes import Lit, SimpleCommand, Word

    cmd = SimpleCommand(words=tuple(Word((Lit(a),), a) for a in argv))
    status = yield from interp.exec_simple(cmd, proc, skip_functions=True)
    return status
