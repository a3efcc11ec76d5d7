"""Shell interpreter state: variables, functions, options, positionals.

The paper's B2 ("too dynamic") is precisely about this object: execution
depends on the filesystem, the working directory, environment variables,
and unexpanded strings.  The JIT (S9) reads it; the AOT baseline (S7)
must work without it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Variable:
    value: str
    exported: bool = False
    readonly: bool = False


#: the shell's options, each off at start: -e, -u, -x, -f, -n, and
#: pipefail (a widely implemented extension)
OPTIONS = ("errexit", "nounset", "xtrace", "noglob", "noexec", "pipefail")


class ShellError(Exception):
    """Fatal shell errors (bad substitution, readonly assignment, ...)."""


class ShellState:
    def __init__(self, args: Optional[list[str]] = None, name: str = "jash"):
        self.vars: dict[str, Variable] = {}
        self.functions: dict = {}  # name -> Command AST
        self.positionals: list[str] = list(args or [])
        self.name = name  # $0
        self.last_status = 0
        self.last_async_pid = 0
        self.cwd = "/"
        self.options: dict[str, bool] = dict.fromkeys(OPTIONS, False)
        self.ifs_default = " \t\n"
        # defaults present in any environment
        self.set("PWD", "/", export=True)
        self.set("HOME", "/root", export=True)
        self.set("PATH", "/usr/bin:/bin", export=True)
        self.set("PS1", "$ ")
        self.set("PS4", "+ ")

    # -- variables -------------------------------------------------------------

    def get(self, name: str) -> Optional[str]:
        """Variable or special-parameter value; None when unset."""
        if name.isdigit():
            idx = int(name)
            if idx == 0:
                return self.name
            if 1 <= idx <= len(self.positionals):
                return self.positionals[idx - 1]
            return None
        if name == "#":
            return str(len(self.positionals))
        if name == "?":
            return str(self.last_status)
        if name == "$":
            return "1"  # the shell's own (virtual) pid
        if name == "!":
            return str(self.last_async_pid)
        if name == "-":
            return "".join(
                flag for flag, opt in (("e", "errexit"), ("u", "nounset"),
                                       ("x", "xtrace"), ("f", "noglob"))
                if self.options[opt]
            )
        if name in ("@", "*"):
            return " ".join(self.positionals)
        var = self.vars.get(name)
        return var.value if var is not None else None

    def set(self, name: str, value: str, export: bool = False) -> None:
        var = self.vars.get(name)
        if var is not None:
            if var.readonly:
                raise ShellError(f"{name}: readonly variable")
            var.value = value
            if export:
                var.exported = True
        else:
            self.vars[name] = Variable(value, exported=export)
        if name == "PWD":
            self.cwd = value

    def unset(self, name: str) -> None:
        var = self.vars.get(name)
        if var is not None and var.readonly:
            raise ShellError(f"{name}: readonly variable")
        self.vars.pop(name, None)

    def export(self, name: str) -> None:
        var = self.vars.get(name)
        if var is None:
            self.vars[name] = Variable("", exported=True)
        else:
            var.exported = True

    def mark_readonly(self, name: str) -> None:
        var = self.vars.get(name)
        if var is None:
            self.vars[name] = Variable("", readonly=True)
        else:
            var.readonly = True

    def environment(self) -> dict[str, str]:
        return {n: v.value for n, v in self.vars.items() if v.exported}

    @property
    def ifs(self) -> str:
        value = self.get("IFS")
        return self.ifs_default if value is None else value

    # -- forks --------------------------------------------------------------------

    def fork(self) -> "ShellState":
        """State copy for a subshell: mutations do not propagate back."""
        child = ShellState.__new__(ShellState)
        child.vars = {n: Variable(v.value, v.exported, v.readonly)
                      for n, v in self.vars.items()}
        child.functions = dict(self.functions)
        child.positionals = list(self.positionals)
        child.name = self.name
        child.last_status = self.last_status
        child.last_async_pid = self.last_async_pid
        child.cwd = self.cwd
        child.options = dict(self.options)
        child.ifs_default = self.ifs_default
        return child
