"""The shipped specification library for the coreutils in repro.commands.

These are the hand-written annotations the paper describes ("written once
for each command ... similarly to manpages").  The inference engine
(:mod:`repro.annotations.inference`) can re-derive the parallelizability
classes by black-box testing.
"""

from __future__ import annotations

from typing import Optional

from .model import (
    AggKind,
    Aggregator,
    CommandSpec,
    InstanceSpec,
    ParClass,
    SpecLibrary,
)


def _flags_of(argv: list[str]) -> set[str]:
    """Single-letter flags present (clustered or not), stopping at '--'."""
    flags: set[str] = set()
    for arg in argv:
        if arg == "--":
            break
        if arg.startswith("-") and arg != "-" and len(arg) > 1 and not arg[1].isdigit():
            flags.update(arg[1:])
    return flags


def _operands_of(argv: list[str], value_flags: str = "") -> list[int]:
    """Indices of non-flag operands (skipping detached flag values)."""
    out: list[int] = []
    skip_next = False
    for i, arg in enumerate(argv):
        if skip_next:
            skip_next = False
            continue
        if arg == "--":
            out.extend(range(i + 1, len(argv)))
            break
        if arg.startswith("-") and arg != "-" and len(arg) > 1:
            body = arg[1:]
            if body and body[-1] in value_flags and len(body) == 1:
                skip_next = True
            continue
        out.append(i)
    return out


def build_default_library(strict_tr_squeeze: bool = False) -> SpecLibrary:
    """The shipped spec library.

    ``strict_tr_squeeze`` controls a known annotation subtlety that our
    own inference engine (T-infer) discovered: ``tr -s`` carries squeeze
    state across chunk boundaries, so chunk-local application can emit a
    spurious empty token when a chunk's first byte is in the squeezed
    set.  PaSh annotates tr as stateless anyway (the artifact requires
    lines beginning with separator-class bytes, which natural text lacks);
    the default follows PaSh.  With ``strict_tr_squeeze=True`` squeezing
    invocations are classified PARALLELIZABLE_PURE with a rerun
    aggregator — sound for runs that end at the tr, at the cost of not
    fusing the downstream sort into the parallel run.
    """
    lib = SpecLibrary()

    # -- cat: stateless, inputs are its operands -----------------------------
    def cat_rule(argv):
        ops = tuple(_operands_of(argv))
        return InstanceSpec(
            "cat", ParClass.STATELESS, Aggregator.concat(),
            input_operands=ops, reads_stdin=not ops, selectivity=1.0,
        )

    lib.register(CommandSpec("cat", [cat_rule]))

    # -- tr: stateless pure filter on stdin ----------------------------------
    def tr_rule(argv):
        operands = [argv[i] for i in _operands_of(argv)]
        # tr receives the two characters backslash-n and interprets the
        # escape itself, so check both spellings
        tokenizing = bool(operands) and ("\n" in operands[-1]
                                         or "\\n" in operands[-1])
        if strict_tr_squeeze and "s" in _flags_of(argv):
            return InstanceSpec(
                "tr", ParClass.PARALLELIZABLE_PURE,
                Aggregator(AggKind.RERUN, tuple(["tr"] + list(argv))),
                input_operands=(), selectivity=1.0, tokenizing=tokenizing,
            )
        return InstanceSpec(
            "tr", ParClass.STATELESS, Aggregator.concat(),
            input_operands=(), selectivity=1.0, tokenizing=tokenizing,
        )

    lib.register(CommandSpec("tr", [tr_rule]))

    # -- grep -------------------------------------------------------------------
    def grep_rule(argv):
        flags = _flags_of(argv)
        ops = _operands_of(argv, value_flags="em")
        # first operand is the pattern unless -e was used
        file_ops = tuple(ops[1:]) if "e" not in flags and ops else tuple(ops)
        if "m" in flags or "q" in flags or "l" in flags:
            return InstanceSpec("grep", ParClass.NON_PARALLELIZABLE,
                                input_operands=file_ops,
                                reads_stdin=not file_ops)
        if "c" in flags:
            return InstanceSpec(
                "grep", ParClass.PARALLELIZABLE_PURE,
                Aggregator(AggKind.SUM),
                input_operands=file_ops, reads_stdin=not file_ops,
                selectivity=0.001, blocking=True,
            )
        if "n" in flags:
            # line numbers depend on absolute position: offsets would be
            # needed to merge, so refuse
            return InstanceSpec("grep", ParClass.NON_PARALLELIZABLE,
                                input_operands=file_ops,
                                reads_stdin=not file_ops)
        return InstanceSpec(
            "grep", ParClass.STATELESS, Aggregator.concat(),
            input_operands=file_ops, reads_stdin=not file_ops,
            selectivity=0.5,
        )

    lib.register(CommandSpec("grep", [grep_rule]))

    # -- cut: stateless --------------------------------------------------------
    def cut_rule(argv):
        ops = tuple(_operands_of(argv, value_flags="cfd"))
        return InstanceSpec(
            "cut", ParClass.STATELESS, Aggregator.concat(),
            input_operands=ops, reads_stdin=not ops, selectivity=0.3,
            shrinks_lines=True,
        )

    lib.register(CommandSpec("cut", [cut_rule]))

    # -- sed: stateless for the supported script subset unless it quits ------
    def sed_rule(argv):
        import re

        from ..commands.base import UsageError
        from ..commands.filters import parse_sed_args

        ops = _operands_of(argv, value_flags="e")
        try:
            _quiet, cmds, files = parse_sed_args(list(argv))
            quits = any(cmd.kind == "q" for cmd in cmds)
        except (UsageError, re.error):  # sed itself will refuse to run
            files, quits = [], True
        file_ops = tuple(ops[len(ops) - len(files):])
        if quits:
            return InstanceSpec("sed", ParClass.NON_PARALLELIZABLE,
                                input_operands=file_ops,
                                reads_stdin=not file_ops)
        return InstanceSpec(
            "sed", ParClass.STATELESS, Aggregator.concat(),
            input_operands=file_ops, reads_stdin=not file_ops,
        )

    lib.register(CommandSpec("sed", [sed_rule]))

    # -- sort: parallelizable-pure with sort -m aggregation ------------------
    def sort_rule(argv):
        ops = tuple(_operands_of(argv, value_flags="kto"))
        if _flags_of(argv) & set("mco"):
            # merge/check modes and -o output files: keep simple, refuse
            return InstanceSpec("sort", ParClass.NON_PARALLELIZABLE,
                                input_operands=ops, blocking=True)
        # the merge orders as the stage does: its every option, one per
        # word, a value (attached, clustered or detached) behind its flag
        merge_argv = ["sort", "-m"]
        args = iter(argv)
        for arg in args:
            if arg == "--":
                break
            if not arg.startswith("-"):
                continue
            for j, ch in enumerate(arg[1:], 2):  # arg[j:]: ch's value
                merge_argv.append(f"-{ch}")
                if ch in "kt":
                    merge_argv.append(arg[j:] or next(args, ""))
                    break
        return InstanceSpec(
            "sort", ParClass.PARALLELIZABLE_PURE,
            Aggregator(AggKind.SORT_MERGE, tuple(merge_argv)),
            input_operands=ops, reads_stdin=not ops, blocking=True,
        )

    lib.register(CommandSpec("sort", [sort_rule]))

    # -- uniq --------------------------------------------------------------------
    def uniq_rule(argv):
        flags = _flags_of(argv)
        ops = tuple(_operands_of(argv))
        if flags & set("cdu"):
            # counting / filtering needs cross-chunk state at boundaries
            return InstanceSpec("uniq", ParClass.NON_PARALLELIZABLE,
                                input_operands=ops, reads_stdin=not ops)
        return InstanceSpec(
            "uniq", ParClass.PARALLELIZABLE_PURE,
            Aggregator(AggKind.RERUN, ("uniq",)),
            input_operands=ops, reads_stdin=not ops, selectivity=0.8,
        )

    lib.register(CommandSpec("uniq", [uniq_rule]))

    # -- wc ---------------------------------------------------------------------------
    def wc_rule(argv):
        ops = tuple(_operands_of(argv))
        if ops:
            # per-file labelled output: merging labels is not concat
            return InstanceSpec("wc", ParClass.NON_PARALLELIZABLE,
                                input_operands=ops, reads_stdin=False,
                                blocking=True, selectivity=0.0001)
        return InstanceSpec(
            "wc", ParClass.PARALLELIZABLE_PURE, Aggregator(AggKind.SUM),
            selectivity=0.0001, blocking=True,
        )

    lib.register(CommandSpec("wc", [wc_rule]))

    # -- order-dependent / prefix commands: never parallelizable -------------------
    for name, blocking in (("head", False), ("tail", True), ("tac", True),
                           ("nl", False), ("paste", False), ("shuf", True)):
        def make_rule(name=name, blocking=blocking):
            def rule(argv):
                ops = tuple(_operands_of(argv, value_flags="ncd"))
                return InstanceSpec(name, ParClass.NON_PARALLELIZABLE,
                                    input_operands=ops, reads_stdin=not ops,
                                    blocking=blocking,
                                    selectivity=0.01 if name in ("head", "tail") else 1.0)
            return rule
        lib.register(CommandSpec(name, [make_rule()]))

    # -- rev: stateless -------------------------------------------------------------
    def rev_rule(argv):
        ops = tuple(_operands_of(argv))
        return InstanceSpec("rev", ParClass.STATELESS, Aggregator.concat(),
                            input_operands=ops, reads_stdin=not ops)

    lib.register(CommandSpec("rev", [rev_rule]))

    # -- two-input set/relational commands -------------------------------------------
    def comm_rule(argv):
        ops = tuple(_operands_of(argv))
        return InstanceSpec("comm", ParClass.NON_PARALLELIZABLE,
                            input_operands=ops, reads_stdin=False)

    lib.register(CommandSpec("comm", [comm_rule]))

    def join_rule(argv):
        ops = tuple(_operands_of(argv, value_flags="t12"))
        return InstanceSpec("join", ParClass.NON_PARALLELIZABLE,
                            input_operands=ops, reads_stdin=False)

    lib.register(CommandSpec("join", [join_rule]))

    # -- awk: stateless iff the program is a pure per-record map -------------------
    def awk_rule(argv):
        from ..commands.awk_lite import program_is_stateless

        program = None
        i = 0
        while i < len(argv):
            arg = argv[i]
            if arg in ("-F", "-v"):
                i += 2
                continue
            if arg.startswith("-F") and len(arg) > 2:
                i += 1
                continue
            program = arg
            break
        operand_indices = tuple(
            j for j in _operands_of(argv, value_flags="Fv")
            if argv[j] != program
        )
        if program is not None and program_is_stateless(program):
            return InstanceSpec(
                "awk", ParClass.STATELESS, Aggregator.concat(),
                input_operands=operand_indices,
                reads_stdin=not operand_indices,
            )
        return InstanceSpec("awk", ParClass.NON_PARALLELIZABLE,
                            input_operands=operand_indices,
                            reads_stdin=not operand_indices)

    lib.register(CommandSpec("awk", [awk_rule]))

    # -- sources -----------------------------------------------------------------------
    def seq_rule(argv):
        return InstanceSpec("seq", ParClass.NON_PARALLELIZABLE,
                            reads_stdin=False)

    lib.register(CommandSpec("seq", [seq_rule]))

    def echo_rule(argv):
        return InstanceSpec("echo", ParClass.NON_PARALLELIZABLE,
                            reads_stdin=False, selectivity=0.0)

    lib.register(CommandSpec("echo", [echo_rule]))

    # -- side-effectful commands: excluded from dataflow ---------------------------------
    def tee_rule(argv):
        files = tuple(argv[i] for i in _operands_of(argv))
        return InstanceSpec("tee", ParClass.SIDE_EFFECTFUL,
                            output_files=files, pure=False)

    lib.register(CommandSpec("tee", [tee_rule]))

    for name in ("rm", "mv", "cp", "mkdir", "touch", "split", "xargs"):
        def make_se_rule(name=name):
            def rule(argv):
                return InstanceSpec(name, ParClass.SIDE_EFFECTFUL, pure=False)
            return rule
        lib.register(CommandSpec(name, [make_se_rule()]))

    return lib


#: the default library instance shared across the system
DEFAULT_LIBRARY = build_default_library()
