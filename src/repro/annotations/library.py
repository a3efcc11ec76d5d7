"""The shipped specification library for the coreutils in repro.commands.

These are the hand-written annotations the paper describes ("written once
for each command ... similarly to manpages").  A rule reads an invocation
through the parse :meth:`SpecLibrary.classify` made with the command's
own registered grammar (:class:`repro.commands.base.Args`): the options
the body will see, its operands, and each operand's argv index — so a
rule classifies only what the body accepts, and reads it as the body
does.  The inference engine (:mod:`repro.annotations.inference`) can
re-derive the parallelizability classes by black-box testing.
"""

from __future__ import annotations

import re

from ..commands.awk_lite import program_is_stateless
from ..commands.base import Args, UsageError
from ..commands.bre import RegexTranslationError
from ..commands.filters import parse_sed_args
from .model import (
    AggKind,
    Aggregator,
    CommandSpec,
    InstanceSpec,
    ParClass,
    SpecLibrary,
)


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
    def cat_rule(args: Args):
        ops = args.at
        return InstanceSpec(
            "cat", ParClass.STATELESS, Aggregator.concat(),
            input_operands=ops, reads_stdin=not ops, selectivity=1.0,
        )

    lib.register(CommandSpec("cat", [cat_rule]))

    # -- tr: stateless pure filter on stdin ----------------------------------
    def tr_rule(args: Args):
        operands = args.operands
        # tr receives the two characters backslash-n and interprets the
        # escape itself, so check both spellings
        tokenizing = bool(operands) and ("\n" in operands[-1]
                                         or "\\n" in operands[-1])
        if strict_tr_squeeze and "s" in args.opts:
            return InstanceSpec(
                "tr", ParClass.PARALLELIZABLE_PURE,
                Aggregator(AggKind.RERUN, ("tr", *args.argv)),
                input_operands=(), selectivity=1.0, tokenizing=tokenizing,
            )
        return InstanceSpec(
            "tr", ParClass.STATELESS, Aggregator.concat(),
            input_operands=(), selectivity=1.0, tokenizing=tokenizing,
        )

    lib.register(CommandSpec("tr", [tr_rule]))

    # -- grep -------------------------------------------------------------------
    def grep_rule(args: Args):
        flags = args.opts
        # the pattern is -e's, else the first operand (none: grep refuses)
        if "e" not in flags and not args.operands:
            return None
        file_ops = args.at if "e" in flags else args.at[1:]
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
    def cut_rule(args: Args):
        ops = args.at
        return InstanceSpec(
            "cut", ParClass.STATELESS, Aggregator.concat(),
            input_operands=ops, reads_stdin=not ops, selectivity=0.3,
            shrinks_lines=True,
        )

    lib.register(CommandSpec("cut", [cut_rule]))

    # -- sed: stateless for the supported script subset unless it quits ------
    def sed_rule(args: Args):
        try:
            _quiet, cmds, files = parse_sed_args(args.opts, args.operands)
        except (UsageError, RegexTranslationError, re.error):
            return None  # sed itself will refuse to run
        file_ops = args.at[len(args.at) - len(files):]
        if any(cmd.kind == "q" for cmd in cmds):
            return InstanceSpec("sed", ParClass.NON_PARALLELIZABLE,
                                input_operands=file_ops,
                                reads_stdin=not file_ops)
        return InstanceSpec(
            "sed", ParClass.STATELESS, Aggregator.concat(),
            input_operands=file_ops, reads_stdin=not file_ops,
        )

    lib.register(CommandSpec("sed", [sed_rule]))

    # -- sort: parallelizable-pure with sort -m aggregation ------------------
    def sort_rule(args: Args):
        ops = args.at
        if args.opts.keys() & set("mco"):
            # merge/check modes and -o output files: keep simple, refuse
            out = args.opts.get("o")
            return InstanceSpec("sort", ParClass.NON_PARALLELIZABLE,
                                input_operands=ops, blocking=True,
                                writes_stdout=out is None,
                                output_files=(out,) if out else ())
        # the merge orders as the stage does: its every option, in order
        return InstanceSpec(
            "sort", ParClass.PARALLELIZABLE_PURE,
            Aggregator(AggKind.SORT_MERGE, ("sort", "-m", *args.words)),
            input_operands=ops, reads_stdin=not ops, blocking=True,
        )

    lib.register(CommandSpec("sort", [sort_rule]))

    # -- uniq --------------------------------------------------------------------
    def uniq_rule(args: Args):
        ops = args.at[:1]  # uniq reads its first operand, writes its second
        if len(args.operands) > 2:
            return None  # uniq itself will refuse to run
        if len(args.operands) == 2 and args.operands[1] != "-":
            # like sort -o: an output file is not a stream to merge
            return InstanceSpec("uniq", ParClass.NON_PARALLELIZABLE,
                                input_operands=ops, reads_stdin=not ops,
                                writes_stdout=False,
                                output_files=(args.operands[1],))
        if args.opts.keys() & set("cdu"):
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
    def wc_rule(args: Args):
        ops = args.at
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
            def rule(args: Args):
                # shuf, like uniq, reads its first operand only
                ops = args.at[:1] if name == "shuf" else args.at
                return InstanceSpec(name, ParClass.NON_PARALLELIZABLE,
                                    input_operands=ops, reads_stdin=not ops,
                                    blocking=blocking,
                                    selectivity=0.01 if name in ("head", "tail") else 1.0)
            return rule
        lib.register(CommandSpec(name, [make_rule()]))

    # -- rev: stateless -------------------------------------------------------------
    def rev_rule(args: Args):
        ops = args.at
        return InstanceSpec("rev", ParClass.STATELESS, Aggregator.concat(),
                            input_operands=ops, reads_stdin=not ops)

    lib.register(CommandSpec("rev", [rev_rule]))

    # -- two-input set/relational commands -------------------------------------------
    def comm_rule(args: Args):
        return InstanceSpec("comm", ParClass.NON_PARALLELIZABLE,
                            input_operands=args.at, reads_stdin=False)

    lib.register(CommandSpec("comm", [comm_rule]))

    def join_rule(args: Args):
        return InstanceSpec("join", ParClass.NON_PARALLELIZABLE,
                            input_operands=args.at, reads_stdin=False)

    lib.register(CommandSpec("join", [join_rule]))

    # -- awk: stateless iff the program is a pure per-record map -------------------
    def awk_rule(args: Args):
        if not args.operands:
            return None  # no program: awk refuses
        operand_indices = args.at[1:]
        if program_is_stateless(args.operands[0]):
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
    def seq_rule(args: Args):
        return InstanceSpec("seq", ParClass.NON_PARALLELIZABLE,
                            reads_stdin=False)

    lib.register(CommandSpec("seq", [seq_rule]))

    def echo_rule(args: Args):
        return InstanceSpec("echo", ParClass.NON_PARALLELIZABLE,
                            reads_stdin=False, selectivity=0.0)

    lib.register(CommandSpec("echo", [echo_rule]))

    # -- side-effectful commands: excluded from dataflow ---------------------------------
    def tee_rule(args: Args):
        return InstanceSpec("tee", ParClass.SIDE_EFFECTFUL,
                            output_files=tuple(args.operands), pure=False)

    lib.register(CommandSpec("tee", [tee_rule]))

    for name in ("rm", "mv", "cp", "mkdir", "touch", "split", "xargs"):
        def make_se_rule(name=name):
            def rule(args: Args):
                return InstanceSpec(name, ParClass.SIDE_EFFECTFUL, pure=False)
            return rule
        lib.register(CommandSpec(name, [make_se_rule()]))

    return lib


#: the default library instance shared across the system
DEFAULT_LIBRARY = build_default_library()
