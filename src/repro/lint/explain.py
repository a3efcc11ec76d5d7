"""explainshell-style command explanation from the spec library (§4:
"The tutor could use the library of specifications as a database to
either answer queries about particular commands or to guide users").
"""

from __future__ import annotations

from typing import Optional

from ..annotations.library import DEFAULT_LIBRARY
from ..annotations.model import ParClass, SpecLibrary
from ..commands.base import UsageError, parse_args
from ..parser import parse_one
from ..parser.ast_nodes import Pipeline, SimpleCommand
from .checks import DIAGNOSTIC_CHECKS

#: long-form rationale for lint codes, keyed by code.  Codes without an
#: entry fall back to the check function's docstring.
CHECK_EXPLANATIONS = {
    "JS2250": (
        "JS2250 unchecked pipeline failure.  POSIX sets a pipeline's "
        "exit status to its *last* stage's status, so when a producer "
        "stage (a command that reads files, like `cat big | sort`) dies "
        "on an I/O error, the consumer simply sees early end-of-input "
        "and exits 0.  The failure is silent: the script continues with "
        "truncated data.  `set -o pipefail` makes the pipeline report "
        "the first failing stage; `set -e` then also stops the script. "
        "The fault-injection layer (repro.vos.faults) demonstrates the "
        "failure mode: inject a disk-error into the producer and the "
        "unguarded pipeline still reports success."
    ),
    "JS2260": (
        "JS2260 idle worker pool.  `--jobs N` enables the S21 host "
        "worker pool, but a region only ships to it when three gates "
        "clear: the statement matches a poolable shape (cat/tr/sort/"
        "uniq pipelines), the S16 analysis issued a safe_parallel "
        "certificate for it, and the estimated input volume clears the "
        "ship floor.  When no statement in the script can ever clear "
        "the certificate gate, the requested workers will sit idle for "
        "the whole run — this warning says the flag is not doing what "
        "its user probably expects.  Fix the script shape (or drop the "
        "flag); outputs are identical either way, because the pool "
        "never changes observable behavior."
    ),
    "JS3001": (
        "JS3001 use-before-def.  The static analyzer (repro.analysis) "
        "runs reaching definitions over the script's control flow: a "
        "variable read is flagged when *no* assignment can reach it, "
        "although the script does assign it somewhere.  The two common "
        "causes are reading a variable that is only assigned later, and "
        "the subshell gotcha — `echo x | read v; echo $v` assigns v in "
        "a pipeline stage, which POSIX runs in a subshell, so the "
        "assignment never escapes.  Variables the script never assigns "
        "are assumed to come from the environment and are not flagged."
    ),
    "JS3002": (
        "JS3002 concurrent write-write race.  A background job (`cmd &`) "
        "keeps running while the statements after it execute, until a "
        "`wait` seals it.  When the analyzer's effect summaries show the "
        "job and an overlapping statement may write the same file, the "
        "final contents depend on scheduling — bytes may interleave or "
        "one writer may silently lose.  The syntactic self-clobber check "
        "(JS2094) cannot see this: each statement is individually clean. "
        "Serialize the writers or give each its own output file."
    ),
    "JS3003": (
        "JS3003 unsealed region output.  A statement consumes (or "
        "rewrites) a file a still-running background job writes (or "
        "reads): the reader may observe a partial region output because "
        "nothing orders it after the job finishes.  Insert `wait` "
        "between the job and the dependent statement so the file is "
        "sealed before it is consumed."
    ),
    "JS4001": (
        "JS4001 unreachable statement.  The abstract interpreter "
        "(repro.analysis.absint) follows every control path: a "
        "statement after an unconditional `exit`/`return`/`break` — or "
        "after a provably infinite loop — can never execute.  Either "
        "the dead code is leftovers to delete, or the early exit above "
        "it is the bug.  The optimizers use the same fact to skip "
        "compiling the region at all."
    ),
    "JS4002": (
        "JS4002 constant guard.  The interpreter's exit-status domain "
        "proved this `if`/`while` condition always succeeds (or always "
        "fails): `true`, `false`, `:`, and `test`/`[ ]` over constant "
        "values all have statically-known statuses, and constant "
        "propagation through assignments and $((...)) extends the reach. "
        "One branch of the conditional is dead — usually a sign the "
        "guard tests the wrong variable or a stale constant."
    ),
    "JS4003": (
        "JS4003 infinite loop.  The loop guard is constant-true (e.g. "
        "`while :`) and the body provably contains no `break`, `exit`, "
        "or `return` on any path — including inlined function calls — "
        "while `set -e` is off, so nothing can ever leave the loop. "
        "Statements after it are unreachable (JS4001).  Add a `break` "
        "condition or a bounded guard.  Bodies containing `kill`, "
        "`exec`, `trap`, `eval`, or `.` are given the benefit of the "
        "doubt and not flagged."
    ),
    "JS4004": (
        "JS4004 provably-unset read under set -u.  With `set -u` "
        "(nounset) in effect, expanding an unset variable aborts the "
        "shell.  The interpreter tracks variable values along every "
        "path: this read sees a variable that is explicitly `unset`, or "
        "one the script defines only *after* this point on every path. "
        "Variables never assigned anywhere in the script are assumed "
        "to come from the environment and stay silent.  This is the "
        "must-analysis sibling of JS3001's may-analysis."
    ),
    "JS4005": (
        "JS4005 dead and-or arm.  The left side of this `&&`/`||` has "
        "a constant exit status that short-circuits the operator: "
        "`false && cmd` never runs cmd, `true || cmd` never runs cmd. "
        "The right-hand side is dead code — commonly a debugging "
        "leftover (`false && slow_check`) or a confusion of `&&` with "
        "`;`."
    ),
    "JS4006": (
        "JS4006 empty loop word list.  The trip-count domain computed "
        "this `for` loop's word list statically: a constant-empty "
        "expansion (e.g. `$(seq 5 1)`, an empty variable) means the "
        "body never runs.  Fix the range or drop the loop."
    ),
}


def explain_check(code: str) -> str:
    """Explain a lint diagnostic code (the tutor's 'why' database)."""
    text = CHECK_EXPLANATIONS.get(code)
    if text is not None:
        return text
    for fn in DIAGNOSTIC_CHECKS:
        doc = (fn.__doc__ or "").strip()
        # match the code anywhere in the summary line: docstrings often
        # lead with prose ("Reaching definitions (JS3001): ...")
        first_line = doc.splitlines()[0] if doc else ""
        if code in first_line:
            return doc
    return f"{code}: no explanation available"

COMMAND_SUMMARIES = {
    "cat": "concatenate files to standard output",
    "tr": "translate, squeeze, or delete characters",
    "grep": "print lines matching a pattern",
    "cut": "select character or field columns from each line",
    "sed": "stream editor: substitute / delete / print by pattern",
    "sort": "sort lines (optionally numeric, reversed, unique)",
    "uniq": "collapse adjacent duplicate lines",
    "comm": "compare two sorted files line by line (3 columns)",
    "join": "relational join of two sorted files",
    "wc": "count lines, words, and bytes",
    "head": "first lines of input",
    "tail": "last lines of input",
    "tee": "copy input to output and to files",
    "xargs": "build and run commands from standard input",
    "seq": "print numeric sequences",
    "echo": "print arguments",
    "paste": "merge corresponding lines of files",
    "rev": "reverse each line",
    "tac": "reverse line order",
    "split": "split input into fixed-size chunk files",
    "shuf": "randomly permute lines",
    "awk": "pattern-directed record processing language",
}

FLAG_DESCRIPTIONS = {
    ("grep", "v"): "invert: print non-matching lines",
    ("grep", "i"): "case-insensitive matching",
    ("grep", "c"): "print only a count of matching lines",
    ("grep", "n"): "prefix matches with line numbers",
    ("grep", "F"): "fixed-string (not regex) matching",
    ("grep", "m"): "stop after NUM matches",
    ("grep", "q"): "quiet: exit status only",
    ("sort", "r"): "reverse the ordering",
    ("sort", "n"): "numeric comparison",
    ("sort", "u"): "unique: drop duplicate keys",
    ("sort", "m"): "merge already-sorted inputs",
    ("sort", "k"): "sort by field KEY",
    ("sort", "t"): "field delimiter",
    ("sort", "o"): "write result to FILE",
    ("tr", "c"): "complement the first set",
    ("tr", "s"): "squeeze repeated output characters",
    ("tr", "d"): "delete characters in the set",
    ("cut", "c"): "select character positions",
    ("cut", "f"): "select fields",
    ("cut", "d"): "field delimiter",
    ("uniq", "c"): "prefix lines with repetition counts",
    ("uniq", "d"): "print only duplicated lines",
    ("uniq", "u"): "print only unique lines",
    ("wc", "l"): "count lines",
    ("wc", "w"): "count words",
    ("wc", "c"): "count bytes",
    ("head", "n"): "number of lines",
    ("head", "c"): "number of bytes",
    ("head", "#"): "number of lines",
    ("tail", "n"): "number of lines",
    ("tail", "#"): "number of lines",
    ("comm", "1"): "suppress lines unique to file1",
    ("comm", "2"): "suppress lines unique to file2",
    ("comm", "3"): "suppress lines common to both",
}

PAR_EXPLANATIONS = {
    ParClass.STATELESS: (
        "stateless: processes each line independently — the optimizer "
        "may split its input and concatenate partial outputs"
    ),
    ParClass.PARALLELIZABLE_PURE: (
        "parallelizable (pure): partial runs merge through its "
        "aggregator"
    ),
    ParClass.NON_PARALLELIZABLE: (
        "order/position dependent: must see its whole input in order"
    ),
    ParClass.SIDE_EFFECTFUL: (
        "side-effectful: writes outside its own stdout — excluded from "
        "dataflow optimization"
    ),
}


def explain_command(argv: list[str], library: Optional[SpecLibrary] = None) -> str:
    library = library or DEFAULT_LIBRARY
    name = argv[0]
    lines = [f"{name}: {COMMAND_SUMMARIES.get(name, 'no summary available')}"]
    try:  # the options as the command itself reads them
        args = parse_args(name, argv[1:])
    except UsageError as err:
        lines.append(f"  ⇒ rejected: {name}: {err} (the command exits 2)")
        return "\n".join(lines)
    for flag, value in args.opts.items():
        desc = FLAG_DESCRIPTIONS.get((name, flag), "(undocumented flag)")
        if value is not True:
            values = value if isinstance(value, list) else [value]
            desc += " (" + ", ".join(map(repr, values)) + ")"
        lines.append(f"  -{'NUM' if flag == '#' else flag}: {desc}")
    if "-" in args.operands:
        lines.append("  -: read standard input")
    spec = library.classify(name, list(argv[1:]))
    if spec is not None:
        lines.append(f"  ⇒ {PAR_EXPLANATIONS[spec.par_class]}")
        if spec.aggregator is not None and spec.par_class is ParClass.PARALLELIZABLE_PURE:
            agg = spec.aggregator
            how = " ".join(agg.argv) if agg.argv else agg.kind.value
            lines.append(f"  ⇒ aggregator: {how}")
    return "\n".join(lines)


def explain(pipeline_text: str, library: Optional[SpecLibrary] = None) -> str:
    """Explain a full pipeline stage by stage, plus what the optimizer
    would see."""
    library = library or DEFAULT_LIBRARY
    node = parse_one(pipeline_text)
    if isinstance(node, SimpleCommand):
        commands = [node]
    elif isinstance(node, Pipeline):
        commands = list(node.commands)
    else:
        return "explain: only plain pipelines are supported"
    sections = []
    parallelizable = 0
    for cmd in commands:
        if not isinstance(cmd, SimpleCommand) or not cmd.words:
            sections.append("(compound stage)")
            continue
        argv = [w.constant for w in cmd.words]
        if None in argv:
            sections.append("(stage with runtime expansions — the JIT will "
                            "analyze it once values are known)")
            continue
        sections.append(explain_command(argv, library))
        spec = library.classify(argv[0], argv[1:])
        parallelizable += spec is not None and spec.parallelizable
    footer = (f"\n{parallelizable}/{len(commands)} stages are "
              f"parallelizable by annotation.")
    return "\n\n".join(sections) + footer
