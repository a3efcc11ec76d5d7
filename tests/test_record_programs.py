"""awk and sed programs become Python code (DESIGN.md §11): the text of
a program reaches it only as the ``repr`` of a constant or as a prefixed
name, never as code.  Each program here is awk's or sed's answer
(checked against the host's awk and GNU sed when written) and names,
strings and regexes that would be Python — keywords, quotes, triple
quotes, backslashes, newlines, braces — stay data in the compiled code."""

from __future__ import annotations

import re
from types import CodeType

import pytest

from repro import Shell
from repro.annotations.inference import run_filter
from repro.commands import awk_lite
from repro.commands.filters import compile_sed, parse_sed_args

#: (program, stdin, stdout)
AWK = [
    ('{ None = $1; True = $2; def = None True; print def, None }',
     "p q\nr s\n", "pq p\nrs r\n"),
    ('{ yield += $2; lambda[$1] = yield } END { self = "k"; '
     'print yield, lambda["k"], length(lambda) }', "k 2\nj 3\nk 4\n", "9 9 2\n"),
    ('BEGIN { F = "x"; __import__ = "os"; out = F __import__; '
     'print out, NF, F + 1 }', "", "xos 0 1\n"),
    ('{ self[$1] = $2; out = NF } END { for (F in self) print F, self[F], out }',
     "z 1\n", "z 1 2\n"),
    ('BEGIN { print "a\\"b\'c", "\\"\\"\\"", "back\\\\slash", "new\\nline" }',
     "", 'a"b\'c """ back\\slash new\nline\n'),
    ('/"/ { print "dq", NR } /\'/ { print "sq", NR } /\\\\/ { print "bs", NR }',
     'say "hi"\nit\'s\na\\b\n', "dq 1\nsq 2\nbs 3\n"),
    ('BEGIN { s = "\\"); raise SystemExit(3) #"; print s; print length(s) }',
     "", '"); raise SystemExit(3) #\n25\n'),
    ('BEGIN { t = "\\"\\"\\" + __import__(\'os\').getcwd() + \\"\\"\\""; print t }',
     "", '""" + __import__(\'os\').getcwd() + """\n'),
    ('{ gsub(/"/, "\'"); print }', 'a "b" c\n', "a 'b' c\n"),
    ('$0 ~ "a\\"b" { print "hit" } { print $0 ~ /\'/ }', 'a"b\nx\'y\n',
     "hit\n0\n1\n"),
    ('BEGIN { x = "{}{0}%s\\n"; printf x, "f"; print 1e999, -1e999 }', "",
     "{}{0}f\ninf -inf\n"),
    # FS assigned in a main rule: the next record splits by it
    ('NR == 2 { FS = ":" } { print $1 }', "a:b c\nd:e f\ng:h i\n",
     "a:b\nd:e\ng\n"),
]

#: (argv after "sed", stdin, stdout)
SED = [
    (["s/a/'\"\\\\/g"], "banana\n", "b'\"\\n'\"\\n'\"\\\n"),
    (["s/b/\"'\"'/"], "abc\n", "a\"'\"'c\n"),
    (["s/x/\\\\\\\\/"], "xyz\n", "\\\\yz\n"),
    (['s/"/\'/g'], 'say "hi"\n', "say 'hi'\n"),
    (["/'/d"], "it's\nfine\n", "fine\n"),
    (["-n", '/"/p'], 'a"\nb\n', 'a"\n'),
    (['s/\\(.\\)/\\1"""/'], "q\n", 'q"""\n'),
    (["s/a/\\n/"], "cat\n", "c\nt\n"),
]

#: the names generated code is made of, besides the program's own
#: (``v_NAME``, ``a_NAME``) and numbered ones (temporaries ``tN``,
#: bound constants ``kN``, sed's commands ``cmdN``)
VOCABULARY = {
    "len", "map", "enumerate", "float", "int", "list", "isdecimal", "search",
    "span", "split", "insert", "join", "clear", "append", "flush", "encode",
    "decode", "find", "upper", "lower", "__class__", "__setitem__", "put",
    "batch", "out", "charge_all", "coeff", "recs", "chunks", "size",
    "threshold", "start", "i", "R", "_chunks", "_size", "V", "A",
    "F", "P", "fields", "S", "RS", "fs_seen",
    "data", "state", "lineno", "line", "m", "ms", "me", "n", ".0",
} | set(awk_lite._RUNTIME)
NUMBERED = re.compile(r"([va]_\w+|[tk]\d+|cmd\d+)\Z")


def assert_safe(functions) -> None:
    """Every name the compiled ``functions`` (and the code nested in
    them) use is the generator's own or prefixed, every constant plain
    data."""
    codes = [function.__code__ for function in functions]
    while codes:
        code = codes.pop()
        for name in (code.co_names + code.co_varnames + code.co_cellvars
                     + code.co_freevars):
            assert name in VOCABULARY or NUMBERED.match(name), \
                (name, code.co_name)
        for const in code.co_consts:
            if isinstance(const, CodeType):
                codes.append(const)
            else:
                assert plain(const), (const, code.co_name)


def plain(value) -> bool:
    """None, a str, bytes, number or bool, or a tuple of them."""
    return value is None or type(value) in (str, bytes, int, float, bool) \
        or type(value) is tuple and all(map(plain, value))


@pytest.mark.parametrize("program,stdin,stdout", AWK, ids=lambda v: str(v)[:30])
def test_awk_program_is_data(program, stdin, stdout):
    assert run_filter(["awk", program], stdin.encode()) == (0, stdout.encode())
    begin, records, end, _, _ = awk_lite.compile_awk(program)
    assert_safe([begin, records, end])


@pytest.mark.parametrize("argv,stdin,stdout", SED, ids=lambda v: str(v)[:30])
def test_sed_script_is_data(argv, stdin, stdout):
    assert run_filter(["sed", *argv], stdin.encode()) == (0, stdout.encode())
    quiet, cmds, _ = parse_sed_args({"n": True} if argv[0] == "-n" else {},
                                    argv[-1:])
    run = compile_sed(cmds, quiet)
    assert_safe([run])
    assert set(run.__globals__) - {"__builtins__", "run"} <= {
        f"cmd{k}" for k in range(len(cmds))}


def test_assignments_between_files_reach_the_next_batch():
    """``-v`` before BEGIN, ``x=2`` between the two files: each batch
    loads the variables it names and writes back what it assigned."""
    shell = Shell()
    shell.fs.write_bytes("/f1", b"a\nb\n")
    shell.fs.write_bytes("/f2", b"c\n")
    result = shell.run("awk -v x=1 '{ s = s x $1; n++ } x == 2 { x = 3 } "
                       "END { print s, x, n, NR }' /f1 x=2 /f2")
    assert (result.status, result.stdout) == (0, b"1a1b2c 3 3 3\n")
