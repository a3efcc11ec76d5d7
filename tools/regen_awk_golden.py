#!/usr/bin/env python3
"""Regenerate tests/corpus/awk_golden.json: ``(status, stdout)`` of the awk
command over a fixed table of generated ``(program, input)`` pairs.

The table was recorded from the tree-walking evaluator the commit before
awk's programs were lowered to closures, and ``tests/test_commands_awk.py``
asserts the closures reproduce it byte for byte.  It covers every node
kind and built-in, patterns x actions, BEGIN/END/next/exit, ``-F`` and
``-v``, arrays, printf formats, sub/gsub, assignment to ``$0``/``$n``,
uninitialised values and an unterminated last record.  It stays clear of
what that commit fixed on purpose (string constants compared as strings,
``print length``, assignment to NF, a subscript evaluated once per ``+=``,
gsub's empty match after a match, ``name=value`` operands, ``%`` on
fractions or a negative divisor, ``%i``).  Run it only
when awk's *behaviour* is meant to change, and review the diff:

    PYTHONPATH=src python tools/regen_awk_golden.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.annotations.inference import run_filter

GOLDEN = ROOT / "tests" / "corpus" / "awk_golden.json"

TABLE = b"alpha 10 x\nbeta 3 y\ngamma 25 z\n\ndelta 7\nalpha 4 w\n"
PASSWD = b"root:x:0:0:Root User\nbin:y:1:2\nsys::3\n"
NUMBERS = b"3\n-1.5\n10\n 2e1 \nabc\n0\n.5\n1x\n"
TAILLESS = b"a b\nc d"
KEYS = b"b 1\na 2\nb 3\nc 4\na 5\n"
MIXED = "café 1\nnaïve 2\n".encode() + b"bad\xff 3\ntab\tsep 4\n"

PATTERNS = ["", "/a/", "$2 > 5", "NR==2", "NR>1 && NF>=2", "$1 ~ /^[ab]/",
            "$1 !~ /a$/", "!($2 % 2)", "NF", "length($1) > 4",
            '$1 == "beta" || $3 == "z"', "$2 >= 4 && $2 <= 10", "/^$/"]
ACTIONS = ["", "{print}", "{print $1}", "{print $2, $1}",
           "{print NR, NF, $NF}", "{print $(NF-1)}", "{x = $2 * 2; print x}",
           '{printf "%s-%d\\n", $1, $2}', '{print $1 ":" $2}',
           "{n++; s += $2} END{print n, s}", '{$2 = "X"; print}',
           "{print length($0), length()}"]

CURATED = [
    # BEGIN / END / next / exit
    ('BEGIN{print "b"} {print "m"} END{print "e", NR}', TABLE),
    ('END{print NR}', TABLE), ('BEGIN{print 1+1}', b""), ('BEGIN{x}', b""),
    ('/beta/{next} {print $1}', TABLE), ('NR==3{exit} {print}', TABLE),
    ('{print; exit 3}', TABLE), ('BEGIN{exit 4} END{print "e"}', TABLE),
    ('{exit 2} END{print "E"; exit; print "no"}', TABLE),
    ('END{exit 5} END{print "no"}', TABLE), ('{next; print "no"}', TABLE),
    ('NR==2{exit 1+2} END{print NR}', TABLE), ('{print} {print NR}', KEYS),
    ('NR==1; NR==2{print "two"}', KEYS), ('BEGIN{print NR, NF, FILENAME}', b""),
    # arithmetic, coercion, uninitialised values
    ('{print $1 + 0, $1 * 2, -$1, int($1) % 3, $1 / 4}', NUMBERS),
    ('{print $1 + 0}', b"0x10\n1e3\n+5\n-.5e1\n 7 \n1_0\ninf\nnan\n"),
    ('BEGIN{print x + 0, x "", length(x), -x, !x, !"a", !0, !1}', b""),
    ('BEGIN{print 1/3, 100000 * 100000, 1e16, 1e17, 0.1 + 0.2, 2.50}', b""),
    ('BEGIN{print 7 % 3, -7 % 3, 9 % 3, int(-3.7), int("4x"), int("-0.9")}', b""),
    ('BEGIN{print 1 / 0}', b""), ('{print 5 % $2}', b"a 0\n"),
    ('{print "ok"; print 1 / ($2 - 3)}', TABLE),
    ('BEGIN{print 1 + 2 * 3 - 4 / 2, (1 + 2) * 3, 2 - 3 - 4, - - 5}', b""),
    ('BEGIN{print 1 " " 2, 1 2, 1+1 "" 2+2, "a" 1 + 2 "b"}', b""),
    ('BEGIN{x = y = 3; print x, y; x += y -= 1; print x, y}', b""),
    ('BEGIN{x = 5; x *= 2; x -= 1; x /= 3; x %= 2; print x}', b""),
    ('BEGIN{print i++, i, ++i, i, i--, i, --i, i}', b""),
    ('BEGIN{print u++ + 0, ++v, w--, --z}', b""),
    ('{i = 1; print $(i++), i, $i, $(i + 1)}', TABLE),
    ('{print $1 > $2, $1 < $2, $2 == 10, $2 != 3, $2 <= 7, $2 >= 7}', TABLE),
    ('{print ($1 < 5), ($1 == "abc"), ($1 < "b"), ($1 == 0)}', NUMBERS),
    ('{print $1 == $2, $1 < $2}', b"10 10.0\n9 10\nabc abd\n1e1 10\n"),
    ('BEGIN{print 1 == 1, 1 < 2, 2 < 1, "a" < "b", "b" < "a", "a" == "a"}', b""),
    ('BEGIN{x = 10; y = 9; print x < y, x > y, x == 10, y != 9}', b""),
    ('{print ($2 > 5) ? "big" : "small", $2 > 5 ? 1 : 0}', TABLE),
    ('{print NF ? $1 : "empty"}', TABLE),
    ('BEGIN{print 1 && 0, 1 && 2, 0 || 0, 0 || "a", "" || 0, !(1 && 1)}', b""),
    ('{print ($2 > 5 && $1 ~ /a/) || NR == 2}', TABLE),
    ('BEGIN{print 1 && x++, x, 0 && y++, y + 0, 1 || z++, z + 0}', b""),
    # regex match
    ('{print $1 ~ /^a/, $1 !~ /^a/, $0 ~ "a.*a", $1 ~ "^" "b"}', TABLE),
    ('$0 ~ /[0-9]+ [xy]$/', TABLE), ('!/a/', TABLE), ('/a/ && /e/', TABLE),
    ('{r = "^[a-b]"; if ($1 ~ r) print "hit", $1}', TABLE),
    ('{print /a/ + /b/ + /t/}', TABLE), ('/\\//', b"a/b\nab\n"),
    ('$1 ~ /a|d/ {print $1}', TABLE), ('/a+l*p?h/', TABLE),
    # fields, $0, NF, OFS / ORS / FS
    ('{$3 = "X"; print; print NF}', TABLE), ('{$6 = "far"; print; print NF}', TABLE),
    ('{$0 = "p q r"; print $2, NF}', TABLE), ('{$1 = $1; print}', b"a   b\t c\n"),
    ('{$2 = ""; print; print NF}', TABLE), ('{$2 += 1; print}', TABLE),
    ('{$2++; print $2; print}', TABLE), ('{print $0; $0 = $2; print $1, NF}', TABLE),
    ('{print $NF; print $(NF + 2) "|"; print $0}', TABLE),
    ('BEGIN{OFS = "-"} {print $1, $2; $1 = $1; print}', TABLE),
    ('BEGIN{ORS = "|"} {print $1} END{printf "\\n"}', TABLE),
    ('BEGIN{OFS = "-"; ORS = "\\n\\n"} {print NR, $1}', KEYS),
    ('BEGIN{FS = ":"} {print $1, NF}', PASSWD),
    ('BEGIN{FS = "[0-9]+"} {print $1 "|" $2, NF}', TABLE),
    ('{FS = ":"; print $1}', PASSWD), ('{print NF}', b"  lead  trail  \n\n \n"),
    ('{print $1, $2}', MIXED), ('{print length($1), toupper($1)}', MIXED),
    ('{print}', TAILLESS), ('{print $2} END{print NR}', TAILLESS),
    ('{n += length($0)} END{print n}', TAILLESS),
    # arrays
    ('{c[$1]++} END{for (k in c) print k, c[k]}', KEYS),
    ('{s[$1] += $2} END{for (k in s) print k, s[k]; print length(s)}', KEYS),
    ('{a[NR] = $1} END{for (i in a) print i, a[i]; print a[9] "|", length(a)}', KEYS),
    ('{m[$1, $2] = NR} END{for (k in m) {n = split(k, p, "\034"); print n, length(k)}}', KEYS),
    ('{last[$1] = $2} END{print last["a"], last["b"], last["zz"] "|"}', KEYS),
    ('BEGIN{a["x"] = 1; a["y"]; a["x"] += 2; a["z"]++; for (k in a) print k, a[k]}', b""),
    ('BEGIN{n = split("a:b:c", p, ":"); print n, p[1], p[3], length(p)}', b""),
    ('BEGIN{n = split("  a  b ", p); print n, p[1] "|" p[2]}', b""),
    ('{n = split($0, w); for (i in w) out = out w[i] "."; print n, out; out = ""}', TABLE),
    ('BEGIN{FS = ":"} {n = split($5, w); print n, w[1]}', PASSWD),
    ('BEGIN{for (k in none) print "no"; print length(none)}', b""),
    ('{a[$1] = a[$1] $2 ","} END{for (k in a) print k ":" a[k]}', KEYS),
    # control flow
    ('{if ($2 > 5) print "big"; else print "small"}', TABLE),
    ('{if ($2 > 5) {print "big"; n++} else if ($2) print "small"} END{print n}', TABLE),
    ('{if (NF) if ($2 > 5) print "b"; else print "s"}', TABLE),
    ('{i = 0; while (i < NF) {i++; printf "%s;", $i} print ""}', TABLE),
    ('BEGIN{while (i < 3) i++; print i}', b""),
    ('BEGIN{while (i++ < 5) if (i % 2) s = s i; print s}', b""),
    ('{if (m == "" || $2 > m) m = $2} END{print m}', TABLE),
    ('{ { print $1; { print $2 } } }', KEYS), ('{;;print;;}', KEYS),
    ('{print   # a comment\n print NR}\n\n# another\nEND { print "e" }', KEYS),
    # built-ins
    ('{print length($1), substr($1, 2), substr($1, 2, 3), substr($1, 0, 2), substr($1, 9) "|"}', TABLE),
    ('{print index($1, "a"), index($0, " "), index($1, "zz"), index($1, "")}', TABLE),
    ('{print toupper($1), tolower("ABC" $3), toupper(3)}', TABLE),
    ('{print int($1), int($1 * 10) / 10}', NUMBERS),
    ('BEGIN{print substr("hello", -1, 3), substr("hello", 1.9, 2), substr(12345, 2, 2)}', b""),
    ('{print match($1, /[aeiou]+/), RSTART, RLENGTH}', TABLE),
    ('{print match($0, "[0-9]+"), RSTART, RLENGTH, substr($0, RSTART, RLENGTH)}', TABLE),
    ('{print sprintf("%03d|%-6s|%5.2f", $2, $1, $2 / 3)}', TABLE),
    ('BEGIN{s = sprintf("%d%%", 50); print s, length(s)}', b""),
    # sub / gsub
    ('{sub(/a/, "A"); print}', TABLE), ('{gsub(/a/, "A"); print}', TABLE),
    ('{n = gsub(/[aeiou]/, "<&>"); print n, $0}', TABLE),
    ('{sub(/l/, "[&&]"); print}', TABLE), ('{gsub(/a/, "\\\\&"); print}', TABLE),
    ('{sub(/^/, "> "); print}', TABLE), ('{sub(/$/, "!"); print}', TABLE),
    ('{sub(/[0-9]+/, "N", $2); print; print NF}', TABLE),
    ('{gsub(/a/, "", $1); print $1, $0}', TABLE),
    ('{s = $1; n = gsub("a", "o", s); print n, s, $1}', TABLE),
    ('{gsub("[" "a-b" "]", "_"); print}', TABLE),
    ('{t[1] = $1; sub(/a/, "4", t[1]); print t[1]}', TABLE),
    ('{print sub(/zz/, "y"), gsub(/zz/, "y"), $0}', KEYS),
    ('{gsub(/ /, "  "); print; print NF}', TABLE),
    # printf formats
    ('{printf "%d %5d|%-5d|%05d\\n", $2, $2, $2, $2}', TABLE),
    ('{printf "%s|%8s|%-8s|%.2s|%5.1s|\\n", $1, $1, $1, $1, $1}', TABLE),
    ('{printf "%f %.2f %8.3f %e %g %G %E\\n", $1, $1, $1, $1, $1, $1, $1}', NUMBERS),
    ('{printf "%x %X %o %c%c %%\\n", $2, $2, $2, $1, $3}', TABLE),
    ('{printf "%s %s %s\\n", $1}', KEYS), ('{printf "no newline"}', KEYS),
    ('{printf "%d\\n", "12abc"; printf "%s\\n", 3.0; printf "%s\\n", 0.1 + 0.2}', b"x\n"),
    ('{printf $1 "\\n"}', KEYS), ('{printf "%%|%z|%\\n"}', b"x\n"),
    ('{printf "%+d % d %+.1f\\n", $2, $2, $2}', TABLE),
    ('BEGIN{printf "%c%c%c\\n", "hello", "", 65}', b""),
    ('BEGIN{printf "%s\\t%s\\\\%s\\"\\n", "a", "b", "c"}', b""),
]

OPTIONED = [
    (["-F", ":", "{print $1, $3, NF}"], PASSWD),
    (["-F:", "{print $2 \"|\" $NF}"], PASSWD),
    (["-F", "[:,]", "{print $2, NF}"], b"a:b,c\nd,e:f:g\n"),
    (["-F", ", *", "{print $2 \"|\" $3}"], b"a, b,   c\n"),
    (["-F", "\\t", "{print $2}"], b"a b\tc d\te\n"),
    (["-F", "\t", "{print $1}"], b"a b\tc d\n"),
    (["-F", "x", "{print NF, $1}"], b"axbxc\n\nxx\n"),
    (["-F", "|", "{print $2}"], b"a|b|c\n"),
    (["-F", ":", "-v", "OFS=-", "{$1 = $1; print}"], PASSWD),
    (["-F", ":", "$3 > 0 {print $1}"], PASSWD),
    (["-F", ":", "{$2 = \"Z\"; print; print NF}"], PASSWD),
    (["-v", "n=5", "{print $2 + n}"], TABLE),
    (["-v", "n=5", "-v", "s=hi there", "BEGIN{print n + 1, s, n s}"], b""),
    (["-v", "t=7", "$2 > t"], TABLE),
    (["-v", "t=7", "$2 == t {print \"eq\", $1}"], TABLE),
    (["-v", "re=^g", "$1 ~ re"], TABLE),
    (["-v", "x=010", "BEGIN{print x, x + 0, x == 10, x < 9}"], b""),
    (["-v", "FS=:", "{print $1}"], PASSWD),
    (["-v", "k=2", "{print $k, $(k + 1)}"], TABLE),
    (["-F"], b""), (["-v", "novalue", "{print}"], b""), ([], b""),
    (["{print"], KEYS), (["{print $}"], KEYS), (["BEGIN{x = }"], b""),
    (["{print 1 +* 2}"], KEYS), (["{exit = 1}"], KEYS), (["/unterminated"], KEYS),
    (["{if x print}"], KEYS), (["{print \"a\" \"}"], KEYS), (["{1 = 2}"], KEYS),
]


def random_expr(rng: random.Random, depth: int = 0) -> str:
    """A random numeric/string expression over TABLE's fields; comparisons
    take plain operands only, so neither side is a string constant."""
    leaves = ["$1", "$2", "$3", "NR", "NF", "3", "0.5", "10", "x", "$NF",
              '"s"', "length($1)", "-$2", "!$2", "i++", "++j"]
    if depth >= 2 or rng.random() < 0.3:
        return rng.choice(leaves)
    kind = rng.randrange(6)
    left, right = random_expr(rng, depth + 1), random_expr(rng, depth + 1)
    if kind == 0:
        return f"({left} {rng.choice('+-*')} {right})"
    if kind == 1 and rng.random() < 0.5:
        return f"({left} / {rng.choice(['4', '7', '0.5', 'NR'])})"
    if kind == 1:  # whole operands: the walker's % truncated the others
        whole = ["$2", "NR", "NF", "10", "3", "-$2", "length($1)"]
        return f"({rng.choice(whole)} % {rng.choice(['4', '7', 'NR'])})"
    if kind == 2:
        return f"({left} {right})"
    if kind == 3:
        plain = ["$1", "$2", "NR", "NF", "3", "10", "x", "$NF"]
        return (f"({rng.choice(plain)} {rng.choice(['<', '<=', '==', '!=', '>', '>='])}"
                f" {rng.choice(plain)})")
    if kind == 4:
        return f"({left} {rng.choice(['&&', '||'])} {right})"
    return f"({left} ? {right} : {rng.choice(leaves)})"


def cases() -> list[tuple[list[str], bytes]]:
    table = [([f"{pattern} {action}".strip()], TABLE)
             for pattern in PATTERNS for action in ACTIONS
             if pattern or action]
    table += [([program], data) for program, data in CURATED]
    table += OPTIONED
    rng = random.Random(18)
    table += [([f"{{print {random_expr(rng)}, {random_expr(rng)}}}"], TABLE)
              for _ in range(80)]
    table += [([f"{random_expr(rng)} {{print NR, $1}}"], TABLE)
              for _ in range(30)]
    return table


def render() -> str:
    rows = []
    for args, data in cases():
        status, stdout = run_filter(["awk"] + args, data)
        rows.append({"args": args, "stdin": data.decode("latin-1"),
                     "status": status, "stdout": stdout.decode("latin-1")})
    return json.dumps(rows, indent=0, ensure_ascii=True) + "\n"


if __name__ == "__main__":
    GOLDEN.write_text(render())
    print(f"wrote {GOLDEN} ({len(cases())} cases)")
