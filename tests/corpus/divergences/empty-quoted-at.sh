# jash-difftest divergence
# name: empty-quoted-at
# profile: expansion
# reason: "$@" with no positionals gave one empty field instead of none; "a$@" and "$@""" keep one field
# expect-status: 0
# expect-stdout: '[x]\n0\n[a]\n[]\nend\n'
set --
printf '[%s]' "$@" x; echo
f() { echo $#; }
f "$@"
printf '[%s]' "a$@"; echo
printf '[%s]' "$@"""; echo
for a in "$@"; do echo "[$a]"; done
echo end
