# jash-difftest divergence
# name: positional-break-heredoc
# profile: expansion
# reason: "$@" in a here-document body printed the expander's field-break byte between positionals
# expect-status: 0
# expect-stdout: 'a b and a b\n'
set -- a b
cat <<EOF
$@ and $*
EOF
