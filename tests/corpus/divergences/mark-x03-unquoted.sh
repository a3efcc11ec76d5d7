# jash-difftest divergence
# name: mark-x03-unquoted
# profile: expansion
# reason: a \003 byte in expansion output was read as the expander's split mark and dropped
# expect-status: 0
# expect-stdout: 'a\x03b|c|'
x=$(printf 'a\003b c')
printf '%s|' $x
