# jash-difftest divergence
# name: mark-x01-unquoted
# profile: expansion
# reason: a \001 byte in expansion output was read as the expander's field-break mark and split the field
# expect-status: 0
# expect-stdout: 'a\x01b|'
x=$(printf 'a\001b')
printf '%s|' $x
