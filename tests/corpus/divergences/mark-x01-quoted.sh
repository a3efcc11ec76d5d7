# jash-difftest divergence
# name: mark-x01-quoted
# profile: expansion
# reason: a \001 byte in quoted expansion output was read as the expander's field-break mark and dropped
# expect-status: 0
# expect-stdout: 'a\x01b|'
x=$(printf 'a\001b')
printf '%s|' "$x"
