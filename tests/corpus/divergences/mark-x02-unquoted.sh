# jash-difftest divergence
# name: mark-x02-unquoted
# profile: expansion
# reason: a \002 byte in expansion output was read as the expander's empty-quote mark and dropped
# expect-status: 0
# expect-stdout: 'a\x02b|'
x=$(printf 'a\002b')
printf '%s|' $x
