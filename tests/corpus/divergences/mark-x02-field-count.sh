# jash-difftest divergence
# name: mark-x02-field-count
# profile: expansion
# reason: a value holding only \002 was read as an empty quote: the field vanished
# expect-status: 0
# expect-stdout: '1\n'
x=$(printf '\002')
set -- $x
echo $#
