# jash-difftest divergence
# name: mark-x03-ifs
# profile: expansion
# reason: IFS holding \003 never split: the byte was the expander's split mark
# expect-status: 0
# expect-stdout: 'a|b|'
IFS=$(printf '\003')
x=$(printf 'a\003b')
printf '%s|' $x
