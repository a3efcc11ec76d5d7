# jash-difftest divergence
# name: operand-split
# profile: expansion
# reason: the unquoted operand of ${x:-word} and ${x+word} was kept as the word's own text and never field-split
# expect-status: 0
# expect-stdout: 'a|b|c|d|e f|'
unset x
printf '%s|' ${x:-a b} ${x+c d}
x=1
printf '%s|' ${x+c d} ${x+"e f"}
