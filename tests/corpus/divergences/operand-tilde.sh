# jash-difftest divergence
# name: operand-tilde
# profile: expansion
# reason: a leading ~ of ${x:-word}'s operand was tilde-expanded only at the start of the whole word
# expect-status: 0
# expect-stdout: 'a/h/b ~\n'
HOME=/h
unset x
echo a${x:-~/b} "${x:-~}"
