# jash-difftest divergence
# name: arith-trailing-value
# profile: arith
# reason: a variable holding 1 2 in $((x)) is a syntax error: the script must end with status 2, not go on
# expect-status: 2
# expect-stdout: ''
x="1 2"
echo $((x))
echo after
