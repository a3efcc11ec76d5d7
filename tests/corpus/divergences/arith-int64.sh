# jash-difftest divergence
# name: arith-int64
# profile: arith
# reason: arithmetic was unbounded and divided through a float: overflow did not wrap, 1<<99999999 crashed, / and % lost precision above 2**53
# expect-status: 0
# expect-stdout: '-9223372036854775808\n1\n-9223372036854775808\n9007199254740993\n7\n'
echo $((9223372036854775807+1))
echo $((1<<64))
echo $((1<<99999999))
echo $((9007199254740993/1))
echo $((9223372036854775807%10))
