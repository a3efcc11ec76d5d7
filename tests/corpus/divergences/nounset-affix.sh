# jash-difftest divergence
# name: nounset-affix
# profile: expansion
# reason: under set -u, ${x#a}, ${x##a}, ${x%a} and ${x%%a} of an unset x expanded to nothing; sh aborts the (sub)shell with status 2
# expect-status: 0
# expect-stdout: '2\n2\n2\n2\nbc ab 3\n'
set -u
(echo ${x#a}); echo $?
(echo ${x##a}); echo $?
(echo ${x%a}); echo $?
(echo ${x%%a}); echo $?
x=abc; echo ${x#a} ${x%%c} ${#x}
