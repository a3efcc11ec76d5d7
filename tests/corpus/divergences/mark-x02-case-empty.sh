# jash-difftest divergence
# name: mark-x02-case-empty
# profile: expansion
# reason: a case subject holding only \002 matched the pattern ""
# expect-status: 0
# expect-stdout: 'other\n'
x=$(printf '\002')
case $x in
"") echo empty ;;
*) echo other ;;
esac
