# jash-difftest divergence
# name: positional-break-case
# profile: expansion
# reason: a case pattern "$@" held the expander's field-break byte between positionals, not a space
# expect-status: 0
# expect-stdout: 'joined\n'
set -- a b
case 'a b' in
"$@") echo joined ;;
*) echo other ;;
esac
