# jash-difftest divergence
# name: test-argument-counts
# profile: control
# reason: test and [ with up to four arguments read an operand that looks like an operator as a string (POSIX argument counts): [ -n ] and [ -f ] were false, [ ! -n ] true, [ ! = x ] a usage error
# expect-status: 0
# expect-stdout: '0\n0\n1\n1\n0\n0\n'
[ -n ]; echo $?
[ -f ]; echo $?
[ ! -n ]; echo $?
[ ! = x ]; echo $?
test "(" -z ")"; echo $?
[ ! "" ]; echo $?
