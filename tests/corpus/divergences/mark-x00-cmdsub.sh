# jash-difftest divergence
# name: mark-x00-cmdsub
# profile: expansion
# reason: a NUL byte in substitution output was read as the expander's quote mark: the next character lost its meaning (sh drops the NUL)
# expect-status: 0
# expect-stdout: 'g/a\n'
mkdir -p g
: > g/a
echo $(printf 'g/\000*')
