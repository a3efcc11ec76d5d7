# jash-difftest divergence
# name: cat-input-is-output
# profile: coreutils
# reason: cat f >> f copied f onto its own growing end and never returned; GNU cat skips such an operand with "input file is output file" and exits 1, while cat f > f reads the emptied file and exits 0
# expect-status: 0
# expect-stdout: 'status 1\na\nb\nstatus 0\n0\n'
printf 'a\nb\n' > f
cat f >> f; echo "status $?"
cat f
cat f > f; echo "status $?"
wc -c < f
