# jash-difftest divergence
# name: sort-missing-operand
# profile: satellite
# reason: sort on an operand that does not exist died of an uncaught VosError: status 1, empty stderr, in plain, keyed, -m and -c modes alike; sh says 'sort: cannot read: FILE: No such file or directory' and exits 2 with nothing on stdout and no -o FILE created
# file f1.txt: 'b\na\n'
# expect-status: 2
# expect-stdout: '2\n2\n2\n2\n2\n1\n0\n'
sort nosuch.txt; echo $?
sort -m nosuch.txt f1.txt; echo $?
sort -k1 f1.txt nosuch.txt; echo $?
sort -c nosuch.txt; echo $?
sort -o out.txt f1.txt nosuch.txt; echo $?
[ -e out.txt ]; echo $?
sort nosuch.txt | wc -l
sort f1.txt nosuch.txt
