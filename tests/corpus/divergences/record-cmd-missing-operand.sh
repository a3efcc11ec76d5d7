# jash-difftest divergence
# name: record-cmd-missing-operand
# profile: satellite
# reason: awk, sed and cut on an operand that does not exist died of an uncaught VosError: status 1 and an empty stderr; sh says 'NAME: FILE: No such file or directory' and the status is the command's failure (cut 1, sed and awk 2 on the host, so only the class is pinned)
# file f1.txt: 'a b\n'
# expect-status: 0
# expect-stdout: 'failed\nfailed\nfailed\na\nfailed\n1\n0\n0\n'
cut -c1 nosuch.txt || echo failed
sed 's/a/b/' nosuch.txt || echo failed
awk '{print}' nosuch.txt || echo failed
cut -c1 nosuch.txt f1.txt || echo failed
sed -n '/a/p' nosuch.txt f1.txt | wc -l
awk '{print}' nosuch.txt | wc -l
cut -c1 nosuch.txt | wc -l
