# jash-difftest divergence
# name: sed-s-occurrence
# profile: satellite
# reason: sed s///N dropped N and substituted the first match; N with g starts at the Nth
# file f1.txt: 'aaa\naXbXc\nq\nr\n'
# expect-status: 0
# expect-stdout: 'aba\naXbXc\nq\nr\nabb\naXbXc\nq\nr\naXb-c\n3\n'
sed 's/a/b/2' f1.txt
sed 's/a/b/2g' f1.txt
sed -n 's/X/-/2p' f1.txt
sed 3q f1.txt | wc -l
