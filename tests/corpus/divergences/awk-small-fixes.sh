# jash-difftest divergence
# name: awk-small-fixes
# profile: satellite
# reason: awk: 'print length' without parentheses printed an empty line; "2" < "10" compared as numbers (string constants compare as strings, fields stay strnum); assigning NF did not rebuild $0; a trailing OFS=- operand was opened as a file; a subscript was evaluated for the read and again for the write of a[i++]++; % truncated its operands; gsub took the empty match after a match
# file f1.txt: 'a b c\n'
# expect-status: 0
# expect-stdout: '3\n0 1\n1 0\na b\n2\na-b-c\na:b:c\na-b-c\np-q\n1 1\n1.9 1 -1\nXaXcX\n'
printf 'abc\n' | awk '{print length}'
awk 'BEGIN{print ("2" < "10"), (2 < 10)}'
printf '2 10\n' | awk '{print ($1 < $2), ($1 < "10")}'
awk '{NF=2; print; print NF}' f1.txt
awk '{$1=$1; print}' OFS=- f1.txt
awk '{$1=$1; print}' OFS=: f1.txt OFS=- f1.txt
printf 'p q\n' | awk '{$1=$1; print}' OFS=-
awk 'BEGIN{a[i++]++; print i, a[0]}'
awk 'BEGIN{print 7.9 % 3, 7 % -3, -7 % 3}'
printf 'abc\n' | awk '{gsub(/b*/, "X"); print}'
