# jash-difftest divergence
# name: sort-check
# profile: satellite
# reason: sort -c: with -u the test is strict (adjacent equal keys are disorder), a second operand is 'extra operand' (exit 2) instead of being ignored, and disorder is reported as FILE:LINE: disorder: LINE
# file f1.txt: 'a\nb\n'
# file f2.txt: 'b\na\n'
# expect-status: 2
# expect-stdout: '0\n1\n0\nsort: -:2: disorder: b\n1\n2\n0\nsort: f2.txt:2: disorder: a\n1\nsort: -:2: disorder: 1 a\n1\n0\nsort: -:2: disorder: 1 b\n1\n'
printf 'a\na\nb\n' | sort -c; echo $?
printf 'a\na\nb\n' | sort -cu; echo $?
printf 'b\nb\na\n' | sort -c -r; echo $?
printf 'b\nb\na\n' | sort -c -r -u 2>&1; echo $?
sort -c f1.txt f2.txt; echo $?
sort -c f1.txt; echo $?
sort -c f2.txt 2>&1; echo $?
printf '1 b\n1 a\n' | sort -c -k1,1 -n 2>&1; echo $?
printf '1 b\n1 b\n' | sort -c -k1,1 -n; echo $?
printf '1 b\n1 b\n' | sort -c -u -k1,1 -n 2>&1; echo $?
sort -cu f1.txt f1.txt
