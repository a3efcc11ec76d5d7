# jash-difftest divergence
# name: plan-status-middle-stage
# profile: pipeline
# reason: a PaSh/Jash plan returned a middle stage's own failure (grep with no match, exit 1) as the pipeline's status; the status is the last stage's, and parallel copies of it succeed when any copy does
# file f1.txt: 'the quick fox\na lazy cat\nthe bird\nCat nap\n'
# expect-status: 1
# expect-stdout: '0\n      1 Cat nap\n      1 a lazy cat\n0\n'
cat f1.txt | grep -i dog | sort | uniq -c
echo $?
cat f1.txt | grep -i cat | sort | uniq -c
echo $?
cat f1.txt | grep -i dog
