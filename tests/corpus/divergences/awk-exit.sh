# jash-difftest divergence
# name: awk-exit
# profile: satellite
# reason: awk exit was not a keyword: it parsed as a read of a variable named exit, so the program ran on to the last record and the status was 0
# expect-status: 0
# expect-stdout: 'a\nend\n3\na\nend\n2\n'
printf 'a\nb\nc\n' | awk 'NR==2{exit} {print}'
printf 'a\nb\n' | awk 'BEGIN{exit 3} {print} END{print "end"}'
echo $?
printf 'a\nb\n' | awk '{print; exit 2} END{print "end"; exit; print "no"}'
echo $?
