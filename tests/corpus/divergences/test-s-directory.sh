# jash-difftest divergence
# name: test-s-directory
# profile: satellite
# reason: test -s asked for a regular file, so a directory (empty or not) read as size zero and -s was false; sh reports a directory's nonzero size
# expect-status: 0
# expect-stdout: '0\n0\n1\n0\n1\n'
mkdir -p d e; touch d/a f; printf x > g
[ -s d ]; echo $?
[ -s e ]; echo $?
[ -s f ]; echo $?
[ -s g ]; echo $?
[ -s missing ]; echo $?
