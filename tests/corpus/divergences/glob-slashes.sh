# jash-difftest divergence
# name: glob-slashes
# profile: expansion
# reason: pathname expansion dropped empty components and a trailing /: `*/` listed files too and `d//*.txt` lost a slash
# expect-status: 0
# expect-stdout: 'd/ dev/ tmp/\nd//a.txt ./d//a.txt\n'
mkdir -p d dev tmp
: > e
: > d/a.txt
echo */
echo d//*.txt ./d//*.txt
