# jash-difftest divergence
# name: sed-multiple-e
# profile: satellite
# reason: sed -e A -e B ran only B: the option parser kept the last -e
# file f1.txt: 'aaa b\nxyz\n'
# expect-status: 0
# expect-stdout: 'Aaa B\nxyz\nbaa b\ncaa b\n'
sed -e 's/a/A/' -e 's/b/B/' f1.txt
sed -n -e 's/a/b/p' -e 's/b/c/p' f1.txt
