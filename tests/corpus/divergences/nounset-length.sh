# jash-difftest divergence
# name: nounset-length
# profile: expansion
# reason: under set -u, ${#x} of an unset x printed 0 and the script went on; sh aborts with status 2
# expect-status: 2
# expect-stdout: ''
set -u
echo ${#x}
echo after
