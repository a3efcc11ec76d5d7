# jash-difftest divergence
# name: arith-trailing-tokens
# profile: arith
# reason: an arithmetic error in a command's words ended only that command (status 1) and the script went on; sh exits with status 2
# expect-status: 2
# expect-stdout: ''
echo $((1 2))
echo after
