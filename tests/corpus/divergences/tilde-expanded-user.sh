# jash-difftest divergence
# name: tilde-expanded-user
# profile: expansion
# reason: a tilde prefix took expansion output as part of the user name (`~$u` became /home/$u)
# expect-status: 0
# expect-stdout: '~nobody/x\n'
u=nobody
echo ~$u/x
