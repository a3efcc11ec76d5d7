# jash-difftest divergence
# name: getopts-optind-past-end
# profile: replay
# reason: OPTIND past the end of a shorter argument list reported end-of-options; sh restarts the scan at 1 (OPTIND == nargs + 1 still ends)
# expect-status: 0
# expect-stdout: 'o:n:42\no:v:\nind=4\no:x:\no:y:\nind=3\nind=3\nfrom2:y\nind=3\n'
while getopts n:v o -n 42 -v; do echo o:$o:$OPTARG; done
echo ind=$OPTIND
while getopts xy o -x -y; do echo o:$o:$OPTARG; done
echo ind=$OPTIND
while getopts xy o -x -y; do echo again:$o; done
echo ind=$OPTIND
OPTIND=2
while getopts xy o -x -y; do echo from2:$o; done
echo ind=$OPTIND
