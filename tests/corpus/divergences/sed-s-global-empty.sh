# jash-difftest divergence
# name: sed-s-global-empty
# profile: satellite
# reason: sed s///g went through re.sub, which takes an empty match directly after a match: 's/b*/X/g' over abc gave XaXXcX (sh: XaXcX), 's/[^ ]*/X/g' over 'a b' gave XX XX; the same rule counts matches for s///N and s///Ng
# file f1.txt: 'abc\na b\nbaaac\n\n'
# expect-status: 0
# expect-stdout: 'XaXcX\nXaX X\nXaXaXaXcX\nX\nX\nX X\nX\nX\naXc\naX b\nbaXaac\n\nab-c-\na -b-\nb-c-\n\n4\nbbc!\nb !\nbbbbc!\n!\n'
sed 's/b*/X/g' f1.txt
sed 's/[^ ]*/X/g' f1.txt
sed 's/b*/X/2' f1.txt
sed 's/a*/-/2g' f1.txt
sed -n 's/x*/y/gp' f1.txt | wc -l
sed 's/a/b/g;s/b*$/!/' f1.txt
