# jash-difftest divergence
# name: cut-list-order
# profile: satellite
# reason: cut walked LIST as a sequence: -f3,1 printed c:a (sh: a:c), -f1,1,2 printed a:a:b, -c5,2-3 printed ebc; LIST is a set of positions written once each in input order; and -d:: was accepted (sh: the delimiter must be a single character)
# file f1.txt: 'a:b:c:d:e\nnodelim\nx:y\n'
# expect-status: 0
# expect-stdout: 'a:c\nnodelim\nx\na:b\nnodelim\nx:y\n:bc\nodl\n:y\nb:c:d:e\nnodelim\ny\nb:c:d:e\ny\nab:c:d:e\nndelim\nxy\nrefused\n'
cut -d: -f3,1 f1.txt
cut -d: -f1,1,2 f1.txt
cut -c5,2-3 f1.txt
cut -d: -f2-3,5,3-4 f1.txt
cut -s -d: -f2- f1.txt
cut -c3-,1 f1.txt
cut -d:: -f1 f1.txt || echo refused
