# jash-difftest divergence
# name: sed-s-template
# profile: satellite
# reason: sed handed its replacement to re's template parser: '\&' printed a backslash and the match, '\\' a backslash and the separator; the script was split on every ';' before it was parsed, so s/;/x/ was refused; the unterminated s/a/b was accepted; a print flag printed after the autoprint instead of at the command
# file f1.txt: 'hello;world\n'
# expect-status: 0
# expect-stdout: '&ello;world\n\\ello;world\nhelloxworld\n\ne[ll][ll]o;wor[ll]d\nhe|l;;w;rld\n[h]ello;world\njello;world\nkello;world\nhello;world\nrefused\nrefused\n'
sed 's/h/\&/' f1.txt
sed 's/h/\\/' f1.txt
sed 's/;/x/' f1.txt
sed 's/l/[&&]/g;s/h/\n/' f1.txt
sed 's|l|\||;s/o/;/g' f1.txt
sed 's/\(h\)\(z\)*/[\2\1]/' f1.txt
sed 's/h/j/p;s/j/k/' f1.txt
sed '/h/p;/h/d' f1.txt
sed 's/a/b' f1.txt || echo refused
sed 's/h/\2/' f1.txt || echo refused
