#!/usr/bin/env bash
# Lists the non-test Go functions that no program of the module links.
#
# The programs are every main package: the cmd/ daemons and tools, the
# examples/ and the bench driver (its own module). Each is built with
# inlining off (-gcflags=all=-l), so every function it calls keeps a text
# symbol, and `go tool nm` lists them. A declaration is a `func` line of a
# gofmt'd non-test file outside bench/; it is reached when some program
# lists it. A method counts under either receiver form, and a closure,
# method value or generic instance counts for the function that holds it.
#
# Prints each unreached declaration with its file, line and size (doc
# comment to closing brace). Fails when one is not in scripts/unreached.allow,
# or when an allow-listed name is reached or no longer declared.
#
#   scripts/unreached.sh [SYMDIR]
#
# With SYMDIR, each program's sorted laxgpu/... and main. text-symbol list is
# kept there as <program>.syms. Two revisions whose lists are identical link
# the same functions into every program.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
symdir="${1:-$work/syms}"
mkdir -p "$symdir" "$work/bin"

# "import/path dir" of every program.
{
    go list -f '{{if eq .Name "main"}}{{.ImportPath}} {{.Dir}}{{end}}' ./...
    go list -C bench -f '{{if eq .Name "main"}}{{.ImportPath}} {{.Dir}}{{end}}' ./...
} | sed '/^$/d' > "$work/programs"

# reach: one "pkg.Func" or "pkg.Type.Method" key per reached function, with
# a program's main. symbols renamed to its import path.
: > "$work/reach"
while read -r path dir; do
    prog="$(basename "$path")"
    go build -C "$dir" -gcflags=all=-l -o "$work/bin/$prog" .
    go tool nm "$work/bin/$prog" |
        awk '$2 == "T" || $2 == "t" { sub(/^ *[0-9a-f]+ [Tt] /, ""); print }' |
        grep -E '^(laxgpu|main\.)' | LC_ALL=C sort > "$symdir/$prog.syms"
    awk -v path="$path" '
        {
            s = $0
            if (substr(s, 1, 5) == "main.") s = path substr(s, 5)
            # Drop generic shapes, which nest and hold dots and spaces.
            out = ""; depth = 0
            for (i = 1; i <= length(s); i++) {
                c = substr(s, i, 1)
                if (c == "[") depth++
                else if (c == "]") depth--
                else if (depth == 0) out = out c
            }
            gsub(/\(\*|\)/, "", out)
            slash = 0
            for (i = length(out); i > 0; i--) if (substr(out, i, 1) == "/") { slash = i; break }
            dot = index(substr(out, slash + 1), ".") + slash
            pkg = substr(out, 1, dot - 1)
            n = split(substr(out, dot + 1), part, ".")
            for (i = 1; i <= n; i++) sub(/-fm$/, "", part[i])
            print pkg "." part[1]
            if (n > 1) print pkg "." part[1] "." part[2]
        }' "$symdir/$prog.syms" >> "$work/reach"
done < "$work/programs"
LC_ALL=C sort -u -o "$work/reach" "$work/reach"

# decls: "key file:line lines" for every non-test func outside bench/.
find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' \
    -not -path '*/testdata/*' | LC_ALL=C sort |
while read -r f; do
    d="$(dirname "$f")"
    pkg="laxgpu${d#.}"
    gofmt < "$f" | awk -v pkg="$pkg" -v file="${f#./}" '
        /^\/\// { if (!incomment) docstart = NR; incomment = 1; next }
        { wasdoc = incomment; incomment = 0 }
        /^func / {
            rest = substr($0, 6); recv = ""
            if (substr(rest, 1, 1) == "(") {
                recv = substr(rest, 2, index(rest, ")") - 2)
                rest = substr(rest, index(rest, ")") + 2)
                sub(/\[.*/, "", recv)
                sub(/.* /, "", recv); sub(/^\*/, "", recv)
            }
            name = rest; sub(/[[(].*/, "", name)
            if (recv == "" && (name == "init" || name == "main")) { name = ""; next }
            key = pkg "." (recv == "" ? "" : recv ".") name
            line = NR; start = wasdoc ? docstart : NR
            if ($0 ~ /}$/) { print key, file ":" line, NR - start + 1; name = "" }
            next
        }
        /^}/ && name != "" { print key, file ":" line, NR - start + 1; name = "" }'
done > "$work/decls"

awk '$1 !~ /^(#|$)/ { print $1 }' scripts/unreached.allow | LC_ALL=C sort -u > "$work/allow"

fail=0
total=0; lines=0; allowed=0
while read -r key at n; do
    if grep -qxF "$key" "$work/reach"; then
        if grep -qxF "$key" "$work/allow"; then
            echo "reached but allow-listed: $key ($at)"; fail=1
        fi
        continue
    fi
    total=$((total + 1)); lines=$((lines + n))
    if grep -qxF "$key" "$work/allow"; then
        allowed=$((allowed + 1)); echo "allowed  $key  $at  $n lines"
    else
        echo "UNREACHED  $key  $at  $n lines"; fail=1
    fi
done < "$work/decls"
awk '{ print $1 }' "$work/decls" | LC_ALL=C sort -u > "$work/declared"
while read -r key; do
    grep -qxF "$key" "$work/declared" || { echo "allow-listed but not declared: $key"; fail=1; }
done < "$work/allow"

echo "$total declarations ($lines lines) in no program of $(wc -l < "$work/programs"); $allowed allow-listed"
exit "$fail"
