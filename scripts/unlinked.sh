#!/bin/sh
# unlinked.sh — lists every func declared in a non-test file under
# internal/ that no main package links, with its line count and a total,
# and fails when one is not in scripts/unlinked.allow.
#
# Every main package (the commands, the examples, and cmd/windowbench
# from its own module) is built with inlining off, so that no call is
# hidden inside its caller, and the union of their `go tool nm` text
# symbols is compared with the declarations. Symbol names are reduced to
# pkg.Func or pkg.Type.Method: pointer receivers, type-parameter lists
# (`(*Queue[go.shape.bool]).Push` is `Queue.Push`), closures (`.func1`),
# method-value wrappers (`-fm`) and numbered inits (`init.0`) all map to
# the function that declares them. The linker keeps methods
# conservatively, so the list can miss a dead method but never names
# code a binary runs.
#
# Each line of unlinked.allow is `pkg.Name  # reason` or
# `pkg.Type.*  # reason`: a test oracle used across packages, or API
# reached only from the root windowctl package.
#
# Usage: ./scripts/unlinked.sh
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for pkg in $(go list -f '{{if eq .Name "main"}}{{.Dir}}{{end}}' ./...); do
    go build -gcflags=all=-l -o "$tmp/bin.$(basename "$pkg")" "$pkg"
done
(cd cmd/windowbench && go build -gcflags=all=-l -o "$tmp/bin.windowbench" .)

for bin in "$tmp"/bin.*; do
    go tool nm "$bin" | awk '$2 == "T" || $2 == "t" { print $3 }'
done |
    grep '^windowctl/internal/' |
    sed -e ':a' -e 's/\[[^][]*\]//' -e 'ta' -e 's/(\*\([A-Za-z0-9_]*\))/\1/g' \
        -e 's/-fm$//' -e 's/\.func[0-9.]*$//' -e 's/\.gowrap[0-9]*$//' \
        -e 's/\.init\.[0-9]*$/.init/' \
        -e 's|^windowctl/internal/||' |
    sort -u >"$tmp/linked"

# Declarations: pkg.Name or pkg.Type.Name, with the declaration's lines
# (from the func line to its closing brace at column 0).
find internal -name '*.go' ! -name '*_test.go' | sort | while read -r f; do
    pkg=$(dirname "${f#internal/}")
    awk -v pkg="$pkg" -v file="$f" '
        /^func / {
            line = $0
            recv = ""
            if (line ~ /^func \(/) {
                r = line
                sub(/^func \([^)]*\) */, "", line)
                sub(/^func \(/, "", r); sub(/\).*/, "", r)
                n = split(r, parts, " "); recv = parts[n]
                sub(/^\*/, "", recv); sub(/\[.*/, "", recv)
                recv = recv "."
            } else {
                sub(/^func /, "", line)
            }
            name = line; sub(/[\[(].*/, "", name)
            key = pkg "." recv name
            start = NR
            if ($0 ~ /}$/) { print key, 1, file ":" start; next }
            open = 1
            next
        }
        open && /^}/ { print key, NR - start + 1, file ":" start; open = 0 }
    ' "$f"
done | sort >"$tmp/decls"

awk 'NR == FNR { linked[$1] = 1; next } !($1 in linked)' "$tmp/linked" "$tmp/decls" >"$tmp/unlinked"

sed -e 's/[[:space:]]*#.*$//' -e '/^[[:space:]]*$/d' scripts/unlinked.allow | sort -u >"$tmp/allow"

# A function is allowed by its own entry or by a `pkg.Type.*` entry. An
# entry that allows no unlinked function is stale: the function is linked
# now, or gone.
awk -v allowfile="$tmp/allow" '
    BEGIN { while ((getline a < allowfile) > 0) allow[a] = 0 }
    {
        owner = $1; sub(/\.[^.]*$/, ".*", owner)
        hit = ($1 in allow) ? $1 : ((owner in allow) ? owner : "")
        if (hit != "") allow[hit]++
        printf "%-8s %4d  %-50s %s\n", (hit != "") ? "allowed" : "UNLISTED", $2, $1, $3
        total += $2; n++
        if (hit == "") { bad++; badlines += $2 }
    }
    END {
        printf "total: %d unlinked functions, %d lines; %d not in scripts/unlinked.allow (%d lines)\n", n, total, bad + 0, badlines + 0
        for (a in allow) if (allow[a] == 0) { printf "stale entry in scripts/unlinked.allow: %s\n", a; stale++ }
        if (bad > 0) print "unlinked.sh: delete each UNLISTED function, or allow it with a one-line reason"
        exit bad + stale > 0
    }
' "$tmp/unlinked"
