#!/bin/sh
# checkdocs.sh asserts that every package under internal/ and cmd/
# (and the root package) carries a package comment — the architecture
# contract this repo documents in per-package doc.go files; commands
# document themselves with a "// Command <name> ..." comment on main —
# and that every Test*, Fuzz* or Benchmark* name the verify skill,
# README.md or a doc.go quotes still names a test function. CI runs
# this after gofmt; it fails listing the undocumented packages and,
# with file:line, the stale names.
set -eu
cd "$(dirname "$0")/.."

fail=0
for dir in $(go list -f '{{.Dir}}' ./internal/... ./cmd/... ./); do
    ok=0
    for f in "$dir"/*.go; do
        case "$f" in *_test.go) continue ;; esac
        if grep -q '^// \(Package\|Command\) ' "$f"; then
            ok=1
            break
        fi
    done
    if [ "$ok" -eq 0 ]; then
        echo "missing package comment: $dir" >&2
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "checkdocs: add a package comment (doc.go, or '// Command ...' for a cmd) to the packages above" >&2
    exit 1
fi
echo "checkdocs: every internal and cmd package has a package comment"

# A quoted name must be a whole test name, as in gates.sh: a -run
# pattern is quoted as its alternatives (TestPublish|TestRelease), and a
# deleted test does not stay quoted behind a longer name.
funcs=$(grep -rhoE --include='*_test.go' '^func (Test|Fuzz|Benchmark)[A-Za-z0-9_]*' . | cut -d' ' -f2 | sort -u)
docs=$(find . -name doc.go -not -path './.git/*')
stale=$(grep -noE '\b(Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*' .claude/skills/verify/SKILL.md README.md $docs |
    while IFS=: read -r file line name; do
        printf '%s\n' "$funcs" | grep -qx "$name" || echo "$file:$line: $name names no test function"
    done)
if [ -n "$stale" ]; then
    echo "$stale" >&2
    echo "checkdocs: rename or drop the stale test names above" >&2
    exit 1
fi
echo "checkdocs: every test name in the verify skill, README.md and doc.go files names a test"
