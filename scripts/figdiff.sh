#!/usr/bin/env bash
# figdiff.sh <rev> — "the figures are byte-identical" as a command.
#
# Builds cmd/experiments from <rev> (a temporary export of that commit;
# nothing in this checkout or its .git is touched) and from the working
# tree, runs both on this machine, and compares their standard output
# byte for byte. Exit 0 when identical; exit 1 with the first differing
# lines otherwise.
#
# Both sides run here because the deterministic tables are pinned per
# CPU feature set, not across machines (internal/nn/doc.go, "Kernel
# contract"). The figure pool trains networks concurrently, so this is
# also the check that catches scratch shared between networks — a
# mistake every package test passes.
set -euo pipefail
rev=${1:?usage: scripts/figdiff.sh <rev>}
cd "$(dirname "${BASH_SOURCE[0]}")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

commit=$(git rev-parse --verify "$rev^{commit}")
mkdir "$tmp/base"
git archive "$commit" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go build -o "$tmp/experiments.base" ./cmd/experiments)
go build -o "$tmp/experiments.head" ./cmd/experiments

"$tmp/experiments.base" >"$tmp/base.out"
"$tmp/experiments.head" >"$tmp/head.out"

if cmp -s "$tmp/base.out" "$tmp/head.out"; then
	echo "figdiff: cmd/experiments output ($(wc -l <"$tmp/head.out") lines) is byte-identical to $rev"
	exit 0
fi
echo "figdiff: cmd/experiments output differs from $rev; first differing lines (< $rev, > working tree):" >&2
diff "$tmp/base.out" "$tmp/head.out" | head -20 >&2 || true
exit 1
