#!/usr/bin/env sh
# loc.sh [rev] — non-test source lines (.go/.s/.sh, *_test.go and testdata
# excluded) per package for the tree excluding benchmark/. With a rev it also
# prints that revision's count and the per-package delta, read with
# git ls-tree / git show — no checkout. Run via `make loc` or directly; the
# line-count claim a PR makes is this script's output.
set -eu

cd "$(dirname "$0")/.."

# keep filters a file list on stdin down to the counted sources.
keep() {
	grep -E '\.(go|s|sh)$' | grep -vE '(^|/)benchmark/|_test\.go$|(^|/)testdata/' || true
}

# count reads "lines path" pairs and prints "package lines", package = dir.
count() {
	awk '{ n = split($2, p, "/"); d = n > 1 ? substr($2, 1, length($2) - length(p[n]) - 1) : "."; s[d] += $1 }
		END { for (d in s) print d, s[d] }' | sort
}

work() {
	git ls-files --cached --others --exclude-standard | keep | while read -r f; do
		[ -f "$f" ] && echo "$(wc -l <"$f") $f"
	done | count
}

at() {
	git ls-tree -r --name-only "$1" | keep | while read -r f; do
		echo "$(git show "$1:$f" | wc -l) $f"
	done | count
}

if [ $# -eq 0 ]; then
	work | awk '{ printf "%-28s %7d\n", $1, $2; t += $2 } END { printf "%-28s %7d\n", "total", t }'
	exit 0
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
at "$1" >"$tmp/old"
work >"$tmp/new"
printf '%-28s %7s %7s %7s\n' package "$(git rev-parse --short "$1")" tree delta
join -a 1 -a 2 -e 0 -o 0,1.2,2.2 "$tmp/old" "$tmp/new" |
	awk '{ printf "%-28s %7d %7d %+7d\n", $1, $2, $3, $3 - $2; o += $2; n += $3 }
		END { printf "%-28s %7d %7d %+7d\n", "total", o, n, n - o }'
