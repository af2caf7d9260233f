#!/usr/bin/env bash
# Code lines and public configuration setters per crate: one rule for every
# simplicity PR's "net LOC" line, one for its "how many options" line.
#
# A code line is a line of a `crates/*/src/**/*.rs` file that is not blank,
# does not start with `//` (so doc and plain comments are out) and sits
# above the file's test module (an unindented `#[cfg(test)]` followed by
# `mod`; a `#[cfg(test)]` on any other item counts as code). A setter is a
# code line declaring a `pub fn` named `set_*`, `with_*`, `enable_*`,
# `arm_*` or `install_*`.
#
#   scripts/loc.sh             # working tree
#   scripts/loc.sh <git-ref>   # <git-ref>, working tree and the delta, plus
#                              #   one row per file whose count changed
set -euo pipefail
cd "$(dirname "$0")/.."

ref="${1:-}"
if [ -n "$ref" ]; then
    git rev-parse --verify --quiet "$ref^{commit}" > /dev/null || {
        echo "loc.sh: not a commit: $ref" >&2
        exit 2
    }
fi

SETTER='pub fn (set_|with_|enable_|arm_|install_)'

count_lines() { # one file on stdin -> count of its code lines matching $pat
    awk -v pat="$pat" '/^#\[cfg\(test\)\]/ { held = 1; next }
         held { held = 0; if ($0 ~ /^mod /) exit; n += ($0 ~ pat) }
         NF && $1 !~ /^\/\// { n += ($0 ~ pat) }
         END { print n + 0 }'
}

# "<path> <count>" per .rs file under $1, in the working tree / at $ref.
tree_counts() {
    find "$1" -name '*.rs' | sort | while read -r f; do
        echo "$f $(count_lines < "$f")"
    done
}
ref_counts() {
    git ls-tree -r --name-only "$ref" -- "$1" | grep '\.rs$' | while read -r f; do
        echo "$f $(git show "$ref:$f" | count_lines)"
    done
}

table() { # <column title> <awk pattern a counted code line must match>
    pat="$2"
    if [ -z "$ref" ]; then
        printf '%-28s %8s\n' "crate" "$1"
    else
        printf '%-28s %8s %8s %7s\n' "crate ($1)" "$ref" "tree" "delta"
    fi
    total_old=0
    total_new=0
    for src in crates/*/src; do
        new="$(tree_counts "$src")"
        n_new="$(awk '{ n += $2 } END { print n + 0 }' <<< "$new")"
        total_new=$((total_new + n_new))
        if [ -z "$ref" ]; then
            printf '%-28s %8d\n' "$src" "$n_new"
            continue
        fi
        old="$(ref_counts "$src")"
        n_old="$(awk '{ n += $2 } END { print n + 0 }' <<< "$old")"
        total_old=$((total_old + n_old))
        printf '%-28s %8d %8d %+7d\n' "$src" "$n_old" "$n_new" "$((n_new - n_old))"
        # Files whose count moved (a file on one side only counts 0 on the other).
        join -a1 -a2 -e0 -o 0,1.2,2.2 <(sort <<< "$old") <(sort <<< "$new") |
            awk -v src="$src/" '$2 != $3 {
                sub(src, "", $1)
                printf "  %-26s %8d %8d %+7d\n", $1, $2, $3, $3 - $2
            }'
    done
    if [ -z "$ref" ]; then
        printf '%-28s %8d\n' "total" "$total_new"
    else
        printf '%-28s %8d %8d %+7d\n' "total" "$total_old" "$total_new" "$((total_new - total_old))"
    fi
}

table code ''
echo
table setters "$SETTER"
