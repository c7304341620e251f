#!/usr/bin/env bash
# Size report: code lines and `pub` items per crate and per source file.
#
#   scripts/loc.sh               print the table (what LOC.tsv holds)
#   scripts/loc.sh --check       exit 1 when LOC.tsv differs from it
#   scripts/loc.sh --diff <ref>  rows that differ from LOC.tsv at git <ref>,
#                                as "before -> after (delta)" per column
#   scripts/loc.sh --unused-pub  each `pub` declaration in crates/*/src whose
#                                name appears nowhere outside its crate's
#                                library sources, as "file:line kind name"
#
# A code line is a line of `src/**/*.rs` that is neither blank nor a `//`
# comment (doc comments included) and lies above the file's trailing
# `#[cfg(test)] mod` block. A `pub` item is a `pub fn|struct|enum|trait|
# type|const|static|mod|use` declaration above that block; `pub(crate)`
# and `pub` fields are not counted.
#
# --unused-pub reads the same declarations, top-level or in an `impl`
# (for a `pub use`, the names it exports). "Outside" is every other
# crate, the crate's own tests/, benches/, examples/ and src/bin/, the
# facade src/, the root tests/ and examples/, and benchmark/src. A name
# counts as used when it appears there as a whole word anywhere, so a
# shared name such as `new` is never reported: the report lists sure
# candidates, not every one.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # file -> "<code lines>\t<pub items>"
  awk '
    /^#\[cfg\(test\)\]/ { held = 1; next }
    held && /^mod / { exit }
    held { code++; held = 0 }
    /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { code++ }
    /^[[:space:]]*pub ((async|unsafe|const) )*(fn|struct|enum|trait|type|const|static|mod|use) / { pubs++ }
    END { printf "%d\t%d", code, pubs }
  ' "$1"
}

table() {
  printf 'path\tcode_lines\tpub_items\n'
  for dir in src crates/*/src; do
    files=$(find "$dir" -name '*.rs' | LC_ALL=C sort)
    rows=$(for f in $files; do printf '%s\t%s\n' "$f" "$(count "$f")"; done)
    printf '%s\n' "$rows" | awk -F'\t' -v dir="$dir" \
      '{ c += $2; p += $3 } END { printf "%s\t%d\t%d\n", dir, c, p }'
    printf '%s\n' "$rows"
  done
}

diff_table() { # git ref -> changed crates and files, deleted ones included
  git cat-file -e "$1:LOC.tsv" || { echo "no LOC.tsv at $1" >&2; exit 2; }
  printf 'path\tcode_lines\tpub_items\n'
  awk -F'\t' '
    FNR == 1 { next }
    NR == FNR { oc[$1] = $2; op[$1] = $3; paths[$1]; next }
    { nc[$1] = $2; np[$1] = $3; paths[$1] }
    END {
      for (p in paths) {
        a = oc[p] + 0; b = nc[p] + 0; c = op[p] + 0; d = np[p] + 0
        if (a != b || c != d)
          printf "%s\t%d -> %d (%+d)\t%d -> %d (%+d)\n", p, a, b, b - a, c, d, d - c
      }
    }' <(git show "$1:LOC.tsv") <(table) | LC_ALL=C sort
}

decls() { # files -> "file:line<TAB>kind<TAB>name" per pub declaration
  awk '
    FNR == 1 { held = 0; done = 0; use = "" }
    done { next }
    /^#\[cfg\(test\)\]/ { held = 1; next }
    held && /^mod / { done = 1; next }
    { held = 0 }
    use != "" { use = use " " $0; if (use ~ /;/) emit_use(); next }
    /^[[:space:]]*pub use / { at = FILENAME ":" FNR; use = $0; if (use ~ /;/) emit_use(); next }
    /^[[:space:]]*pub ((async|unsafe|const) )*(fn|struct|enum|trait|type|const|static|mod) / {
      s = $0
      sub(/^[[:space:]]*pub /, "", s)
      while (s ~ /^(async|unsafe|const) (async|unsafe|const|fn) /) sub(/^[a-z]+ /, "", s)
      kind = s; sub(/ .*/, "", kind)
      sub(/^[a-z]+ /, "", s); match(s, /^[A-Za-z_][A-Za-z0-9_]*/)
      printf "%s:%d\t%s\t%s\n", FILENAME, FNR, kind, substr(s, 1, RLENGTH)
    }
    function emit_use(   s, n, i, parts, name) {
      s = use; use = ""
      sub(/^[[:space:]]*pub use /, "", s); sub(/;.*/, "", s)
      if (s ~ /\{/) { sub(/^[^{]*\{/, "", s); sub(/\}.*/, "", s) }
      n = split(s, parts, ",")
      for (i = 1; i <= n; i++) {
        name = parts[i]; gsub(/^[[:space:]]+|[[:space:]]+$/, "", name)
        sub(/.*[[:space:]]as[[:space:]]+/, "", name); sub(/.*::/, "", name)
        if (name != "" && name != "*" && name != "self")
          printf "%s\tuse\t%s\n", at, name
      }
    }
  ' "$@"
}

unused_pub() {
  words=$(mktemp)
  trap 'rm -f "$words"' EXIT
  for dir in crates/*/src; do
    { find src tests examples benchmark/src crates -name '*.rs' -not -path "$dir/*"
      find "$dir" -path "$dir/bin/*" -name '*.rs'; } |
      xargs cat | grep -ow '[A-Za-z_][A-Za-z0-9_]*' | LC_ALL=C sort -u >"$words"
    # shellcheck disable=SC2046
    decls $(find "$dir" -name '*.rs' -not -path "$dir/bin/*" | LC_ALL=C sort) |
      awk -F'\t' 'NR == FNR { used[$0]; next } !($3 in used)' "$words" -
  done
}

if [ "${1:-}" = "--check" ]; then
  if ! table | diff -u LOC.tsv - >&2; then
    echo "LOC.tsv is stale: run scripts/loc.sh > LOC.tsv" >&2
    exit 1
  fi
elif [ "${1:-}" = "--diff" ]; then
  diff_table "${2:?usage: scripts/loc.sh --diff <git-ref>}"
elif [ "${1:-}" = "--unused-pub" ]; then
  unused_pub
else
  table
fi
