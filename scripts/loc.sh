#!/usr/bin/env sh
# Line counts of the Rust sources.
#
# Usage: scripts/loc.sh
#
# Non-test lines: each .rs file under crates/*/src, src/ and vendor/*/src,
# counted up to its first column-0 `#[cfg(test)]` (the in-file unit-test
# module, which by convention closes the file). Prints one total per
# crate, the workspace total, and the count of every .rs line in the
# repository, tests included (target/ excluded). A file whose first
# column-0 `#[cfg(test)]`, after any further attribute lines, does not
# open `mod tests` gets a warning on stderr: the lines after it are
# not counted.
set -eu
cd "$(dirname "$0")/.."

find crates/*/src src vendor/*/src -name '*.rs' 2>/dev/null | sort | xargs awk '
FNR == 1 {
    split(FILENAME, p, "/")
    key = p[1] == "src" ? "rpr" : p[1] == "vendor" ? "vendor/" p[2] : p[2]
    stop = 0
    opening = 0
}
opening && !/^#\[/ {
    if (!/^(pub(\(crate\))? )?mod tests/)
        printf "loc.sh: warning: %s:%d: the first #[cfg(test)] does not open mod tests\n", FILENAME, FNR > "/dev/stderr"
    opening = 0
}
/^#\[cfg\(test\)\]/ && !stop { stop = 1; opening = 1 }
!stop { lines[key]++; total++ }
END {
    for (k in lines) printf "%-22s %7d\n", k, lines[k] | "sort"
    close("sort")
    printf "%-22s %7d\n", "workspace non-test", total
}'
printf '%-22s %7d\n' "all .rs lines" \
    "$(find . -path ./target -prune -o -name '*.rs' -print | xargs cat | wc -l)"
