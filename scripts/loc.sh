#!/usr/bin/env bash
# Non-blank Rust lines per crate in crates/*/src, each file counted up to
# its first top-level `#[cfg(test)]` line (so the unit-test module at the
# bottom of a file is left out). Simplicity changes report this before
# and after.
#
#   scripts/loc.sh            # one line per crate, then the total
#   scripts/loc.sh FILE...    # the same count for each file given
set -euo pipefail

# Prints the non-test count over the files named on stdin (NUL-separated).
count() {
    xargs -0 awk '
        FNR == 1 { live = 1 }
        /^#\[cfg\(test\)\]/ { live = 0 }
        live && NF { n++ }
        END { print n + 0 }'
}

if [ $# -gt 0 ]; then
    for file in "$@"; do
        printf '%-40s %7d\n' "$file" "$(printf '%s\0' "$file" | count)"
    done
    exit 0
fi

cd "$(dirname "$0")/.."
total=0
for crate in crates/*/; do
    n=$(find "${crate}src" -name '*.rs' -print0 | sort -z | count)
    printf '%-10s %7d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-10s %7d\n' total "$total"
