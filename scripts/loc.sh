#!/usr/bin/env bash
# Non-blank Rust lines per crate in crates/*/src, each file counted up to
# its first top-level `#[cfg(test)]` line (so the unit-test module at the
# bottom of a file is left out). Simplicity changes report this before
# and after.
#
#   scripts/loc.sh            # one line per crate, then the total
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for crate in crates/*/; do
    n=$(find "${crate}src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { live = 1 }
        /^#\[cfg\(test\)\]/ { live = 0 }
        live && NF { n++ }
        END { print n + 0 }')
    printf '%-10s %7d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-10s %7d\n' total "$total"
