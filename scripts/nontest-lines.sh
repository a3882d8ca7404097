#!/bin/sh
# Prints the number of non-test Rust lines in the workspace: every `.rs`
# file outside `tests/`, `vendor/`, `target/` and `campaign-bench/`
# directories (and hidden ones), each counted up to, not including, its
# first `#[cfg(test)]` attribute line (the attribute alone on its line,
# indentation allowed).  A comment that mentions the attribute does not end
# the count.
#
# Usage, from anywhere inside the repository:
#
#     scripts/nontest-lines.sh
set -eu
cd "$(dirname "$0")/.."
find . \( -name tests -o -name vendor -o -name target -o -name campaign-bench -o -name '.?*' \) \
    -prune -o -name '*.rs' -type f -print |
    sort |
    xargs awk '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { print n + 0 }
    '
