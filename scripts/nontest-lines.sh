#!/bin/sh
# Prints the number of non-test Rust lines in the workspace: every `.rs`
# file outside `tests/`, `vendor/`, `target/` and `campaign-bench/`
# directories (and hidden ones), each counted up to, not including, its
# first line that contains `#[cfg(test)]`.  The match is plain text, so a
# comment that mentions the attribute ends the count too; this keeps the
# number comparable with the series ROADMAP.md tracks.
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
        index($0, "#[cfg(test)]") { counting = 0 }
        counting { n++ }
        END { print n + 0 }
    '
