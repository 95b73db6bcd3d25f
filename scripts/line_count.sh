#!/usr/bin/env bash
# Prints the count README's line budget is held to: every line of
# `crates/**/*.rs` outside a `tests/` directory, inline `#[cfg(test)]`
# modules included. CI's budget step fails when it exceeds the
# `**Line budget: N lines**` figure in README.
#
# Usage:
#     scripts/line_count.sh
set -euo pipefail

cd "$(dirname "$0")/.."
find crates -name '*.rs' -not -path '*/tests/*' -print0 | xargs -0 cat | wc -l
