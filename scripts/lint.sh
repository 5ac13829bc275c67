#!/usr/bin/env bash
# lint.sh — run the project-invariant analyzer suite (internal/lint) over
# the whole module with cmd/samplealignlint, exactly as CI does.
#
# Usage:
#   scripts/lint.sh                 # whole module
#   scripts/lint.sh ./internal/...  # any `go list` package patterns
#
# The suite enforces (see TESTING.md for the full contract):
#   ctxflow        library code threads contexts, never originates them
#   determinism    no clocks/rand/map-order in the alignment pipeline
#   durerr         store/serve never silently discard Sync/Close/Rename errors
#
# Findings are suppressed only by `//lint:allow <analyzer> <reason>` with a
# written reason; reasonless directives are themselves findings.
set -euo pipefail
cd "$(dirname "$0")/.."

go run ./cmd/samplealignlint "${@:-./...}"
echo "lint: clean"
