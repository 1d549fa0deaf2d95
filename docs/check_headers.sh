#!/bin/sh
# Fail when a public header lacks file-level documentation. Every
# src/*/*.hh must contain a Doxygen @file comment (the convention the
# API docs are built from); a new header without one, in any layer,
# fails CI here.
#
# Usage: docs/check_headers.sh   (from the repository root)

set -u

status=0
for header in src/*/*.hh; do
    [ -e "$header" ] || continue
    if ! grep -q '@file' "$header"; then
        echo "error: $header has no @file documentation block" >&2
        status=1
    fi
done

if [ "$status" -ne 0 ]; then
    echo "Add a /** @file ... */ comment describing the header" \
         "(see docs/ARCHITECTURE.md for the layer it belongs to)." >&2
fi
exit $status
