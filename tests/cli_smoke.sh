#!/bin/sh
# CLI smoke test from the source tree, with nothing installed: one call per
# group, an algebra and a certificate each written then read back, and one
# bad input, which must exit 2 with an error line.
# Run from the repository root; PYTHON names the interpreter (default python3):
#   PYTHON=python3.10 sh tests/cli_smoke.sh
set -eu
PY=${PYTHON:-python3}
export PYTHONPATH=src
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

idealkit() { "$PY" -m idealkit.cli "$@"; }
expect() {  # expect PATTERN OUTPUT: OUTPUT's first line starts with PATTERN
    case $2 in "$1"*) ;; *) echo "cli smoke: expected '$1', got: $2" >&2; exit 1 ;; esac
}

expect "signature: rate=1, pow=1" "$(idealkit seq signature pow:1)"
expect "membership: Holds" "$(idealkit ideal member pow:2 pow:1)"
expect "built sl_3" "$(idealkit lie build sl --n 3 -o "$dir/sl3.json")"
expect "SIMPLE" "$(idealkit lie simple --file "$dir/sl3.json")"
expect "certificate built" "$(idealkit witness build --generator pow:1 --partner pow:2 \
    -o "$dir/cert.json")"
expect "VERIFIED" "$(idealkit witness verify --file "$dir/cert.json")"

code=0
idealkit seq signature pow:0 2> "$dir/err" || code=$?
[ "$code" -eq 2 ] || { echo "cli smoke: bad input exited $code, not 2" >&2; exit 1; }
expect "error: " "$(cat "$dir/err")"

echo "cli smoke: ok on $("$PY" --version 2>&1)"
