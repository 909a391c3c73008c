#!/bin/sh
# CLI smoke test from the source tree, with nothing installed: one call per
# group, four least ampliation indices (one past the digit cap), an algebra
# and a certificate each written then read back, a numeric probe whose grid
# shrinks, six bad inputs, which must exit 2 with one short error line (one
# of them an algebra size past the entry limit, with its count), a help
# request, which must exit 0, and a usage error, which must exit 2 with an
# error line.
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
has_line() {  # has_line LINE OUTPUT: one of OUTPUT's lines is LINE
    printf '%s\n' "$2" | grep -qxF -- "$1" || { echo "cli smoke: no line '$1' in: $2" >&2; exit 1; }
}
refused() {  # refused ARGS...: idealkit ARGS exits 2, and stderr is one short "error: " line
    code=0
    idealkit "$@" 2> "$dir/err" || code=$?
    [ "$code" -eq 2 ] || { echo "cli smoke: idealkit $1 $2 exited $code, not 2" >&2; exit 1; }
    expect "error: " "$(cat "$dir/err")"
    [ "$(wc -l < "$dir/err")" -eq 1 ] && [ "$(wc -c < "$dir/err")" -le 200 ] ||
        { echo "cli smoke: idealkit $1 $2 printed more than one short line" >&2; exit 1; }
}

expect "signature: rate=1, pow=1" "$(idealkit seq signature pow:1)"
expect "membership: Holds" "$(idealkit ideal member pow:2 pow:1)"
# the least ampliation index of exponential-type rates: the certified
# ceiling, and a tie that the comparison at m refutes
has_line "  m: 4" "$(idealkit ideal member exp:1/2 exp:1/10)"
has_line "  m: 3" "$(idealkit ideal member exp:1/4 "idealprod(exp:1/16,compact)")"
# a ceiling of t = ln a / ln b where t lies 1e-20 above 10
has_line "  m: 11" \
    "$(idealkit ideal member exp:1/2 "exp:100000000000000000000/102400000000000000001024")"
# an index past the digit cap is named, not computed
nines=$("$PY" -c 'print("9" * 4300)')
has_line "  m: more than 4300 digits; not computed" \
    "$(idealkit ideal member "amp:$nines;exp:1/2" exp:1/3)"
expect "built sl_3" "$(idealkit lie build sl --n 3 -o "$dir/sl3.json")"
expect "SIMPLE" "$(idealkit lie simple --file "$dir/sl3.json")"
expect "certificate built" "$(idealkit witness build --generator pow:1 --partner pow:2 \
    -o "$dir/cert.json")"
expect "VERIFIED" "$(idealkit witness verify --file "$dir/cert.json")"
# a numeric probe whose ratio overflows shrinks its grid to the minimum
has_line "  n_max: 1024" "$(idealkit seq compare --mode o --numeric pow:1 exp:1/2)"

refused seq signature pow:0
# the probe's grid limit is at most 2**64
refused seq compare --mode O --numeric pow:1 pow:2 --nmax 18446744073709551617
# a shift truncation whose weights are all zero spans no algebra
refused lie build shift --n 2 --weights "finite:[0]"
# an algebra past the entry limit is refused before it is built, with its size
refused lie build sl --n 15
has_line "error: 224 matrices of size 15 x 15 exceed the limit of 50000 entries" "$(cat "$dir/err")"
# a matrix size past the entry limit is refused before any message prints it
"$PY" -c 'print("{\"name\": \"h\", \"ambient_dim\": " + "9" * 2151 + ", \"basis\": [[1]]}")' \
    > "$dir/huge.json"
refused lie check-closure --file "$dir/huge.json"
# a refusal that echoes a long input prints it shortened
refused seq signature "$("$PY" -c 'print("x" * 5000)')"

# help and usage errors go through the argparse parser; under set -e the
# assignment fails the script unless --help exits 0
help=$(idealkit --help)
expect "usage: " "$help"
code=0
idealkit lie simple 2> "$dir/err" || code=$?
[ "$code" -eq 2 ] || { echo "cli smoke: usage error exited $code, not 2" >&2; exit 1; }
case $(cat "$dir/err") in *"error: "*) ;; *) echo "cli smoke: no error line" >&2; exit 1 ;; esac

echo "cli smoke: ok on $("$PY" --version 2>&1)"
