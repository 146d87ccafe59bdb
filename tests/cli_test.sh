#!/usr/bin/env bash
# The `gamma` front door, driven through the built binary. Every case below
# must be refused before any world is built: a flag the command does not
# read, a malformed value, a country outside the vantage set, a broken study
# rule. Each must exit 1 or 2 (never 128+, a signal) and write no file. One
# accepted run must still write its dataset.
#
# Usage: tests/cli_test.sh path/to/gamma
set -u
GAMMA="$(realpath "$1")"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
FAILED=0

refused() {  # gamma arguments, run in an empty directory
  local dir="$WORK/case" rc=0
  rm -rf "$dir" && mkdir -p "$dir"
  (cd "$dir" && "$GAMMA" "$@" >/dev/null 2>"$WORK/err") || rc=$?
  if [[ $rc -ne 1 && $rc -ne 2 ]]; then
    echo "FAIL: gamma $* exited $rc, want 1 or 2: $(head -1 "$WORK/err")"
    FAILED=1
  elif [[ -n "$(ls -A "$dir")" ]]; then
    echo "FAIL: gamma $* wrote $(ls -A "$dir" | tr '\n' ' ')"
    FAILED=1
  else
    echo "ok: gamma $* -> exit $rc: $(head -1 "$WORK/err")"
  fi
}

refused run --country NZ --store-out F
refused store build --out F --countries 3 --sites 30 --fault-plan missing.json \
  --trace-out T --progress
refused store build --out F --resume
refused study --table sites
refused store query F --report funnel --seed 9 --jobs 3 --fault-plan missing.json
refused audit --seed 5
refused har --site google.com --country ZZ
refused study --no-such-flag
refused study --jobs 4x
refused client ping --retry-base-ms nan

if "$GAMMA" run --country NZ --out "$WORK/made/here" >/dev/null &&
    [[ -s "$WORK/made/here/dataset-NZ.json" ]]; then
  echo "ok: gamma run --country NZ --out DIR wrote dataset-NZ.json"
else
  echo "FAIL: gamma run --country NZ --out DIR did not write dataset-NZ.json"
  FAILED=1
fi
exit "$FAILED"
