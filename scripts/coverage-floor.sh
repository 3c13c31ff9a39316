#!/usr/bin/env bash
# Fail when statement coverage of a recovery-critical package drops
# below the floor. Usage: coverage-floor.sh [floor-percent]
#
# All listed packages are measured from one merged -coverpkg profile:
# their own tests plus 60 seeds of each seeded battery
# (internal/battery), which is where most of the recovery paths are
# exercised (the rare federation paths need more than tier-1's 30 + 20
# seeds to show up reliably). A package entry
# may carry its own floor as path:floor, overriding the global default —
# packages whose batteries earn higher coverage are pinned there so a
# regression can't hide under the global floor.
set -euo pipefail

FLOOR="${1:-75}"
PKGS=(
  ./internal/process:90
  ./internal/wal
  ./internal/scheduler:91
  ./internal/fault
  ./internal/chaos
  ./internal/twopc
  ./internal/runtime
  ./internal/store
  ./internal/federation:83
  ./internal/serve
)

paths=("${PKGS[@]%%:*}")
coverpkg="$(IFS=,; echo "${paths[*]}")"
profile=$(mktemp)
trap 'rm -f "$profile" "$profile.battery"' EXIT
run() { out=$("$@" 2>&1) || { echo "$out" >&2; exit 1; }; }
run go test -count=1 -coverprofile="$profile" -coverpkg="$coverpkg" "${paths[@]}"
run go test -count=1 -coverprofile="$profile.battery" -coverpkg="$coverpkg" \
  ./internal/battery -battery.count=60

fail=0
for entry in "${PKGS[@]}"; do
  pkg="${entry%%:*}"
  floor="$FLOOR"
  if [[ "$entry" == *:* ]]; then
    floor="${entry##*:}"
  fi
  # A block appears once per test binary that was built with it; it is
  # covered when any of them ran it.
  pct=$(awk -v dir="transproc/${pkg#./}/" '
    $1 != "mode:" && index($1, dir) == 1 && substr($1, length(dir) + 1) !~ "/" {
      stmts[$1] = $2
      if ($3 > 0) hit[$1] = 1
    }
    END {
      for (b in stmts) { total += stmts[b]; if (b in hit) covered += stmts[b] }
      if (total > 0) printf "%.1f", 100 * covered / total
    }' "$profile" "$profile.battery")
  if [ -z "$pct" ]; then
    echo "NO COVERAGE REPORTED for $pkg" >&2
    fail=1
    continue
  fi
  ok=$(awk -v p="$pct" -v f="$floor" 'BEGIN { print (p >= f) ? 1 : 0 }')
  if [ "$ok" = "1" ]; then
    echo "ok   $pkg ${pct}% (floor ${floor}%)"
  else
    echo "FAIL $pkg ${pct}% is below the ${floor}% floor" >&2
    fail=1
  fi
done
exit $fail
