#!/usr/bin/env bash
# CLI smoke checks: each runs the `mbstat` commands end to end on generated
# pairs and must exit 0.  Run it from any directory:
#
#     bash scripts/cli_smoke.sh
#
# It runs `python` from PATH, with this checkout's `src` first on PYTHONPATH,
# and takes about 9 s.  tests/test_scripts.py runs it under pytest.
#
# Each CLI step runs with RuntimeWarning an error, as pytest runs the
# tests: a numpy overflow must be refused by name, not warned of.
set -eo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONWARNINGS=error::RuntimeWarning
# Every step's scratch directory is made under one that is removed on exit.
TMPDIR=$(mktemp -d)
export TMPDIR
trap 'rm -rf "$TMPDIR"' EXIT

# The CLI writes reports and CSVs as bytes, to stdout's buffer for
# '-': through a pipe they must equal what it writes to a file.  Then
# verify checks all seven families of the same pair, at the default
# lags, at stride 5, alpha 2, beta 3, and at strides 16 and 96, where
# the rolling kernel sums segments of gcd(64, stride) ticks first (16
# ticks, within the window; 32, with the stride past the window), and
# on both sides of the shortest segment (market_core.window_layout):
# stride 4 sums 4-tick segments, stride 6 (gcd 2) sums ticks.  Each
# must exit 0; at --tol 0 it must exit 1, the breach code.  A second
# pair, whose asset 2 starts 7 steps later (its first 7 rows dropped),
# runs the plan's placement of two grids that start apart through the
# same checks.
echo 'Reports through a pipe equal reports written to a file; verify passes'
(
  smoke=$(mktemp -d)
  python -m mbstat generate --n 600 --seed 1 --out "$smoke/a1.csv"
  python -m mbstat generate --n 600 --seed 1 | cat > "$smoke/a1.piped.csv"
  cmp "$smoke/a1.csv" "$smoke/a1.piped.csv"
  python -m mbstat generate --n 600 --seed 2 --out "$smoke/a2.csv"
  { head -n 1 "$smoke/a2.csv"; tail -n +9 "$smoke/a2.csv"; } > "$smoke/a2.late.csv"
  head -n 2 "$smoke/a2.late.csv" | tail -n 1 | grep -q '^7,'
  for a2 in a2 a2.late; do
    for fmt in json csv; do
      set -- --asset1-path "$smoke/a1.csv" --asset2-path "$smoke/$a2.csv" --window 64 --format "$fmt"
      python -m mbstat analyze "$@" --output - | cat > "$smoke/piped.$fmt"
      python -m mbstat analyze "$@" --output "$smoke/file.$fmt"
      cmp "$smoke/piped.$fmt" "$smoke/file.$fmt"
    done
  done
  python -m mbstat verify --asset1-path "$smoke/a1.csv" --asset2-path "$smoke/a2.late.csv" --window 64
  set -- --asset1-path "$smoke/a1.csv" --asset2-path "$smoke/a2.csv" --window 64 \
    --stats price_corr,return_corr,price_return_corr,price_vol,return_vol,joint_moments
  python -m mbstat verify "$@"
  python -m mbstat verify "$@" --stride 5 --alpha 2 --beta 3
  python -m mbstat verify "$@" --stride 16
  python -m mbstat verify "$@" --stride 96
  python -m mbstat verify "$@" --stride 4
  python -m mbstat verify "$@" --stride 6
  rc=0
  python -m mbstat verify "$@" --tol 0 > /dev/null 2>&1 || rc=$?
  test "$rc" -eq 1
)

# The rolling kernel sums a block's window means as the rows of one
# matrix, in groups of at most market_core._ROW_ELEMENTS entries, so
# which means share a group depends on the families asked for.  On a
# 3,000-tick pair, the price_corr rows of an all-family CSV must equal
# the body of a price_corr-only CSV at window 64, stride 1 (the 35 rows
# of all seven families in 4 groups, price_corr's 11 in 2) and stride
# 16 (segment sums of 16 ticks, one group), and verify must pass for
# price_vol alone at window 1, stride 7, whose 7 sums are one group.
echo "A family's records do not depend on the families beside it"
(
  smoke=$(mktemp -d)
  python -m mbstat generate --n 3000 --seed 1 --out "$smoke/a1.csv"
  python -m mbstat generate --n 3000 --seed 2 --out "$smoke/a2.csv"
  set -- --asset1-path "$smoke/a1.csv" --asset2-path "$smoke/a2.csv"
  for stride in 1 16; do
    python -m mbstat analyze "$@" --window 64 --stride "$stride" --format csv \
      --output "$smoke/all.csv"
    python -m mbstat analyze "$@" --window 64 --stride "$stride" --format csv \
      --stats price_corr --output "$smoke/one.csv"
    grep -F ',price_corr,' "$smoke/all.csv" > "$smoke/all.rows"
    test -s "$smoke/all.rows"
    tail -n +2 "$smoke/one.csv" | cmp - "$smoke/all.rows"
  done
  python -m mbstat verify "$@" --window 1 --stride 7 --stats price_vol
)

# Prices near 1e155: a window's cov_CC is a difference of products
# past the largest double, so it is inf while the market value stays
# finite, and verify's scale |g1*g2| is inf too.  analyze must exit 4,
# the refusal code, naming cov_CC; verify must fail closed with exit 1
# (a deviation over an infinite scale is NaN), and neither may print a
# RuntimeWarning.
echo 'A non-finite covariance is refused; an overflowing verify scale fails'
(
  smoke=$(mktemp -d)
  for seed in 1 2; do
    python -m mbstat generate --n 600 --seed "$seed" --price-start 1e155 \
      --log-price-step-sd 1e-5 --out "$smoke/a$seed.csv"
  done
  set -- --asset1-path "$smoke/a1.csv" --asset2-path "$smoke/a2.csv" --window 16 \
    --stats price_corr
  rc=0
  python -m mbstat analyze "$@" --output "$smoke/out.json" 2> "$smoke/analyze.err" || rc=$?
  cat "$smoke/analyze.err"
  test "$rc" -eq 4
  grep -qF 'cov_CC' "$smoke/analyze.err"
  rc=0
  python -m mbstat verify "$@" 2> "$smoke/verify.err" || rc=$?
  cat "$smoke/verify.err"
  test "$rc" -eq 1
  if grep -F 'RuntimeWarning' "$smoke/analyze.err" "$smoke/verify.err"; then exit 1; fi
)

# Tick times on a nanosecond grid: a generated pair, rewritten to start
# at 1,700,000,000,000,000,000 in steps of 1e9, passes verify.  Then
# one time, in a row past the first 64 KiB chunk, is moved 1 ns off the
# grid: analyze must exit 4, the parse code, and name the rule and the
# two times.
echo 'A nanosecond grid is read; a time off it past the first chunk is named'
(
  smoke=$(mktemp -d)
  for seed in 1 2; do
    python -m mbstat generate --n 3000 --seed "$seed" --out "$smoke/g$seed.csv"
  done
  python - "$smoke" <<'EOF'
import sys
smoke, start, step, moved = sys.argv[1], 1_700_000_000_000_000_000, 10**9, 2000
for seed in (1, 2):
    with open(f"{smoke}/g{seed}.csv") as fh:
        header, *rows = fh.read().splitlines()
    rows = [f"{start + int(t) * step},{rest}" for t, rest in (r.split(",", 1) for r in rows)]
    with open(f"{smoke}/ns{seed}.csv", "w") as fh:
        fh.write("\n".join([header, *rows]) + "\n")
assert len("\n".join([header, *rows[:moved]])) > 1 << 16  # past the first chunk
before, t = start + (moved - 1) * step, start + moved * step
rows[moved] = rows[moved].replace(f"{t},", f"{t + 1},", 1)
with open(f"{smoke}/off.csv", "w") as fh:
    fh.write("\n".join([header, *rows]) + "\n")
with open(f"{smoke}/times", "w") as fh:
    fh.write(f"t={before}\nt={t + 1}\n")
EOF
  python -m mbstat verify --asset1-path "$smoke/ns1.csv" --asset2-path "$smoke/ns2.csv" --window 64
  rc=0
  python -m mbstat analyze --asset1-path "$smoke/ns1.csv" --asset2-path "$smoke/off.csv" \
    --window 64 --output "$smoke/off.json" 2> "$smoke/err" || rc=$?
  cat "$smoke/err"
  test "$rc" -eq 4
  grep -qF 'error[NonUniformSpacing]' "$smoke/err"
  while read -r time; do grep -qF "$time " "$smoke/err"; done < "$smoke/times"
)

# Window centers on a millisecond grid: the same pair in steps of 1e6
# from 1,700,000,000,000,000,097, which is not a double (the doubles
# there are 256 apart), so neither are most tick times or centers.
# Each record's t_center must be the double nearest the midpoint of its
# window's first and last input times, as Python's int division gives.
echo 'Every window center is the double nearest its midpoint'
(
  smoke=$(mktemp -d)
  for seed in 1 2; do
    python -m mbstat generate --n 3000 --seed "$seed" --out "$smoke/g$seed.csv"
  done
  python - "$smoke" <<'EOF'
import sys
smoke, start, step = sys.argv[1], 1_700_000_000_000_000_097, 10**6
for seed in (1, 2):
    with open(f"{smoke}/g{seed}.csv") as fh:
        header, *rows = fh.read().splitlines()
    rows = [f"{start + int(t) * step},{rest}" for t, rest in (r.split(",", 1) for r in rows)]
    with open(f"{smoke}/ms{seed}.csv", "w") as fh:
        fh.write("\n".join([header, *rows]) + "\n")
EOF
  python -m mbstat analyze --asset1-path "$smoke/ms1.csv" --asset2-path "$smoke/ms2.csv" \
    --window 64 --format csv --output "$smoke/ms.csv"
  python - "$smoke" <<'EOF'
import csv, sys
smoke = sys.argv[1]
with open(f"{smoke}/ms1.csv") as fh:
    times = [int(row["t"]) for row in csv.DictReader(fh)]
with open(f"{smoke}/ms.csv") as fh:
    records = list(csv.DictReader(fh))
families = len({r["stat_family"] for r in records})
# Records come position by position, a record per family.  Window p
# holds ticks 1 + p to 64 + p: the default lags of 1 hold the first back.
assert len(records) == (len(times) - 64) * families
wrong = [r["t_center"] for i, r in enumerate(records)
         if float(r["t_center"]) != (times[1 + i // families] + times[64 + i // families]) / 2]
assert not wrong, f"{len(wrong)} of {len(records)} centers are wrong, the first {wrong[0]}"
print(f"{len(records)} centers exact")
EOF
)
