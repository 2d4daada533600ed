#!/usr/bin/env bash
# Kill-point restart matrix, real-process edition.
#
# The in-process matrix (tests/integration/test_daemon_restart.cpp) proves
# recovery under *throw-mode* kills; this driver repeats it with actual
# process death: PAMO_KILL_AT=<point>:<count>:exit makes pamo_daemon call
# std::_Exit(137) mid-protocol — no destructors, no stream flushes, the
# closest a test gets to a power cut. For every kill point the script
# kills a run, resumes it from disk, and requires the completed digest
# trajectory to be byte-identical to an uninterrupted baseline. The churn
# lane's newest snapshot must also fit a byte budget. Two final
# scenarios truncate the newest snapshot on disk, or plant a hostile one
# nested far past the JSON parser's depth limit, and require resume to
# fall back to the previous one and still converge.
#
# usage: scripts/ckpt_restart_matrix.sh path/to/pamo_daemon
set -eu

DAEMON=${1:?usage: ckpt_restart_matrix.sh path/to/pamo_daemon}
EPOCHS=4
FLAGS=(--epochs "$EPOCHS" --faults --corrupt-telemetry)

WORK=$(mktemp -d /tmp/pamo_restart_matrix_XXXXXX)
trap 'rm -rf "$WORK"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

trajectory_of() {
  # Last line of a completed run: "trajectory <hex> <hex> ..."
  grep '^trajectory ' "$1" | tail -n 1
}

echo "== baseline (uninterrupted, $EPOCHS epochs) =="
"$DAEMON" --dir "$WORK/baseline" "${FLAGS[@]}" > "$WORK/baseline.out"
BASELINE=$(trajectory_of "$WORK/baseline.out")
[ -n "$BASELINE" ] || fail "baseline produced no trajectory"
echo "$BASELINE"

# point:count — daemon-loop points die on the second epoch, write-path
# points during the second checkpoint, so a durable snapshot already
# exists and the recovery window is non-trivial. daemon.epoch.begin:1
# additionally covers the nothing-on-disk cold restart.
MATRIX=(
  daemon.epoch.begin:1
  daemon.epoch.begin:2
  daemon.epoch.pre_commit:2
  daemon.epoch.committed:2
  ckpt.write.begin:2
  ckpt.write.partial:2
  ckpt.write.before_fsync:2
  ckpt.write.before_rename:2
  ckpt.write.after_rename:2
)

for entry in "${MATRIX[@]}"; do
  point=${entry%:*}
  count=${entry#*:}
  dir="$WORK/kill_${entry//[.:]/_}"
  echo "== kill at $point (traversal $count) =="

  status=0
  PAMO_KILL_AT="$entry:exit" "$DAEMON" --dir "$dir" "${FLAGS[@]}" \
    > "$dir.killed.out" 2> "$dir.killed.err" || status=$?
  [ "$status" -eq 137 ] || fail "$entry: expected exit 137, got $status"

  "$DAEMON" --dir "$dir" --resume "${FLAGS[@]}" > "$dir.resumed.out"
  got=$(trajectory_of "$dir.resumed.out")
  [ "$got" = "$BASELINE" ] || fail "$entry: trajectory diverged
  expected: $BASELINE
  got:      $got"
  echo "recovered bit-identically"
done

# Churn lane: same kill discipline with stream churn, the admission
# governor, and warm-started learning active — the checkpoint now also
# carries the churn plan, the governor's defer/shed queues, and the
# cumulative governor log, and resume must still be bit-identical. A
# subset of kill points keeps the matrix quick; the write path is already
# covered payload-agnostically above.
CHURN_FLAGS=(--epochs "$EPOCHS" --faults --churn)
echo "== churn baseline (uninterrupted, $EPOCHS epochs) =="
"$DAEMON" --dir "$WORK/churn_baseline" "${CHURN_FLAGS[@]}" \
  > "$WORK/churn_baseline.out"
CHURN_BASELINE=$(trajectory_of "$WORK/churn_baseline.out")
[ -n "$CHURN_BASELINE" ] || fail "churn baseline produced no trajectory"
[ "$CHURN_BASELINE" != "$BASELINE" ] \
  || fail "churn baseline identical to churn-free baseline (churn inert?)"
echo "$CHURN_BASELINE"

# Size budget on the churn lane's newest snapshot. Exact Cholesky factors
# are re-derived on restore rather than stored, which puts this snapshot
# (4 epochs, 5 streams, 4 servers) at ~110 KB; storing the factors again
# makes it ~3.2 MB. The budget is about twice the measured size.
CHURN_CKPT_BUDGET=220000
newest=$(ls "$WORK/churn_baseline"/ckpt-*.json | sort | tail -n 1)
size=$(wc -c < "$newest")
[ "$size" -le "$CHURN_CKPT_BUDGET" ] || fail "churn snapshot \
$(basename "$newest") is $size bytes, over the $CHURN_CKPT_BUDGET-byte \
budget (does the checkpoint store a re-derivable factor again?)"
echo "newest churn snapshot: $size bytes (budget $CHURN_CKPT_BUDGET)"

CHURN_MATRIX=(
  daemon.epoch.begin:2
  daemon.epoch.pre_commit:2
  daemon.epoch.committed:2
)

for entry in "${CHURN_MATRIX[@]}"; do
  point=${entry%:*}
  count=${entry#*:}
  dir="$WORK/churn_kill_${entry//[.:]/_}"
  echo "== churn: kill at $point (traversal $count) =="

  status=0
  PAMO_KILL_AT="$entry:exit" "$DAEMON" --dir "$dir" "${CHURN_FLAGS[@]}" \
    > "$dir.killed.out" 2> "$dir.killed.err" || status=$?
  [ "$status" -eq 137 ] || fail "churn $entry: expected exit 137, got $status"

  "$DAEMON" --dir "$dir" --resume "${CHURN_FLAGS[@]}" > "$dir.resumed.out"
  got=$(trajectory_of "$dir.resumed.out")
  [ "$got" = "$CHURN_BASELINE" ] || fail "churn $entry: trajectory diverged
  expected: $CHURN_BASELINE
  got:      $got"
  echo "recovered bit-identically"
done

echo "== corrupt newest snapshot, resume falls back =="
dir="$WORK/corrupt"
"$DAEMON" --dir "$dir" "${FLAGS[@]}" > "$dir.first.out"
newest=$(ls "$dir"/ckpt-*.json | sort | tail -n 1)
size=$(wc -c < "$newest")
truncate -s "$((size / 2))" "$newest"
"$DAEMON" --verify-ckpt "$dir" | grep -q "^corrupt $(basename "$newest")" \
  || fail "verify-ckpt did not flag the truncated snapshot"
"$DAEMON" --dir "$dir" --resume "${FLAGS[@]}" > "$dir.resumed.out"
got=$(trajectory_of "$dir.resumed.out")
[ "$got" = "$BASELINE" ] || fail "corrupt-newest: trajectory diverged
  expected: $BASELINE
  got:      $got"
echo "fell back and recovered bit-identically"

echo "== hostile newest snapshot (nested past the parser limit), resume falls back =="
# A reader must reject a file it cannot parse, whatever is in it: here 1 MB
# of '[' planted as the newest snapshot after a mid-run kill. Resume skips
# it and replays from the previous snapshot; the file stays as evidence.
dir="$WORK/hostile"
status=0
PAMO_KILL_AT="daemon.epoch.begin:3:exit" "$DAEMON" --dir "$dir" "${FLAGS[@]}" \
  > "$dir.killed.out" 2> "$dir.killed.err" || status=$?
[ "$status" -eq 137 ] || fail "hostile: expected exit 137, got $status"
newest=$(ls "$dir"/ckpt-*.json | sort | tail -n 1)
next=${newest##*/ckpt-}
next=$((10#${next%.json} + 1))
hostile=$(printf '%s/ckpt-%08d.json' "$dir" "$next")
head -c 1000000 /dev/zero | tr '\0' '[' > "$hostile"
status=0
"$DAEMON" --verify-ckpt "$dir" > "$dir.verify.out" 2>&1 || status=$?
[ "$status" -eq 0 ] || fail "hostile: verify-ckpt exited $status"
grep -q "^corrupt $(basename "$hostile") " "$dir.verify.out" \
  || fail "verify-ckpt did not flag the hostile snapshot"
status=0
"$DAEMON" --dir "$dir" --resume "${FLAGS[@]}" > "$dir.resumed.out" \
  2> "$dir.resumed.err" || status=$?
[ "$status" -eq 0 ] || fail "hostile: resume exited $status"
got=$(trajectory_of "$dir.resumed.out")
[ "$got" = "$BASELINE" ] || fail "hostile-newest: trajectory diverged
  expected: $BASELINE
  got:      $got"
[ -f "$hostile" ] || fail "hostile: the rejected snapshot was deleted"
echo "skipped the hostile file and recovered bit-identically"

echo "ckpt_restart_matrix: all scenarios recovered bit-identically"
