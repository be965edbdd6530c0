#!/usr/bin/env bash
# CI gate for epoch-commit fence discipline (docs/epoch.md): in epoch mode
# every flush and fence is delegated to the epoch advancer, which amortizes
# ONE fence across all threads' staged lines. A pmem::Flush/Fence sneaking
# back onto the epoch commit path silently reverts group commit to
# per-thread fencing — throughput degrades and the fences/op CI number
# drifts, but no functional test fails. Four rules:
#
#   1. Transaction::CommitEpochMode / AbortEpochMode / PublishStagedEpoch
#      (src/tx/transaction.cc) must be persist-call-free: they stage lines
#      and hand them to the port, never flush or fence themselves.
#   2. LogRegion::RearmVolatile (src/tx/log_format.cc) must be
#      persist-call-free: the retired-epoch gate makes its plain stores safe
#      precisely because they are NOT individually persisted.
#   3. In src/epoch/epoch_sys.cc, persist calls may appear only inside
#      ServicePublishLocked and CloseEpochLocked — the two advancer-side
#      publication points that own the epoch's single fence.
#   4. In src/epoch/epoch_sys.cc, condvar waits (.wait/.wait_until/
#      .wait_for) and _mm_pause spins may appear only inside the wait
#      primitive AwaitLocked and AdvancerMain. A direct park or spin
#      elsewhere would bypass the primitive's CPU rule (poll only while every
#      participant has its own CPU) and its notify-only-if-parked protocol.
#
# Comments are stripped before matching, same as check_persist_discipline.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

strip_comments() {
  sed -e 's://.*$::' -e 's:/\*.*\*/::g'
}

# Prints the body of the function whose definition line matches $2 in file
# $1: from the signature to the first closing brace at column 0. Definitions
# in this tree are never nested, so the column-0 brace is exact.
extract_fn() {
  awk -v sig="$2" '
    index($0, sig) { in_fn = 1 }
    in_fn { print }
    in_fn && /^}/ { exit }
  ' "$1"
}

# The complement: prints file $1, comments stripped, without the bodies of
# the functions whose definition lines match $2...; a whole-file rule greps
# what is left.
outside_fns() {
  local file="$1"
  shift
  strip_comments < "$file" | awk -v sigs="$(printf '%s\n' "$@")" '
    BEGIN { n = split(sigs, sig, "\n") }
    !in_fn { for (i = 1; i <= n; i++) if (sig[i] != "" && index($0, sig[i])) in_fn = 1 }
    in_fn { if (/^}/) in_fn = 0; next }
    { print }
  '
}

persist_calls='pmem::(FlushFence|Flush|Fence|PersistStore64)\(|FlushPending\(\)'
fail=0

check_fn_clean() {
  local file="$1" sig="$2"
  local body
  body=$(extract_fn "$file" "$sig")
  if [ -z "$body" ]; then
    echo "::error::$file: function '$sig' not found — update tools/check_epoch_discipline.sh"
    fail=1
    return
  fi
  if matches=$(printf '%s\n' "$body" | strip_comments | grep -nE "$persist_calls"); then
    echo "$file: $sig"
    echo "$matches"
    echo "::error::$file: persist call on the epoch commit path ($sig) — fences belong to the epoch advancer only (docs/epoch.md)"
    fail=1
  fi
}

check_fn_clean src/tx/transaction.cc 'Transaction::CommitEpochMode('
check_fn_clean src/tx/transaction.cc 'Transaction::AbortEpochMode('
check_fn_clean src/tx/transaction.cc 'Transaction::PublishStagedEpoch('
check_fn_clean src/tx/log_format.cc 'LogRegion::RearmVolatile('

# Rules 3 and 4: whole-file scans of epoch_sys.cc outside the functions
# each rule allows.
check_file_confined() {
  local file="$1" pattern="$2" what="$3"
  shift 3
  local sig
  for sig in "$@"; do
    if ! strip_comments < "$file" | grep -F "$sig" > /dev/null; then
      echo "::error::$file: function '$sig' not found — update tools/check_epoch_discipline.sh"
      fail=1
      return
    fi
  done
  if matches=$(outside_fns "$file" "$@" | grep -E "$pattern"); then
    echo "$matches"
    echo "::error::$file: $what"
    fail=1
  fi
}

check_file_confined src/epoch/epoch_sys.cc "$persist_calls" \
  'persist call outside ServicePublishLocked/CloseEpochLocked' \
  'EpochSys::ServicePublishLocked(' 'EpochSys::CloseEpochLocked('
check_file_confined src/epoch/epoch_sys.cc '\.wait(_until|_for)?\(|_mm_pause' \
  'condvar wait or spin outside the wait primitive (AwaitLocked/AdvancerMain)' \
  'EpochSys::AwaitLocked(' 'EpochSys::AdvancerMain('

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "epoch-discipline gate clean: epoch commit path persist-free, fences confined to the advancer, waits confined to the wait primitive"
