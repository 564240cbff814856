#!/usr/bin/env sh
# Compare a fresh bench snapshot against the committed baseline and fail
# on a performance regression. Used by verify.sh (step 13); see
# docs/PERFORMANCE.md for the policy rationale.
#
# Usage: scripts/bench_gate.sh BASELINE.json CURRENT.json
#
# Exit codes: 0 pass (or deliberately skipped), 1 regression, 2 usage.
#
# Checks:
#   1. Host fingerprint: when arch or kernel_tier differ between the two
#      snapshots (another machine, or RPR_FORCE_SCALAR set), the
#      throughput comparison is meaningless — skip with a note.
#   2. SIMD floor: the dispatched `gf/mul_acc_slice/262144` rate must be
#      at least 4x the pinned scalar tier's rate whenever the host
#      dispatches a SIMD tier — the kernel-dispatch acceptance bar.
#   3. Regression: every `gf/mul_acc_tier/*` entry must reach at least
#      85% of the baseline's bytes/sec. Only the pinned-tier kernel
#      entries are gated: they are the stablest numbers a snapshot holds
#      (run-to-run jitter well under the 15% tolerance), whereas the
#      dispatched and end-to-end suites can swing more than the
#      tolerance on a shared box in quick mode. Those are still
#      *recorded* in every snapshot for trajectory, just not gated.

set -eu

[ $# -eq 2 ] || { echo "usage: bench_gate.sh BASELINE CURRENT" >&2; exit 2; }
BASE="$1"
CUR="$2"

if ! jq -n -e --slurpfile b "$BASE" --slurpfile c "$CUR" \
    '$b[0].host.arch == $c[0].host.arch
     and $b[0].host.kernel_tier == $c[0].host.kernel_tier' >/dev/null; then
    echo "==> bench gate skipped: host fingerprint differs" \
         "($(jq -r '.host.arch + "/" + .host.kernel_tier' "$BASE") baseline" \
         "vs $(jq -r '.host.arch + "/" + .host.kernel_tier' "$CUR") current)"
    exit 0
fi

# Within-run SIMD floor: dispatched >= 4x pinned scalar at 256 KiB.
if [ "$(jq -r '.host.kernel_tier' "$CUR")" != scalar ]; then
    if ! jq -e '
        (.results[] | select(.name == "gf/mul_acc_tier/scalar/262144")
            | .bytes_per_sec) as $s
        | (.results[] | select(.name == "gf/mul_acc_slice/262144")
            | .bytes_per_sec) as $d
        | $d >= 4 * $s' "$CUR" >/dev/null; then
        echo "bench gate FAILED: dispatched mul_acc_slice is not >= 4x the" \
             "scalar tier at 256 KiB (see gf/mul_acc_* in $CUR)" >&2
        exit 1
    fi
fi

# Regression sweep over the pinned-tier kernel entries.
REGRESSED="$(jq -n -r --slurpfile b "$BASE" --slurpfile c "$CUR" '
    ($c[0].results | map(select(.bytes_per_sec != null)
        | {key: .name, value: .bytes_per_sec}) | from_entries) as $cur
    | $b[0].results[]
    | select(.name | startswith("gf/mul_acc_tier/"))
    | select(.bytes_per_sec != null)
    | select($cur[.name] != null)
    | select($cur[.name] < 0.85 * .bytes_per_sec)
    | "\(.name): \($cur[.name] / 1e9 * 100 | round / 100) GB/s"
      + " < 85% of baseline \(.bytes_per_sec / 1e9 * 100 | round / 100) GB/s"')"
if [ -n "$REGRESSED" ]; then
    echo "bench gate FAILED: kernel throughput regressed vs $BASE:" >&2
    echo "$REGRESSED" >&2
    exit 1
fi

echo "==> bench gate passed vs $BASE"
