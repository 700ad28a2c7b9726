#!/usr/bin/env bash
# Checks of the benchmark itself.  Run from anywhere inside a checkout:
#
#   bash perfbench/selftest.sh
#
# 1. Ambient HECTOR_* variables change no simulated number or count.
# 2. A wrong recorded input fingerprint fails the run: exit 1, with the
#    result line reading "correct": false.
# 3. In a directory holding only BENCHMARK.json and perfbench/, the run
#    exits non-zero without printing a result.
set -u
cd "$(dirname "$0")/.."
out=.perfbench_out/selftest
rm -rf "$out"
mkdir -p "$out"
status=0

fail() {
  echo "selftest: FAIL: $*" >&2
  status=1
}

# the deterministic metrics of a result line
deterministic() {
  tail -n 1 | python3 -c '
import json, sys
m = json.load(sys.stdin)["metrics"]
print({k: v["value"] for k, v in m.items()
       if k.startswith(("sim_", "slo_", "launches_"))})'
}

run() {
  python3 perfbench/run.py --workload "$1" --seed 7 --seconds 1 --trace 0
}

for w in train_rgcn2 serve_stream; do
  clean=$(run "$w" | deterministic)
  dirty=$(HECTOR_FAULT_RATE=0.5 HECTOR_FAULT_SEED=3 HECTOR_FUSE_OPS=0 HECTOR_ARENA=0 \
    HECTOR_SERVE_BATCH=2 HECTOR_STREAM_SLACK=3 run "$w" | deterministic)
  if [ -z "$clean" ] || [ "$clean" != "$dirty" ]; then
    fail "$w: HECTOR_* variables changed the simulated numbers: $clean vs $dirty"
  fi
done

python3 - "$out/wrong.json" <<'EOF'
import json, sys
f = json.load(open("perfbench/fingerprints.json"))
f["infer_attn"]["graph"] = "0" * 32
json.dump(f, open(sys.argv[1], "w"))
EOF
exe=_build/default/perfbench/main.exe
result=$("$exe" --workload infer_attn --seed 1 --seconds 1 --trace 0 --fingerprints "$out/wrong.json" 2>/dev/null)
code=$?
if [ "$code" -ne 1 ] || ! echo "$result" | tail -n 1 | grep -q '"correct": false'; then
  fail "a wrong fingerprint exited $code"
fi

mkdir -p "$out/bare"
cp BENCHMARK.json "$out/bare/"
cp -r perfbench "$out/bare/"
result=$(cd "$out/bare" && timeout 170 python3 perfbench/run.py --workload infer_attn --seed 1 --seconds 1 --trace 0 2>/dev/null)
code=$?
if [ "$code" -eq 0 ] || [ -n "$result" ]; then
  fail "a checkout without lib/ exited $code with output: $result"
fi
rm -rf "$out"

[ "$status" -eq 0 ] && echo "selftest: ok"
exit "$status"
