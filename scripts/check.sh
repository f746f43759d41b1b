#!/bin/sh
# check.sh — the PR gate: vet, build, race-enabled tests, the benchmark
# module's vet and tests, and a bench smoke over one paper table. The
# race detector is mandatory because the mapping pipeline is concurrent:
# every catchment, assignment, and experiment report must be identical
# at workers=1 and workers=N, and the determinism tests only mean
# something when the run is race-free.
#
#   ./scripts/check.sh          # full gate
#   VP_CHECK_SHORT=1 ./scripts/check.sh   # short-mode tests (quick loop)
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
UNFORMATTED=$(gofmt -l . 2>/dev/null)
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt: files need formatting:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== mdlint (intra-repo doc links)"
./scripts/mdlint.sh

echo "== go build ./..."
go build ./...

if [ "${VP_CHECK_SHORT:-}" = "1" ]; then
	echo "== go test -race -short ./..."
	go test -race -short ./...
else
	echo "== go test -race ./..."
	go test -race ./...
fi

# The benchmark (vpbench/) is a separate Go module that replaces back
# onto this repo, so ./... above skips it. It imports the repo's
# packages, so vet and test it too: an API change here must not leave
# the benchmark unbuildable.
echo "== vpbench module: go vet + go test"
(cd vpbench && go vet ./... && go test ./...)

# Fuzz smoke: the series decoder (monitor output, vp-server's saved
# series) reads untrusted bytes. A short fixed-time run of its native
# fuzz target must find no panic, no untyped error and no round-trip
# difference; a crasher lands in internal/dataset/testdata/fuzz/ and
# must be committed with its fix. Minimization is capped so a new
# corpus entry cannot eat the whole budget.
echo "== fuzz smoke (FuzzReadSeries, 15s)"
go test ./internal/dataset -run '^$' -fuzz '^FuzzReadSeries$' -fuzztime 15s \
	-fuzzminimizetime 1s -parallel 2

# Faults smoke: a fixed-seed lossy run must reproduce its golden
# response-rate line exactly — the fault layer's determinism contract
# (same profile seed => same drops at any worker count) collapsed to one
# grep. Recalibrate the golden only when the fault model itself changes.
echo "== faults smoke (tiny, moderate profile, fixed seed)"
want="response rate: 51.9% (2061 of 3974 targets mapped)"
got=$(go run ./cmd/verfploeter -scenario b-root -size tiny -seed 7 \
	-faults moderate -fault-seed 9 -retries 2 | grep "^response rate:")
if [ "$got" != "$want" ]; then
	echo "faults smoke FAILED:" >&2
	echo "  want: $want" >&2
	echo "  got:  $got" >&2
	exit 1
fi
echo "$got"

# Monitor smoke: a fixed-seed sampled monitoring campaign with an
# operator prepend at epoch 1 must reproduce its golden drift summary —
# flip count, event count, and probe volume — exactly. This pins the
# whole monitoring stack: subset sweeps, stratified escalation, drift
# classification. Recalibrate only when the monitor or fold semantics
# deliberately change.
echo "== monitor smoke (tiny, sampled, prepend at epoch 1)"
want="monitor: epochs=5 events=3 flips=1230 probes=12188 baseline=3974"
got=$(go run ./cmd/verfploeter -scenario b-root -size tiny -seed 7 \
	-monitor -epochs 5 -sample 0.25 -prepend 2,0 | grep "^monitor:")
if [ "$got" != "$want" ]; then
	echo "monitor smoke FAILED:" >&2
	echo "  want: $want" >&2
	echo "  got:  $got" >&2
	exit 1
fi
echo "$got"

# Predict smoke: the fixed-seed ext-predict experiment must reproduce
# its golden per-cause precision/recall line exactly — the probe-free
# predictor's exactness contract (triple diff, observable-flip filter,
# alias closure) and the fused monitor's stable-epoch saving collapsed
# to one grep. Recalibrate only when the predictor or the dataplane's
# serving function deliberately changes.
echo "== predict smoke (ext-predict, tiny, fixed seed)"
want="predict: prepend P=1.000 R=1.000 withdraw P=1.000 R=1.000 tie-break P=1.000 R=1.000 saving=4.0x"
got=$(go run ./cmd/vp-experiments -run ext-predict -size tiny -seed 7 \
	| grep "^predict: ")
if [ "$got" != "$want" ]; then
	echo "predict smoke FAILED:" >&2
	echo "  want: $want" >&2
	echo "  got:  $got" >&2
	exit 1
fi
echo "$got"

# Obsv smoke: a fixed-seed run with -metrics must reproduce its golden
# counter line exactly AND still print the exact same report as without
# the flag. probes_sent is pinned because it is worker-invariant (unlike
# route-cache hits, which depend on scheduling); it collapses the whole
# instrumentation path — registry wiring, per-round publishing, summary
# rendering — to one grep. Recalibrate only when the sweep itself changes.
echo "== obsv smoke (tiny, fixed seed, -metrics)"
want="counter probes_sent 3974"
got=$(go run ./cmd/verfploeter -scenario b-root -size tiny -seed 7 -metrics \
	| grep "^counter probes_sent ")
if [ "$got" != "$want" ]; then
	echo "obsv smoke FAILED:" >&2
	echo "  want: $want" >&2
	echo "  got:  $got" >&2
	exit 1
fi
echo "$got"

# Playbook smoke: a fixed-seed plan search must reproduce its golden
# "chosen plan" line exactly — the playbook's determinism contract
# (candidate order, delta-path route prediction, scoring, tie-breaks)
# collapsed to one grep. Recalibrate only when the grammar or scoring
# deliberately changes.
echo "== playbook smoke (tiny, concentrated 3x, fixed seed)"
want="chosen plan: lax+1 (target lax: util 1.47 -> 0.41, absorption 70%)"
got=$(go run ./cmd/verfploeter -scenario b-root -size tiny -seed 7 -playbook \
	-attack shape=concentrated,volume=3x,ases=12,seed=3 -capacity 2,4.5 \
	| grep "^chosen plan:")
if [ "$got" != "$want" ]; then
	echo "playbook smoke FAILED:" >&2
	echo "  want: $want" >&2
	echo "  got:  $got" >&2
	exit 1
fi
echo "$got"

# Internet-tier smoke: the columnar sweep core must map ~1.2M blocks
# end to end (topology gen, convergence, sweep, fold, streaming v4
# dataset save) inside a peak-RSS budget, and reproduce its golden
# response-rate line exactly — the scale contract of DESIGN.md §12.
# Peak memory comes from /usr/bin/time -v where present, else from
# polling /proc/<pid>/status VmHWM; if neither works the smoke still
# runs, only the budget check is skipped.
echo "== internet-tier smoke (1.2M blocks, peak-RSS budget)"
BUDGET_KB=1048576 # 1 GiB; a map-keyed fold or buffered writer blows well past this
VPDS_TMP=$(mktemp /tmp/vp-internet-XXXXXX.vpds)
go build -o /tmp/vp-check-bin ./cmd/verfploeter
PEAK_KB=""
if command -v /usr/bin/time >/dev/null 2>&1 && /usr/bin/time -v true >/dev/null 2>&1; then
	/usr/bin/time -v /tmp/vp-check-bin -scenario b-root -size internet -seed 1 \
		-save-dataset "$VPDS_TMP" >/tmp/vp-internet-out.txt 2>/tmp/vp-internet-time.txt
	PEAK_KB=$(awk '/Maximum resident set size/{print $NF}' /tmp/vp-internet-time.txt)
elif [ -d /proc ]; then
	/tmp/vp-check-bin -scenario b-root -size internet -seed 1 \
		-save-dataset "$VPDS_TMP" >/tmp/vp-internet-out.txt &
	VP_PID=$!
	PEAK_KB=0
	while kill -0 "$VP_PID" 2>/dev/null; do
		HWM=$(awk '/VmHWM/{print $2}' "/proc/$VP_PID/status" 2>/dev/null || true)
		if [ -n "${HWM:-}" ] && [ "$HWM" -gt "$PEAK_KB" ]; then PEAK_KB=$HWM; fi
		sleep 0.1
	done
	wait "$VP_PID"
else
	/tmp/vp-check-bin -scenario b-root -size internet -seed 1 \
		-save-dataset "$VPDS_TMP" >/tmp/vp-internet-out.txt
fi
want="response rate: 48.7% (602667 of 1236283 targets mapped)"
got=$(grep "^response rate:" /tmp/vp-internet-out.txt)
if [ "$got" != "$want" ]; then
	echo "internet smoke FAILED:" >&2
	echo "  want: $want" >&2
	echo "  got:  $got" >&2
	exit 1
fi
if [ ! -s "$VPDS_TMP" ]; then
	echo "internet smoke FAILED: dataset not written" >&2
	exit 1
fi
if [ -n "${PEAK_KB:-}" ] && [ "$PEAK_KB" -gt 0 ]; then
	if [ "$PEAK_KB" -gt "$BUDGET_KB" ]; then
		echo "internet smoke FAILED: peak RSS ${PEAK_KB}kB > budget ${BUDGET_KB}kB" >&2
		exit 1
	fi
	echo "$got (peak RSS ${PEAK_KB}kB, budget ${BUDGET_KB}kB)"
else
	echo "$got (peak RSS unavailable, budget check skipped)"
fi
rm -f "$VPDS_TMP" /tmp/vp-check-bin

# vp-server smoke: start the daemon on a loopback port with the same
# fixed-seed tiny tenant the other smokes use, and pin the three read
# endpoints — healthz, lookup (an annotated mapped address), sites —
# as exact JSON goldens: the snapshot path is deterministic end to end
# (same catchment, same annotations, same load table). Then SIGTERM and
# require a clean drain: exit 0, the "clean shutdown" line, and the
# tenant's series file flushed on the way out. Recalibrate the goldens
# only when the measurement or annotation semantics deliberately change.
echo "== vp-server smoke (loopback, fixed-seed tenant, SIGTERM drain)"
SRV_DIR=$(mktemp -d /tmp/vp-server-XXXXXX)
go build -o "$SRV_DIR/vp-server" ./cmd/vp-server
"$SRV_DIR/vp-server" -addr 127.0.0.1:0 \
	-tenant name=t1,scenario=b-root,size=tiny,seed=7 \
	-save-series-dir "$SRV_DIR/series" >"$SRV_DIR/out.txt" 2>&1 &
SRV_PID=$!
ADDR=""
i=0
while [ $i -lt 100 ]; do
	ADDR=$(awk '/^listening on http/{sub("http://","",$3); print $3; exit}' "$SRV_DIR/out.txt" 2>/dev/null || true)
	[ -n "$ADDR" ] && break
	if ! kill -0 "$SRV_PID" 2>/dev/null; then
		echo "vp-server smoke FAILED: daemon died before listening" >&2
		cat "$SRV_DIR/out.txt" >&2
		exit 1
	fi
	sleep 0.1
	i=$((i + 1))
done
if [ -z "$ADDR" ]; then
	echo "vp-server smoke FAILED: no listening line" >&2
	cat "$SRV_DIR/out.txt" >&2
	exit 1
fi
srv_golden() { # srv_golden NAME URL WANT
	want="$3"
	got=$(curl -fsS "http://$ADDR$2") || {
		echo "vp-server smoke FAILED: curl $2" >&2
		exit 1
	}
	if [ "$got" != "$want" ]; then
		echo "vp-server smoke FAILED ($1):" >&2
		echo "  want: $want" >&2
		echo "  got:  $got" >&2
		exit 1
	fi
	echo "$1 OK"
}
srv_golden healthz "/healthz" \
	'{"status":"ok","tenants":1,"epochs":{"t1":0},"blocks":{"t1":2191}}'
srv_golden lookup "/v1/tenants/t1/lookup?ip=1.14.149.77" \
	'{"tenant":"t1","epoch":0,"ip":"1.14.149.77","block":"1.14.149.0/24","mapped":true,"site":"mia","site_index":1,"rtt_ns":71545265,"asn":2030,"as":"TRANSIT-BR-2030","country":"BR"}'
srv_golden sites "/v1/tenants/t1/sites" \
	'{"tenant":"t1","epoch":0,"swept":false,"sites":[{"code":"lax","blocks":1608,"block_share":0.7339114559561843,"load_share":0.7339114559561843},{"code":"mia","blocks":583,"block_share":0.2660885440438156,"load_share":0.2660885440438156}]}'
# The drift endpoint must reject a negative since (epochs start at 0)
# instead of silently dumping the whole event log.
DRIFT_RC=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/v1/tenants/t1/drift?since=-1")
if [ "$DRIFT_RC" != "400" ]; then
	echo "vp-server smoke FAILED: drift?since=-1 returned $DRIFT_RC, want 400" >&2
	exit 1
fi
echo "drift since=-1 rejected OK (400)"
kill -TERM "$SRV_PID"
SRV_RC=0
wait "$SRV_PID" || SRV_RC=$?
if [ "$SRV_RC" -ne 0 ]; then
	echo "vp-server smoke FAILED: exit code $SRV_RC after SIGTERM" >&2
	cat "$SRV_DIR/out.txt" >&2
	exit 1
fi
if ! grep -q "^vp-server: clean shutdown$" "$SRV_DIR/out.txt"; then
	echo "vp-server smoke FAILED: no clean-shutdown line" >&2
	cat "$SRV_DIR/out.txt" >&2
	exit 1
fi
if [ ! -s "$SRV_DIR/series/t1.vpds" ]; then
	echo "vp-server smoke FAILED: series not flushed on shutdown" >&2
	exit 1
fi
echo "SIGTERM drain OK (series flushed)"
rm -rf "$SRV_DIR"

# Default (medium) size: the shape checks embedded in the benchmark are
# calibrated for medium/large and intentionally MISS at small/tiny.
# bench.sh smoke covers table4 plus the route fast path (BGPCompute,
# ReannounceSweep, ExportRoutes) at 1 iteration without writing JSON.
echo "== bench smoke (1 iteration, medium)"
./scripts/bench.sh smoke

# Allocs/op regression gates: each benchmark's allocation profile is a
# contract, and a run fails when it exceeds the recorded budget by >20%.
# Re-pin a budget only when the pipeline deliberately gains an
# allocation site. Budgets hold at any GOMAXPROCS: per-worker scratch is
# allocated once per pool, not once per chunk.
#
#   allocs_gate BENCH BUDGET BENCHTIME
allocs_gate() {
	echo "== allocs/op gate ($1)"
	GOT_ALLOCS=$(go test -run '^$' -bench "^Benchmark$1\$" -benchtime "$3" -benchmem . 2>&1 |
		awk -v name="Benchmark$1" 'index($1, name) == 1 {for(i=2;i<NF;i++) if ($(i+1)=="allocs/op") print $i}')
	if [ -z "${GOT_ALLOCS:-}" ]; then
		echo "allocs gate FAILED: could not parse $1 allocs/op" >&2
		exit 1
	fi
	ALLOC_LIMIT=$(($2 + $2 / 5))
	if [ "$GOT_ALLOCS" -gt "$ALLOC_LIMIT" ]; then
		echo "allocs gate FAILED: $1 ${GOT_ALLOCS} allocs/op > limit ${ALLOC_LIMIT} (budget $2 +20%)" >&2
		exit 1
	fi
	echo "$1 allocs/op=${GOT_ALLOCS} (budget $2, limit ${ALLOC_LIMIT})"
}

# BGPCompute: the flat route state's contract — slab-per-compute plus
# arena chunks, not per-AS garbage (the pre-columnar code sat at ~53k
# allocs/op). Budget recorded 2026-08 at medium tier (BENCH_*.json).
allocs_gate BGPCompute 90 5x

# InternetSweep: one internet-tier round plus its streamed v4 dataset.
# The v4 writer's helpers append into the bufio buffer instead of
# escaping a temporary per field (1.81M allocs/op before); what is left
# is per-chunk sweep state. Budget: the larger of 1,551 (-cpu 1) and
# 1,566 (-cpu 2) allocs/op, measured 2026-10 on a 2-vCPU container.
allocs_gate InternetSweep 1566 3x

# PredictEpoch: one stable fused monitor epoch at the medium tier. The
# id-keyed epoch keeps its sets in dense bitsets and reads catchment
# columns by id, so what is left is per-sweep state (6.4k allocs/op
# before). Budget: the larger of 187 (-cpu 1) and 205 (-cpu 2)
# allocs/op over 8 epochs, measured 2026-10 on a 2-vCPU container.
allocs_gate PredictEpoch 205 8x

echo "check.sh: all green"
