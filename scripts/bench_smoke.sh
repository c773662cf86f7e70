#!/usr/bin/env bash
# Bench-regression smoke: run the dispatcher fast-path benchmark, the
# Table 3 thread-management benchmark, the parallel-strand scaling
# benchmark, and the C10M connection-table probes; emit the results as
# BENCH_sched.json; fail the build if
#   - the dispatch raise fast path regressed more than 10% against the
#     committed BENCH_baseline.json, or
#   - 4 virtual CPUs no longer deliver >= 2x the 1-CPU strand throughput, or
#   - TCP connection setup (sharded-table insert + syncookie completion)
#     regressed more than 10% against the baseline, or
#   - the steady-state TCP RX path allocates at all (any allocs/op above
#     the committed rx_allocs_per_packet baseline fails — no 10% slack:
#     one alloc per packet is the whole regression), or
#   - vnet per-hop forwarding (switched-topology link traversal) regressed
#     more than 2x against the baseline. The 2x allowance absorbs CI
#     wall-clock noise; the gate catches order-of-magnitude regressions in
#     the topology hot path, or
#   - DNS resolve or dial-to-established VIRTUAL latency over the reference
#     3-machine star grew more than 10%. These two are deterministic
#     virtual-time measurements, so any growth is a real protocol change
#     (an extra round trip, a spurious retransmit), never host noise, or
#   - the balancer's ring pick allocates at all (it sits on every dial;
#     zero-alloc is the invariant) or slows more than 2x wall-clock, or
#   - failover re-convergence (kill a backend under health checks, wait
#     for the breaker to eject it) moved more than 10% in VIRTUAL time:
#     deterministic, so drift means probe cadence or breaker thresholds
#     actually changed, or
#   - the compiled bytecode filter allocates at all (it runs per packet;
#     zero-alloc is the invariant) or slows more than 2x wall-clock, or
#   - RX with an XDP program attached costs more than 2x bare RX, measured
#     in the same run (a ratio, so host noise largely cancels), or
#   - the per-frame replay digest (one 1500-byte frame folded into a link
#     digest) allocates at all or slows more than 2x wall-clock, or
#   - one cluster step over 39 engines (pick the earliest engine, run its
#     event, schedule the next) slows more than 2x wall-clock, or
#   - an idle machine (live heap of a fresh 64-machine star, per machine)
#     costs more than 1.25x its baseline. Live heap after a full GC is
#     deterministic; the slack is for deliberate per-machine additions, or
#   - a vnet hop allocates at all (frames travel as posted events to
#     long-lived handlers; zero-alloc is the invariant), or
#   - a lossless 1 MB TCP transfer allocates more per data segment than
#     its baseline (any growth fails; the baseline is the measured figure
#     rounded up to two decimals, because refilling the packet pool after
#     a GC moves it by about 1%), or
#   - one in-kernel HTTP GET of a 3,000-byte document over a 2-host star
#     puts any other number of segments on the wire than its baseline (an
#     exact gate: a duplicate FIN, a stray RST or an ACK that no longer
#     rides on data changes the count, in either direction), or allocates
#     more than its baseline (any growth fails).
#
# The dispatch and conn-setup numbers are the min over BENCH_COUNT runs:
# both are short loops dominated by scheduler noise, so min-of-N is the
# noise-robust statistic.
set -euo pipefail
cd "$(dirname "$0")/.."

runs=${BENCH_COUNT:-5}
out=${BENCH_OUT:-BENCH_sched.json}
baseline=${BENCH_BASELINE:-BENCH_baseline.json}

echo "== dispatch raise fast path (min of $runs runs) =="
dispatch_out=$(go test -run '^$' -bench 'DispatchRaiseParallel1$' -benchtime=300000x -count="$runs" .)
echo "$dispatch_out"
dispatch_ns=$(echo "$dispatch_out" | awk '$1 ~ /^BenchmarkDispatchRaiseParallel1($|-)/ {print $3}' | sort -g | head -1)

# metric extracts a named custom metric ("value unit" pairs) from a
# benchmark output line.
metric() { # metric <output> <bench-name-prefix> <unit>
  echo "$1" | awk -v bench="$2" -v unit="$3" '
    $1 ~ "^"bench"($|-)" { for (i = 2; i <= NF; i++) if ($i == unit) print $(i-1) }'
}

echo "== Table 3 thread management =="
table3_out=$(go test -run '^$' -bench 'Table3Threads$' -benchtime=1x .)
echo "$table3_out"
forkjoin=$(metric "$table3_out" BenchmarkTable3Threads "spin-kern-forkjoin-µs")
pingpong=$(metric "$table3_out" BenchmarkTable3Threads "spin-kern-pingpong-µs")

echo "== parallel strand scaling =="
par_out=$(go test -run '^$' -bench 'ParallelStrands(1|4)$' -benchtime=1x .)
echo "$par_out"
mk1=$(metric "$par_out" BenchmarkParallelStrands1 "makespan-µs")
mk4=$(metric "$par_out" BenchmarkParallelStrands4 "makespan-µs")
steals4=$(metric "$par_out" BenchmarkParallelStrands4 "steals")

echo "== TCP connection setup (min of $runs runs) =="
setup_out=$(go test -run '^$' -bench 'TCPConnSetup$' -benchtime=1x -count="$runs" .)
echo "$setup_out"
conn_setup_ns=$(metric "$setup_out" BenchmarkTCPConnSetup "conn-setup-ns" | sort -g | head -1)

echo "== TCP steady-state RX allocations =="
rx_out=$(go test -run '^$' -bench 'TCPSteadyRX$' -benchtime=200000x -benchmem .)
echo "$rx_out"
rx_allocs=$(metric "$rx_out" BenchmarkTCPSteadyRX "allocs/op")

echo "== vnet per-hop forwarding (min of $runs runs) =="
vnet_out=$(go test -run '^$' -bench 'VnetHop$' -benchtime=20000x -count="$runs" ./internal/vnet/)
echo "$vnet_out"
vnet_hop_ns=$(metric "$vnet_out" BenchmarkVnetHop "vnet-hop-ns" | sort -g | head -1)
vnet_hop_allocs=$(metric "$vnet_out" BenchmarkVnetHop "allocs/op" | sort -g | head -1)

echo "== TCP bulk send allocations (min of $runs runs) =="
send_out=$(go test -run '^$' -bench 'TCPBulkSend$' -benchtime=20x -count="$runs" .)
echo "$send_out"
tcp_send_allocs_per_seg=$(metric "$send_out" BenchmarkTCPBulkSend "allocs/seg" | sort -g | head -1)

echo "== naming: resolve + dial virtual latency =="
name_out=$(go test -run '^$' -bench 'DNSResolve$|DialEstablished$' -benchtime=3x .)
echo "$name_out"
dns_resolve_ns=$(metric "$name_out" BenchmarkDNSResolve "dns-resolve-ns")
dial_established_ns=$(metric "$name_out" BenchmarkDialEstablished "dial-established-ns")

echo "== lb ring pick (min of $runs runs) =="
lb_out=$(go test -run '^$' -bench 'LBPick$' -benchtime=200000x -benchmem -count="$runs" ./internal/lb/)
echo "$lb_out"
lb_pick_ns=$(metric "$lb_out" BenchmarkLBPick "lb-pick-ns" | sort -g | head -1)
lb_pick_allocs=$(metric "$lb_out" BenchmarkLBPick "allocs/op" | sort -g | head -1)

echo "== bcode filter + XDP RX overhead (min of $runs runs) =="
bcode_out=$(go test -run '^$' -bench 'Filter(Compiled|Interpreted)$|RXBare$|RXXDP$' -benchtime=300000x -benchmem -count="$runs" .)
echo "$bcode_out"
bcode_filter_ns=$(echo "$bcode_out" | awk '$1 ~ /^BenchmarkFilterCompiled($|-)/ {print $3}' | sort -g | head -1)
bcode_filter_allocs=$(metric "$bcode_out" BenchmarkFilterCompiled "allocs/op" | sort -g | head -1)
bcode_interp_ns=$(echo "$bcode_out" | awk '$1 ~ /^BenchmarkFilterInterpreted($|-)/ {print $3}' | sort -g | head -1)
rx_bare_ns=$(echo "$bcode_out" | awk '$1 ~ /^BenchmarkRXBare($|-)/ {print $3}' | sort -g | head -1)
rx_xdp_ns=$(echo "$bcode_out" | awk '$1 ~ /^BenchmarkRXXDP($|-)/ {print $3}' | sort -g | head -1)

echo "== failover re-convergence virtual latency =="
fo_out=$(go test -run '^$' -bench 'FailoverReconverge$' -benchtime=1x ./internal/vnet/)
echo "$fo_out"
failover_reconverge_ns=$(metric "$fo_out" BenchmarkFailoverReconverge "failover-reconverge-ns")

echo "== simulator per-frame digest and per-event step (min of $runs runs) =="
simcost_out=$(go test -run '^$' -bench 'FrameDigest$' -benchtime=200000x -benchmem -count="$runs" ./internal/vnet/
  go test -run '^$' -bench 'ClusterStep$' -benchtime=200000x -count="$runs" ./internal/sim/)
echo "$simcost_out"
frame_digest_ns=$(metric "$simcost_out" BenchmarkFrameDigest "frame-digest-ns" | sort -g | head -1)
frame_digest_allocs=$(metric "$simcost_out" BenchmarkFrameDigest "allocs/op" | sort -g | head -1)
cluster_step_ns=$(metric "$simcost_out" BenchmarkClusterStep "cluster-step-ns" | sort -g | head -1)

echo "== HTTP GET exchange: segments and allocations (min of $runs runs) =="
http_out=$(go test -run '^$' -bench 'HTTPGetExchange$' -benchtime=2000x -count="$runs" .)
echo "$http_out"
http_get_segments=$(metric "$http_out" BenchmarkHTTPGetExchange "segments/op" | sort -g | head -1)
http_get_allocs=$(metric "$http_out" BenchmarkHTTPGetExchange "allocs/op" | sort -g | head -1)

echo "== idle machine heap =="
idle_out=$(go test -run '^$' -bench 'IdleMachineHeap$' -benchtime=1x ./internal/vnet/)
echo "$idle_out"
idle_machine_heap_kb=$(metric "$idle_out" BenchmarkIdleMachineHeap "idle-machine-heap-kb")

for v in "$dispatch_ns" "$forkjoin" "$pingpong" "$mk1" "$mk4" "$conn_setup_ns" "$rx_allocs" "$vnet_hop_ns" "$dns_resolve_ns" "$dial_established_ns" "$lb_pick_ns" "$lb_pick_allocs" "$failover_reconverge_ns" "$bcode_filter_ns" "$bcode_filter_allocs" "$bcode_interp_ns" "$rx_bare_ns" "$rx_xdp_ns" "$frame_digest_ns" "$frame_digest_allocs" "$cluster_step_ns" "$idle_machine_heap_kb" "$vnet_hop_allocs" "$tcp_send_allocs_per_seg" "$http_get_segments" "$http_get_allocs"; do
  if [ -z "$v" ]; then
    echo "FAIL: could not parse a benchmark metric" >&2
    exit 1
  fi
done

cat > "$out" <<JSON
{
  "dispatch_raise_ns": $dispatch_ns,
  "table3_spin_kern_forkjoin_us": $forkjoin,
  "table3_spin_kern_pingpong_us": $pingpong,
  "parallel_makespan_1cpu_us": $mk1,
  "parallel_makespan_4cpu_us": $mk4,
  "parallel_steals_4cpu": $steals4,
  "conn_setup_ns": $conn_setup_ns,
  "rx_allocs_per_packet": $rx_allocs,
  "vnet_hop_ns": $vnet_hop_ns,
  "dns_resolve_ns": $dns_resolve_ns,
  "dial_established_ns": $dial_established_ns,
  "lb_pick_ns": $lb_pick_ns,
  "lb_pick_allocs": $lb_pick_allocs,
  "failover_reconverge_ns": $failover_reconverge_ns,
  "bcode_filter_ns": $bcode_filter_ns,
  "bcode_filter_allocs": $bcode_filter_allocs,
  "bcode_interp_ns": $bcode_interp_ns,
  "rx_bare_ns": $rx_bare_ns,
  "rx_xdp_ns": $rx_xdp_ns,
  "frame_digest_ns": $frame_digest_ns,
  "frame_digest_allocs": $frame_digest_allocs,
  "cluster_step_ns": $cluster_step_ns,
  "idle_machine_heap_kb": $idle_machine_heap_kb,
  "vnet_hop_allocs": $vnet_hop_allocs,
  "tcp_send_allocs_per_seg": $tcp_send_allocs_per_seg,
  "http_get_segments": $http_get_segments,
  "http_get_allocs": $http_get_allocs
}
JSON
echo "wrote $out:"
cat "$out"

base_ns=$(awk -F'[:,]' '/"dispatch_raise_ns"/ {gsub(/[[:space:]]/, "", $2); print $2}' "$baseline")
if [ -z "$base_ns" ]; then
  echo "FAIL: no dispatch_raise_ns in $baseline" >&2
  exit 1
fi
awk -v cur="$dispatch_ns" -v base="$base_ns" 'BEGIN {
  limit = base * 1.10
  printf "dispatch fast path: %s ns/op (baseline %s, limit %.2f)\n", cur, base, limit
  if (cur + 0 > limit) { print "FAIL: dispatch raise fast path regressed >10% vs committed baseline"; exit 1 }
}'
awk -v one="$mk1" -v four="$mk4" 'BEGIN {
  if (four + 0 <= 0 || one / four < 2) {
    printf "FAIL: 4-CPU parallel-strand speedup %.2fx, want >= 2x\n", one / four; exit 1
  }
  printf "parallel strands: 4-CPU speedup %.2fx in virtual time\n", one / four
}'

base_setup=$(awk -F'[:,]' '/"conn_setup_ns"/ {gsub(/[[:space:]]/, "", $2); print $2}' "$baseline")
base_rx_allocs=$(awk -F'[:,]' '/"rx_allocs_per_packet"/ {gsub(/[[:space:]]/, "", $2); print $2}' "$baseline")
if [ -z "$base_setup" ] || [ -z "$base_rx_allocs" ]; then
  echo "FAIL: no conn_setup_ns / rx_allocs_per_packet in $baseline" >&2
  exit 1
fi
awk -v cur="$conn_setup_ns" -v base="$base_setup" 'BEGIN {
  limit = base * 1.10
  printf "tcp conn setup: %s ns/conn (baseline %s, limit %.2f)\n", cur, base, limit
  if (cur + 0 > limit) { print "FAIL: TCP connection setup regressed >10% vs committed baseline"; exit 1 }
}'
awk -v cur="$rx_allocs" -v base="$base_rx_allocs" 'BEGIN {
  printf "tcp steady RX: %s allocs/packet (baseline %s; any growth fails)\n", cur, base
  if (cur + 0 > base + 0) { print "FAIL: steady-state TCP RX path started allocating per packet"; exit 1 }
}'

base_hop=$(awk -F'[:,]' '/"vnet_hop_ns"/ {gsub(/[[:space:]]/, "", $2); print $2}' "$baseline")
if [ -z "$base_hop" ]; then
  echo "FAIL: no vnet_hop_ns in $baseline" >&2
  exit 1
fi
awk -v cur="$vnet_hop_ns" -v base="$base_hop" 'BEGIN {
  limit = base * 2.0
  printf "vnet per-hop forwarding: %s ns/hop (baseline %s, limit %.2f)\n", cur, base, limit
  if (cur + 0 > limit) { print "FAIL: vnet per-hop forwarding regressed >2x vs committed baseline"; exit 1 }
}'

# dns-resolve-ns and dial-established-ns are VIRTUAL time: fully
# deterministic, so any growth is a real behavioral change (an extra round
# trip would show up as ~+40%), not CI noise. 10% slack covers deliberate
# per-packet cost-model tweaks without a baseline bump.
base_resolve=$(awk -F'[:,]' '/"dns_resolve_ns"/ {gsub(/[[:space:]]/, "", $2); print $2}' "$baseline")
base_dial=$(awk -F'[:,]' '/"dial_established_ns"/ {gsub(/[[:space:]]/, "", $2); print $2}' "$baseline")
if [ -z "$base_resolve" ] || [ -z "$base_dial" ]; then
  echo "FAIL: no dns_resolve_ns / dial_established_ns in $baseline" >&2
  exit 1
fi
awk -v cur="$dns_resolve_ns" -v base="$base_resolve" 'BEGIN {
  limit = base * 1.10
  printf "dns resolve: %s virtual ns (baseline %s, limit %.0f)\n", cur, base, limit
  if (cur + 0 > limit) { print "FAIL: DNS resolve virtual latency regressed >10% vs committed baseline"; exit 1 }
}'
awk -v cur="$dial_established_ns" -v base="$base_dial" 'BEGIN {
  limit = base * 1.10
  printf "dial to established: %s virtual ns (baseline %s, limit %.0f)\n", cur, base, limit
  if (cur + 0 > limit) { print "FAIL: dial-to-established virtual latency regressed >10% vs committed baseline"; exit 1 }
}'

# lb pick: the ring sits on every balanced dial. Allocation gate is strict
# (zero is the invariant); the ns gate carries 2x slack for wall-clock
# noise, like vnet_hop_ns.
base_pick=$(awk -F'[:,]' '/"lb_pick_ns"/ {gsub(/[[:space:]]/, "", $2); print $2}' "$baseline")
base_pick_allocs=$(awk -F'[:,]' '/"lb_pick_allocs"/ {gsub(/[[:space:]]/, "", $2); print $2}' "$baseline")
if [ -z "$base_pick" ] || [ -z "$base_pick_allocs" ]; then
  echo "FAIL: no lb_pick_ns / lb_pick_allocs in $baseline" >&2
  exit 1
fi
awk -v cur="$lb_pick_allocs" -v base="$base_pick_allocs" 'BEGIN {
  printf "lb ring pick: %s allocs/op (baseline %s; any growth fails)\n", cur, base
  if (cur + 0 > base + 0) { print "FAIL: balancer ring pick started allocating"; exit 1 }
}'
awk -v cur="$lb_pick_ns" -v base="$base_pick" 'BEGIN {
  limit = base * 2.0
  printf "lb ring pick: %s ns/pick (baseline %s, limit %.2f)\n", cur, base, limit
  if (cur + 0 > limit) { print "FAIL: balancer ring pick regressed >2x vs committed baseline"; exit 1 }
}'

# failover_reconverge_ns is VIRTUAL time (probe cadence + breaker
# threshold), fully deterministic; 10% slack covers deliberate cost-model
# tweaks only.
base_reconv=$(awk -F'[:,]' '/"failover_reconverge_ns"/ {gsub(/[[:space:]]/, "", $2); print $2}' "$baseline")
if [ -z "$base_reconv" ]; then
  echo "FAIL: no failover_reconverge_ns in $baseline" >&2
  exit 1
fi
awk -v cur="$failover_reconverge_ns" -v base="$base_reconv" 'BEGIN {
  limit = base * 1.10
  printf "failover re-convergence: %s virtual ns (baseline %s, limit %.0f)\n", cur, base, limit
  if (cur + 0 > limit) { print "FAIL: failover re-convergence virtual latency regressed >10% vs committed baseline"; exit 1 }
}'

# bcode filter: the compiled program runs once per received packet when a
# filter is attached. Allocation gate is strict (zero is the invariant —
# the contexts are pooled precisely so this holds); the ns gate carries 2x
# slack for wall-clock noise, like vnet_hop_ns. The XDP-vs-bare gate is a
# same-run ratio, so host speed cancels out: an attached filter may at most
# double per-packet RX cost.
base_bfilter=$(awk -F'[:,]' '/"bcode_filter_ns"/ {gsub(/[[:space:]]/, "", $2); print $2}' "$baseline")
base_bfilter_allocs=$(awk -F'[:,]' '/"bcode_filter_allocs"/ {gsub(/[[:space:]]/, "", $2); print $2}' "$baseline")
if [ -z "$base_bfilter" ] || [ -z "$base_bfilter_allocs" ]; then
  echo "FAIL: no bcode_filter_ns / bcode_filter_allocs in $baseline" >&2
  exit 1
fi
awk -v cur="$bcode_filter_allocs" -v base="$base_bfilter_allocs" 'BEGIN {
  printf "bcode compiled filter: %s allocs/op (baseline %s; any growth fails)\n", cur, base
  if (cur + 0 > base + 0) { print "FAIL: compiled bytecode filter started allocating"; exit 1 }
}'
awk -v cur="$bcode_filter_ns" -v base="$base_bfilter" 'BEGIN {
  limit = base * 2.0
  printf "bcode compiled filter: %s ns/run (baseline %s, limit %.2f)\n", cur, base, limit
  if (cur + 0 > limit) { print "FAIL: compiled bytecode filter regressed >2x vs committed baseline"; exit 1 }
}'
awk -v bare="$rx_bare_ns" -v xdp="$rx_xdp_ns" 'BEGIN {
  if (bare + 0 <= 0 || xdp / bare > 2.0) {
    printf "FAIL: RX with XDP filter costs %.2fx bare RX, want <= 2x\n", xdp / bare; exit 1
  }
  printf "xdp rx overhead: %.2fx bare RX (%s vs %s ns/packet, same run)\n", xdp / bare, xdp, bare
}'
# Simulator bookkeeping: the replay digest runs on every delivered frame
# and the cluster step on every event, so together they bound how much
# traffic a wall-clock second can simulate. The digest's allocation gate is
# strict (zero is the invariant); both ns gates carry 2x slack for
# wall-clock noise, like vnet_hop_ns.
base_digest=$(awk -F'[:,]' '/"frame_digest_ns"/ {gsub(/[[:space:]]/, "", $2); print $2}' "$baseline")
base_digest_allocs=$(awk -F'[:,]' '/"frame_digest_allocs"/ {gsub(/[[:space:]]/, "", $2); print $2}' "$baseline")
base_step=$(awk -F'[:,]' '/"cluster_step_ns"/ {gsub(/[[:space:]]/, "", $2); print $2}' "$baseline")
if [ -z "$base_digest" ] || [ -z "$base_digest_allocs" ] || [ -z "$base_step" ]; then
  echo "FAIL: no frame_digest_ns / frame_digest_allocs / cluster_step_ns in $baseline" >&2
  exit 1
fi
awk -v cur="$frame_digest_allocs" -v base="$base_digest_allocs" 'BEGIN {
  printf "frame digest: %s allocs/frame (baseline %s; any growth fails)\n", cur, base
  if (cur + 0 > base + 0) { print "FAIL: per-frame replay digest started allocating"; exit 1 }
}'
awk -v cur="$frame_digest_ns" -v base="$base_digest" 'BEGIN {
  limit = base * 2.0
  printf "frame digest: %s ns/1500-B frame (baseline %s, limit %.2f)\n", cur, base, limit
  if (cur + 0 > limit) { print "FAIL: per-frame replay digest regressed >2x vs committed baseline"; exit 1 }
}'
awk -v cur="$cluster_step_ns" -v base="$base_step" 'BEGIN {
  limit = base * 2.0
  printf "cluster step: %s ns/event over 39 engines (baseline %s, limit %.2f)\n", cur, base, limit
  if (cur + 0 > limit) { print "FAIL: cluster step regressed >2x vs committed baseline"; exit 1 }
}'
base_idle=$(awk -F'[:,]' '/"idle_machine_heap_kb"/ {gsub(/[[:space:]]/, "", $2); print $2}' "$baseline")
if [ -z "$base_idle" ]; then
  echo "FAIL: no idle_machine_heap_kb in $baseline" >&2
  exit 1
fi
awk -v cur="$idle_machine_heap_kb" -v base="$base_idle" 'BEGIN {
  limit = base * 1.25
  printf "idle machine heap: %s KB/machine (baseline %s, limit %.2f)\n", cur, base, limit
  if (cur + 0 > limit) { print "FAIL: idle machine heap grew >25% vs committed baseline"; exit 1 }
}'
# Data-path allocations: a frame hop and a bulk TCP segment. Both gates are
# strict (any growth over the baseline fails).
base_hop_allocs=$(awk -F'[:,]' '/"vnet_hop_allocs"/ {gsub(/[[:space:]]/, "", $2); print $2}' "$baseline")
base_send_allocs=$(awk -F'[:,]' '/"tcp_send_allocs_per_seg"/ {gsub(/[[:space:]]/, "", $2); print $2}' "$baseline")
if [ -z "$base_hop_allocs" ] || [ -z "$base_send_allocs" ]; then
  echo "FAIL: no vnet_hop_allocs / tcp_send_allocs_per_seg in $baseline" >&2
  exit 1
fi
awk -v cur="$vnet_hop_allocs" -v base="$base_hop_allocs" 'BEGIN {
  printf "vnet hop: %s allocs/datagram (baseline %s; any growth fails)\n", cur, base
  if (cur + 0 > base + 0) { print "FAIL: vnet frame hop started allocating"; exit 1 }
}'
awk -v cur="$tcp_send_allocs_per_seg" -v base="$base_send_allocs" 'BEGIN {
  printf "tcp bulk send: %s allocs/segment (baseline %s; any growth fails)\n", cur, base
  if (cur + 0 > base + 0) { print "FAIL: TCP bulk send allocates more per segment than its baseline"; exit 1 }
}'
# HTTP GET exchange: the segment count is deterministic virtual traffic, so
# the gate is exact; the allocation gate is strict (any growth fails).
base_http_segs=$(awk -F'[:,]' '/"http_get_segments"/ {gsub(/[[:space:]]/, "", $2); print $2}' "$baseline")
base_http_allocs=$(awk -F'[:,]' '/"http_get_allocs"/ {gsub(/[[:space:]]/, "", $2); print $2}' "$baseline")
if [ -z "$base_http_segs" ] || [ -z "$base_http_allocs" ]; then
  echo "FAIL: no http_get_segments / http_get_allocs in $baseline" >&2
  exit 1
fi
awk -v cur="$http_get_segments" -v base="$base_http_segs" 'BEGIN {
  printf "http get exchange: %s segments (baseline %s; must match exactly)\n", cur, base
  if (cur + 0 != base + 0) { print "FAIL: HTTP GET exchange puts a different number of segments on the wire than its baseline"; exit 1 }
}'
awk -v cur="$http_get_allocs" -v base="$base_http_allocs" 'BEGIN {
  printf "http get exchange: %s allocs/op (baseline %s; any growth fails)\n", cur, base
  if (cur + 0 > base + 0) { print "FAIL: HTTP GET exchange allocates more than its baseline"; exit 1 }
}'
echo "bench smoke OK"
