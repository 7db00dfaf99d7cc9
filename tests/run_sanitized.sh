#!/usr/bin/env bash
# Build and run the transport-facing test suites under ASan+UBSan.
#
# The reliable transport keeps segments (and their retransmission timers)
# in flight across the event loop; this is where lifetime bugs live. A
# plain build can pass tests while reading freed endpoints — run this
# before touching src/net or src/rpc.
#
# The observability suites ride along: tracer spans are ended from async
# continuations that can outlive the component that began them, and the
# tail sampler pins/unpins ring entries from a finish hook — the same
# class of lifetime bug. The host profiler suite matters doubly here: it
# exercises the global operator new/delete hooks under ASan's allocator
# interposition, catching any mismatch in the override set.
#
# The protocol suite puts the shared field-list codec (rpc/fields.h)
# through every 3GPP message type, decoding each into its variant in place.
#
# The gateway and failover suites restore AGW checkpoints onto live and
# backup instances: a restore decodes every section before it replaces
# sessions, data-plane rules and the address pool that timers and flows
# still point at.
#
# The sessiond and policy suites are the only users of the OCS RPCs: their
# SessiondOcs and PolicyTest cases send quota and reconcile requests through
# the field-list codec and answer them from continuations.
#
# The metricsd suite inserts rows into the middle of a series, evicts
# chunks from its front and rebinds rule indices as rules come and go; its
# sweep against the sample-list reference runs every query after each
# step. SymbolTable covers the interned names those rows point at.
#
# The RAN suites (LTE attach, mobility, multi-RAT and the RadioCell pins)
# drive the shared cell of ran/cell.h: a cell calls back into a UE right
# after it erases the UE's entry (release), and X2 handover moves a UE
# between cells while both hold pointers to it.
#
# The subscriber cache suites: the cache packs each IMSI into an integer
# and spells it back into a fixed buffer, its sweep erases and re-inserts
# rows across three containers (rows, WiFi passwords, SQNs) that must stay
# in step, and accessd reads the cache from continuations that run after
# CPU charges.
#
# The crypto suite: the key derivation builds its S string in a fixed
# buffer that KASME's S fills exactly, so a length slip writes past it.
#
# Usage: tests/run_sanitized.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

SUITES=(
  net_channel_test net_congestion_test fuzz_codec_test property_test
  rpc_test magmad_orc8r_test fleet_scale_test obs_test tail_sampler_test
  tracing_integration_test statusd_test slo_test cpu_profile_test
  host_profiler_test bench_compare_test sketch_test histogram_test
  pool_test inplace_function_test alloc_discipline_test proto_test
  agw_test integration_fault_test metricsd_test sessiond_test
  integration_policy_test integration_attach_test integration_mobility_test
  integration_multirat_test subscriberdb_test accessd_test crypto_test
)

# Bench binaries backing the ctest smoke targets (HostMicrobenchSmoke,
# BenchCompareSelfDiff, SameSeedStdout.fleet_slo_availability) — running
# the microbench under ASan exercises the operator new/delete overrides
# against the sanitizer's interposition, and the availability bench drives
# statusd's downtime hooks and the attribution join (closures scheduled
# from RPC continuations — exactly the lifetime shape sanitizers exist
# for). If the availability bench binary ever falls out of the build, the
# loop below fails loudly rather than letting the SLO layer go
# unexercised. The subscriber bench joins them: SpaceSaving merge moves
# HeavyHitter strings between gateway-owned and metricsd-owned sketches —
# an aliasing bug there is exactly an ASan find.
BENCHES=(host_microbench bench_compare fleet_slo_availability
         scaleout_subscribers)

cmake --preset asan
cmake --build --preset asan -j "$(nproc)" --target "${SUITES[@]}" "${BENCHES[@]}"

# A suite that silently fell out of the build (renamed, dropped from
# tests/CMakeLists.txt) must fail here, not pass vacuously via an empty
# ctest match.
for suite in "${SUITES[@]}"; do
  if [[ ! -x "build-asan/tests/${suite}" ]]; then
    echo "FATAL: suite binary missing: build-asan/tests/${suite}" >&2
    exit 1
  fi
done
for b in "${BENCHES[@]}"; do
  if [[ ! -x "build-asan/bench/${b}" ]]; then
    echo "FATAL: bench binary missing: build-asan/bench/${b}" >&2
    exit 1
  fi
done

export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
ctest --test-dir build-asan --output-on-failure \
  -R 'Channel|Reliable|Datagram|Congestion|Fuzz|CodecContract|Rpc|Wire|Magmad|Orchestrator|DesiredState|TransportTelemetry|Tracer|Histogram|EventBuffer|EventReport|ChromeTrace|Tracing|Statusd|Service303|GatewayStatus|CpuProfile|TailSampler|CriticalPath|FleetIngest|DeltaStream|FleetScale|HostProfiler|BenchCompare|BlockPool|PoolAllocator|InplaceFunction|KernelClosure|AllocDiscipline|AvailabilityLedger|BurnRate|Attribution|SloReport|SloIntegration|fleet_slo_availability|SpaceSaving|HyperLogLog|SubscriberSketches|SketchCodec|FormatTopSubscribers|Metricsd|MetricReport|SymbolTable|AccessdSketch|SubscriberBench|NasCodec|S1apCodec|Nas5gCodec|NgapCodec|GtpcCodec|RadiusCodec|EmmFsm|Fault|AgwTest|SessiondOcs|PolicyTest|WireRecords|LteAttach|Mobility|MultiRat|RadioCell|SubscriberDb|SubscriberData|Imsi|SqnBytes|Accessd|Aes128|Sha256|HmacSha256|Milenage|Kdf|NasCipher|ConstantTimeEqual' \
  "$@"
echo "sanitized transport suite: OK"
