#!/usr/bin/env bash
# Tier-1 CI entry point: configure, build, and test under CMake presets.
# src/obs/ builds with -Werror, so any warning there fails the build.
# Usage:
#
#   tools/ci.sh            # default + asan + tsan + obsoff, in order
#   tools/ci.sh default    # release build + full ctest only
#   tools/ci.sh asan       # AddressSanitizer+UBSan build + ctest only
#   tools/ci.sh tsan       # ThreadSanitizer build + ctest only
#   tools/ci.sh obsoff     # GRAPHABCD_OBS=OFF build + ctest only
#                          # (proves instrumentation compiles out)
set -euo pipefail

cd "$(dirname "$0")/.."

run_preset() {
    local preset="$1"

    echo "== configure (${preset}) =="
    cmake --preset "${preset}"

    echo "== build (${preset}) =="
    cmake --build --preset "${preset}" -j "$(nproc)"

    echo "== test (${preset}) =="
    ctest --preset "${preset}"

    # The fragment engine is the most concurrency-dense code in the
    # repo: fragments are the block driver's dispatch units, and the
    # driver's claim/park handoff is all that keeps one runner per shard
    # and one producer and consumer per SPSC delta ring, under
    # cooperative cancel.  The default stress iteration count keeps
    # plain ctest fast; under TSan, rerun the cancel-storm stress
    # heavier so the race detector sees many claim/park/drain/flush
    # interleavings per CI run.
    # The varint/delta codec and the compressed-layout decode loops are
    # pointer-walking code over packed byte streams — exactly what ASan
    # is for.  Rerun the codec tests with the randomized round-trip
    # count cranked up so each CI run covers many adversarial streams.
    if [ "${preset}" = "asan" ]; then
        echo "== codec fuzz (${preset}) =="
        GRAPHABCD_CODEC_FUZZ_ITERS=2000 \
            "./build-asan/tests/abcd_tests" \
            --gtest_filter='Codec*'
    fi

    # The obs-off build must still compile and pass the compressed
    # layout paths (the bytes-moved tallies are plain atomics, not obs
    # instrumentation, so they work in both builds), and the tenant QoS
    # admission path (per-tenant gauges/histograms compile out but the
    # fair-share scheduling itself must not change).
    if [ "${preset}" = "obsoff" ]; then
        echo "== layout equivalence (${preset}) =="
        "./build-obsoff/tests/abcd_tests" \
            --gtest_filter='Layout*:Codec*:FairShareQueue.*:ServeQosStress.*'
    fi

    if [ "${preset}" = "tsan" ]; then
        echo "== fragment stress (${preset}) =="
        GRAPHABCD_FRAGMENT_STRESS_ITERS=24 \
            "./build-tsan/tests/abcd_tests" \
            --gtest_filter='FragmentStress.*'

        # Same treatment for the accumulative engine: its scatter hooks
        # push into the OBIM worklist concurrently (no control lock), so
        # the cancel storm is rerun heavier to cover many push/pop/drain
        # interleavings under the race detector.
        echo "== accum stress (${preset}) =="
        GRAPHABCD_ACCUM_STRESS_ITERS=24 \
            "./build-tsan/tests/abcd_tests" \
            --gtest_filter='AccumStress.*'

        # The block driver's one-holder rule: exact SSSP on an
        # over-subscribed pool, where participants are preempted
        # mid-block.  Rerun heavier so TSan sees many claim/park/commit
        # interleavings of the shared control state.
        echo "== async stress (${preset}) =="
        GRAPHABCD_ASYNC_STRESS_ITERS=64 \
            "./build-tsan/tests/abcd_tests" \
            --gtest_filter='AsyncStress.*'

        # The serve layer's cancel/cache-hit/shed races are guarded by
        # finishJob's terminal CAS; rerun the multi-tenant storm heavier
        # so TSan sees many submit/cancel/pop/displace interleavings.
        echo "== serve qos stress (${preset}) =="
        GRAPHABCD_QOS_STRESS_ITERS=12 \
            "./build-tsan/tests/abcd_tests" \
            --gtest_filter='ServeQosStress.*'

        # The metrics endpoint is scraped while engines hammer the same
        # counters/histograms (including the exemplar slot, which mixes
        # lock-free records with a mutex-guarded triple); run the
        # concurrent-scrape stress under the race detector.
        echo "== metrics scrape stress (${preset}) =="
        "./build-tsan/tests/abcd_tests" \
            --gtest_filter='MetricsServerStress.*'
    fi

    # Observability drill (release build): drive a traced fragment job
    # through abcd_serve end-to-end, then validate the debugging
    # artifacts — the Chrome trace must contain exactly one causally
    # connected span tree for the job, and the DUMP verb must produce a
    # parseable flight-recorder snapshot.  A second session runs the
    # wedge drill engine (enabled only by env var; it burns wall-clock
    # without ever moving its progress counters) and must be flagged by
    # the stall watchdog and escalated to cancellation.
    if [ "${preset}" = "default" ]; then
        echo "== observability drill (${preset}) =="
        obs_dir="$(mktemp -d)"
        printf '%s\n' \
            "LOAD web WT scale=0.05" \
            "RUN web pr engine=fragment fragments=4" \
            "WAIT 1 60" \
            "TRACE ${obs_dir}/trace.json" \
            "DUMP ${obs_dir}/flight.json" \
            "QUIT" \
            | "./build/tools/abcd_serve" \
                --flight="${obs_dir}/fatal.json" \
                > "${obs_dir}/serve.out" 2>&1
        grep -q "state=done" "${obs_dir}/serve.out"
        python3 - "${obs_dir}/trace.json" "${obs_dir}/flight.json" <<'PY'
import json, sys

trace = json.load(open(sys.argv[1]))
nodes = {}   # span id -> parent id, for job 1
names = {}
for e in trace["traceEvents"]:
    args = e.get("args")
    if not args or args.get("job") != 1:
        continue
    nodes[args["span"]] = args["parent"]
    names[e["name"]] = names.get(e["name"], 0) + 1
roots = [s for s, p in nodes.items() if p == 0]
assert len(roots) == 1, "want one span-tree root, got %r" % roots
for s in nodes:
    hops = 0
    while s != roots[0]:
        assert s in nodes, "orphaned span %r" % s
        s = nodes[s]
        hops += 1
        assert hops < 64, "parent cycle"
for want in ("serve.job", "serve.run", "engine.fragment.run",
             "fragment.pump"):
    assert names.get(want), "missing %s spans in %r" % (want, sorted(names))

flight = json.load(open(sys.argv[2]))
for key in ("reason", "notes", "log", "providers", "metrics", "trace"):
    assert key in flight, "flight dump missing %r" % key
assert "serve" in flight["providers"], "serve provider absent"
embedded = [e for e in flight["trace"]["traceEvents"]
            if e.get("args", {}).get("job") == 1]
assert embedded, "flight dump trace lacks the job's span tree"
print("drill ok: %d spans in one tree, flight dump embeds %d of them"
      % (len(nodes), len(embedded)))
PY

        echo "== stall watchdog drill (${preset}) =="
        printf '%s\n' \
            "LOAD tiny WT scale=0.02" \
            "RUN tiny pr engine=wedge" \
            "WAIT 1 30" \
            "QUIT" \
            | GRAPHABCD_ENABLE_WEDGE_ENGINE=1 "./build/tools/abcd_serve" \
                --stall-window=0.2 --stall-check=0.05 \
                --stall-cancel=true \
                > "${obs_dir}/wedge.out" 2>&1
        grep -q "state=cancelled" "${obs_dir}/wedge.out"
        grep -q "error=stalled:" "${obs_dir}/wedge.out"
        rm -rf "${obs_dir}"
    fi

    echo "== ${preset}: OK =="
}

if [ "$#" -ge 1 ]; then
    presets=("$@")
else
    presets=(default asan tsan obsoff)
fi

for preset in "${presets[@]}"; do
    run_preset "${preset}"
done

echo "== all presets OK: ${presets[*]} =="
