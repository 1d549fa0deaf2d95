/**
 * @file
 * Time-sharded parallel replay of a single trace.
 *
 * One long trace is cut into K contiguous time slices. Each shard
 * builds its own target instance (via the caller's factory), replays a
 * warm-up window of records immediately preceding its slice to
 * approximate the cache state the monolithic run would have at that
 * point, snapshots the stats (checkpoint() flushes batching state so
 * the snapshot is exact), replays its slice, and reports the delta.
 * The deltas are summed in shard index order, so the result is
 * deterministic at any thread count (common/parallel.hh's contract).
 *
 * Reconciliation rule (asserted by tests/core/test_shard_replay and
 * tools/check_shards.py):
 *  - loads/stores are EXACT: every record lands in exactly one counted
 *    slice and warm-up accesses are subtracted out by the snapshot.
 *  - hit/miss counters carry a bounded warm-up error: shard i's cache
 *    state at its slice start can differ from the monolithic state in
 *    at most the lines the warm-up window failed to reconstruct, so
 *    total misses differ from monolithic by at most ~K x (blocks per
 *    cache level). Shard 0 has no preceding records and is exact;
 *    shards=1 is bit-identical to monolithic replay.
 *
 * Only single-context functional targets (Cache, Hierarchy) can be
 * sharded: CPU timing state (in-flight instructions, cycle counts)
 * cannot be attributed to a time slice, and the shared L2's
 * inter-core eviction history reaches arbitrarily far back, beyond
 * any warm-up window — Cpu and MultiCore targets are rejected and
 * drivers fall back to monolithic replay for them.
 *
 * Resilience: shards read their slice under the Strict policy even
 * when the caller asked for Skip/Resync — a shard that silently
 * dropped records would shift its slice boundaries and corrupt the
 * reconciliation rule. When any shard fails (damaged trace, rejected
 * target, worker exception), the engine logs a note and falls back to
 * one monolithic replay under the caller's requested policy, so a
 * damaged-but-recoverable trace still produces a result — flagged via
 * ShardedReplayResult::fellBack with exact drop totals in ::read.
 */

#ifndef CAC_CORE_SHARD_REPLAY_HH
#define CAC_CORE_SHARD_REPLAY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hh"
#include "core/sim_target.hh"
#include "trace/io.hh"
#include "trace/record.hh"

namespace cac
{

/** Builds one fresh target instance per shard (must be thread-safe). */
using TargetFactory = std::function<std::unique_ptr<SimTarget>()>;

struct ShardOptions
{
    /** Number of time slices (>= 1; 1 == monolithic replay). */
    unsigned shards = 1;

    /** Worker threads (0 = one per shard). */
    unsigned threads = 0;

    /**
     * Records replayed before each shard's slice to warm its cache
     * state (clamped to the records actually preceding the slice).
     * Larger windows shrink the miss-count error and cost replay time;
     * the default covers an 8 KB L1 many times over.
     */
    std::uint64_t warmupRecords = 65536;

    /**
     * Reader configuration for file replay (policy, checksum
     * verification, fault injection). Shards force the policy to
     * Strict internally (see the header comment); the requested policy
     * applies to the monolithic fallback.
     */
    TraceReaderOptions read;
};

/** Where one shard's slice and warm-up window fell in the trace. */
struct ShardSlice
{
    std::uint64_t warmupBegin = 0; ///< warm-up window [warmupBegin, begin)
    std::uint64_t begin = 0;       ///< counted slice [begin, end)
    std::uint64_t end = 0;
};

struct ShardedReplayResult
{
    /** Summed per-shard deltas (see the reconciliation rule above). */
    TargetStats stats;

    /** Display name of the (first shard's) target. */
    std::string name;

    unsigned shards = 1;

    /** Per-shard slice boundaries, index order. */
    std::vector<ShardSlice> slices;

    /** True when sharded replay failed and the result is monolithic. */
    bool fellBack = false;

    /** Human-readable reason for the fallback (empty otherwise). */
    std::string note;

    /**
     * Set when even the monolithic fallback failed; stats are then
     * meaningless. ok() (code None) in every successful replay.
     */
    Error error;

    /** Degradation totals from the trace readers (file replay only). */
    ReadStats read;

    /** True when every requested record went into the stats intact. */
    bool complete() const { return error.ok() && !read.degraded(); }
};

/**
 * Shard-replay an in-memory trace across @p opts.shards slices.
 * A factory that produces a CPU or multi-core target with shards > 1
 * triggers the monolithic fallback (fellBack + note in the result).
 */
ShardedReplayResult shardedReplayTrace(const TargetFactory &factory,
                                       const Trace &trace,
                                       const ShardOptions &opts);

/**
 * Shard-replay a CACTRC01/CACTRC02 trace file: each shard opens its
 * own TraceReader and seeks to its warm-up window, so replay memory
 * stays bounded by shards x chunk size. Statistics are identical to
 * shardedReplayTrace() on the same records. A damaged file triggers
 * the monolithic fallback under opts.read.policy; check
 * result.error/result.read — nothing here exits the process.
 */
ShardedReplayResult shardedReplayFile(const TargetFactory &factory,
                                      const std::string &path,
                                      const ShardOptions &opts);

} // namespace cac

#endif // CAC_CORE_SHARD_REPLAY_HH
