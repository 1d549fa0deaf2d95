#include "core/shard_replay.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "obs/obs.hh"
#include "trace/io.hh"

namespace cac
{

namespace
{

/** Record range [warmupBegin, end) for shard @p i of @p count. */
ShardSlice
sliceFor(unsigned i, unsigned shards, std::uint64_t count,
         std::uint64_t warmup)
{
    ShardSlice s;
    s.begin = count * i / shards;
    s.end = count * (i + 1) / shards;
    s.warmupBegin = s.begin >= warmup ? s.begin - warmup : 0;
    return s;
}

/**
 * Replay one shard: warm up over [warmupBegin, begin), checkpoint and
 * snapshot, replay [begin, end), finish, and return the delta. @p feed
 * is called as feed(target, from, to) to replay the records in
 * [from, to); it lets the in-memory and file paths share the shard
 * protocol.
 */
template <typename Feed>
TargetStats
replayShard(SimTarget &target, const ShardSlice &s, Feed &&feed)
{
    if (s.warmupBegin < s.begin) {
        CAC_OBS_SPAN("shard", "shard.warmup");
        feed(target, s.warmupBegin, s.begin);
        target.checkpoint();
    }
    const TargetStats before = target.stats();
    {
        CAC_OBS_SPAN("shard", "shard.measured");
        feed(target, s.begin, s.end);
        target.finish();
    }
    return targetStatsDelta(target.stats(), before);
}

/**
 * Shared driver: @p makeFeed builds one shard's feed callable (and may
 * register a per-shard ReadStats sink); @p fallback produces the
 * monolithic result when any shard fails.
 */
template <typename MakeFeed, typename Fallback>
ShardedReplayResult
runShards(const TargetFactory &factory, std::uint64_t count,
          const ShardOptions &opts, MakeFeed &&makeFeed,
          Fallback &&fallback)
{
    CAC_ASSERT(factory != nullptr);
    const unsigned shards = std::max(1u, opts.shards);

    ShardedReplayResult result;
    result.shards = shards;
    result.slices.resize(shards);
    for (unsigned i = 0; i < shards; ++i)
        result.slices[i] = sliceFor(i, shards, count, opts.warmupRecords);

    std::vector<TargetStats> deltas(shards);
    std::vector<std::string> names(shards);
    std::vector<ReadStats> reads(shards);
    const unsigned threads = opts.threads > 0 ? opts.threads : shards;
    try {
        parallelFor(threads, shards, [&](std::size_t i) {
            std::unique_ptr<SimTarget> target = factory();
            CAC_ASSERT(target != nullptr);
            if (target->kind() == TargetKind::Cpu && shards > 1) {
                throw CacError(Error::make(
                    ErrorCode::WorkerFailed,
                    "CPU targets cannot be time-sharded (cycle state "
                    "is not attributable to a slice)"));
            }
            if (target->kind() == TargetKind::MultiCore && shards > 1) {
                // The shared L2 remembers which core evicted each
                // line from arbitrarily far back: a cold-started slice
                // would misattribute inter-core conflict misses, which
                // no warm-up bound reconciles.
                throw CacError(Error::make(
                    ErrorCode::WorkerFailed,
                    "multi-core targets cannot be time-sharded "
                    "(inter-core eviction history is not attributable "
                    "to a slice)"));
            }
            names[i] = target->name();
            deltas[i] = replayShard(
                *target, result.slices[i],
                makeFeed(static_cast<unsigned>(i), &reads[i]));
        });
    } catch (const std::exception &e) {
        // A shard died (damaged trace, rejected target, foreign
        // exception). The grid of shards is abandoned; one monolithic
        // replay under the caller's requested policy still produces a
        // result, flagged as a fallback.
        warn("sharded replay failed (%s); falling back to monolithic "
             "replay",
             e.what());
#if CAC_OBS
        if (obs::Registry::global().enabled()) {
            static const obs::Counter fallbacks =
                obs::Registry::global().counter("shard.fallbacks");
            fallbacks.add(1);
        }
#endif
        return fallback(e.what());
    }

    // Index-ordered summation: identical result at any thread count.
    result.name = names[0];
    result.stats = deltas[0];
    result.stats.kind = deltas[0].kind;
    for (unsigned i = 1; i < shards; ++i)
        targetStatsAccumulate(result.stats, deltas[i]);
    for (const ReadStats &r : reads) {
        result.read.droppedRecords += r.droppedRecords;
        result.read.droppedChunks += r.droppedChunks;
        result.read.crcErrors += r.crcErrors;
        result.read.resyncs += r.resyncs;
        result.read.retries += r.retries;
    }
    return result;
}

/**
 * Cursor over one shard's TraceReader: feeds exactly the requested
 * record range, splitting reader chunks at warm-up and slice
 * boundaries. Failures throw CacError — runShards converts them into
 * the monolithic fallback.
 */
class FileFeed
{
  public:
    FileFeed(const std::string &path, std::uint64_t start,
             const TraceReaderOptions &options, ReadStats *sink)
        : reader_(path, options), sink_(sink)
    {
        if (!reader_.ok())
            throw CacError(reader_.errorInfo());
        if (!reader_.seekTo(start))
            throw CacError(reader_.errorInfo());
    }

    ~FileFeed()
    {
        if (sink_)
            *sink_ = reader_.readStats();
    }

    void
    operator()(SimTarget &target, std::uint64_t from, std::uint64_t to)
    {
        std::uint64_t want = to - from;
        while (want > 0) {
            if (pos_ >= size_) {
                const std::vector<TraceRecord> &chunk = reader_.next();
                if (chunk.empty())
                    break;
                data_ = chunk.data();
                size_ = chunk.size();
                pos_ = 0;
            }
            const std::size_t take = static_cast<std::size_t>(
                std::min<std::uint64_t>(want, size_ - pos_));
            target.replay(data_ + pos_, take);
            pos_ += take;
            want -= take;
        }
        if (!reader_.ok())
            throw CacError(reader_.errorInfo());
        if (want > 0) {
            throw CacError(Error::make(
                ErrorCode::Truncated,
                "'" + reader_.path() + "': trace ended "
                    + std::to_string(want)
                    + " records short of the shard slice end",
                reader_.path()));
        }
    }

  private:
    TraceReader reader_;
    ReadStats *sink_ = nullptr;
    const TraceRecord *data_ = nullptr;
    std::size_t pos_ = 0;
    std::size_t size_ = 0;
};

/** Monolithic fallback over an in-memory trace. */
ShardedReplayResult
monolithicTrace(const TargetFactory &factory, const Trace &trace,
                const std::string &why)
{
    ShardedReplayResult result;
    result.shards = 1;
    result.fellBack = true;
    result.note = why;
    std::unique_ptr<SimTarget> target = factory();
    CAC_ASSERT(target != nullptr);
    result.name = target->name();
    target->replay(trace.data(), trace.size());
    target->finish();
    result.stats = target->stats();
    return result;
}

/** Monolithic fallback over a file, under the caller's read policy. */
ShardedReplayResult
monolithicFile(const TargetFactory &factory, const std::string &path,
               const TraceReaderOptions &options, const std::string &why)
{
    ShardedReplayResult result;
    result.shards = 1;
    result.fellBack = true;
    result.note = why;
    std::unique_ptr<SimTarget> target = factory();
    CAC_ASSERT(target != nullptr);
    result.name = target->name();

    TraceReader reader(path, options);
    if (!reader.ok()) {
        result.error = reader.errorInfo();
        return result;
    }
    Error error;
    if (!tryReplayAll(reader, *target, &error)) {
        result.read = reader.readStats();
        result.error = error;
        return result;
    }
    target->finish();
    result.stats = target->stats();
    result.read = reader.readStats();
    return result;
}

} // anonymous namespace

ShardedReplayResult
shardedReplayTrace(const TargetFactory &factory, const Trace &trace,
                   const ShardOptions &opts)
{
    const TraceRecord *recs = trace.data();
    return runShards(
        factory, trace.size(), opts,
        [recs](unsigned, ReadStats *) {
            return [recs](SimTarget &target, std::uint64_t from,
                          std::uint64_t to) {
                target.replay(recs + from,
                              static_cast<std::size_t>(to - from));
            };
        },
        [&](const std::string &why) {
            return monolithicTrace(factory, trace, why);
        });
}

ShardedReplayResult
shardedReplayFile(const TargetFactory &factory, const std::string &path,
                  const ShardOptions &opts)
{
    // Validate the header on the caller's thread so a bad path fails
    // with a clean diagnostic before the fan-out. (Injection is not
    // mounted here: the probe reads 24 bytes once; the shard readers
    // and the fallback carry the injector.)
    std::uint64_t count = 0;
    {
        TraceReader probe(path);
        if (!probe.ok()) {
            ShardedReplayResult result;
            result.shards = std::max(1u, opts.shards);
            result.error = probe.errorInfo();
            return result;
        }
        count = probe.recordCount();
    }

    // Shards must see the exact slice records, so they read strictly;
    // the caller's policy governs the fallback instead.
    TraceReaderOptions shard_read = opts.read;
    shard_read.policy = ReadPolicy::Strict;

    return runShards(
        factory, count, opts,
        [&](unsigned shard, ReadStats *sink) {
            // One private reader per shard, pre-seeked to its warm-up
            // window; shared_ptr keeps it alive inside the copyable
            // feed callable.
            auto feed = std::make_shared<FileFeed>(
                path,
                sliceFor(shard, std::max(1u, opts.shards), count,
                         opts.warmupRecords)
                    .warmupBegin,
                shard_read, sink);
            return [feed](SimTarget &target, std::uint64_t from,
                          std::uint64_t to) {
                (*feed)(target, from, to);
            };
        },
        [&](const std::string &why) {
            return monolithicFile(factory, path, opts.read, why);
        });
}

} // namespace cac
