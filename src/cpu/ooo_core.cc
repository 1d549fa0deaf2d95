#include "cpu/ooo_core.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace cac
{

OooCore::OooCore(const CpuConfig &cfg)
    : cfg_(cfg),
      cache_(std::make_unique<TimingCache>(cfg)),
      bht_(cfg.bhtEntries),
      apred_(cfg.addrPredEntries),
      rob_(std::bit_ceil(std::max(cfg.robEntries, 1u))),
      rob_mask_(rob_.size() - 1)
{
    std::fill(std::begin(last_writer_seq_), std::end(last_writer_seq_),
              kNone);
    store_buffer_.reserve(cfg.storeBufferEntries);
}

bool
OooCore::sourcesReady(RobEntry &entry, std::uint64_t now) const
{
    if (entry.readyAt == kNone) {
        std::uint64_t at = 0;
        for (const std::uint64_t src : entry.srcSeq) {
            if (src == kNone)
                continue; // produced before dispatch: available
            // Slot reused or producer already committed => value long
            // since available (commit is in order and requires
            // completion, so its resultReady has passed).
            const RobEntry &p = slotOf(src);
            if (p.seq != src || src < head_seq_)
                continue;
            if (!p.issued)
                return false; // ready cycle not known yet
            at = std::max(at, p.resultReady);
        }
        entry.readyAt = at;
    }
    return entry.readyAt <= now;
}

bool
OooCore::tryIssueLoad(RobEntry &entry, std::uint64_t now)
{
    if (mem_ports_used_ >= cfg_.memPorts)
        return false;

    const TraceRecord &rec = entry.rec;

    // Store-to-load forwarding: the youngest older in-flight store to
    // the same address supplies the data once its address is computed
    // (PA8000-style effective-address comparison, section 3.4). Found
    // at dispatch; once it commits, so has every older store.
    if (entry.fwdSeq != kNone && entry.fwdSeq >= head_seq_) {
        const RobEntry &older = slotOf(entry.fwdSeq);
        if (!older.issued)
            return false; // address unknown: wait, don't misspeculate
        if (!fus_.tryIssue(OpClass::Load, now))
            return false;
        ++mem_ports_used_;
        entry.issued = true;
        entry.resultReady =
            std::max(now + 1, older.resultReady) + 1;
        return true;
    }

    // Cache access. The address prediction scheme overlaps the access
    // with the effective-address computation when the predicted line is
    // correct; a wrong confident prediction pays one repeat probe; the
    // XOR gates add a cycle when they sit on the critical path and the
    // access was not predicted (the predicted index was computed back
    // in decode).
    const unsigned xor_penalty = cfg_.xorInCriticalPath ? 1 : 0;
    std::uint64_t start;
    if (entry.predConfident && entry.predCorrect) {
        start = now;
    } else if (entry.predConfident && !entry.predCorrect) {
        start = now + 1 + xor_penalty + 1;
    } else {
        start = now + 1 + xor_penalty;
    }

    if (!cache_->wouldAccept(rec.addr, start))
        return false; // MSHRs full: retry next cycle
    if (!fus_.tryIssue(OpClass::Load, now))
        return false;

    ++mem_ports_used_;
    LoadTiming t = cache_->load(rec.addr, start);
    CAC_ASSERT(t.accepted);
    entry.issued = true;
    entry.resultReady = t.readyTick;
    return true;
}

bool
OooCore::tryIssueOp(RobEntry &entry, CpuStats &stats)
{
    const OpClass op = entry.rec.op;
    if (!fus_.tryIssue(op, cycle_))
        return false;

    entry.issued = true;
    entry.resultReady = cycle_ + opLatency(op);

    if (op == OpClass::Branch) {
        // Resolution: train the BHT and, on a misprediction, schedule
        // the fetch redirect.
        bht_.update(entry.rec.pc, entry.rec.taken);
        bht_.recordOutcome(!entry.mispredicted);
        if (entry.mispredicted) {
            ++stats.branchMispredicts;
            fetch_resume_ = entry.resultReady + cfg_.mispredictRedirect;
            fetch_resume_known_ = true;
        }
    }
    return true;
}

void
OooCore::dispatch(const TraceRecord *recs, std::size_t n_recs,
                  std::size_t &next, CpuStats &stats)
{
    if (fetch_blocked_
        && (!fetch_resume_known_ || cycle_ < fetch_resume_)) {
        return;
    }
    fetch_blocked_ = false;
    fetch_resume_known_ = false;

    for (unsigned n = 0; n < cfg_.fetchWidth; ++n) {
        if (next >= n_recs
            || tail_seq_ - head_seq_ >= cfg_.robEntries) {
            return;
        }
        const TraceRecord &rec = recs[next];
        RobEntry &entry = slotOf(tail_seq_);
        entry = RobEntry{};
        entry.rec = rec;
        entry.seq = tail_seq_;

        // Capture live producers for both sources.
        const std::int8_t srcs[2] = {rec.src1, rec.src2};
        for (unsigned k = 0; k < 2; ++k) {
            if (srcs[k] < 0)
                continue;
            const std::uint64_t w = last_writer_seq_[srcs[k]];
            if (w != kNone && w >= head_seq_ && slotOf(w).seq == w)
                entry.srcSeq[k] = w;
        }
        if (rec.dst >= 0)
            last_writer_seq_[rec.dst] = tail_seq_;

        if (rec.op == OpClass::Store) {
            entry.olderStore = youngest_store_;
            youngest_store_ = tail_seq_;
        } else if (rec.op == OpClass::Load) {
            // Walk the in-flight stores, youngest first; the first one
            // below head_seq_ has committed, and so has every older one.
            for (std::uint64_t st = youngest_store_;
                 st != kNone && st >= head_seq_;
                 st = slotOf(st).olderStore) {
                if (slotOf(st).rec.addr == rec.addr) {
                    entry.fwdSeq = st;
                    break;
                }
            }
        }

        if (rec.op == OpClass::Branch) {
            ++stats.branches;
            const bool predicted = bht_.predict(rec.pc);
            entry.mispredicted = predicted != rec.taken;
        } else if (rec.op == OpClass::Load && cfg_.addressPrediction) {
            // Predict in decode; train with the actual address.
            AddrPredictor::Prediction p = apred_.predict(rec.pc);
            entry.predConfident = p.confident;
            entry.predCorrect = p.confident && p.addr == rec.addr;
            apred_.update(rec.pc, rec.addr);
            if (p.confident) {
                if (entry.predCorrect)
                    ++stats.addrPredConfidentCorrect;
                else
                    ++stats.addrPredConfidentWrong;
            }
        }

        if (waiting_tail_ == kNone)
            waiting_head_ = tail_seq_;
        else
            slotOf(waiting_tail_).nextWaiting = tail_seq_;
        waiting_tail_ = tail_seq_;
        ++tail_seq_;
        ++next;

        if (entry.mispredicted) {
            // Fetch follows the wrong path until this branch resolves.
            fetch_blocked_ = true;
            fetch_resume_known_ = false;
            return;
        }
    }
}

void
OooCore::issue(CpuStats &stats)
{
    // Walk the unissued entries oldest first, unlinking each one that
    // issues, until issueWidth have issued.
    unsigned issued = 0;
    std::uint64_t prev = kNone;
    for (std::uint64_t seq = waiting_head_;
         seq != kNone && issued < cfg_.issueWidth;) {
        RobEntry &entry = slotOf(seq);
        const std::uint64_t next = entry.nextWaiting;
        const bool went = sourcesReady(entry, cycle_)
                          && (entry.rec.op == OpClass::Load
                                  ? tryIssueLoad(entry, cycle_)
                                  : tryIssueOp(entry, stats));
        if (went) {
            ++issued;
            if (prev == kNone)
                waiting_head_ = next;
            else
                slotOf(prev).nextWaiting = next;
            if (next == kNone)
                waiting_tail_ = prev;
        } else {
            prev = seq;
        }
        seq = next;
    }
}

void
OooCore::commit(CpuStats &stats)
{
    // Drain completed write-through transactions from the store buffer.
    std::erase_if(store_buffer_,
                  [&](std::uint64_t done) { return done <= cycle_; });

    for (unsigned n = 0; n < cfg_.commitWidth; ++n) {
        if (head_seq_ == tail_seq_)
            return;
        const RobEntry &entry = slotOf(head_seq_);
        if (!entry.issued || entry.resultReady > cycle_)
            return;
        if (entry.rec.op == OpClass::Store) {
            if (store_buffer_.size() >= cfg_.storeBufferEntries)
                return; // store buffer full: commit stalls
            store_buffer_.push_back(
                cache_->storeCommit(entry.rec.addr, cycle_));
            ++stats.stores;
        }
        if (entry.rec.op == OpClass::Load)
            ++stats.loads;
        ++stats.instructions;
        ++head_seq_;
    }
}

void
OooCore::streamCycle()
{
    mem_ports_used_ = 0;
    commit(stream_stats_);
    issue(stream_stats_);
    dispatch(pending_.data(), pending_.size(), pending_next_,
             stream_stats_);
    ++cycle_;
}

void
OooCore::beginStream()
{
    stream_stats_ = CpuStats{};
    // The clock is monotonic across streams: the timing cache (MSHRs,
    // bus), and the functional units hold reservations in absolute
    // cycles, so winding cycle_ back would leave the new stream
    // queued behind the previous stream's transactions. Reported
    // cycles are deltas from this point.
    stream_start_cycle_ = cycle_;
    head_seq_ = tail_seq_ = 0;
    // Seqs restart at 0: a store or waiter left over from an unfinished
    // stream must not match the new stream's seqs.
    waiting_head_ = waiting_tail_ = kNone;
    youngest_store_ = kNone;
    fetch_blocked_ = false;
    fetch_resume_known_ = false;
    store_buffer_.clear();
    pending_.clear();
    pending_next_ = 0;
    // Register dependency tracking must not leak across streams: a
    // stale last-writer entry would pass dispatch's seq guard (every
    // seq is >= the reset head_seq_) and stall the new stream's
    // consumers on a previous stream's resultReady.
    std::fill(std::begin(last_writer_seq_), std::end(last_writer_seq_),
              kNone);
    // Cache contents and functional counters persist across streams;
    // snapshot the counters so finishStream() reports deltas.
    stream_start_loads_ = cache_->stats().loads;
    stream_start_load_misses_ = cache_->stats().loadMisses;
}

void
OooCore::flushDataCache()
{
    cache_->flushArray();
}

void
OooCore::feed(const TraceRecord *recs, std::size_t n)
{
    // Compact the consumed prefix, then append the new chunk behind any
    // leftover records (fewer than one fetch group) from the last feed.
    if (pending_next_ > 0) {
        pending_.erase(pending_.begin(),
                       pending_.begin()
                           + static_cast<std::ptrdiff_t>(pending_next_));
        pending_next_ = 0;
    }
    pending_.insert(pending_.end(), recs, recs + n);

    // Simulate only while a whole fetch group is on hand: a cycle that
    // could fetch records from the *next* chunk must not run yet, or
    // chunk boundaries would perturb the timing. The held-back tail is
    // at most fetchWidth - 1 records; finishStream() dispatches it.
    while (pending_.size() - pending_next_ >= cfg_.fetchWidth)
        streamCycle();
}

CpuStats
OooCore::finishStream()
{
    while (pending_next_ < pending_.size() || head_seq_ != tail_seq_)
        streamCycle();
    pending_.clear();
    pending_next_ = 0;

    stream_stats_.cycles = cycle_ - stream_start_cycle_;
    stream_stats_.loadMisses =
        cache_->stats().loadMisses - stream_start_load_misses_;
    // Loads counted at commit equal the cache's functional count only
    // when every load accessed the cache once; forwarded loads do not
    // touch the cache, so take the committed-load count for the ratio
    // denominator and the cache's for cross-checks.
    stream_stats_.loads =
        std::max(stream_stats_.loads,
                 cache_->stats().loads - stream_start_loads_);
    return stream_stats_;
}

CpuStats
OooCore::run(const Trace &trace)
{
    beginStream();
    feed(trace.data(), trace.size());
    return finishStream();
}

} // namespace cac
