/**
 * @file
 * Trace-driven out-of-order superscalar processor model (section 4).
 *
 * A 4-way fetch/issue/commit machine with a 32-entry reorder buffer,
 * Table-1 functional units, a bimodal BHT, two memory ports, a
 * lockup-free write-through no-allocate L1 (TimingCache) and optional
 * memory address prediction. The model is a dataflow approximation:
 * instructions dispatch in order into the ROB, issue out of order when
 * their producers have completed and a unit is free, and commit in
 * order. Mispredicted branches stall fetch until they resolve plus a
 * redirect cycle (wrong-path instructions are not simulated, matching
 * a trace-driven methodology).
 *
 * The paper's three design alternatives map to CpuConfig flags:
 * indexKind (conventional vs I-Poly), xorInCriticalPath (+1 cycle on
 * the cache access path) and addressPrediction (predicted-line access
 * overlapped with address computation).
 *
 * Each cycle does work proportional to what can change, following the
 * RUU/ready-queue split of SimpleScalar (Burger & Austin, TR-1342):
 *  - Store-to-load forwarding is resolved at dispatch. The in-flight
 *    stores form an in-order list, linked youngest to oldest through
 *    the ROB; a dispatching load walks it and records the youngest
 *    store to its address. Entries leave the window only from the
 *    head, so that store stays the load's forwarding source until it
 *    commits, and then every older store has committed too.
 *  - Issue walks a program-order waiting list of unissued entries,
 *    also linked through the ROB, not the whole ROB. An entry caches
 *    the cycle its sources are ready once every live producer has
 *    issued, so later checks are one comparison.
 *  - The ROB ring is a power of two (at least robEntries; occupancy is
 *    still capped at robEntries), so a seq maps to its slot by a mask.
 */

#ifndef CAC_CPU_OOO_CORE_HH
#define CAC_CPU_OOO_CORE_HH

#include <memory>
#include <vector>

#include "cpu/addr_predictor.hh"
#include "cpu/branch_predictor.hh"
#include "cpu/config.hh"
#include "cpu/func_units.hh"
#include "cpu/timing_cache.hh"
#include "trace/record.hh"

namespace cac
{

/** Results of one simulation. */
struct CpuStats
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t loadMisses = 0;
    std::uint64_t addrPredConfidentCorrect = 0;
    std::uint64_t addrPredConfidentWrong = 0;

    double ipc() const
    {
        return cycles ? static_cast<double>(instructions)
                        / static_cast<double>(cycles)
                      : 0.0;
    }

    /** Load miss ratio in percent (the Tables 2-3 metric). */
    double loadMissRatioPct() const
    {
        return loads ? 100.0 * static_cast<double>(loadMisses)
                       / static_cast<double>(loads)
                     : 0.0;
    }
};

/** The processor model. */
class OooCore
{
  public:
    explicit OooCore(const CpuConfig &cfg);

    /** Simulate @p trace to completion and return the statistics. */
    CpuStats run(const Trace &trace);

    /**
     * @name Streaming interface
     * Chunked replay for traces too large to materialize: beginStream()
     * once, feed() each chunk in order, finishStream() to drain the
     * pipeline and collect statistics. run() is implemented on top, and
     * the chunking is timing-invisible: feeding a trace in any chunk
     * sizes produces cycle-identical results to one run(trace) call,
     * because feed() holds back up to one fetch group of records so a
     * chunk boundary can never starve dispatch mid-cycle.
     *
     * beginStream() resets the pipeline (ROB, fetch, dependency
     * tracking) and starts a fresh statistics window; cache contents,
     * predictor state and the cycle clock persist, as they would
     * across a context switch — reported cycles/loads/misses are
     * per-stream deltas.
     */
    ///@{
    void beginStream();

    /** Feed the next @p n records of the instruction stream, in order. */
    void feed(const TraceRecord *recs, std::size_t n);

    /** Drain all in-flight instructions; returns the final statistics. */
    CpuStats finishStream();
    ///@}

    const TimingCache &cache() const { return *cache_; }
    const BranchPredictor &branchPredictor() const { return bht_; }
    const AddrPredictor &addrPredictor() const { return apred_; }

    /**
     * Invalidate the L1 data array (a cold-flush context switch, see
     * SimTarget::flushPrimary()). In-flight MSHR entries and the cycle
     * clock are untouched; subsequent accesses simply miss.
     */
    void flushDataCache();

  private:
    /** Sentinel: no producer or store seq, or a cycle not known yet. */
    static constexpr std::uint64_t kNone = ~std::uint64_t{0};

    struct RobEntry
    {
        /**
         * The instruction, by value: streamed chunks are transient, so
         * in-flight entries must not point into caller buffers.
         */
        TraceRecord rec;
        std::uint64_t seq = 0;
        std::uint64_t resultReady = 0; ///< valid once issued
        /** Producer of each source, or kNone. */
        std::uint64_t srcSeq[2] = {kNone, kNone};
        /** Cycle both sources are ready; kNone until every live
         *  producer has issued. */
        std::uint64_t readyAt = kNone;
        /** Loads: youngest older in-flight store to the same address
         *  at dispatch, or kNone. */
        std::uint64_t fwdSeq = kNone;
        /** Stores: the next older store (the store list's link). */
        std::uint64_t olderStore = kNone;
        /** Unissued: the next younger unissued entry (the waiting
         *  list's link). */
        std::uint64_t nextWaiting = kNone;
        bool issued = false;
        bool mispredicted = false;      ///< branches
        bool predConfident = false;     ///< loads, addressPrediction on
        bool predCorrect = false;       ///< loads, addressPrediction on
    };

    /** True once both of @p entry's sources are available at @p now. */
    bool sourcesReady(RobEntry &entry, std::uint64_t now) const;

    /** Issue one load; false when it must retry (MSHRs/ports busy). */
    bool tryIssueLoad(RobEntry &entry, std::uint64_t now);

    /** Issue one non-load; false when its unit is busy. */
    bool tryIssueOp(RobEntry &entry, CpuStats &stats);

    void dispatch(const TraceRecord *recs, std::size_t n,
                  std::size_t &next, CpuStats &stats);
    void issue(CpuStats &stats);
    void commit(CpuStats &stats);

    /** One pipeline cycle consuming from the pending-record buffer. */
    void streamCycle();

    RobEntry &slotOf(std::uint64_t seq) { return rob_[seq & rob_mask_]; }

    const RobEntry &slotOf(std::uint64_t seq) const
    {
        return rob_[seq & rob_mask_];
    }

    CpuConfig cfg_;
    std::unique_ptr<TimingCache> cache_;
    FuncUnitPool fus_;
    BranchPredictor bht_;
    AddrPredictor apred_;

    std::vector<RobEntry> rob_; ///< ring of rob_mask_ + 1 slots
    std::uint64_t rob_mask_;
    std::uint64_t head_seq_ = 0; ///< oldest in-flight seq
    std::uint64_t tail_seq_ = 0; ///< next seq to allocate
    std::uint64_t cycle_ = 0;

    /** The unissued entries in program order, linked oldest to
     *  youngest through nextWaiting; kNone when empty. */
    std::uint64_t waiting_head_ = kNone;
    std::uint64_t waiting_tail_ = kNone;

    /**
     * Youngest dispatched store, or kNone: the head of the in-flight
     * store list, linked youngest to oldest through olderStore. A store
     * leaves the list when it commits, which is where a walk stops.
     */
    std::uint64_t youngest_store_ = kNone;

    /** Last writer (seq) of each architectural register, or kNone. */
    std::uint64_t last_writer_seq_[64];

    /** Fetch stall state for an unresolved mispredicted branch. */
    bool fetch_blocked_ = false;
    std::uint64_t fetch_resume_ = 0; ///< valid once the branch issues
    bool fetch_resume_known_ = false;

    /** Store buffer: completion tick of each write-through in flight. */
    std::vector<std::uint64_t> store_buffer_;
    unsigned mem_ports_used_ = 0; ///< loads issued this cycle

    /**
     * Streaming state: not-yet-dispatched records. Bounded by (largest
     * chunk fed + one fetch group), so streamed-replay memory is
     * independent of trace length.
     */
    std::vector<TraceRecord> pending_;
    std::size_t pending_next_ = 0; ///< first undispatched pending_ index
    CpuStats stream_stats_;
    /** Cache counters at beginStream(), so a reused core (warm cache,
     *  persisting functional stats) still reports per-stream counts. */
    std::uint64_t stream_start_loads_ = 0;
    std::uint64_t stream_start_load_misses_ = 0;
    /** Clock at beginStream(): the cycle counter is monotonic across
     *  streams (timing state holds absolute ticks); reported cycles
     *  are deltas from here. */
    std::uint64_t stream_start_cycle_ = 0;
};

} // namespace cac

#endif // CAC_CPU_OOO_CORE_HH
