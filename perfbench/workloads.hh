/**
 * @file
 * The benchmark's workloads (one per process) and the traced run's
 * layer ladder. See README.md for why each workload exists and which
 * end-to-end metric each layer metric should move.
 */

#ifndef CAC_PERFBENCH_WORKLOADS_HH
#define CAC_PERFBENCH_WORKLOADS_HH

#include <memory>
#include <string>

#include "scenario/scenario.hh"
#include "support.hh"

namespace perfbench
{

/** cac_sim --compare over a streamed, CRC-verified swim trace. */
void runSwimCompare(const Options &options, Report &report);

/** cac_sim --scenario MIX --compare (profiled) plus one IndexSearch. */
void runMixAttribution(const Options &options, Report &report);

/** Open-loop CAS1 traffic against an in-process advisor server. */
void runAdvisorOpen(const Options &options, Report &report);

/** The workload's own data, which the layer ladder replays. */
struct LadderInput
{
    std::shared_ptr<const cac::Trace> trace; ///< the workload stream
    std::string tracePath; ///< CACTRC02 copy of *trace
    std::shared_ptr<const cac::Scenario> scenario;
    std::string serveMix; ///< small "mix:" label for the serve probe
};

/**
 * Traced run, second half: time each layer's public call on @p input
 * (one span per repetition into @p log) and report the per-layer
 * metrics, the serve probe included.
 */
void runLadder(const LadderInput &input, const Options &options,
               SpanLog &log, Report &report);

/**
 * Serve-layer probe: idle round trips, one cold request against its
 * in-process computeAdvice, memo hits, Stats reads and a short
 * open-loop burst, against a fresh in-process server.
 */
void runServeProbe(const std::string &mix, SpanLog &log, Report &report);

} // namespace perfbench

#endif // CAC_PERFBENCH_WORKLOADS_HH
