/**
 * @file
 * Telemetry umbrella: the compile-time gate, the runtime on/off
 * switches, and the instrumentation macros the engine's boundaries use.
 *
 * Three surfaces live under src/obs/ (docs/OBSERVABILITY.md):
 *
 *  - a metrics registry (obs/metrics.hh) — counters, gauges and
 *    log-bucket histograms in shared atomic cells, read into a
 *    deterministic snapshot that is safe to take while work runs;
 *  - tracing spans (obs/trace_event.hh) — one bounded, locked buffer
 *    of begin/end spans exported as Chrome trace-event JSON
 *    (chrome://tracing, Perfetto);
 *  - a run manifest (obs/manifest.hh) — build + dispatch provenance
 *    stamped into every emitted artifact.
 *
 * Overhead discipline: instrumentation is placed at *boundaries*
 * (chunk decode, sweep cell, scenario segment, shard phase, retry),
 * never inside the per-access hot loop. Each macro compiles to nothing
 * when the library is built with -DCAC_OBS=0, and when compiled in it
 * costs one relaxed atomic load while telemetry is disabled at runtime
 * (the default). Because every site fires at boundary rate, the
 * enabled path can afford a shared atomic add per update and one
 * uncontended lock per span. bench/perf_engine's schema-8
 * "observability" section measures both prices and
 * tools/check_perf.py gates them
 * (disabled >= 0.97x, metrics+windows enabled >= 0.90x of the plain
 * scenario replay rate).
 */

#ifndef CAC_OBS_OBS_HH
#define CAC_OBS_OBS_HH

/**
 * Compile-time master switch. Build with -DCAC_OBS=0 (CMake option
 * CAC_OBS=OFF) to compile every instrumentation macro out of the
 * engine; the obs classes themselves remain available so drivers and
 * tests still link.
 */
#ifndef CAC_OBS
#define CAC_OBS 1
#endif

#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/trace_event.hh"
#include "obs/window.hh"

#if CAC_OBS

/** Concatenation helpers for unique local variable names. */
#define CAC_OBS_CAT2(a, b) a##b
#define CAC_OBS_CAT(a, b) CAC_OBS_CAT2(a, b)

/**
 * Open a scoped tracing span (category, name must be string literals
 * or otherwise outlive the tracer). Records nothing unless tracing is
 * runtime-enabled when the scope opens.
 */
#define CAC_OBS_SPAN(cat, name)                                            \
    ::cac::obs::ScopedSpan CAC_OBS_CAT(cac_obs_span_, __LINE__)(cat, name)

/** Scoped span with a per-instance detail string (copied lazily). */
#define CAC_OBS_SPAN_D(cat, name, detail)                                  \
    ::cac::obs::ScopedSpan CAC_OBS_CAT(cac_obs_span_, __LINE__)(           \
        cat, name, detail)

/**
 * Bump a named counter (one relaxed atomic add). @p counter is a
 * `static const cac::obs::Counter` the call site obtains once via
 * Registry::global().counter(name).
 */
#define CAC_OBS_COUNT(counter, v) (counter).add(v)

/** Record one histogram observation. */
#define CAC_OBS_OBSERVE(hist, v) (hist).observe(v)

#else // !CAC_OBS

#define CAC_OBS_SPAN(cat, name)                                            \
    do {                                                                   \
    } while (0)
#define CAC_OBS_SPAN_D(cat, name, detail)                                  \
    do {                                                                   \
    } while (0)
#define CAC_OBS_COUNT(counter, v)                                          \
    do {                                                                   \
    } while (0)
#define CAC_OBS_OBSERVE(hist, v)                                           \
    do {                                                                   \
    } while (0)

#endif // CAC_OBS

#endif // CAC_OBS_OBS_HH
