/**
 * @file
 * advisor_open: open-loop CAS1 traffic from one client thread against
 * an in-process serve::Server, plus the serve-layer probe the traced
 * run of every workload uses.
 *
 * Connection A carries the scheduled stream — memoized Recommend
 * repeats, with a Ping and a live Stats read every kMixPeriod requests
 * — sent in order, each timed from when it was due. Connection B
 * carries distinct cold Recommend/Analyze requests at a fixed low
 * rate without waiting for them, so on a one-core host the cold
 * computation competes with the hit path for the CPU. Process threads:
 * this one, the server's accept thread and one per connection.
 */

#include <poll.h>

#include <cstdio>
#include <deque>
#include <iterator>
#include <map>
#include <thread>

#include "serve/advisor.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace cac;
using serve::MsgType;

constexpr int kSetupReps = 3;
/** Distinct memoized Recommend requests the hit stream cycles over. */
constexpr unsigned kHot = 4;
/** Hit-stream rates of the ladder, requests per second. */
constexpr double kRates[] = {1000, 2000, 4000, 8000};
/** Cold requests per second, across the whole run. */
constexpr double kColdPerSec = 2.0;
/** Hit p99 limit (from due time) a ladder rung must meet. */
constexpr double kHitLimitMs = 2.0;
/** One Ping and one Stats in every kMixPeriod scheduled requests. */
constexpr unsigned kMixPeriod = 50;
/**
 * In-process recomputations of the cold set (sim_maps, sim_cpu_ns): at
 * least this many, and more until they have taken --seconds.
 */
constexpr int kComputeRounds = 25;

std::string
hotPayload(std::uint64_t seed, unsigned i)
{
    return "workload=mix:swim+tomcatv@q=5k,n=10k,seed="
           + std::to_string(seed * 100 + i) + "\npolys=4\nrandom=2\n";
}

/**
 * Cold request @p j: three Recommends to one Analyze, each on a mix
 * seed no other request uses (the Analyze memo key ignores the search
 * seed, so only the mix seed makes it distinct).
 */
std::pair<MsgType, std::string>
coldRequest(std::uint64_t seed, std::uint64_t j)
{
    const std::string mix_seed = std::to_string(seed * 100000 + 1000 + j);
    if (j % 4 == 3)
        return {MsgType::Analyze,
                "workload=mix:wave5+gcc@q=5k,n=10k,seed=" + mix_seed
                    + "\norg=a2-Hp-Sk\n"};
    return {MsgType::Recommend,
            "workload=mix:tomcatv+li@q=5k,n=10k,seed=" + mix_seed
                + "\npolys=4\nrandom=2\n"};
}

/** Scheduled request @p i of connection A. */
std::pair<MsgType, unsigned>
scheduled(std::uint64_t i)
{
    if (i % kMixPeriod == 0)
        return {MsgType::Ping, 0};
    if (i % kMixPeriod == kMixPeriod / 2)
        return {MsgType::Stats, 0};
    return {MsgType::Recommend, static_cast<unsigned>(i % kHot)};
}

double
msSince(Clock::time_point due)
{
    return 1e3 * secondsSince(due);
}

bool
replyOk(const serve::Reply &reply, MsgType type)
{
    if (!reply.transport.ok())
        return false;
    return type == MsgType::Ping ? reply.type == MsgType::Pong
                                 : reply.type == MsgType::Result;
}

bool
refused(const serve::Reply &reply)
{
    if (reply.type != MsgType::ErrorMsg)
        return false;
    const auto kv = reply.kv();
    const auto it = kv.find("code");
    return it != kv.end() && it->second == "saturated";
}

/** In-process computeAdvice for one request payload, timed. */
struct Computed
{
    std::string advice;
    double wallS = 0, cpuS = 0;
    std::uint64_t records = 0; ///< records delivered to search cells
    bool ok = false;
};

Computed
computeInProcess(MsgType kind, const std::string &payload,
                 SpanLog *log = nullptr)
{
    Computed c;
    std::map<std::string, std::string> kv;
    serve::AdvisorRequest request;
    if (serve::kvParse(payload, kv)
        || serve::parseAdvisorRequest(kind, kv, request))
        return c;
    const std::size_t composed =
        Scenario(request.workload).composed().size();
    {
        SpanLog::Scope scope(log, "serve.compute");
        const double cpu0 = threadCpuSeconds();
        const auto start = Clock::now();
        c.advice = serve::computeAdvice(request, 1);
        c.wallS = secondsSince(start);
        c.cpuS = threadCpuSeconds() - cpu0;
    }
    // Analyze replays one cell; Recommend one per candidate plus the
    // fully-associative reference.
    std::uint64_t cells = 1;
    if (kind == MsgType::Recommend) {
        std::map<std::string, std::string> out;
        serve::kvParse(c.advice, out);
        cells = std::stoull(out["candidates"]) + 1;
    }
    c.records = cells * composed;
    c.ok = true;
    return c;
}

/**
 * A served payload is the computed advice followed by the server's
 * manifest.* lines; anything else is a wrong answer.
 */
bool
matchesAdvice(const std::string &served, const std::string &advice)
{
    if (served.compare(0, advice.size(), advice) != 0)
        return false;
    std::size_t at = advice.size();
    while (at < served.size()) {
        if (served.compare(at, 9, "manifest.") != 0)
            return false;
        const std::size_t nl = served.find('\n', at);
        if (nl == std::string::npos)
            return false;
        at = nl + 1;
    }
    return true;
}

struct ServerConn
{
    std::unique_ptr<serve::Server> server;
    serve::Client hits;  ///< connection A
    serve::Client colds; ///< connection B
};

ServerConn
startServer(Report &report, bool second_connection)
{
    ServerConn s;
    serve::ServeConfig config;
    config.port = 0;
    config.workers = 2;
    config.jobThreads = 1;
    s.server = std::make_unique<serve::Server>(config);
    Error err = s.server->start();
    if (!err)
        err = s.hits.connectTo(s.server->port());
    if (!err && second_connection)
        err = s.colds.connectTo(s.server->port());
    report.check(!err, "server start: " + err.message());
    return s;
}

void
stopServer(ServerConn &s)
{
    s.hits.disconnect();
    s.colds.disconnect();
    s.server->stop();
}

/** One cold request in flight on connection B. */
struct ColdFlight
{
    std::uint64_t j;
    Clock::time_point due;
};

struct ColdDone
{
    std::uint64_t j;
    double ms;
    serve::Reply reply;
};

/** Read one frame from B; completes the oldest flight on a terminal. */
void
readCold(int fd, std::deque<ColdFlight> &flights,
         std::vector<ColdDone> &done)
{
    serve::Frame frame;
    if (Error err = serve::recvFrame(fd, frame)) {
        ColdDone d{flights.front().j, msSince(flights.front().due), {}};
        d.reply.transport = err;
        done.push_back(std::move(d));
        flights.pop_front();
        return;
    }
    if (frame.header.type == MsgType::Progress || flights.empty())
        return;
    ColdDone d{flights.front().j, msSince(flights.front().due), {}};
    d.reply.type = frame.header.type;
    d.reply.flags = frame.header.flags;
    d.reply.payload = std::move(frame.payload);
    done.push_back(std::move(d));
    flights.pop_front();
}

/** Wait until @p until, or until B has a frame to read. */
bool
waitOn(int fd, Clock::time_point until)
{
    const auto left = until - Clock::now();
    const auto ns = std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(left)
               .count());
    timespec ts{static_cast<time_t>(ns / 1000000000),
                static_cast<long>(ns % 1000000000)};
    pollfd p{fd, POLLIN, 0};
    return ppoll(&p, 1, &ts, nullptr) > 0;
}

struct RungStats
{
    double rate = 0;
    std::vector<double> hitMs, lateMs;
    std::uint64_t sent = 0, failed = 0;
    double seconds = 0;
    bool backlog = false;
};

/** A closed-loop burst of the scheduled mix (traced run baseline). */
double
closedBurst(ServerConn &s, std::uint64_t seed, std::uint64_t cold_base,
            SpanLog *log, Report &report)
{
    const auto start = Clock::now();
    std::uint64_t failed = 0, n = 0;
    for (std::uint64_t i = 0; i < 2000; ++i, ++n) {
        const auto [type, hot] = scheduled(i);
        const char *span = type == MsgType::Ping    ? "serve.ping"
                           : type == MsgType::Stats ? "serve.stats"
                                                    : "serve.hit";
        SpanLog::Scope scope(log, span);
        const serve::Reply r = type == MsgType::Recommend
            ? s.hits.request(type, hotPayload(seed, hot))
            : s.hits.request(type, std::string());
        failed += !replyOk(r, type);
    }
    for (std::uint64_t j = cold_base; j < cold_base + 2; ++j, ++n) {
        SpanLog::Scope scope(log, "serve.cold");
        const auto [type, payload] = coldRequest(seed, j);
        failed += !replyOk(s.hits.request(type, payload), type);
    }
    report.operations(n, failed, "closed-loop burst replies");
    return secondsSince(start);
}

} // anonymous namespace

void
runAdvisorOpen(const Options &options, Report &report)
{
    const std::uint64_t seed = options.seed;
    ServerConn s;
    std::vector<std::string> hot_replies(kHot);
    timedSetup(
        options, report, kSetupReps,
        [&] {
            if (s.server)
                stopServer(s);
        },
        [&] {
            s = startServer(report, true);
            // Fill the memo: the hot set's first (cold) computation.
            for (unsigned i = 0; i < kHot; ++i) {
                const serve::Reply r = s.hits.request(MsgType::Recommend,
                                                      hotPayload(seed, i));
                report.check(replyOk(r, MsgType::Recommend)
                                 && !r.memoHit(),
                             "memo fill " + std::to_string(i));
                hot_replies[i] = r.payload;
            }
        });
    std::printf("workload advisor_open: port %u, %u hot Recommend keys, "
                "cold %.1f/s, ladder",
                s.server->port(), kHot, kColdPerSec);
    for (double rate : kRates)
        std::printf(" %.0f", rate);
    std::printf(" rps, hit p99 limit %.1f ms\n", kHitLimitMs);

    // One untimed pass of the scheduled mix before timing starts.
    for (std::uint64_t i = 0; i < 2 * kMixPeriod; ++i) {
        const auto [type, hot] = scheduled(i);
        const serve::Reply r = type == MsgType::Recommend
            ? s.hits.request(type, hotPayload(seed, hot))
            : s.hits.request(type, std::string());
        report.check(replyOk(r, type), "warm request");
    }

    // The digest covers the hot set's advice (manifest lines cut), so
    // it does not depend on how long the run was.
    std::uint64_t digest = fnv1a("");
    for (const std::string &reply : hot_replies)
        digest = fnv1a(reply.substr(0, reply.find("manifest.")), digest);
    report.setDigest(digest);

    if (options.trace) {
        std::vector<double> base;
        for (int rep = 0; rep < 3; ++rep)
            base.push_back(closedBurst(s, seed, 100000 + 2 * rep, nullptr,
                                       report));
        SpanLog log;
        int root = -1;
        double wall = 0;
        {
            SpanLog::Scope scope(&log, "pass");
            root = scope.index();
            wall = closedBurst(s, seed, 100010, &log, report);
        }
        log.printSelfTimes(root, "traced pass (closed-loop burst)");
        std::printf("  tracing overhead: %.3f ms traced vs %.3f ms "
                    "untraced median (%+.2f%%)\n",
                    1e3 * wall, 1e3 * median(base),
                    100.0 * (wall / median(base) - 1.0));
        stopServer(s);

        LadderInput input;
        input.scenario =
            buildScenario("mix:swim+tomcatv@q=5k,n=10k,seed="
                          + std::to_string(seed * 100));
        input.trace = std::shared_ptr<const Trace>(
            input.scenario, &input.scenario->composed());
        input.tracePath = options.workdir + "/advisor.trc";
        writeTrace(*input.trace, input.tracePath);
        input.serveMix = "mix:swim+tomcatv@q=5k,n=10k,seed="
                         + std::to_string(seed * 100 + 50);
        SpanLog ladder_log;
        runLadder(input, options, ladder_log, report);
        return;
    }

    // ---- the open-loop ladder -------------------------------------
    const int fd_b = s.colds.fd();
    std::deque<ColdFlight> flights;
    std::vector<ColdDone> colds;
    std::uint64_t next_cold = 0;
    std::uint32_t cold_id = 1;
    std::uint64_t hit_mismatch = 0, refusals = 0;
    const double rung_s =
        options.seconds / static_cast<double>(std::size(kRates));
    const auto run_start = Clock::now();
    const auto cold_due = [&](std::uint64_t j) {
        return run_start
               + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>((j + 0.5) / kColdPerSec));
    };
    // Send every cold request that is due, and read B while waiting.
    const auto service = [&](Clock::time_point until) {
        do {
            while (cold_due(next_cold) <= Clock::now()) {
                const auto [type, payload] = coldRequest(seed, next_cold);
                flights.push_back({next_cold, cold_due(next_cold)});
                if (Error err =
                        serve::sendFrame(fd_b, type, 0, cold_id++, payload))
                    report.check(false, "cold send: " + err.message());
                ++next_cold;
            }
            const auto wake = std::min(until, cold_due(next_cold));
            if (waitOn(fd_b, wake) && !flights.empty())
                readCold(fd_b, flights, colds);
        } while (Clock::now() < until);
    };

    std::vector<RungStats> rungs;
    std::vector<double> all_hits, all_late;
    for (double rate : kRates) {
        RungStats rung;
        rung.rate = rate;
        const auto start = Clock::now();
        const auto count =
            std::max<std::uint64_t>(1, static_cast<std::uint64_t>(rate * rung_s));
        for (std::uint64_t i = 0; i < count; ++i) {
            const auto due =
                start
                + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(i / rate));
            service(due);
            const double late = msSince(due);
            const auto [type, hot] = scheduled(i);
            const serve::Reply r = type == MsgType::Recommend
                ? s.hits.request(type, hotPayload(seed, hot))
                : s.hits.request(type, std::string());
            const double ms = msSince(due);
            const bool ok = replyOk(r, type);
            refusals += refused(r);
            ++rung.sent;
            rung.failed += !ok;
            rung.lateMs.push_back(late);
            if (type == MsgType::Recommend) {
                if (!r.memoHit() || r.payload != hot_replies[hot])
                    ++hit_mismatch;
                rung.hitMs.push_back(ms);
            }
        }
        service(start
                + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(rung_s)));
        rung.seconds = secondsSince(start);
        // A growing backlog: the generator ends the rung further
        // behind schedule than the latency limit.
        const std::size_t tail = std::max<std::size_t>(1, count / 10);
        double tail_late = 0;
        for (std::size_t k = rung.lateMs.size() - tail;
             k < rung.lateMs.size(); ++k)
            tail_late += rung.lateMs[k];
        rung.backlog = tail_late / tail > kHitLimitMs;
        all_hits.insert(all_hits.end(), rung.hitMs.begin(),
                        rung.hitMs.end());
        all_late.insert(all_late.end(), rung.lateMs.begin(),
                        rung.lateMs.end());
        report.operations(rung.sent, rung.failed,
                          "scheduled requests at "
                              + std::to_string(static_cast<int>(rate))
                              + " rps");
        rungs.push_back(std::move(rung));
    }
    // Drain what is still in flight on B (bounded wait).
    const auto drain_until = Clock::now() + std::chrono::seconds(60);
    while (!flights.empty() && Clock::now() < drain_until) {
        if (waitOn(fd_b, drain_until))
            readCold(fd_b, flights, colds);
    }
    report.operations(next_cold, next_cold - colds.size(),
                      "cold requests unanswered");
    report.operations(all_hits.size(), hit_mismatch,
                      "memo hits without the flag or with another "
                      "payload");

    const serve::Reply stats = s.hits.stats();
    report.check(replyOk(stats, MsgType::Stats), "final Stats read");
    const serve::MemoCache::Stats memo = s.server->memoStats();
    stopServer(s);

    // ---- output checks, outside the timed phase --------------------
    // Each hot reply and each cold reply must be exactly what
    // computeAdvice gives in process, plus the manifest lines. The
    // cold recomputation doubles as the cold-compute rate measurement.
    for (unsigned i = 0; i < kHot; ++i) {
        const Computed c =
            computeInProcess(MsgType::Recommend, hotPayload(seed, i));
        report.check(c.ok && matchesAdvice(hot_replies[i], c.advice),
                     "hot reply " + std::to_string(i)
                         + " differs from computeAdvice");
    }
    // The cold set is recomputed for --seconds (at least kComputeRounds
    // times), alternating with the reference kernel (see measurePasses
    // in sim_workloads.cc); rates are per round, over the whole set,
    // since a Recommend and an Analyze differ several-fold per record.
    std::vector<double> cold_ms, refs, rates, cpus, raw_rates, raw_cpus;
    for (const ColdDone &d : colds) {
        cold_ms.push_back(d.ms);
        refusals += refused(d.reply);
    }
    const auto compute_begin = Clock::now();
    refs.push_back(referenceKernelSeconds());
    for (int round = 0; round < kComputeRounds
                        || secondsSince(compute_begin) < options.seconds;
         ++round) {
        double wall = 0, cpu = 0, records = 0;
        for (const ColdDone &d : colds) {
            const auto [type, payload] = coldRequest(seed, d.j);
            const Computed c = computeInProcess(type, payload);
            if (round == 0)
                report.check(replyOk(d.reply, type) && c.ok
                                 && !d.reply.memoHit()
                                 && matchesAdvice(d.reply.payload,
                                                  c.advice),
                             "cold reply " + std::to_string(d.j)
                                 + " differs from computeAdvice");
            wall += c.wallS;
            cpu += c.cpuS;
            records += static_cast<double>(c.records);
        }
        refs.push_back(referenceKernelSeconds());
        if (records == 0)
            break;
        const double scale = 2 * kReferenceNominalSeconds
                             / (refs[round] + refs[round + 1]);
        rates.push_back(records / (wall * scale) / 1e6);
        cpus.push_back(cpu * scale * 1e9 / records);
        raw_rates.push_back(records / wall / 1e6);
        raw_cpus.push_back(cpu * 1e9 / records);
    }

    std::printf("\n%8s %8s %8s %10s %10s %10s %8s %s\n", "rate", "sent",
                "failed", "hit_p50us", "hit_p99us", "late_p99ms",
                "got_rps", "verdict");
    double goodput = 0;
    for (const RungStats &r : rungs) {
        const double p99 = quantile(r.hitMs, 0.99);
        const bool pass =
            r.failed == 0 && !r.backlog && p99 <= kHitLimitMs;
        const double got = static_cast<double>(r.sent) / r.seconds;
        if (pass)
            goodput = got;
        std::printf("%8.0f %8llu %8llu %10.1f %10.1f %10.3f %8.1f %s\n",
                    r.rate, static_cast<unsigned long long>(r.sent),
                    static_cast<unsigned long long>(r.failed),
                    1e3 * median(r.hitMs), 1e3 * p99,
                    quantile(r.lateMs, 0.99), got,
                    pass ? "meets limit"
                         : (r.backlog ? "backlog" : "over limit"));
    }
    const double memo_total = static_cast<double>(memo.hits + memo.misses);
    std::printf("server: memo hits %llu, misses %llu (hit ratio %.4f), "
                "refused %llu\n",
                static_cast<unsigned long long>(memo.hits),
                static_cast<unsigned long long>(memo.misses),
                memo_total > 0 ? memo.hits / memo_total : 0.0,
                static_cast<unsigned long long>(refusals));

    // The hit path is bound by wake-ups and the loopback stack, not by
    // compute, so op_p50_ms stays raw: the median hit of the top two
    // rungs, where short idle gaps keep wake-ups cheap.
    std::vector<double> top = rungs.back().hitMs;
    const std::vector<double> &next = rungs[rungs.size() - 2].hitMs;
    top.insert(top.end(), next.begin(), next.end());
    report.metric("sim_maps", "M/s", median(rates), rates.size());
    report.metric("sim_cpu_ns", "ns", median(cpus), cpus.size());
    report.metric("op_p50_ms", "ms", median(top), top.size());
    report.metric("sim_maps_raw", "M/s", median(raw_rates),
                  raw_rates.size());
    report.metric("sim_cpu_ns_raw", "ns", median(raw_cpus), raw_cpus.size());
    report.metric("host.ref_ms", "ms", 1e3 * median(refs), refs.size());
    report.metric("hit_p50_us", "us", 1e3 * median(all_hits),
                  all_hits.size());
    report.metric("hit_p99_us", "us", 1e3 * quantile(all_hits, 0.99),
                  all_hits.size());
    report.metric("cold_p50_ms", "ms", median(cold_ms), cold_ms.size());
    report.metric("goodput_rps", "1/s", goodput, rungs.size());
    report.metric("gen.late_p99_ms", "ms", quantile(all_late, 0.99),
                  all_late.size());
}

void
runServeProbe(const std::string &mix, SpanLog &log, Report &report)
{
    ServerConn s = startServer(report, false);
    std::uint64_t failed = 0, sent = 0, refusals = 0;
    const auto timedRequest = [&](const char *span, MsgType type,
                                  const std::string &payload) {
        const auto start = Clock::now();
        serve::Reply r;
        {
            SpanLog::Scope scope(&log, span);
            r = s.hits.request(type, payload);
        }
        ++sent;
        failed += !replyOk(r, type);
        refusals += refused(r);
        return std::make_pair(1e3 * secondsSince(start), r);
    };
    std::vector<double> ping, hit, stats, cold, compute, queue;
    for (int i = 0; i < 200; ++i)
        ping.push_back(timedRequest("serve.ping", MsgType::Ping, "").first);
    for (int k = 0; k < 3; ++k) {
        const std::string payload =
            "workload=" + mix + "\npolys=4\nrandom=" + std::to_string(k + 1)
            + "\n";
        const auto [ms, reply] =
            timedRequest("serve.cold", MsgType::Recommend, payload);
        const Computed c =
            computeInProcess(MsgType::Recommend, payload, &log);
        report.check(c.ok && matchesAdvice(reply.payload, c.advice),
                     "probe cold reply differs from computeAdvice");
        cold.push_back(ms);
        compute.push_back(1e3 * c.wallS);
        queue.push_back(ms - 1e3 * c.wallS);
    }
    const std::string hot = "workload=" + mix + "\npolys=4\nrandom=1\n";
    for (int i = 0; i < 500; ++i)
        hit.push_back(timedRequest("serve.hit", MsgType::Recommend, hot)
                          .first);
    for (int i = 0; i < 100; ++i)
        stats.push_back(
            timedRequest("serve.stats", MsgType::Stats, "").first);
    // Short open-loop burst: how late the generator runs at 1000 rps.
    std::vector<double> late;
    const auto start = Clock::now();
    for (int i = 0; i < 500; ++i) {
        const auto due = start
                         + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(i / 1000.0));
        std::this_thread::sleep_until(due);
        late.push_back(msSince(due));
        timedRequest("serve.hit", MsgType::Recommend, hot);
    }
    const serve::MemoCache::Stats memo = s.server->memoStats();
    stopServer(s);
    report.operations(sent, failed, "serve probe replies");

    report.metric("serve.ping_us", "us", 1e3 * median(ping), ping.size());
    report.metric("serve.hit_us", "us", 1e3 * median(hit), hit.size());
    report.metric("serve.stats_us", "us", 1e3 * median(stats),
                  stats.size());
    report.metric("serve.compute_ms", "ms", median(compute),
                  compute.size());
    report.metric("serve.queue_ms", "ms", median(queue), queue.size());
    report.metric("serve.refused", "count", static_cast<double>(refusals),
                  sent);
    report.metric("serve.memo_hit_ratio", "ratio",
                  static_cast<double>(memo.hits)
                      / static_cast<double>(
                          std::max<std::uint64_t>(1, memo.hits
                                                         + memo.misses)),
                  memo.hits + memo.misses);
    report.metric("gen.late_p99_ms", "ms", quantile(late, 0.99),
                  late.size());
}

} // namespace perfbench
