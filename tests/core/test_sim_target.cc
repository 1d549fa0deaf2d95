/**
 * @file
 * Tests for the SimTarget abstraction: the extended target label
 * grammar ("2lvl:", "cpu:"), and agreement of each target class with
 * the serial driver it subsumes (runTraceMemory, a hand-rolled
 * one-core CoherentSystem loop, OooCore::run).
 */

#include <gtest/gtest.h>

#include <memory>

#include "cache/set_assoc.hh"
#include "core/experiment.hh"
#include "core/registry.hh"
#include "core/sim_target.hh"
#include "cpu/ooo_core.hh"
#include "hierarchy/two_level.hh"
#include "index/factory.hh"
#include "multicore/coherent_system.hh"
#include "workloads/spec_proxy.hh"

namespace cac
{
namespace
{

Trace
proxyTrace()
{
    return buildSpecProxy("swim", 15000);
}

TEST(TargetGrammar, KnownTargetAcceptsEveryForm)
{
    const OrgRegistry &reg = OrgRegistry::global();
    EXPECT_TRUE(reg.knownTarget("a2-Hp-Sk"));
    EXPECT_TRUE(reg.knownTarget("2lvl:a2-Hp-Sk/a4"));
    EXPECT_TRUE(reg.knownTarget("2lvl:dm/full"));
    EXPECT_TRUE(reg.knownTarget("cpu:8k-ipoly-cp-pred"));
    EXPECT_TRUE(reg.knownTarget("cpu:a2-Hp-Sk"));
    EXPECT_TRUE(reg.knownTarget("cpu:a4"));
    EXPECT_TRUE(reg.knownTarget("mc:4xa2-Hp-Sk/a4"));
    EXPECT_TRUE(reg.knownTarget("mc:1xdm/full"));

    EXPECT_FALSE(reg.knownTarget("wombat"));
    EXPECT_FALSE(reg.knownTarget("2lvl:a2"));        // no '/'
    EXPECT_FALSE(reg.knownTarget("2lvl:a2/wombat")); // bad L2
    EXPECT_FALSE(reg.knownTarget("mc:0xa2/a4"));     // no cores
    EXPECT_FALSE(reg.knownTarget("mc:65xa2/a4"));    // above the cap
    EXPECT_FALSE(reg.knownTarget("mc:2xa2"));        // no '/'
    EXPECT_FALSE(reg.knownTarget("mc:2xwombat/a4")); // bad L1
    EXPECT_FALSE(reg.knownTarget("cpu:wombat"));
    EXPECT_FALSE(reg.knownTarget("cpu:"));
}

TEST(TargetGrammar, BuildTargetProducesTheRightKinds)
{
    const TargetSpec spec;
    const OrgRegistry &reg = OrgRegistry::global();
    EXPECT_EQ(reg.buildTarget("a2", spec)->kind(), TargetKind::Cache);
    EXPECT_EQ(reg.buildTarget("cpu:8k-conv", spec)->kind(),
              TargetKind::Cpu);

    // "2lvl:" and "mc:1x" build the same one-core system; only "mc:"
    // reports itself as a multicore target.
    auto two = reg.buildTarget("2lvl:a2/a4", spec);
    auto one = reg.buildTarget("mc:1xa2/a4", spec);
    EXPECT_EQ(two->kind(), TargetKind::Hierarchy);
    EXPECT_EQ(one->kind(), TargetKind::MultiCore);
    EXPECT_EQ("1x " + two->name(), one->name());
    EXPECT_TRUE(two->stats().hasHierarchy);
    EXPECT_FALSE(two->stats().hasMultiCore);
    EXPECT_TRUE(one->stats().hasMultiCore);
}

TEST(TargetGrammar, StandardTargetLabelsAllResolve)
{
    for (const std::string &label : standardTargetLabels())
        EXPECT_TRUE(OrgRegistry::global().knownTarget(label)) << label;
}

TEST(TargetGrammarDeath, MalformedTwoLevelIsFatal)
{
    const TargetSpec spec;
    EXPECT_EXIT((void)OrgRegistry::global().buildTarget("2lvl:a2", spec),
                ::testing::ExitedWithCode(1), "2lvl");
    EXPECT_EXIT((void)OrgRegistry::global().buildTarget("mc:0xa2/a4",
                                                        spec),
                ::testing::ExitedWithCode(1), "CORES");
}

TEST(CacheTargetTest, ReplayMatchesRunTraceMemory)
{
    const Trace trace = proxyTrace();
    const OrgSpec spec;

    auto serial = makeOrganization("a2-Hp-Sk", spec);
    const CacheStats want = runTraceMemory(*serial, trace);

    CacheTarget target(makeOrganization("a2-Hp-Sk", spec));
    target.replay(trace.data(), trace.size());
    target.finish();
    const TargetStats got = target.stats();

    EXPECT_EQ(got.l1.loads, want.loads);
    EXPECT_EQ(got.l1.stores, want.stores);
    EXPECT_EQ(got.l1.loadMisses, want.loadMisses);
    EXPECT_EQ(got.l1.storeMisses, want.storeMisses);
    EXPECT_EQ(got.l1.fills, want.fills);
    EXPECT_EQ(got.l1.evictions, want.evictions);
}

TEST(TwoLevelTargetTest, MatchesHandRolledHierarchy)
{
    const Trace trace = proxyTrace();

    // Reference: the pre-engine holes_model part-2 loop.
    auto makeLevel = [](IndexKind kind, std::uint64_t bytes,
                        unsigned ways, unsigned input_bits) {
        const CacheGeometry geom(bytes, 32, ways);
        return std::make_unique<SetAssocCache>(
            geom, makeIndexFn(kind, geom.setBits(), ways, input_bits));
    };
    CoherentSystem reference(
        makeLevel(IndexKind::IPolySkew, 8 * 1024, 2, 14),
        makeLevel(IndexKind::Modulo, 256 * 1024, 2, 18), PageMap());
    for (const auto &rec : trace) {
        if (isMemOp(rec.op))
            reference.access(rec.addr, rec.op == OpClass::Store);
    }

    // Engine path: the same configuration through the label grammar.
    const TargetSpec spec; // defaults: 8KB L1, 256KB 2-way L2
    auto target = OrgRegistry::global().buildTarget("2lvl:a2-Hp-Sk/a2",
                                                    spec);
    target->replay(trace.data(), trace.size());
    target->finish();
    const TargetStats got = target->stats();

    ASSERT_TRUE(got.hasHierarchy);
    const HoleStats want = reference.aggregateHoles();
    EXPECT_EQ(got.holes.l1Misses, want.l1Misses);
    EXPECT_EQ(got.holes.l2Misses, want.l2Misses);
    EXPECT_EQ(got.holes.l2Replacements, want.l2Replacements);
    EXPECT_EQ(got.holes.inclusionInvalidates, want.inclusionInvalidates);
    EXPECT_EQ(got.holes.holesCreated, want.holesCreated);
    EXPECT_EQ(got.holes.holeRefills, want.holeRefills);
    EXPECT_EQ(got.holes.aliasRemovals, want.aliasRemovals);
    EXPECT_EQ(got.l1.loads, reference.l1(0).stats().loads);
    EXPECT_EQ(got.l1.loadMisses, reference.l1(0).stats().loadMisses);
    EXPECT_EQ(got.l2.misses(), reference.l2().stats().misses());
}

TEST(CpuTargetTest, MatchesOooCoreRun)
{
    const Trace trace = proxyTrace();
    const CpuConfig cfg = CpuConfig::tableConfig("8k-ipoly-cp-pred");

    OooCore reference(cfg);
    const CpuStats want = reference.run(trace);

    CpuTarget target("cpu", cfg);
    target.replay(trace.data(), trace.size());
    target.finish();
    const TargetStats got = target.stats();

    ASSERT_TRUE(got.hasCpu);
    EXPECT_EQ(got.cpu.cycles, want.cycles);
    EXPECT_EQ(got.cpu.instructions, want.instructions);
    EXPECT_EQ(got.cpu.loads, want.loads);
    EXPECT_EQ(got.cpu.stores, want.stores);
    EXPECT_EQ(got.cpu.branches, want.branches);
    EXPECT_EQ(got.cpu.branchMispredicts, want.branchMispredicts);
    EXPECT_EQ(got.cpu.loadMisses, want.loadMisses);
    EXPECT_DOUBLE_EQ(got.cpu.ipc(), want.ipc());
}

TEST(CpuTargetTest, ChunkedFeedIsCycleIdentical)
{
    const Trace trace = proxyTrace();
    const CpuConfig cfg = CpuConfig::tableConfig("8k-conv");

    OooCore whole(cfg);
    const CpuStats want = whole.run(trace);

    // Feed in deliberately awkward chunk sizes (1, 3, 7, 64, ...).
    OooCore chunked(cfg);
    chunked.beginStream();
    const std::size_t sizes[] = {1, 3, 7, 64, 501, 4096};
    std::size_t pos = 0, si = 0;
    while (pos < trace.size()) {
        const std::size_t n =
            std::min(sizes[si++ % std::size(sizes)], trace.size() - pos);
        chunked.feed(trace.data() + pos, n);
        pos += n;
    }
    const CpuStats got = chunked.finishStream();

    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.instructions, want.instructions);
    EXPECT_EQ(got.branchMispredicts, want.branchMispredicts);
    EXPECT_EQ(got.loadMisses, want.loadMisses);
}

TEST(CpuTargetTest, BeginStreamResetsPipelineDependencies)
{
    const Trace trace = proxyTrace();
    const CpuConfig cfg = CpuConfig::tableConfig("8k-conv");

    // Reuse one core for a second stream of the same trace. The
    // pipeline (including register last-writer tracking) must reset
    // and the statistics window restart, so the second run lands
    // within a few percent of the first — a stale producer or a
    // rewound clock leaking across streams inflates it severalfold
    // (the regressions this test guards produced ~2x cycles).
    OooCore core(cfg);
    const CpuStats first = core.run(trace);
    core.beginStream();
    core.feed(trace.data(), trace.size());
    const CpuStats second = core.finishStream();

    EXPECT_EQ(second.instructions, first.instructions);
    EXPECT_GT(second.cycles, 0u);
    EXPECT_LT(second.cycles, first.cycles + first.cycles / 20);
    // Per-stream deltas, not cumulative counters.
    EXPECT_LE(second.loads, first.loads);
    EXPECT_LE(second.loadMisses, first.loadMisses);
}

TEST(CpuTargetTest, AddressStreamProducesAnIpcRow)
{
    std::vector<std::uint64_t> addrs;
    for (int i = 0; i < 5000; ++i)
        addrs.push_back(static_cast<std::uint64_t>(i) * 32);

    CpuTarget target("cpu", CpuConfig::tableConfig("8k-conv"));
    target.accessBatch(addrs.data(), addrs.size(), false);
    target.finish();
    const TargetStats got = target.stats();

    ASSERT_TRUE(got.hasCpu);
    EXPECT_EQ(got.cpu.instructions, addrs.size());
    EXPECT_GT(got.cpu.cycles, 0u);
    EXPECT_GT(got.cpu.ipc(), 0.0);
    EXPECT_EQ(got.l1.loads, addrs.size());
}

} // anonymous namespace
} // namespace cac
