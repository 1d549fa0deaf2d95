/**
 * @file
 * Cycle pins for the out-of-order core: exact cycle, load, miss,
 * branch and address-prediction counts of every Table-2 configuration
 * on three fixed-seed proxies. Any change to the model's timing, even
 * one cycle, fails here; a faster model must reproduce these numbers.
 *
 * swim and tomcatv are conflict-heavy and forward stores to loads;
 * gcc is branchy. Each configuration is also fed in chunks of 1, 3, 7
 * and 4096 records, which must be cycle-identical to run().
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "cpu/ooo_core.hh"
#include "workloads/spec_proxy.hh"

namespace cac
{
namespace
{

struct Pin
{
    const char *proxy;
    const char *config;
    std::uint64_t instructions;
    std::uint64_t cycles;
    std::uint64_t loads;
    std::uint64_t loadMisses;
    std::uint64_t branchMispredicts;
    std::uint64_t addrPredConfidentCorrect;
    std::uint64_t addrPredConfidentWrong;
};

/** buildSpecProxy(proxy, 50000, seed 1) under tableConfig(config). */
const Pin kPins[] = {
    {"swim", "16k-conv", 56400, 43688, 24200, 14966, 11, 0, 0},
    {"swim", "8k-conv", 56400, 45337, 24200, 15167, 11, 0, 0},
    {"swim", "8k-conv-pred", 56400, 44791, 24200, 15565, 11, 24022, 62},
    {"swim", "8k-ipoly-nocp", 56400, 31288, 24200, 1603, 11, 0, 0},
    {"swim", "8k-ipoly-cp", 56400, 31583, 24200, 1603, 11, 0, 0},
    {"swim", "8k-ipoly-cp-pred", 56400, 31008, 24200, 1603, 11, 24022, 62},
    {"tomcatv", "16k-conv", 52936, 54479, 17810, 7989, 27, 0, 0},
    {"tomcatv", "8k-conv", 52936, 54479, 17810, 9814, 27, 0, 0},
    {"tomcatv", "8k-conv-pred", 52936, 54190, 17810, 10165, 27, 17112,
     630},
    {"tomcatv", "8k-ipoly-nocp", 52936, 38416, 17810, 2786, 27, 0, 0},
    {"tomcatv", "8k-ipoly-cp", 52936, 39584, 17810, 2786, 27, 0, 0},
    {"tomcatv", "8k-ipoly-cp-pred", 52936, 37276, 17810, 2786, 27, 17112,
     630},
    {"gcc", "16k-conv", 51584, 56279, 12864, 1201, 812, 0, 0},
    {"gcc", "8k-conv", 51584, 57930, 12864, 1379, 812, 0, 0},
    {"gcc", "8k-conv-pred", 51584, 57815, 12864, 1379, 812, 10194, 38},
    {"gcc", "8k-ipoly-nocp", 51584, 58362, 12864, 1487, 812, 0, 0},
    {"gcc", "8k-ipoly-cp", 51584, 60183, 12864, 1487, 812, 0, 0},
    {"gcc", "8k-ipoly-cp-pred", 51584, 59730, 12864, 1487, 812, 10194,
     38},
};

const Trace &
proxy(const std::string &name)
{
    static std::map<std::string, Trace> traces;
    auto it = traces.find(name);
    if (it == traces.end())
        it = traces.emplace(name, buildSpecProxy(name, 50000, 1)).first;
    return it->second;
}

void
expectPinned(const CpuStats &s, const Pin &pin)
{
    EXPECT_EQ(s.instructions, pin.instructions);
    EXPECT_EQ(s.cycles, pin.cycles);
    EXPECT_EQ(s.loads, pin.loads);
    EXPECT_EQ(s.loadMisses, pin.loadMisses);
    EXPECT_EQ(s.branchMispredicts, pin.branchMispredicts);
    EXPECT_EQ(s.addrPredConfidentCorrect, pin.addrPredConfidentCorrect);
    EXPECT_EQ(s.addrPredConfidentWrong, pin.addrPredConfidentWrong);
}

TEST(CyclePins, EveryTableConfigOnEveryProxy)
{
    for (const Pin &pin : kPins) {
        SCOPED_TRACE(std::string(pin.proxy) + " " + pin.config);
        OooCore core(CpuConfig::tableConfig(pin.config));
        expectPinned(core.run(proxy(pin.proxy)), pin);
    }
}

TEST(CyclePins, PinsCoverEveryTableConfig)
{
    for (const std::string &name : CpuConfig::tableConfigNames()) {
        for (const char *p : {"swim", "tomcatv", "gcc"}) {
            bool found = false;
            for (const Pin &pin : kPins)
                found |= name == pin.config && std::string(p) == pin.proxy;
            EXPECT_TRUE(found) << p << " " << name;
        }
    }
}

TEST(CyclePins, ChunkedFeedEqualsRunForEveryConfig)
{
    for (const Pin &pin : kPins) {
        const Trace &trace = proxy(pin.proxy);
        for (const std::size_t chunk : {1, 3, 7, 4096}) {
            SCOPED_TRACE(std::string(pin.proxy) + " " + pin.config
                         + " chunk " + std::to_string(chunk));
            OooCore core(CpuConfig::tableConfig(pin.config));
            core.beginStream();
            for (std::size_t pos = 0; pos < trace.size(); pos += chunk)
                core.feed(trace.data() + pos,
                          std::min(chunk, trace.size() - pos));
            expectPinned(core.finishStream(), pin);
        }
    }
}

} // anonymous namespace
} // namespace cac
