/**
 * @file
 * Table 2 reproduction: IPC and load miss ratio for every Spec95
 * workload proxy under the six processor configurations (16KB
 * conventional; 8KB conventional with/without address prediction;
 * 8KB skewed I-Poly with the XOR gates out of / in the critical path,
 * the latter with/without address prediction).
 *
 * Expected shape (see "What the paper measures" in PAPER.md): I-Poly
 * collapses the miss ratio of tomcatv/swim/wave5 and lifts their IPC
 * past even the 16KB conventional cache; the low-conflict programs change
 * only marginally; averages follow the paper's 1.27 -> 1.33 pattern
 * directionally.
 *
 * The (proxy x configuration) grid runs on the simulation engine
 * ("cpu:" targets on a SweepRunner, see bench/table_runner.hh), so the
 * table parallelizes across hardware threads.
 */

#include <cstdio>

#include "table_runner.hh"

int
main()
{
    using namespace cac;
    using namespace cac::bench;

    constexpr std::size_t kInstructions = 200000;
    std::printf("=== Table 2: IPC and load miss ratio per benchmark "
                "===\n");
    std::printf("(synthetic Spec95 proxies, %zu instructions each; "
                "miss in %%)\n\n",
                kInstructions);

    const auto rows = runAllProxies(kInstructions);

    TextTable table;
    table.header(tableHeader());
    std::vector<const ProxyRow *> ints, fps, all;
    for (const auto &row : rows) {
        emitRow(table, row.info.name, row);
        (row.info.isFp ? fps : ints).push_back(&row);
        all.push_back(&row);
    }
    table.separator();
    emitAverage(table, "Int average", ints);
    emitAverage(table, "Fp average", fps);
    emitAverage(table, "Combined", all);
    std::printf("%s\n", table.render().c_str());

    std::printf(
        "paper (combined averages): 16k 1.36/10.47; 8k conv 1.27, "
        "+pred 1.28, miss 16.53;\n"
        "  ipoly no-CP 1.33 miss 9.68; ipoly in-CP 1.29, +pred 1.33.\n"
        "Check: ipoly-in-CP+pred ~= ipoly-no-CP > 8k conv; miss "
        "collapse on the bad programs.\n");
    return 0;
}
