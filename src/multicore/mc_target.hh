/**
 * @file
 * MultiCoreTarget: the coherent two-level system (CoherentSystem)
 * behind the SimTarget interface, so sweeps, scenarios, the conflict
 * profiler and the CLI drive it exactly like a single cache.
 *
 * Labels: OrgRegistry::buildTarget() resolves both two-level grammars
 * to this class. `2lvl:<l1-org>/<l2-org>` (e.g. "2lvl:a2-Hp-Sk/a4")
 * builds one core and reports TargetKind::Hierarchy: the hierarchy's
 * L1/L2/hole rows, no multicore section.
 * `mc:<cores>x<l1-org>/<l2-org>` (e.g. "mc:4xa2-Hp-Sk/a4") reports
 * TargetKind::MultiCore with per-core rows and coherence traffic;
 * `cac_sim --cores N` rewrites plain organization labels into that
 * grammar. Streams demultiplex onto cores by ASID window (see
 * CoherentSystem), so a Scenario mix's programs round-robin across
 * cores with no scheduler changes.
 */

#ifndef CAC_MULTICORE_MC_TARGET_HH
#define CAC_MULTICORE_MC_TARGET_HH

#include <memory>
#include <string>

#include "core/sim_target.hh"
#include "multicore/coherent_system.hh"

namespace cac
{

/** Two-level (one core) or N-core coherent shared-cache target. */
class MultiCoreTarget : public SimTarget
{
  public:
    /**
     * @param kind what the target reports: Hierarchy (one core, no
     *        multicore section in stats()) or MultiCore.
     */
    MultiCoreTarget(std::string name,
                    std::unique_ptr<CoherentSystem> system,
                    TargetKind kind);

    std::string name() const override { return name_; }
    TargetKind kind() const override { return kind_; }
    void accessBatch(const std::uint64_t *addrs, std::size_t n,
                     bool is_write) override;
    void replay(const TraceRecord *recs, std::size_t n) override;
    void finish() override;
    void checkpoint() override;
    void flushPrimary() override;
    TargetStats stats() const override;

    CoherentSystem &system() { return *system_; }
    const CoherentSystem &system() const { return *system_; }

  private:
    std::string name_;
    std::unique_ptr<CoherentSystem> system_;
    TargetKind kind_;
    /** Mixed-kind run gathering, restartable across replay() chunks. */
    MemRunGatherer gather_;
};

} // namespace cac

#endif // CAC_MULTICORE_MC_TARGET_HH
