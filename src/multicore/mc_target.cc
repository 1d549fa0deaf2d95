#include "multicore/mc_target.hh"

#include "common/logging.hh"

namespace cac
{

MultiCoreTarget::MultiCoreTarget(std::string name,
                                 std::unique_ptr<CoherentSystem> system)
    : name_(std::move(name)), system_(std::move(system))
{
    CAC_ASSERT(system_);
}

void
MultiCoreTarget::accessBatch(const std::uint64_t *addrs, std::size_t n,
                             bool is_write)
{
    gather_.flush(*system_);
    accessSameKind(*system_, addrs, n, is_write);
}

void
MultiCoreTarget::replay(const TraceRecord *recs, std::size_t n)
{
    gather_.replay(*system_, recs, n);
}

void
MultiCoreTarget::finish()
{
    gather_.flush(*system_);
}

void
MultiCoreTarget::checkpoint()
{
    gather_.flush(*system_);
}

void
MultiCoreTarget::flushPrimary()
{
    gather_.flush(*system_);
    system_->flushL1s();
}

TargetStats
MultiCoreTarget::stats() const
{
    TargetStats out;
    out.kind = TargetKind::MultiCore;
    out.l1 = system_->aggregateL1();
    out.hasHierarchy = true;
    out.l2 = system_->l2().stats();
    out.holes = system_->aggregateHoles();
    out.hasMultiCore = true;
    out.mc = system_->stats();
    return out;
}

} // namespace cac
