/**
 * @file
 * A forwarding DynOpSource that times op delivery: every next / nextBatch
 * / nextSpan call is passed to the wrapped source unchanged and its wall
 * time and op count are added to a DeliveryClock. One refill covers up to
 * sim::opBatchSize ops, so the clock reads cost a fraction of a
 * nanosecond per op. The self-test checks the wrapper is transparent:
 * identical CoreStats with and without it.
 */

#ifndef BFSIM_PERFBENCH_TIMED_SOURCE_HH_
#define BFSIM_PERFBENCH_TIMED_SOURCE_HH_

#include <cstdint>
#include <memory>

#include "sim/dyn_op_source.hh"
#include "sweep.hh"

namespace perfbench {

/** Accumulated delivery time and ops across the sources sharing it. */
struct DeliveryClock
{
    std::uint64_t ns = 0;
    std::uint64_t ops = 0;
};

class TimedSource : public bfsim::sim::DynOpSource
{
  public:
    TimedSource(std::unique_ptr<bfsim::sim::DynOpSource> inner,
                DeliveryClock &clock)
        : inner(std::move(inner)), clock(clock)
    {
    }

    bool
    next(bfsim::sim::DynOp &op) override
    {
        std::uint64_t start = nowNs();
        bool produced = inner->next(op);
        clock.ns += nowNs() - start;
        clock.ops += produced ? 1 : 0;
        return produced;
    }

    std::size_t
    nextBatch(bfsim::sim::DynOp *out, std::size_t max) override
    {
        std::uint64_t start = nowNs();
        std::size_t n = inner->nextBatch(out, max);
        clock.ns += nowNs() - start;
        clock.ops += n;
        return n;
    }

    std::size_t
    nextSpan(bfsim::sim::OpSpanView &span, std::size_t max) override
    {
        std::uint64_t start = nowNs();
        std::size_t n = inner->nextSpan(span, max);
        clock.ns += nowNs() - start;
        if (n != noSpan)
            clock.ops += n;
        return n;
    }

    bool halted() const override { return inner->halted(); }

    bfsim::InstSeqNum
    produced() const override
    {
        return inner->produced();
    }

    const bfsim::isa::Program &
    program() const override
    {
        return inner->program();
    }

  private:
    std::unique_ptr<bfsim::sim::DynOpSource> inner;
    DeliveryClock &clock;
};

} // namespace perfbench

#endif // BFSIM_PERFBENCH_TIMED_SOURCE_HH_
