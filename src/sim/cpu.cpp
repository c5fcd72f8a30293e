#include "reap/sim/cpu.hpp"

#include "reap/common/assert.hpp"

namespace reap::sim {

TraceCpu::TraceCpu(trace::TraceSource& source, MemoryHierarchy& mem,
                   double clock_ghz)
    : source_(source), mem_(mem), clock_ghz_(clock_ghz) {
  REAP_EXPECTS(clock_ghz > 0.0);
}

}  // namespace reap::sim
