#include "sched/bus.hpp"

namespace feast {

Time BusTimeline::total_busy() const noexcept {
  Time busy = 0.0;
  for (std::size_t i = 0; i < starts_.size(); ++i) busy += ends_[i] - starts_[i];
  return busy;
}

}  // namespace feast
