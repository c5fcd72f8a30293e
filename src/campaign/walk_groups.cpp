#include "reap/campaign/walk_groups.hpp"

#include <string>
#include <utility>

#include "reap/common/assert.hpp"

namespace reap::campaign {

WalkGroups::WalkGroups(const std::vector<CampaignPoint>& points,
                       GroupFn run_group)
    : run_group_(std::move(run_group)) {
  std::unordered_map<std::string, std::size_t> group_of;
  for (const CampaignPoint& pt : points) {
    const auto [it, fresh] = group_of.emplace(pt.trace_key, groups_.size());
    if (fresh) groups_.emplace_back();
    Group& g = groups_[it->second];
    const bool unique =
        slot_of_.emplace(pt.index, Slot{it->second, g.members.size()}).second;
    REAP_EXPECTS(unique);
    g.members.push_back(&pt);
    ++g.untaken;
  }
}

core::ExperimentResult WalkGroups::take(const CampaignPoint& pt) {
  std::unique_lock lock(mu_);
  const auto slot = slot_of_.find(pt.index);
  REAP_EXPECTS(slot != slot_of_.end());
  Group& g = groups_[slot->second.group];
  if (g.state == State::idle) {
    // First arrival: run the whole group unlocked (a walk is milliseconds
    // to seconds; other groups' members must not serialize behind it).
    g.state = State::running;
    lock.unlock();
    std::vector<core::ExperimentResult> results;
    std::exception_ptr error;
    try {
      results = run_group_(g.members);
      REAP_ENSURES(results.size() == g.members.size());
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    g.results = std::move(results);
    g.error = error;
    g.state = State::done;
    done_.notify_all();
  } else {
    done_.wait(lock, [&] { return g.state == State::done; });
  }

  REAP_EXPECTS(g.untaken > 0);
  --g.untaken;
  if (g.error) {
    const std::exception_ptr error = g.error;
    if (g.untaken == 0) g.error = nullptr;
    std::rethrow_exception(error);
  }
  core::ExperimentResult result = std::move(g.results[slot->second.member]);
  if (g.untaken == 0) std::vector<core::ExperimentResult>().swap(g.results);
  return result;
}

}  // namespace reap::campaign
