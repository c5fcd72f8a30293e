// Shared hierarchy walks for a campaign run: every to-run point of one
// trace group comes out of a single core::run_experiment_group call.
//
// The points of one trace_key agree on every walk field -- workload
// profile, hierarchy, seed, instruction budget (spec.hpp: the design axes
// policy / ecc / scrub and the device point never reach the walk) -- so
// one walk of L1/L2 yields all of their results, each byte-identical to
// its solo run. The CampaignRunner still hands out points one at a time:
// rows, journal appends, the per-point `runner.point` fault site and
// should_stop all stay per point. WalkGroups sits behind its run_point_fn:
// the first member of a group to arrive runs the whole group (the members
// still to run in this process, i.e. after --resume / --skip-rows) and
// keeps the other members' results; a later member takes its own result,
// waiting -- on any thread -- while the group's walk is in flight, the way
// TraceCache::acquire waits for an in-flight materialization. A group's
// results are freed once its last member has taken its own.
//
// Thread-safe. With more runner threads than groups the waiting members'
// threads idle: a group is one walk, so it runs on one thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "reap/campaign/spec.hpp"
#include "reap/core/experiment.hpp"

namespace reap::campaign {

class WalkGroups {
 public:
  // Runs one group: `members` share a trace_key. Returns one result per
  // member, in member order (typically core::run_experiment_group over
  // the members' configs and the group's op source).
  using GroupFn = std::function<std::vector<core::ExperimentResult>(
      const std::vector<const CampaignPoint*>& members)>;

  // Groups `points` by trace_key, members in input order. The points
  // (each CampaignPoint::index distinct) must outlive this object.
  WalkGroups(const std::vector<CampaignPoint>& points, GroupFn run_group);

  // The result of `pt`, one of the constructor's points, asked for once:
  // runs pt's group if no member has yet, else waits for that run. An
  // exception from the group run reaches every member that asks.
  core::ExperimentResult take(const CampaignPoint& pt);

 private:
  enum class State { idle, running, done };

  struct Group {
    std::vector<const CampaignPoint*> members;
    State state = State::idle;
    std::vector<core::ExperimentResult> results;
    std::exception_ptr error;
    std::size_t untaken = 0;
  };

  struct Slot {
    std::size_t group;
    std::size_t member;
  };

  GroupFn run_group_;
  std::vector<Group> groups_;
  std::unordered_map<std::size_t, Slot> slot_of_;  // by CampaignPoint::index
  std::mutex mu_;
  std::condition_variable done_;
};

}  // namespace reap::campaign
