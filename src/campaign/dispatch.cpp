#include "reap/campaign/dispatch.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "reap/campaign/journal.hpp"
#include "reap/campaign/seed.hpp"
#include "reap/common/jsonl.hpp"
#include "reap/common/strings.hpp"
#include "reap/common/subprocess.hpp"

namespace reap::campaign {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

// Supervisor-side view of one shard.
struct ShardState {
  std::size_t expected = 0;  // points in this shard
  std::size_t attempts = 0;
  // Consecutive failed attempts that journaled no new row. Progress
  // resets it: a worker that crashes midway but lands rows is
  // converging, not failing. This -- not `attempts` -- is what exhausts
  // the max_attempts budget and what drives the backoff exponent.
  std::size_t no_progress = 0;
  std::size_t last_slot = kNoSlot;  // slot of the most recent attempt
  bool completed = false;
  bool abandoned = false;
  // Some attempt's stream delivered its header frame: the worker got as
  // far as starting a run, so skipping rows (the bisect) can help.
  bool header_streamed = false;
  std::string journal_path;
  std::string log_path;
  std::unordered_set<std::string> done_keys;     // journaled row keys
  std::unordered_set<std::string> quarantined;   // poisoned keys (this shard)
  // Quarantine bisect state. `suspects` is the candidate set the poison
  // is known to live in (index order); each probe runs the first half
  // (`probe_target`) and skips the rest, narrowing by outcome.
  bool probing = false;
  std::vector<std::string> suspects;
  std::vector<std::string> probe_target;
  Clock::time_point eligible_at{};  // backoff gate for the next launch
};

// One busy worker slot.
struct Slot {
  std::unique_ptr<WorkerHandle> worker;
  JournalWriter journal;  // the shard journal, opened for this attempt
  std::size_t shard = 0;
  std::size_t transport = 0;  // index into the transports vector
  std::size_t attempt = 0;
  std::size_t rows_at_spawn = 0;
  // Watchdog heartbeat: when this worker last landed a row in the shard
  // journal. A worker that stops landing rows has stopped completing them.
  Clock::time_point last_change{};
  std::optional<Clock::time_point> term_at;  // SIGTERM sent, grace running
};

// Per-host (per-transport) failure accounting; see
// DispatchOptions::host_max_failures.
struct HostState {
  std::size_t fails = 0;  // consecutive machine-level failures
  bool dead = false;
};

}  // namespace

std::vector<std::string> DispatchResult::journal_paths() const {
  std::vector<std::string> paths;
  paths.reserve(shards.size());
  for (const auto& s : shards) paths.push_back(s.journal_path);
  return paths;
}

Dispatcher::Dispatcher(std::map<std::string, std::string> spec_kv,
                       DispatchOptions opts)
    : spec_kv_(std::move(spec_kv)), opts_(std::move(opts)) {}

std::optional<DispatchPlan> plan_dispatch(const CampaignSpec& spec,
                                          std::size_t n_points,
                                          const DispatchOptions& opts,
                                          std::string* error) {
  const auto fail = [error](const std::string& msg) {
    if (error) *error = msg;
    return std::nullopt;
  };
  DispatchPlan plan;
  if (!opts.transports.empty()) {
    // The slot pool is whatever the transports bring; --workers is a
    // local-pool knob and does not apply.
    plan.workers = 0;
    for (const auto& t : opts.transports) plan.workers += t.slots();
    plan.workers = std::max<std::size_t>(plan.workers, 1);
  } else {
    plan.workers = opts.workers != 0
                       ? opts.workers
                       : std::max(1u, std::thread::hardware_concurrency());
  }
  // More shards than points would leave empty shards whose workers have
  // nothing to do; clamp the shard count to the grid. The slot pool is
  // NOT clamped to the shard count: a spare slot is what lets a
  // repeatedly-dying shard be reassigned away from its old slot even
  // when it is the only shard left.
  plan.n_shards = opts.jobs != 0 ? opts.jobs
                                 : std::min(plan.workers, n_points);
  plan.n_shards = std::max<std::size_t>(std::min(plan.n_shards, n_points), 1);

  // A work dir that already holds journals defines the shard split: the
  // resume contract is "re-run with the same spec and work dir", not
  // "...and the same worker count". Every readable journal must belong
  // to this spec and agree on the split.
  std::optional<std::size_t> adopted;
  std::size_t scan_end = plan.n_shards;
  for (std::size_t i = 0; i < scan_end; ++i) {
    const auto path =
        opts.work_dir + "/shard_" + std::to_string(i) + ".journal";
    std::error_code ec;
    if (!std::filesystem::exists(path, ec) || ec) continue;
    const auto prior = read_journal_header(path);
    if (!prior) continue;  // unreadable: Dispatcher::run reports it
    if (prior->spec_hash != spec_hash(spec))
      return fail("work dir " + opts.work_dir +
                  " holds journals for a different spec (" + path +
                  "); use a fresh --work-dir");
    const auto split = std::max<std::size_t>(prior->shard_count, 1);
    if (adopted && *adopted != split)
      return fail("work dir " + opts.work_dir +
                  " holds journals from two different shard splits (" +
                  std::to_string(*adopted) + " and " +
                  std::to_string(split) + "-way); use a fresh --work-dir");
    adopted = split;
    scan_end = std::max(scan_end, split);  // check the whole old range too
  }
  if (adopted) {
    plan.adopted_split = plan.n_shards != *adopted;
    plan.n_shards = *adopted;
  }
  return plan;
}

DispatchResult Dispatcher::run() {
  DispatchResult result;
  const auto fail = [&result](std::string msg,
                              DispatchStatus st = DispatchStatus::error) {
    result.ok = false;
    result.status = st;
    result.error = std::move(msg);
    return result;
  };

  if (opts_.campaign_binary.empty() && opts_.transports.empty())
    return fail("dispatch: no campaign binary configured");
  if (opts_.work_dir.empty()) return fail("dispatch: no work dir configured");
  if (opts_.max_attempts == 0)
    return fail("dispatch: max_attempts must be >= 1");

  std::string error;
  const auto spec = CampaignSpec::from_kv(spec_kv_, &error);
  if (!spec) return fail("bad spec: " + error);
  std::vector<CampaignPoint> points;
  try {
    points = expand(*spec);
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  result.points = points.size();

  // plan_dispatch only fails when the work dir belongs to a different
  // spec or shard split -- the spec_mismatch exit condition.
  const auto plan = plan_dispatch(*spec, points.size(), opts_, &error);
  if (!plan) return fail(error, DispatchStatus::spec_mismatch);
  const std::size_t workers = plan->workers;
  const std::size_t n_shards = plan->n_shards;

  std::error_code ec;
  std::filesystem::create_directories(opts_.work_dir, ec);
  if (ec)
    return fail("cannot create work dir " + opts_.work_dir + ": " +
                ec.message());

  // The slot pool: every transport's slots, concatenated. No transports
  // configured means one `local` host with the planned worker count.
  auto transports = opts_.transports;
  if (transports.empty())
    transports.emplace_back(HostSpec{"local", workers, opts_.campaign_binary,
                                     opts_.work_dir + "/remote-local", ""});
  std::vector<HostState> hosts(transports.size());
  std::vector<std::size_t> slot_owner;  // slot index -> transport index
  for (std::size_t t = 0; t < transports.size(); ++t)
    for (std::size_t k = 0; k < transports[t].slots(); ++k)
      slot_owner.push_back(t);

  const auto lose_host = [&](std::size_t t, const std::string& reason) {
    if (hosts[t].dead) return;
    hosts[t].dead = true;
    result.lost_hosts.push_back(transports[t].host());
    if (opts_.on_host_lost) opts_.on_host_lost(transports[t].host(), reason);
  };

  // One machine-level failure against host `t`; enough of them in a row
  // and the host is lost.
  const auto host_fail = [&](std::size_t t, const std::string& reason) {
    if (hosts[t].dead) return;
    if (++hosts[t].fails >= opts_.host_max_failures) lose_host(t, reason);
  };

  // Pre-flight every transport once. An unreachable host is lost before
  // it ever holds a shard (the run degrades to the survivors); a host
  // running a *different build* is a hard error -- degrading around
  // fleet skew would hide exactly the divergence it causes.
  for (std::size_t t = 0; t < transports.size(); ++t) {
    std::string note;
    const auto hs = transports[t].handshake(opts_.expected_worker_version,
                                            opts_.trace_dir, &error, &note);
    if (hs == HandshakeStatus::mismatch)
      return fail(error, DispatchStatus::error);
    if (hs == HandshakeStatus::unreachable) lose_host(t, error);
    if (!note.empty() && opts_.on_host_note)
      opts_.on_host_note(transports[t].host(), note);
  }
  {
    bool any_live = false;
    for (const auto& h : hosts) any_live = any_live || !h.dead;
    if (!any_live)
      return fail("dispatch: no usable hosts (" + error + ")",
                  DispatchStatus::error);
  }

  std::vector<ShardState> shards(n_shards);
  for (std::size_t i = 0; i < n_shards; ++i) {
    auto& s = shards[i];
    s.expected = shard_size(points.size(), i, n_shards);
    const auto base = opts_.work_dir + "/shard_" + std::to_string(i);
    s.journal_path = base + ".journal";
    s.log_path = base + ".log";
  }

  // Shard membership (index striping, matching campaign::shard) and the
  // key->point map the quarantine machinery navigates by.
  std::vector<std::vector<const CampaignPoint*>> members(n_shards);
  std::unordered_map<std::string, const CampaignPoint*> by_key;
  by_key.reserve(points.size());
  for (const auto& p : points) {
    members[p.index % n_shards].push_back(&p);
    by_key.emplace(p.key, &p);
  }

  // Quarantine sidecar: already-quarantined points of a previous run
  // stay quarantined -- a re-dispatch must not re-poison itself on them.
  const std::string sidecar = opts_.work_dir + "/quarantine.jsonl";
  {
    std::ifstream in(sidecar);
    std::string line;
    while (in && std::getline(in, line)) {
      if (line.empty()) continue;
      const auto fields = common::parse_jsonl_line(line);
      if (!fields) continue;
      std::string key, reason;
      for (const auto& [k, v] : *fields) {
        if (k == "key") key = v;
        else if (k == "reason") reason = v;
      }
      const auto it = by_key.find(key);
      if (it == by_key.end()) continue;  // stale entry; spec check caught worse
      const std::size_t shard_i = it->second->index % n_shards;
      if (!shards[shard_i].quarantined.insert(key).second) continue;
      result.quarantined.push_back(
          {key, it->second->index, shard_i, reason});
    }
  }

  // The dispatcher is the only writer of the shard journals. A journal a
  // previous run left is checked against this run and healed (torn tail,
  // corrupt lines) before anything is appended; its rows are done. A
  // missing one is created with its header.
  for (std::size_t i = 0; i < n_shards; ++i) {
    auto& s = shards[i];
    if (std::filesystem::exists(s.journal_path, ec)) {
      const auto prior = reopen_journal(s.journal_path, *spec, points.size(),
                                        i, n_shards, &error);
      if (!prior)
        return fail("cannot resume " + s.journal_path + ": " + error +
                    "; use a fresh --work-dir");
      for (const auto& row : prior->rows) s.done_keys.insert(row.key);
    } else {
      const JournalWriter created(
          s.journal_path,
          JournalHeader::for_run(*spec, points.size(), i, n_shards));
      if (!created.ok()) return fail("cannot write journal " + s.journal_path);
    }
  }

  const auto quarantine_point = [&](std::size_t shard_i,
                                    const std::string& key,
                                    const std::string& reason) {
    auto& s = shards[shard_i];
    if (!s.quarantined.insert(key).second) return;
    const std::uint64_t index = by_key.at(key)->index;
    result.quarantined.push_back({key, index, shard_i, reason});
    std::ofstream out(sidecar, std::ios::app);
    out << "{\"key\":\"" << common::json_escape(key)
        << "\",\"index\":" << index << ",\"shard\":" << shard_i
        << ",\"reason\":\"" << common::json_escape(reason) << "\"}\n";
    out.flush();
    if (opts_.on_quarantine) opts_.on_quarantine(key, index, shard_i);
  };

  // Worker launch plan: the resolved spec as flags (workers parse the
  // identical spec), plus the shard assignment and durability flags.
  // Everything the attempt must not run goes on the skip list: journaled
  // keys, quarantined keys, and -- while probing -- the suspects outside
  // the probe target.
  const auto worker_plan = [&](std::size_t shard_i) {
    const auto& s = shards[shard_i];
    WorkerPlan plan;
    plan.shard = shard_i;
    for (const auto& [k, v] : spec_kv_)
      plan.flags.push_back("--" + k + "=" + v);
    plan.flags.push_back("--shard=" + std::to_string(shard_i) + "/" +
                         std::to_string(n_shards));
    plan.flags.push_back("--threads=" + std::to_string(opts_.worker_threads));
    if (opts_.trace_cache_mb > 0)
      plan.flags.push_back("--trace-cache-mb=" +
                           std::to_string(opts_.trace_cache_mb));
    if (!opts_.trace_dir.empty())
      plan.flags.push_back("--trace-dir=" + opts_.trace_dir);
    plan.flags.push_back("--baseline=none");
    plan.flags.push_back("--quiet");
    plan.skip.assign(s.done_keys.begin(), s.done_keys.end());
    plan.skip.insert(plan.skip.end(), s.quarantined.begin(),
                     s.quarantined.end());
    if (s.probing)
      plan.skip.insert(plan.skip.end(),
                       s.suspects.begin() + s.probe_target.size(),
                       s.suspects.end());
    std::sort(plan.skip.begin(), plan.skip.end());
    plan.log_path = s.log_path;
    return plan;
  };

  // Probe-round bookkeeping, run just before a probing shard launches:
  // suspects that journaled in the meantime (or were quarantined) are
  // settled; the first half of what remains is this round's target.
  const auto prepare_probe = [&](std::size_t shard_i) {
    auto& s = shards[shard_i];
    if (!s.probing) return;
    std::vector<std::string> live;
    for (const auto& k : s.suspects)
      if (!s.done_keys.count(k) && !s.quarantined.count(k))
        live.push_back(k);
    s.suspects = std::move(live);
    if (s.suspects.empty()) {  // every suspect settled: back to normal
      s.probing = false;
      s.probe_target.clear();
      return;
    }
    const std::size_t take = (s.suspects.size() + 1) / 2;
    s.probe_target.assign(s.suspects.begin(),
                          s.suspects.begin() + static_cast<long>(take));
  };

  // Every non-quarantined point of the shard is journaled.
  const auto covered = [](const ShardState& s) {
    std::size_t n = s.quarantined.size();
    for (const auto& k : s.done_keys)
      if (!s.quarantined.count(k)) ++n;
    return n >= s.expected;
  };

  // A shard whose journal already covers it is complete without a launch.
  std::size_t remaining = 0;
  std::deque<std::size_t> queue;
  for (std::size_t i = 0; i < n_shards; ++i) {
    shards[i].completed = covered(shards[i]);
    if (shards[i].completed) continue;
    queue.push_back(i);
    ++remaining;
  }

  const auto abandon = [&](std::size_t shard_i, std::string msg) {
    auto& s = shards[shard_i];
    s.abandoned = true;
    --remaining;
    if (result.error.empty()) result.error = std::move(msg);
  };

  const auto backoff_delay = [&](std::size_t shard_i) {
    const auto& s = shards[shard_i];
    if (s.no_progress == 0) return std::chrono::milliseconds{0};
    const std::size_t exp = std::min<std::size_t>(s.no_progress - 1, 16);
    auto delay = opts_.backoff_base * (1LL << exp);
    if (delay > opts_.backoff_max) delay = opts_.backoff_max;
    if (delay.count() > 0) {
      // Deterministic jitter: same seed/shard/attempt -> same delay, so
      // chaos tests replay exactly while real fleets de-synchronize.
      const std::uint64_t j =
          splitmix64(opts_.backoff_seed ^
                     (static_cast<std::uint64_t>(shard_i) << 32) ^
                     static_cast<std::uint64_t>(s.attempts));
      delay += std::chrono::milliseconds(
          j % static_cast<std::uint64_t>(delay.count() / 2 + 1));
    }
    return std::chrono::duration_cast<std::chrono::milliseconds>(delay);
  };

  std::vector<std::optional<Slot>> slots(slot_owner.size());

  const auto finish = [&](bool ok, std::string msg, DispatchStatus st) {
    slots.clear();  // ~WorkerHandle kills and reaps anything still running
    result.shards.clear();
    for (std::size_t i = 0; i < n_shards; ++i) {
      const auto& s = shards[i];
      result.shards.push_back({i, s.attempts, s.completed,
                               s.done_keys.size(), s.journal_path,
                               s.log_path});
    }
    if (!ok) return fail(std::move(msg), st);
    result.ok = true;
    result.status = st;
    return result;
  };

  // Moves one worker's verified stream into its shard journal. A row new
  // to the shard is appended and counts -- done_keys, on_shard_rows, the
  // watchdog heartbeat -- the moment it lands. Returns false (and sets
  // `error`) when the append failed: the journal's errno is sticky, so
  // the dispatch must stop, the journal ending at its last durable row.
  const auto columns = result_header();
  const auto ingest = [&](Slot& slot, Clock::time_point now) {
    auto& s = shards[slot.shard];
    for (const auto& line : slot.worker->pump()) {
      if (line.rfind("{\"format\":", 0) == 0) {
        s.header_streamed = true;
        continue;
      }
      auto row = parse_journal_row(line, columns);
      if (!row || s.done_keys.count(row->key)) continue;
      slot.journal.add(row->key, row->cells);
      if (const int err = slot.journal.io_errno()) {
        error = "journal append failed on " + s.journal_path + " (" +
                std::strerror(err) +
                "); stopped at a row boundary, re-run to resume";
        return false;
      }
      s.done_keys.insert(row->key);
      slot.last_change = now;
      if (opts_.on_shard_rows)
        opts_.on_shard_rows(slot.shard, s.done_keys.size());
    }
    return true;
  };

  std::size_t last_reported = static_cast<std::size_t>(-1);
  const auto report_progress = [&] {
    std::size_t done = 0;
    for (const auto& s : shards) done += s.done_keys.size();
    if (opts_.on_progress && done != last_reported) {
      last_reported = done;
      opts_.on_progress(done, points.size());
    }
  };

  while (remaining > 0) {
    const auto now = Clock::now();

    // Fill idle slots with backoff-eligible queued shards. A requeued
    // shard is *reassigned*: it takes a free slot other than the one it
    // just died on when one exists, and only reuses its old slot rather
    // than leave it idle.
    for (std::size_t qi = 0; qi < queue.size();) {
      const std::size_t shard_i = queue[qi];
      auto& s = shards[shard_i];
      if (now < s.eligible_at) {  // still backing off
        ++qi;
        continue;
      }
      std::size_t slot_i = kNoSlot;
      for (std::size_t c = 0; c < slots.size(); ++c) {
        if (slots[c] || hosts[slot_owner[c]].dead) continue;
        slot_i = c;
        if (c != s.last_slot) break;  // keep looking past the death slot
      }
      if (slot_i == kNoSlot) break;  // every live slot busy
      queue.erase(queue.begin() + static_cast<long>(qi));
      prepare_probe(shard_i);
      const std::size_t t = slot_owner[slot_i];
      JournalWriter journal(s.journal_path);  // append; the only writer
      if (!journal.ok())
        return finish(false, "cannot write journal " + s.journal_path,
                      DispatchStatus::error);
      bool transient = false;
      auto worker =
          transports[t].launch(worker_plan(shard_i), &error, &transient);
      if (!worker) {
        // A permanent spawn failure (missing binary, unwritable log)
        // would fail every shard identically: stop the dispatch with
        // the real reason. A transient one (fork/fd pressure, injected
        // worker.spawn fault) is just a failed attempt -- and on a
        // remote transport it is the *host's* failure, not the shard's:
        // count it against the host budget and requeue without touching
        // the shard's no-progress streak.
        if (!transient) return finish(false, error, DispatchStatus::error);
        s.attempts++;
        if (!transports[t].local()) {
          host_fail(t, error);
        } else if (++s.no_progress >= opts_.max_attempts) {
          abandon(shard_i,
                  "shard " + std::to_string(shard_i) + " failed " +
                      std::to_string(s.no_progress) + "/" +
                      std::to_string(opts_.max_attempts) + " attempts (" +
                      error + "); see " + s.log_path);
          continue;
        }
        result.restarts++;
        s.eligible_at = now + backoff_delay(shard_i);
        queue.push_back(shard_i);
        continue;
      }
      if (opts_.on_spawn)
        opts_.on_spawn(shard_i, s.attempts, slot_i, worker->pid());
      s.last_slot = slot_i;
      slots[slot_i].emplace(Slot{std::move(worker), std::move(journal),
                                 shard_i, t, s.attempts, s.done_keys.size(),
                                 now, std::nullopt});
    }

    // Stranded check: every host lost and nothing running means the
    // queued shards can never launch again.
    {
      bool any_live = false, any_busy = false;
      for (const auto& h : hosts) any_live = any_live || !h.dead;
      for (const auto& slot : slots) any_busy = any_busy || slot.has_value();
      if (!any_live && !any_busy) {
        for (std::size_t i = 0; i < n_shards; ++i)
          if (!shards[i].completed && !shards[i].abandoned)
            abandon(i, "shard " + std::to_string(i) +
                           " stranded: every host was lost");
        break;
      }
    }

    for (auto& slot : slots)
      if (slot && !ingest(*slot, now))
        return finish(false, error, DispatchStatus::error);
    report_progress();

    // Watchdog: a worker that has landed no row within stall_timeout
    // gets SIGTERM (graceful row-boundary exit), then SIGKILL after
    // kill_grace. The kill surfaces below as an ordinary failed attempt
    // -- restart, backoff, quarantine all apply.
    for (auto& slot : slots) {
      if (!slot) continue;
      if (opts_.stall_timeout.count() > 0 && !slot->term_at &&
          now - slot->last_change >= opts_.stall_timeout) {
        result.stalls++;
        if (opts_.on_stall) opts_.on_stall(slot->shard, slot->attempt);
        slot->worker->kill(SIGTERM);
        slot->term_at = now;
      }
      if (slot->term_at && now - *slot->term_at >= opts_.kill_grace)
        slot->worker->kill(SIGKILL);
    }

    // Reap finished workers.
    for (auto& slot : slots) {
      if (!slot) continue;
      const auto status = slot->worker->poll();
      if (!status) continue;
      // The stream's remainder: rows that landed just before the exit.
      if (!ingest(*slot, now))
        return finish(false, error, DispatchStatus::error);
      auto& s = shards[slot->shard];
      s.attempts++;
      const bool progressed = s.done_keys.size() > slot->rows_at_spawn;

      // "Done" means exited 0 *and* every non-quarantined point of the
      // shard is journaled: a worker that exits cleanly without
      // streaming its rows (wrong binary, journal path lost) must not
      // count as success.
      if (status->success() && covered(s)) {
        if (opts_.on_worker_exit)
          opts_.on_worker_exit(slot->shard, slot->attempt, true, false);
        s.completed = true;
        s.probing = false;
        --remaining;
        hosts[slot->transport].fails = 0;  // the machine works
        slot.reset();
        continue;
      }

      // A machine-level failure (lost/stalled stream, ssh's exit 255) is
      // the host's fault, not the shard's: count it against the host
      // budget and requeue the shard -- its no-progress streak, probe
      // state, and abandonment budget stay untouched, because nothing
      // was learned about the *work*.
      if (!transports[slot->transport].local() &&
          slot->worker->host_failure(*status)) {
        host_fail(slot->transport,
                  "worker " + status->describe() + " (connection lost)");
        if (opts_.on_worker_exit)
          opts_.on_worker_exit(slot->shard, slot->attempt, false, true);
        result.restarts++;
        s.eligible_at = now + backoff_delay(slot->shard);
        queue.push_back(slot->shard);
        slot.reset();
        continue;
      }

      if (progressed) {
        s.no_progress = 0;
        hosts[slot->transport].fails = 0;  // rows moved: the machine works
      } else {
        s.no_progress++;
      }

      bool give_up = false;
      std::string give_up_msg;

      if (s.probing) {
        // Narrow the bisect. Journaled targets are innocent; a failure
        // pins the poison inside the un-journaled targets; a clean exit
        // pins it in the excluded half (which prepare_probe recomputes).
        std::vector<std::string> still;
        for (const auto& k : s.probe_target)
          if (!s.done_keys.count(k)) still.push_back(k);
        if (!status->success()) {
          if (s.probe_target.size() == 1 && still.size() == 1) {
            // The probe ran exactly one un-journaled point and died on
            // it: that point is the poison.
            if (result.quarantined.size() >= opts_.max_quarantine) {
              give_up = true;
              give_up_msg =
                  "shard " + std::to_string(slot->shard) +
                  " would quarantine more than " +
                  std::to_string(opts_.max_quarantine) +
                  " points (--max-quarantine); see " + s.log_path;
            } else {
              quarantine_point(slot->shard, still[0],
                               "worker " + status->describe() +
                                   " isolating this point");
              s.no_progress = 0;  // pinning the poison is progress
            }
          } else if (!still.empty()) {
            s.suspects = still;
          }
          // still.empty(): every target journaled yet the worker died
          // in teardown -- no information; prepare_probe widens again.
        }
      } else if (s.no_progress >= opts_.max_attempts) {
        // The shard is failing without progress. Bisect for a poisoned
        // point when allowed and possible; abandon otherwise. No
        // attempt ever streamed a journal header means the worker never
        // even started a run -- skipping rows cannot fix that.
        std::vector<std::string> fresh_suspects;
        if (!opts_.fail_fast && s.header_streamed)
          for (const auto* p : members[slot->shard])
            if (!s.done_keys.count(p->key) && !s.quarantined.count(p->key))
              fresh_suspects.push_back(p->key);
        if (!fresh_suspects.empty()) {
          s.probing = true;
          s.suspects = std::move(fresh_suspects);
          s.no_progress = 0;  // the bisect gets its own budget
        } else {
          give_up = true;
          give_up_msg = "shard " + std::to_string(slot->shard) + " failed " +
                        std::to_string(std::max(s.no_progress,
                                                opts_.max_attempts)) +
                        "/" + std::to_string(opts_.max_attempts) +
                        " attempts (" + status->describe() + "); see " +
                        s.log_path;
        }
      }

      const bool will_retry = !give_up;
      if (opts_.on_worker_exit)
        opts_.on_worker_exit(slot->shard, slot->attempt, false, will_retry);
      if (give_up) {
        abandon(slot->shard, std::move(give_up_msg));
      } else {
        result.restarts++;
        s.eligible_at = now + backoff_delay(slot->shard);
        queue.push_back(slot->shard);  // restart past the journaled rows
      }
      slot.reset();
    }

    if (remaining > 0) std::this_thread::sleep_for(opts_.poll_interval);
  }

  report_progress();
  bool any_abandoned = false;
  for (const auto& s : shards) any_abandoned = any_abandoned || s.abandoned;
  if (any_abandoned)
    return finish(false, result.error, DispatchStatus::abandoned);
  if (!result.quarantined.empty())
    return finish(true, "", DispatchStatus::quarantined);
  if (!result.lost_hosts.empty())
    return finish(true, "", DispatchStatus::host_lost);
  return finish(true, "", DispatchStatus::ok);
}

std::optional<RowTable> merge_dispatch_journals(
    const std::vector<std::string>& journal_paths, std::string* error) {
  std::vector<RowTable> tables;
  tables.reserve(journal_paths.size());
  for (const auto& path : journal_paths) {
    auto table = load_rows(path, error);
    if (!table) return std::nullopt;
    tables.push_back(std::move(*table));
  }
  return merge_tables(std::move(tables), error);
}

}  // namespace reap::campaign
