// Worker transports: how the dispatcher launches and observes workers.
//
// Every worker, on every host, runs the same way: `reap_campaign
// --journal=<host dir>/shard_<i>.journal --journal-stdout
// --skip-rows=...`. It journals to its own disk and mirrors every
// journal line over stdout as CRC32C-framed records (common/frame.hpp).
// A WorkerTransport only decides how that argv is launched on its host:
//
//   local       the dispatcher's own machine: the argv is exec'd
//               directly (empty launcher prefix);
//   any other   wrapped in the host's ssh-style command, run by the
//               remote shell.
//
// The WorkerHandle decodes the stream and hands the verified payloads to
// the dispatcher, which is the only writer of the authoritative shard
// journals in its work dir (see dispatch.hpp). A dropped connection, a
// stalled stream, and a corrupted frame therefore all leave the shard
// journal a durable prefix of the shard's work, so the ordinary restart
// machinery recovers them -- relaunch the shard, skip the rows that made
// it, re-run the rest. Every attempt starts a fresh host-side journal
// and is told what is already done via --skip-rows, so a relaunch never
// duplicates a row. Hosts that keep failing are quarantined by the
// dispatcher (drained from the slot pool).
//
// Fault sites `transport.connect` (remote handshake/launch) and
// `transport.stream` (the journal stream), with kinds drop/stall/
// garble, drive every one of these paths in tests.
#pragma once

#include <cstddef>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "reap/common/frame.hpp"
#include "reap/common/subprocess.hpp"

namespace reap::campaign {

// One line of a --hosts file:
//
//   <host> [slots] [binary=PATH] [dir=PATH] [ssh=CMD]   # comment
//
// `slots` defaults to 1. `binary` and `dir` default to the dispatcher's
// campaign binary and <work_dir>/remote-<host>; `ssh` is the command the
// host is reached through (default "ssh", split on spaces -- a test stub
// like tools/fake_ssh.sh slots in here). The reserved host name "local"
// is the dispatcher's own machine: no ssh, `ssh=` is ignored.
struct HostSpec {
  std::string name;
  std::size_t slots = 1;
  std::string remote_binary;
  std::string remote_dir;
  std::string ssh_command;
};

// Parses hosts-file text / the file at `path`. Returns nullopt and sets
// `error` (with a line number) on bad grammar, zero hosts, a duplicate
// host, or an unreadable file.
std::optional<std::vector<HostSpec>> parse_hosts(const std::string& text,
                                                 std::string* error = nullptr);
std::optional<std::vector<HostSpec>> parse_hosts_file(
    const std::string& path, std::string* error = nullptr);

// Everything a transport needs to launch one shard attempt. The
// dispatcher fills it; the transport turns it into an argv.
struct WorkerPlan {
  std::size_t shard = 0;
  // Spec/shard/threads/trace flags. The transport adds the worker-side
  // journal and --journal-stdout flags itself.
  std::vector<std::string> flags;
  // Keys the attempt must not run: quarantined, excluded by a probe, or
  // already in the shard journal (--skip-rows).
  std::vector<std::string> skip;
  std::string log_path;
};

// One running worker: the launched process plus the read end of its
// framed stdout stream. poll()/kill() mirror common::Child. Destroying a
// handle kills and reaps whatever is running.
class WorkerHandle {
 public:
  WorkerHandle(common::Child child, int fd, std::string host,
               const std::string& log_path);
  WorkerHandle(const WorkerHandle&) = delete;
  WorkerHandle& operator=(const WorkerHandle&) = delete;
  ~WorkerHandle();

  long pid() const { return child_.pid(); }
  std::optional<common::ExitStatus> poll() { return child_.poll(); }
  bool kill(int sig = 9) { return child_.kill(sig); }

  // Consumes whatever the stream has buffered (never blocks) and returns
  // the intact frame payloads -- journal lines, header first -- in stream
  // order. Lines that are not frames go to the shard log. Called every
  // supervisor tick, and once more after poll() reports an exit so the
  // rows that landed just before death are not lost.
  std::vector<std::string> pump();

  // Whether `status` says the *machine/connection* failed (stream lost,
  // stalled, ssh's exit 255) rather than the worker itself -- what the
  // dispatcher counts toward quarantining the host instead of burning
  // the shard's failure budget.
  bool host_failure(const common::ExitStatus& status) const;

 private:
  void sever();

  common::Child child_;
  int fd_ = -1;
  std::string host_;
  common::FrameParser parser_;
  std::ofstream log_;  // stream noise lands with the worker's stderr
  bool stream_lost_ = false;
  bool stalled_ = false;
  bool garble_ = false;
};

enum class HandshakeStatus {
  ok,
  unreachable,  // host cannot run workers now; dispatch degrades past it
  mismatch,     // host runs a *different build* -- a hard configuration
                // error (fleet skew corrupts the merge), never degraded
};

// Launches workers on one host. The caller must resolve remote_binary
// and remote_dir before constructing. The host `local` has an empty
// launcher prefix: its worker argv is exec'd directly, so a missing
// binary fails the launch synchronously (`cannot exec`). Every other
// host wraps the argv in its ssh command.
class WorkerTransport {
 public:
  explicit WorkerTransport(HostSpec spec);

  const std::string& host() const { return spec_.name; }
  std::size_t slots() const { return spec_.slots; }
  bool local() const { return spec_.name == "local"; }

  // Pre-flight check, once per dispatch. A remote host must answer
  // --version with `expected_version` (empty = don't check), and
  // `trace_dir` (empty = don't probe) is probed on its side; a missing
  // trace dir is reported once through `note` and the host's workers
  // launch without --trace-dir (falling back to generation) instead of
  // silently diverging. `error` is set for both failure statuses. The
  // dispatcher's own machine (`local`) is not probed.
  HandshakeStatus handshake(const std::string& expected_version,
                            const std::string& trace_dir, std::string* error,
                            std::string* note);

  // Starts one worker for `plan`: it journals to
  // <remote_dir>/shard_<i>.journal and streams every journal line over
  // stdout (--journal-stdout). Returns nullptr and sets `error` on
  // failure; `transient` follows Child::spawn's retry classification.
  std::unique_ptr<WorkerHandle> launch(const WorkerPlan& plan,
                                       std::string* error, bool* transient);

 private:
  std::vector<std::string> ssh_argv(const std::string& remote_cmd) const;

  HostSpec spec_;
  // Set by handshake: the host has no trace store, so --trace-dir is
  // withheld from its launches (generation fallback).
  bool trace_dir_missing_ = false;
};

}  // namespace reap::campaign
