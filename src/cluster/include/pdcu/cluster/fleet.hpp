// Real-process fleet orchestration: spawns M `pdcu serve` replicas as
// subprocesses, reads each one's machine-parseable "listening port=" line
// to learn its (possibly ephemeral) port, and exposes kill/restart so
// chaos tests and `pdcu cluster` can SIGKILL a replica mid-run and bring
// it back. Replicas listen on base_port + i, or on ephemeral ports when
// base_port is 0. They never talk to each other: the front tier learns
// each one's state from its /healthz probes and its own attempts.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "pdcu/cluster/front.hpp"
#include "pdcu/support/expected.hpp"

namespace pdcu::cluster {

struct FleetOptions {
  std::string cli_path;     ///< path to the pdcu binary
  unsigned replicas = 3;
  std::uint16_t base_port = 0;  ///< replica i listens on base+i; 0=ephemeral
  std::string host = "127.0.0.1";
  std::string content_dir;  ///< empty serves the builtin curation
  bool watch = false;       ///< pass --watch (live reload) to replicas
};

/// One `pdcu serve` subprocess.
class ReplicaProcess {
 public:
  ReplicaProcess() = default;
  ~ReplicaProcess() { terminate(); }

  ReplicaProcess(const ReplicaProcess&) = delete;
  ReplicaProcess& operator=(const ReplicaProcess&) = delete;
  ReplicaProcess(ReplicaProcess&& other) noexcept;
  ReplicaProcess& operator=(ReplicaProcess&& other) noexcept;

  /// fork/execs `argv` (argv[0] is the binary) and blocks until the child
  /// prints its "listening port=" line.
  Status spawn(const std::vector<std::string>& argv);

  /// SIGKILL — the no-goodbye death chaos tests need. Reaps the child.
  void kill_hard();

  /// SIGTERM and reap (graceful).
  void terminate();

  bool running() const { return pid_ > 0; }
  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

 private:
  void reap();

  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// The replica fleet. start() spawns every replica; targets() feeds the
/// result straight into FrontTier.
class Fleet {
 public:
  explicit Fleet(FleetOptions options) : options_(std::move(options)) {}

  Status start();

  std::size_t size() const { return processes_.size(); }
  const ReplicaProcess& replica(std::size_t i) const { return processes_[i]; }

  /// ReplicaTargets (id, host, port) for FrontTier construction.
  std::vector<ReplicaTarget> targets() const;

  void kill_replica(std::size_t i);
  Status restart_replica(std::size_t i);
  void stop_all();

 private:
  std::vector<std::string> replica_argv(std::size_t i) const;

  FleetOptions options_;
  std::vector<ReplicaProcess> processes_;
};

}  // namespace pdcu::cluster
