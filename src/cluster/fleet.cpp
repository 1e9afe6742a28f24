#include "pdcu/cluster/fleet.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <utility>

namespace pdcu::cluster {

ReplicaProcess::ReplicaProcess(ReplicaProcess&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)),
      port_(std::exchange(other.port_, 0)) {}

ReplicaProcess& ReplicaProcess::operator=(ReplicaProcess&& other) noexcept {
  if (this != &other) {
    terminate();
    pid_ = std::exchange(other.pid_, -1);
    port_ = std::exchange(other.port_, 0);
  }
  return *this;
}

Status ReplicaProcess::spawn(const std::vector<std::string>& argv) {
  if (argv.empty()) {
    return Error::make("cluster.fleet.spawn", "empty argv");
  }
  int fds[2];
  if (::pipe(fds) != 0) {
    return Error::make("cluster.fleet.spawn", "pipe failed");
  }
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Error::make("cluster.fleet.spawn", "fork failed");
  }
  if (pid_ == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<char*> args;
    args.reserve(argv.size() + 1);
    for (const std::string& arg : argv) {
      args.push_back(const_cast<char*>(arg.c_str()));
    }
    args.push_back(nullptr);
    ::execv(args[0], args.data());
    std::_Exit(127);
  }
  ::close(fds[1]);
  std::FILE* out = ::fdopen(fds[0], "r");
  if (out == nullptr) {
    ::close(fds[0]);
    kill_hard();
    return Error::make("cluster.fleet.spawn", "fdopen failed");
  }
  char line[512];
  port_ = 0;
  while (std::fgets(line, sizeof line, out) != nullptr) {
    if (std::sscanf(line, "listening port=%hu", &port_) == 1) break;
  }
  // The child keeps writing into a broken pipe later; SIGPIPE is ignored
  // there, so closing now is harmless.
  std::fclose(out);
  if (port_ == 0) {
    kill_hard();
    return Error::make("cluster.fleet.spawn",
                       argv[0] + " never reported a listening port");
  }
  return Status::ok();
}

void ReplicaProcess::reap() {
  if (pid_ <= 0) return;
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  port_ = 0;
}

void ReplicaProcess::kill_hard() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  reap();
}

void ReplicaProcess::terminate() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  reap();
}

std::vector<std::string> Fleet::replica_argv(std::size_t i) const {
  std::vector<std::string> argv;
  argv.push_back(options_.cli_path);
  argv.push_back("serve");
  argv.push_back("--host");
  argv.push_back(options_.host);
  argv.push_back("--port");
  const std::uint16_t port =
      options_.base_port == 0
          ? 0
          : static_cast<std::uint16_t>(options_.base_port + i);
  argv.push_back(std::to_string(port));
  if (options_.watch) argv.push_back("--watch");
  if (!options_.content_dir.empty()) argv.push_back(options_.content_dir);
  return argv;
}

Status Fleet::start() {
  processes_.clear();
  processes_.resize(options_.replicas);
  for (std::size_t i = 0; i < options_.replicas; ++i) {
    const Status status = processes_[i].spawn(replica_argv(i));
    if (!status) {
      stop_all();
      return status.error().context("replica-" + std::to_string(i));
    }
  }
  return Status::ok();
}

std::vector<ReplicaTarget> Fleet::targets() const {
  std::vector<ReplicaTarget> targets;
  targets.reserve(processes_.size());
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    targets.push_back({"replica-" + std::to_string(i), options_.host,
                       processes_[i].port()});
  }
  return targets;
}

void Fleet::kill_replica(std::size_t i) {
  if (i < processes_.size()) processes_[i].kill_hard();
}

Status Fleet::restart_replica(std::size_t i) {
  if (i >= processes_.size()) {
    return Error::make("cluster.fleet.restart", "no such replica");
  }
  processes_[i].terminate();
  return processes_[i].spawn(replica_argv(i));
}

void Fleet::stop_all() {
  for (ReplicaProcess& process : processes_) process.terminate();
}

}  // namespace pdcu::cluster
