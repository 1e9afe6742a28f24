// Test-scoped filesystem fault injection. A FaultInjector installed with
// ScopedFaultInjection is consulted by fs::read_file and fs::list_stamped
// before they touch the disk, so tests can make exactly the Nth read of a
// matching path fail (open error, mid-stream I/O error, short read) or run
// slow — deterministically, and without needing unreadable files (which a
// root-owned test process could read anyway).
//
// Production code never constructs one; with no injector installed the
// fs hooks cost a single relaxed atomic load.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

namespace pdcu::fs {

class FaultInjector {
 public:
  enum class Mode {
    kOpenError,  ///< the open itself fails (fs.open / fs.listdir)
    kIoError,    ///< the read fails mid-stream (fs.read / fs.listdir)
    kTruncate,   ///< the read succeeds but delivers only the first
                 ///< `truncate_to` bytes (a torn write seen by a reader)
    kLatency,    ///< no failure; the operation just takes `latency` longer
  };

  /// One injection rule. Rules are tried in insertion order; the first
  /// rule that matches the path *and* is inside its [skip, skip+limit)
  /// window fires. Counters advance per matching operation, so a given
  /// config always produces the same failure sequence for the same
  /// sequence of fs calls.
  struct Rule {
    std::string path_substring;  ///< "" matches every path
    Mode mode = Mode::kIoError;
    std::uint64_t skip = 0;      ///< let this many matching ops through first
    std::uint64_t limit = UINT64_MAX;  ///< then fault at most this many
    std::size_t truncate_to = 0;       ///< kTruncate: bytes delivered
    std::chrono::milliseconds latency{0};  ///< applied whenever firing
  };

  /// What the intercepted operation should do. kLatency reports
  /// fault() == false: the caller sleeps but proceeds normally.
  struct Action {
    Mode mode = Mode::kLatency;
    bool fired = false;  ///< a rule matched inside its window
    std::size_t truncate_to = 0;
    std::chrono::milliseconds latency{0};

    bool fault() const { return fired && mode != Mode::kLatency; }
  };

  void add_rule(Rule rule);
  /// Drops every rule — the faults "clear" and operations pass through.
  void clear();

  /// Total rule firings so far (including latency-only firings).
  std::uint64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

  /// Consulted by the fs hooks; advances the matching counters.
  Action intercept(const std::filesystem::path& path);

 private:
  struct RuleState {
    Rule rule;
    std::uint64_t matched = 0;
  };

  mutable std::mutex mutex_;
  std::vector<RuleState> rules_;
  std::atomic<std::uint64_t> injected_{0};
};

/// Installs the process-wide injector consulted by read_file/list_stamped;
/// nullptr uninstalls. Prefer ScopedFaultInjection in tests.
void install_fault_injector(FaultInjector* injector);
FaultInjector* installed_fault_injector();

/// RAII install/uninstall, so a failing test cannot leak faults into the
/// tests that run after it.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(FaultInjector& injector) {
    install_fault_injector(&injector);
  }
  ~ScopedFaultInjection() { install_fault_injector(nullptr); }

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

}  // namespace pdcu::fs
