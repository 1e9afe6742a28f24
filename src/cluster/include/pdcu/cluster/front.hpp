// The cluster's front door: a proxy that consistent-hash-routes every
// request onto a replica fleet and absorbs replica failure so clients
// never see it. It is policy.hpp's wall-clock driver: the AttemptMachine
// decides every wait, attempt, deadline and give-up, and the front only
// sleeps, fetches, maps fetch errors onto outcomes, records the machine's
// dead/alive verdicts, and propagates the remaining budget upstream in
// X-Pdcu-Deadline so a replica never spends time the request no longer has.
//
// Failure detection is two-layered: a periodic /healthz prober (a dead
// replica fails it; a replica whose rebuild failed answers "degraded" and
// is shed), and the attempts themselves (a refused or timed-out connect
// marks the replica dead immediately, without waiting for the next probe
// tick).
//
// The front's own surface lives under /_front/ (healthz + metrics) so it
// can never shadow a replica route. Connections ride the same sharded
// epoll reactor as HttpServer (`threads` shards): idle keep-alive clients
// cost no thread, and each shard proxies one request at a time with a
// blocking upstream fetch, so there is one in-flight fetch per shard.
// Tests run deterministically by setting probe_interval to zero and
// driving probe_once() by hand.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pdcu/cluster/metrics.hpp"
#include "pdcu/cluster/policy.hpp"
#include "pdcu/cluster/ring.hpp"
#include "pdcu/cluster/upstream.hpp"
#include "pdcu/net/handler.hpp"
#include "pdcu/net/reactor.hpp"
#include "pdcu/server/http.hpp"
#include "pdcu/support/expected.hpp"

namespace pdcu::cluster {

struct ReplicaTarget {
  std::string id;
  std::string host;
  std::uint16_t port = 0;
};

struct FrontOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 picks an ephemeral port (see port())
  unsigned threads = 4;  ///< reactor shards; 0 means 1
  unsigned vnodes = 64;
  std::size_t max_attempts = 3;  ///< candidate replicas tried per request
  std::chrono::milliseconds connect_timeout{250};
  std::chrono::milliseconds request_budget{2000};  ///< default deadline
  std::chrono::milliseconds backoff_initial{10};
  std::chrono::milliseconds backoff_cap{200};
  /// 0 disables the background prober; tests call probe_once().
  std::chrono::milliseconds probe_interval{200};
  std::chrono::milliseconds read_timeout{5000};
  std::size_t max_request_bytes = 16 * 1024;
  std::size_t max_connections = 256;
};

class FrontTier {
 public:
  FrontTier(FrontOptions options, std::vector<ReplicaTarget> replicas);
  ~FrontTier();

  FrontTier(const FrontTier&) = delete;
  FrontTier& operator=(const FrontTier&) = delete;

  Status start();
  void stop();

  /// The actually-bound port (useful with options.port == 0).
  std::uint16_t port() const { return bound_port_; }

  ClusterMetrics& metrics() { return metrics_; }

  /// One synchronous probe sweep over every replica (test hook; the
  /// background prober calls this on its interval).
  void probe_once();

  /// Proxies one already-parsed request (test hook — exactly what a
  /// shard does for a connection's request, minus the socket).
  server::Response proxy(const server::Request& request);

 private:
  server::Response front_healthz() const;
  /// `replica` indexes replicas_ and probes_ alike. Refreshes only if
  /// the replica's state changed.
  void mark_probe(std::size_t replica, bool alive, bool degraded);
  /// An attempt's verdict: refreshes only if `alive` changed.
  void set_alive(std::size_t replica, bool alive);
  std::vector<std::pair<std::string, ProbeState>> probe_snapshot() const;
  void refresh_routable_and_moves();

  const FrontOptions options_;
  const std::vector<ReplicaTarget> replicas_;
  HashRing ring_;
  ClusterMetrics metrics_;
  UpstreamPool pool_;

  mutable std::mutex probes_mutex_;
  /// One entry per replica, in replicas_ order.
  std::vector<std::pair<std::string, ProbeState>> probes_;
  std::vector<std::string> sample_owner_;  ///< last chosen target per sample key

  std::atomic<bool> running_{false};
  std::uint16_t bound_port_ = 0;
  std::unique_ptr<net::Handler> handler_;
  std::unique_ptr<net::ReactorServer> reactor_;

  std::mutex probe_stop_mutex_;
  std::condition_variable probe_stop_cv_;
  bool probe_stopping_ = false;
  std::thread probe_thread_;
};

}  // namespace pdcu::cluster
