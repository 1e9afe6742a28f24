#include "pdcu/cluster/front.hpp"

#include <algorithm>

#include "pdcu/obs/exposition.hpp"

namespace pdcu::cluster {

namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

/// Probe and sample-key tuning: probes are short (a dead replica should
/// cost one connect timeout, not the request budget), and 64 sample keys
/// give the ring-move counter enough resolution without a full catalog.
constexpr milliseconds kProbeDeadline{500};
constexpr std::size_t kSampleKeys = 64;

server::Response text_response(int status, std::string body) {
  server::Response response;
  response.status = status;
  response.set("Content-Type", "text/plain; charset=utf-8");
  response.body = std::move(body);
  return response;
}

/// Crude field scan for the one /healthz field the prober needs. The
/// bodies are machine-written by HealthTracker::render_json, so a
/// substring probe is reliable here.
bool healthz_degraded(const std::string& body) {
  return body.find("\"status\":\"degraded\"") != std::string::npos;
}

constexpr std::string_view kLocalFailure = "cluster.upstream.local";

/// UpstreamPool::fetch's error codes as attempt outcomes. Past the two
/// connect codes and the local one the replica was reached (.send, .read,
/// .timeout).
AttemptOutcome outcome_of(const Error& error) {
  if (error.code == "cluster.upstream.connect") return AttemptOutcome::kRefused;
  if (error.code == "cluster.upstream.connect_timeout") {
    return AttemptOutcome::kConnectTimeout;
  }
  if (error.code == kLocalFailure) return AttemptOutcome::kLocal;
  return AttemptOutcome::kTimedOut;
}

/// The front's HTTP side of the reactor: parse, proxy (blocking on the
/// upstream fetch on this shard's thread), frame. Like HttpServer's
/// handler it answers a request that carries a body and then closes, so
/// body bytes are never parsed (and proxied) as a request of their own.
class FrontHandler final : public net::Handler {
 public:
  FrontHandler(FrontTier& front, std::size_t max_request_bytes)
      : front_(front), max_request_bytes_(max_request_bytes) {}

  net::Step on_data(std::string_view buffer, bool force_close,
                    net::WireResponse& out) override {
    const server::ParseResult parsed =
        server::parse_request(buffer, max_request_bytes_);
    if (parsed.status == server::ParseStatus::kIncomplete) {
      return {net::StepStatus::kNeedMore, 0};
    }
    if (parsed.status != server::ParseStatus::kOk) {
      const int status =
          parsed.status == server::ParseStatus::kBad ? 400 : 431;
      out.owned_head = serialize(server::error_response(status));
      out.head = out.owned_head;
      out.close = true;
      out.status = status;
      return {net::StepStatus::kRespond, 0};
    }
    server::Response response = front_.proxy(parsed.request);
    out.close = !parsed.request.keep_alive() || parsed.request.has_body() ||
                force_close;
    response.set("Connection", out.close ? "close" : "keep-alive");
    out.owned_head = serialize(response, parsed.request.method == "HEAD");
    out.head = out.owned_head;
    out.status = response.status;
    return {net::StepStatus::kRespond, parsed.consumed};
  }

  std::string timeout_response() const override {
    return serialize(server::error_response(408));
  }

  std::string overload_response() const override {
    return serialize(server::error_response(503));
  }

 private:
  FrontTier& front_;
  const std::size_t max_request_bytes_;
};

}  // namespace

FrontTier::FrontTier(FrontOptions options, std::vector<ReplicaTarget> replicas)
    : options_(std::move(options)),
      replicas_(std::move(replicas)),
      ring_(options_.vnodes) {
  for (const ReplicaTarget& replica : replicas_) {
    ring_.add_node(replica.id);
    probes_.push_back({replica.id, ProbeState{}});  // replicas_ order
  }
  // Plan the initial state once: a probe that finds it unchanged skips
  // the refresh, and the first change counts its moves against this.
  sample_owner_.resize(kSampleKeys);
  refresh_routable_and_moves();
}

FrontTier::~FrontTier() { stop(); }

Status FrontTier::start() {
  if (running_.load(std::memory_order_acquire)) {
    return Error::make("cluster.front.start", "front tier already running");
  }
  handler_ = std::make_unique<FrontHandler>(*this, options_.max_request_bytes);
  net::ReactorOptions net_options;
  net_options.host = options_.host;
  net_options.port = options_.port;
  net_options.shards = options_.threads == 0 ? 1 : options_.threads;
  net_options.max_connections =
      static_cast<unsigned>(options_.max_connections);
  net_options.read_timeout = options_.read_timeout;
  net_options.max_buffer_bytes =
      std::max<std::size_t>(options_.max_request_bytes * 2, 64 * 1024);
  reactor_ = std::make_unique<net::ReactorServer>(net_options, *handler_);
  if (const Status status = reactor_->start(); !status) {
    reactor_.reset();
    handler_.reset();
    return status.error().context("cluster.front");
  }
  bound_port_ = reactor_->port();
  running_.store(true, std::memory_order_release);

  if (options_.probe_interval.count() > 0) {
    {
      std::lock_guard lock(probe_stop_mutex_);
      probe_stopping_ = false;
    }
    probe_thread_ = std::thread([this] {
      for (;;) {
        {
          std::unique_lock lock(probe_stop_mutex_);
          if (probe_stop_cv_.wait_for(lock, options_.probe_interval,
                                      [this] { return probe_stopping_; })) {
            return;
          }
        }
        probe_once();
      }
    });
  }
  return Status::ok();
}

void FrontTier::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    std::lock_guard lock(probe_stop_mutex_);
    probe_stopping_ = true;
  }
  probe_stop_cv_.notify_all();
  if (probe_thread_.joinable()) probe_thread_.join();
  reactor_->stop();  // in-flight proxies finish, then the shards join
  reactor_.reset();
  handler_.reset();
  pool_.clear();
}

server::Response FrontTier::front_healthz() const {
  std::size_t routable = 0;
  {
    std::lock_guard lock(probes_mutex_);
    for (const auto& [id, state] : probes_) {
      if (state.alive && !state.degraded) ++routable;
    }
  }
  std::string json = "{\"status\":\"";
  json += routable > 0 ? "ok" : "degraded";
  json += "\",\"replicas\":" + std::to_string(replicas_.size());
  json += ",\"routable\":" + std::to_string(routable);
  json += "}\n";
  server::Response response;
  response.status = routable > 0 ? 200 : 503;
  response.set("Content-Type", "application/json; charset=utf-8");
  response.body = std::move(json);
  return response;
}

void FrontTier::mark_probe(std::size_t replica, bool alive, bool degraded) {
  {
    std::lock_guard lock(probes_mutex_);
    ProbeState& state = probes_[replica].second;
    if (state.alive == alive && state.degraded == degraded) return;
    state = {alive, degraded};
  }
  refresh_routable_and_moves();
}

void FrontTier::set_alive(std::size_t replica, bool alive) {
  {
    std::lock_guard lock(probes_mutex_);
    ProbeState& state = probes_[replica].second;
    if (state.alive == alive) return;  // another request got here first
    state.alive = alive;
  }
  refresh_routable_and_moves();
}

std::vector<std::pair<std::string, ProbeState>> FrontTier::probe_snapshot()
    const {
  std::lock_guard lock(probes_mutex_);
  return probes_;
}

void FrontTier::refresh_routable_and_moves() {
  const auto probes = probe_snapshot();
  std::size_t routable = 0;
  for (const auto& [id, state] : probes) {
    if (state.alive && !state.degraded) ++routable;
  }
  metrics_.set_routable(routable, replicas_.size());

  // Sampled owner churn: for a fixed key set, count keys whose effective
  // target (first planned candidate) changed since the last refresh. The
  // plan must span the whole walk: a one-candidate plan is the ring owner
  // alone, whatever its state.
  std::lock_guard lock(probes_mutex_);
  std::uint64_t moves = 0;
  for (std::size_t i = 0; i < kSampleKeys; ++i) {
    const std::string key = "sample-" + std::to_string(i);
    const auto plan = plan_route(ring_, key, options_.max_attempts, probes);
    const std::string target =
        plan.candidates.empty() ? std::string() : plan.candidates.front().id;
    if (!sample_owner_[i].empty() && sample_owner_[i] != target) ++moves;
    sample_owner_[i] = target;
  }
  if (moves > 0) metrics_.record_ring_moves(moves);
}

void FrontTier::probe_once() {
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    const ReplicaTarget& replica = replicas_[i];
    auto reply = pool_.fetch(replica.host, replica.port, "/healthz", {},
                             options_.connect_timeout, kProbeDeadline);
    // Out of descriptors here: the probe learned nothing about the replica.
    if (!reply && reply.error().code == kLocalFailure) continue;
    if (!reply || reply.value().status != 200) {
      metrics_.record_probe_failure();
      mark_probe(i, false, false);
      continue;
    }
    mark_probe(i, true, healthz_degraded(reply.value().body));
  }
}

server::Response FrontTier::proxy(const server::Request& request) {
  const std::string_view path = request.path();
  if (path == "/_front/healthz") return front_healthz();
  if (path == "/_front/metrics") {
    server::Response response;
    response.set("Content-Type", std::string(obs::kExpositionContentType));
    response.body = metrics_.render_text();
    return response;
  }
  if (request.method != "GET" && request.method != "HEAD") {
    server::Response response =
        text_response(405, "405 method not allowed\n");
    response.set("Allow", "GET, HEAD");
    return response;
  }

  metrics_.record_request();
  const auto started = Clock::now();
  AttemptMachine machine(
      plan_route(ring_, path, options_.max_attempts, probe_snapshot()),
      {effective_budget(options_.request_budget,
                        request.header(kDeadlineHeader)),
       options_.connect_timeout, options_.backoff_initial,
       options_.backoff_cap});

  for (;;) {
    // Rounded up, so a request with 0.4 ms left does not start an attempt.
    const AttemptAction action =
        machine.next(std::chrono::ceil<milliseconds>(Clock::now() - started));
    if (action.kind == AttemptAction::Kind::kGiveUp) break;
    if (action.kind == AttemptAction::Kind::kWait) {
      std::this_thread::sleep_for(action.wait);
      continue;
    }
    const std::size_t replica = action.candidate->replica;
    const ReplicaTarget& target = replicas_[replica];
    const HeaderList headers = {{std::string(kDeadlineHeader),
                                 std::to_string(action.remaining.count())}};
    auto reply = pool_.fetch(target.host, target.port, request.target,
                             headers, action.deadline, action.remaining);
    const AttemptOutcome outcome =
        !reply                         ? outcome_of(reply.error())
        : reply.value().status >= 500 ? AttemptOutcome::kServerError
                                       : AttemptOutcome::kServed;
    if (const auto alive = machine.report(outcome)) set_alive(replica, *alive);
    if (outcome != AttemptOutcome::kServed) continue;

    metrics_.record_attempts(machine.tally());
    server::Response response;
    response.status = reply.value().status;
    if (!reply.value().content_type.empty()) {
      response.set("Content-Type", reply.value().content_type);
    }
    response.set("X-Pdcu-Upstream", target.id);
    response.body = std::move(reply.value().body);
    return response;
  }

  metrics_.record_attempts(machine.tally());
  if (machine.plan().candidates.empty()) {
    return text_response(502, "502 no replicas configured\n");
  }
  server::Response response =
      text_response(503, "503 all replicas unavailable\n");
  response.set("Retry-After", "1");
  return response;
}

}  // namespace pdcu::cluster
