#include "pdcu/cluster/metrics.hpp"

#include "pdcu/obs/exposition.hpp"

namespace pdcu::cluster {

std::string ClusterMetrics::render_text() const {
  obs::Exposition out;
  out.counter("pdcu_cluster_requests_total",
              "Client requests proxied by the front tier.", requests());
  out.counter("pdcu_cluster_retries_total",
              "Upstream attempts beyond each request's first.", retries());
  out.counter("pdcu_cluster_failovers_total",
              "Requests served by a ring successor after their owner failed.",
              failovers());
  out.counter("pdcu_cluster_shed_total",
              "Requests routed around a degraded-epoch owner.", shed());
  out.counter("pdcu_cluster_upstream_errors_total",
              "Upstream attempts that failed (connect, send, read, timeout, "
              "or 5xx).",
              upstream_errors());
  out.counter("pdcu_cluster_exhausted_total",
              "Requests that failed every candidate replica (client saw an "
              "error).",
              exhausted());
  out.counter("pdcu_cluster_probe_failures_total",
              "Health probes that failed.", probe_failures());
  out.counter("pdcu_cluster_ring_moves_total",
              "Sampled keys whose owner changed when the routable set "
              "shifted.",
              ring_moves());
  out.gauge("pdcu_cluster_ring_nodes", "Replicas configured in the ring.",
            ring_nodes_.load(kRelaxed));
  out.gauge("pdcu_cluster_routable_nodes",
            "Replicas currently considered routable by the front tier.",
            routable());
  return out.take();
}

}  // namespace pdcu::cluster
