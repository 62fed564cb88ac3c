#include "ledger.hpp"

#include <algorithm>
#include <numeric>

namespace perfbench {

void EndpointTotals::add(const otm::proto::Endpoint& ep) {
  const auto& e = ep.counters();
#define OTM_X(field) c.field += e.field;
  OTM_ENDPOINT_COUNTER_FIELDS(OTM_X)
#undef OTM_X
  for (unsigned l = 0; l < ep.ingress_lanes(); ++l) {
    lane_cqes[l] += ep.lane_cqes(l);
    doorbells += ep.lane_doorbells(l);
  }
  dpa_busy_cycles += ep.dpa().busy_cycles();
  host_matching_cycles += ep.dpa().host_matching_cycles();
  match += ep.dpa().total_stats();
}

void set(std::vector<Metric>& out, const std::string& name, double value,
         const std::string& unit) {
  for (Metric& m : out)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  out.push_back({name, value, unit});
}

void counter_metrics(const EndpointTotals& t, const LedgerInputs& in,
                     std::vector<Metric>& out) {
  const auto& c = t.c;
  const double msgs = in.messages;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double merged = d(c.merged_packets);
  set(out, "proto.coalesced_share", ratio(d(c.coalesced_sends), d(c.sends)),
      "ratio");
  set(out, "proto.msgs_per_merged_packet", ratio(d(c.coalesced_sends), merged),
      "msg/packet");
  set(out, "proto.flushes_by_size", ratio(d(c.flushes_by_size), merged),
      "1/packet");
  set(out, "proto.flushes_by_deadline", ratio(d(c.flushes_by_deadline), merged),
      "1/packet");
  set(out, "proto.flushes_by_doorbell", ratio(d(c.flushes_by_doorbell), merged),
      "1/packet");
  set(out, "proto.flushes_by_order", ratio(d(c.flushes_by_order), merged),
      "1/packet");
  set(out, "proto.crc_bytes_per_msg", ratio(in.crc_bytes, msgs), "B/msg");
  set(out, "proto.retransmits_per_msg", ratio(d(c.retransmits), msgs), "1/msg");
  set(out, "proto.engine_drops", d(c.engine_drops), "count");
  set(out, "proto.rnr_failures", d(c.rnr_failures), "count");
  const std::uint64_t cqes =
      std::accumulate(t.lane_cqes.begin(), t.lane_cqes.end(), std::uint64_t{0});
  const std::uint64_t cqe_max =
      *std::max_element(t.lane_cqes.begin(), t.lane_cqes.end());
  set(out, "proto.lane_cqe_share_max", ratio(d(cqe_max), d(cqes)), "ratio");
  set(out, "proto.watchdog_demotions", d(c.watchdog_demotions), "count");

  // Packets on the wire: every send that did not coalesce rides its own
  // packet, every flush adds one merged packet, every retransmit one more.
  const double packets =
      d(c.sends - c.coalesced_sends) + merged + d(c.retransmits);
  set(out, "rdma.packets_per_msg", ratio(packets, msgs), "1/msg");
  set(out, "rdma.cqes_per_msg", ratio(d(cqes), msgs), "1/msg");
  set(out, "rdma.doorbells_per_msg", ratio(d(t.doorbells), msgs), "1/msg");

  set(out, "dpa.busy_cycles_per_msg", ratio(d(t.dpa_busy_cycles), msgs),
      "cycles/msg");
  set(out, "dpa.utilization", ratio(d(t.dpa_busy_cycles), in.hart_cycles),
      "ratio");
  set(out, "dpa.host_matching_cycles_per_msg",
      ratio(d(t.host_matching_cycles), msgs), "cycles/msg");

  const auto& m = t.match;
  set(out, "core.match_attempts_per_msg", ratio(d(m.match_attempts), msgs),
      "1/msg");
  set(out, "core.index_searches_per_msg", ratio(d(m.index_searches), msgs),
      "1/msg");
  set(out, "core.conflicts_per_msg", ratio(d(m.conflicts_detected), msgs),
      "1/msg");
  const double resolved = d(m.fast_path_resolutions + m.slow_path_resolutions);
  set(out, "core.fast_path_share", ratio(d(m.fast_path_resolutions), resolved),
      "ratio");
  set(out, "core.slow_path_share", ratio(d(m.slow_path_resolutions), resolved),
      "ratio");
  set(out, "core.fast_path_aborts_per_msg", ratio(d(m.fast_path_aborts), msgs),
      "1/msg");
  set(out, "core.unexpected_share",
      ratio(d(m.messages_unexpected), d(m.messages_processed)), "ratio");
  set(out, "core.block_fill",
      ratio(d(m.messages_processed), d(m.blocks_processed)), "msg/block");
  set(out, "core.queue_depth_avg", in.queue_depth_avg, "count");
  set(out, "core.queue_depth_max", in.queue_depth_max, "count");
}

const std::vector<std::pair<std::string, std::string>>& e2e_metric_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"modeled_msg_rate", "Mmsg/s"},
      {"modeled_latency_p50_ns", "ns"},
      {"modeled_latency_p99_ns", "ns"},
      {"wall_msg_rate", "kmsg/s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"proto.send_ns_p50", "ns"},
      {"proto.post_receive_ns_p50", "ns"},
      {"proto.progress_ns_per_msg", "ns/msg"},
      {"proto.progress_calls_per_msg", "1/msg"},
      {"proto.coalesced_share", "ratio"},
      {"proto.msgs_per_merged_packet", "msg/packet"},
      {"proto.flushes_by_size", "1/packet"},
      {"proto.flushes_by_deadline", "1/packet"},
      {"proto.flushes_by_doorbell", "1/packet"},
      {"proto.flushes_by_order", "1/packet"},
      {"proto.crc_bytes_per_msg", "B/msg"},
      {"proto.retransmits_per_msg", "1/msg"},
      {"proto.engine_drops", "count"},
      {"proto.rnr_failures", "count"},
      {"proto.lane_cqe_share_max", "ratio"},
      {"proto.watchdog_demotions", "count"},
      {"rdma.packets_per_msg", "1/msg"},
      {"rdma.cqes_per_msg", "1/msg"},
      {"rdma.doorbells_per_msg", "1/msg"},
      {"dpa.busy_cycles_per_msg", "cycles/msg"},
      {"dpa.utilization", "ratio"},
      {"dpa.host_matching_cycles_per_msg", "cycles/msg"},
      {"dpa.deliver_ns_per_msg", "ns/msg"},
      {"core.match_attempts_per_msg", "1/msg"},
      {"core.index_searches_per_msg", "1/msg"},
      {"core.conflicts_per_msg", "1/msg"},
      {"core.fast_path_share", "ratio"},
      {"core.slow_path_share", "ratio"},
      {"core.fast_path_aborts_per_msg", "1/msg"},
      {"core.unexpected_share", "ratio"},
      {"core.block_fill", "msg/block"},
      {"core.process_ns_per_msg", "ns/msg"},
      {"core.post_ns_per_recv", "ns/recv"},
      {"core.queue_depth_avg", "count"},
      {"core.queue_depth_max", "count"},
      {"mpi.scheduler_steps_per_msg", "1/msg"},
      {"mpi.events_per_msg", "1/msg"},
      {"trace.generate_s", "s"},
      {"trace.driver_setup_s", "s"},
      {"trace.run_ns_per_msg", "ns/msg"},
      {"trace.oracle_mismatches", "count"},
      {"trace.fifo_violations", "count"},
      {"trace.exactly_once_violations", "count"},
      {"span.proto.self_ns_per_msg", "ns/msg"},
      {"span.bench.self_ns_per_msg", "ns/msg"},
      {"derived.proto.self_ns_per_msg", "ns/msg"},
      {"derived.dpa.self_ns_per_msg", "ns/msg"},
      {"ledger.proto.modeled_share", "ratio"},
      {"ledger.proto.real_share", "ratio"},
      {"ledger.rdma.modeled_share", "ratio"},
      {"ledger.dpa_core.modeled_share", "ratio"},
      {"ledger.dpa_core.real_share", "ratio"},
      {"wall_batch_p50_us", "us"},
      {"wall_batch_p99_us", "us"},
      {"bench.tracing_overhead_share", "ratio"},
      {"ops_failed_ratio", "ratio"},
  };
  return names;
}

std::vector<Metric> in_order(
    const std::vector<Metric>& got,
    const std::vector<std::pair<std::string, std::string>>& names) {
  std::vector<Metric> out;
  out.reserve(names.size());
  for (const auto& [name, unit] : names) {
    Metric m{name, 0.0, unit};
    for (const Metric& g : got)
      if (g.name == name) m.value = g.value;
    out.push_back(m);
  }
  return out;
}

}  // namespace perfbench
