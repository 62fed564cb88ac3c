// The per-layer ledger: counters read from the library's public accessors,
// summed over a set of endpoints and normalised per message, plus the
// fixed metric lists every workload reports (so each run prints the same
// names whatever the workload; a layer a workload does not reach reads 0).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/stats.hpp"
#include "proto/endpoint.hpp"

namespace perfbench {

/// Counters of every endpoint in a run, summed.
struct EndpointTotals {
  otm::proto::Endpoint::Counters c{};
  std::array<std::uint64_t, otm::kMaxShards> lane_cqes{};  ///< by lane id
  std::uint64_t doorbells = 0;
  std::uint64_t dpa_busy_cycles = 0;
  std::uint64_t host_matching_cycles = 0;
  otm::MatchStats match{};

  void add(const otm::proto::Endpoint& ep);
};

/// Everything the ledger needs besides the endpoint counters.
struct LedgerInputs {
  double messages = 0.0;       ///< data messages the counters cover
  double crc_bytes = 0.0;      ///< bytes sealed into merged packets
  double hart_cycles = 0.0;    ///< hart slots x modeled elapsed DPA cycles
  double queue_depth_avg = 0.0;
  double queue_depth_max = 0.0;
};

/// proto/rdma/dpa/core counter metrics, in ledger order.
void counter_metrics(const EndpointTotals& t, const LedgerInputs& in,
                     std::vector<Metric>& out);

/// Names and units of the per-layer metrics every traced run prints, in
/// print order (BENCHMARK.json lists the same set).
const std::vector<std::pair<std::string, std::string>>& layer_metric_names();

/// End-to-end metric names and units, in print order.
const std::vector<std::pair<std::string, std::string>>& e2e_metric_names();

/// Reorder `got` into the fixed list `names`; a name missing from `got`
/// reads 0 (the layer is not on this workload's path).
std::vector<Metric> in_order(
    const std::vector<Metric>& got,
    const std::vector<std::pair<std::string, std::string>>& names);

void set(std::vector<Metric>& out, const std::string& name, double value,
         const std::string& unit);

}  // namespace perfbench
