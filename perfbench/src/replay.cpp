// replay_bigfft_1024: the BigFFT synthetic trace (1024 ranks, pure
// point-to-point all-to-all) replayed by trace::TraceReplayDriver through
// mpi::World on one thread. One pass is one replay: generate the trace,
// build the driver (world, endpoints, scheduler state), run it. The run's
// own oracles (ListMatcher differential, FIFO, exactly-once) are the
// output checks.
#include <memory>
#include <string>
#include <vector>

#include "ledger.hpp"
#include "mpi/mpi.hpp"
#include "spans.hpp"
#include "trace/replay.hpp"
#include "trace/synthetic.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = 1024;
/// The replayed prefix of the trace (the replay_soak pinning: a smaller
/// slice can cut the first sync boundary before any message is sent).
constexpr double kSlice = 0.25;

struct ReplayPass {
  std::uint64_t generate_ns = 0;
  std::uint64_t setup_ns = 0;
  std::uint64_t run_ns = 0;
  otm::trace::ReplayResult r;
  EndpointTotals totals;
  std::vector<double> rank_clocks;  ///< modeled ns each rank finished at
  Digest digest;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

ReplayPass run_pass(const RunOptions& opt, SpanRecorder& sp,
                    std::uint32_t batch) {
  ReplayPass p;
  sp.set_batch(batch);
  SpanRecorder::Scope root(sp, "bench.pass");
  std::uint64_t t = now_ns();
  otm::trace::Trace trace;
  {
    SpanRecorder::Scope s(sp, "trace.generate");
    trace = otm::trace::make_bigfft();
  }
  p.generate_ns = now_ns() - t;

  otm::trace::ReplayConfig cfg;
  cfg.shards = 4;
  cfg.sched_seed = opt.seed;
  cfg.slice = kSlice;
  t = now_ns();
  std::unique_ptr<otm::trace::TraceReplayDriver> driver;
  {
    SpanRecorder::Scope s(sp, "trace.driver_setup");
    driver = std::make_unique<otm::trace::TraceReplayDriver>(trace, kRanks, cfg);
  }
  p.setup_ns = now_ns() - t;

  t = now_ns();
  {
    SpanRecorder::Scope s(sp, "trace.run");
    p.r = driver->run();
  }
  p.run_ns = now_ns() - t;

  const otm::trace::ReplayResult& r = p.r;
  otm::mpi::World& world = driver->world();
  for (int g = 0; g < kRanks; ++g) {
    const otm::proto::Endpoint& ep = world.endpoint(g);
    p.totals.add(ep);
    p.rank_clocks.push_back(static_cast<double>(ep.now_ns()));
    p.digest.add(ep.now_ns());
  }
  for (const std::uint64_t v :
       {r.modeled_ns, r.virtual_ns, r.events, r.scheduler_steps,
        r.messages_sent, r.recvs_completed, r.conflicts, r.match_attempts})
    p.digest.add(v);
  for (const auto& fp : r.fingerprints)
    for (const std::uint64_t v : fp) p.digest.add(v);

  p.attempted = r.messages_sent + r.recvs_posted;
  const std::uint64_t never =
      r.recvs_posted > r.recvs_completed ? r.recvs_posted - r.recvs_completed : 0;
  p.failed = r.sends_failed + r.recvs_failed + r.oracle_mismatches +
             r.fifo_violations + r.exactly_once_violations +
             r.messages_dropped + never +
             ((!r.completed || r.deadlock || !r.oracle_strict) ? 1 : 0);
  return p;
}

}  // namespace

WorkloadResult run_replay_bigfft(const RunOptions& opt) {
  WorkloadResult res;
  res.workload = "replay_bigfft_1024";
  SpanRecorder off(false, 0);
  std::uint32_t batch = 0;

  std::vector<double> setup_s, wall_rates, run_us;
  std::unique_ptr<ReplayPass> first;
  double peak_rss = 0.0;
  // The driver's oracle verdicts, summed over every pass.
  std::uint64_t oracle_mismatches = 0;
  std::uint64_t fifo_violations = 0;
  std::uint64_t exactly_once_violations = 0;
  std::uint64_t nondeterministic = 0;
  const auto account = [&](const ReplayPass& p) {
    res.attempted += p.attempted;
    res.failed += p.failed;
    oracle_mismatches += p.r.oracle_mismatches;
    fifo_violations += p.r.fifo_violations;
    exactly_once_violations += p.r.exactly_once_violations;
  };

  const double untraced_s = opt.trace ? opt.seconds * 0.5 : opt.seconds;
  repeat_for(untraced_s, 3, [&](unsigned) {
    auto p = std::make_unique<ReplayPass>(run_pass(opt, off, batch++));
    account(*p);
    setup_s.push_back(static_cast<double>(p->generate_ns + p->setup_ns) / 1e9);
    wall_rates.push_back(ratio(static_cast<double>(p->r.messages_sent),
                               static_cast<double>(p->run_ns)) * 1e6);
    run_us.push_back(static_cast<double>(p->run_ns) / 1e3);
    if (!first) {
      first = std::move(p);
      peak_rss = peak_rss_mib();  // one pass holds the whole footprint
    } else if (p->digest.value() != first->digest.value()) {
      ++nondeterministic;
      res.lines.push_back("  modeled clock differs between passes of one seed");
    }
    return first->failed == 0;
  });
  res.failed += nondeterministic;

  const ReplayPass& f = *first;
  const double msgs = static_cast<double>(f.r.messages_sent);
  const double untraced_rate = median(wall_rates);
  set(res.e2e, "modeled_msg_rate",
      ratio(msgs, static_cast<double>(f.r.modeled_ns)) * 1e3, "Mmsg/s");
  // One latency sample per rank: the modeled time its last operation ended.
  set(res.e2e, "modeled_latency_p50_ns", quantile(f.rank_clocks, 0.5), "ns");
  set(res.e2e, "modeled_latency_p99_ns", quantile(f.rank_clocks, 0.99), "ns");
  set(res.e2e, "wall_msg_rate", untraced_rate, "kmsg/s");
  // One batch per pass: the whole replay, posts through the last match.
  set(res.layer, "wall_batch_p50_us", quantile(run_us, 0.5), "us");
  set(res.layer, "wall_batch_p99_us", quantile(run_us, 0.99), "us");
  set(res.e2e, "setup_s", median(setup_s), "s");
  set(res.e2e, "peak_rss_mb", peak_rss, "MiB");
  res.lines.push_back("  passes " + std::to_string(wall_rates.size()) +
                      ", messages per pass " + std::to_string(f.r.messages_sent) +
                      ", ranks " + std::to_string(kRanks));
  res.lines.push_back(spread_line("wall_msg_rate per pass, kmsg/s:", wall_rates));
  res.lines.push_back(spread_line("setup per pass, s:", setup_s));

  LedgerInputs in;
  in.messages = msgs;
  // Every endpoint runs block_size 4 harts on one lane (ReplayConfig).
  in.hart_cycles = 4.0 * kRanks * static_cast<double>(f.r.modeled_ns) * 1.5;
  in.queue_depth_avg = f.r.queue_depth_avg;
  in.queue_depth_max = static_cast<double>(f.r.queue_depth_max);
  counter_metrics(f.totals, in, res.layer);
  set(res.layer, "mpi.scheduler_steps_per_msg",
      ratio(static_cast<double>(f.r.scheduler_steps), msgs), "1/msg");
  set(res.layer, "mpi.events_per_msg",
      ratio(static_cast<double>(f.r.events), msgs), "1/msg");

  if (opt.trace) {
    SpanRecorder sp(true, 1u << 16);
    std::vector<double> traced_rates;
    repeat_for(opt.seconds * 0.5, 1, [&](unsigned) {
      const ReplayPass p = run_pass(opt, sp, batch++);
      account(p);
      traced_rates.push_back(ratio(static_cast<double>(p.r.messages_sent),
                                   static_cast<double>(p.run_ns)) * 1e6);
      return p.failed == 0;
    });
    const auto& spans = sp.spans();
    set(res.layer, "trace.generate_s", median(durations(spans, "trace.generate")) / 1e9,
        "s");
    set(res.layer, "trace.driver_setup_s",
        median(durations(spans, "trace.driver_setup")) / 1e9, "s");
    set(res.layer, "trace.run_ns_per_msg",
        ratio(median(durations(spans, "trace.run")), msgs), "ns/msg");
    const double traced_rate = median(traced_rates);
    set(res.layer, "bench.tracing_overhead_share",
        ratio(untraced_rate - traced_rate, untraced_rate), "ratio");
    if (!opt.out_dir.empty()) {
      const std::string path = opt.out_dir + "/spans-" + res.workload + ".json";
      res.lines.push_back(sp.write_json(path) ? "  spans: " + path
                                              : "  warning: could not write " + path);
    }
  }
  set(res.layer, "trace.oracle_mismatches",
      static_cast<double>(oracle_mismatches), "count");
  set(res.layer, "trace.fifo_violations", static_cast<double>(fifo_violations),
      "count");
  set(res.layer, "trace.exactly_once_violations",
      static_cast<double>(exactly_once_violations), "count");
  set(res.layer, "ops_failed_ratio",
      ratio(static_cast<double>(res.failed), static_cast<double>(res.attempted)),
      "ratio");
  return res;
}

}  // namespace perfbench
