// otm_perfbench: the repository benchmark (see ../README.md).
//
//   otm_perfbench --workload <pingpong_conflict|storm_incast|
//                             replay_bigfft_1024|all>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--out-dir <dir>] [--git-commit <sha>] [--tiny]
//   otm_perfbench --self-test
//
// Prints a human report, then as its last line one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "ledger.hpp"
#include "spans.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  WorkloadResult (*run)(const RunOptions&);
};

constexpr Workload kWorkloads[] = {
    {"pingpong_conflict", run_pingpong_conflict},
    {"storm_incast", run_storm_incast},
    {"replay_bigfft_1024", run_replay_bigfft},
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

/// A fixed integer loop, timed: runs on different hosts can be normalised
/// by it. Median of five, milliseconds.
double calibration_ms() {
  std::vector<double> t;
  for (int rep = 0; rep < 5; ++rep) {
    const std::uint64_t t0 = now_ns();
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    t.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    if (x == 0) std::puts("");  // keeps the loop observable
  }
  return median(t);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double value(const std::vector<Metric>& ms, const std::string& name) {
  for (const Metric& m : ms)
    if (m.name == name) return m.value;
  return 0.0;
}

void print_report(const WorkloadResult& r, bool trace) {
  std::printf("== %s\n", r.workload.c_str());
  for (const std::string& l : r.lines) std::printf("%s\n", l.c_str());
  std::printf("  two clocks: modeled_msg_rate %.4f Mmsg/s | wall_msg_rate "
              "%.2f kmsg/s\n",
              value(r.e2e, "modeled_msg_rate"), value(r.e2e, "wall_msg_rate"));
  for (const Metric& m : in_order(r.e2e, e2e_metric_names()))
    std::printf("  %-24s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("  %-24s %14.6f ratio (%llu failed of %llu attempted)\n",
              "ops_failed_ratio",
              ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  if (!trace) return;
  std::printf("  layer shares, modeled clock vs real clock (real shares are "
              "derived from spans and the isolated replay):\n");
  std::printf("    %-10s %10s %10s\n", "layer", "modeled", "real");
  std::printf("    %-10s %10.4f %10.4f\n", "proto",
              value(r.layer, "ledger.proto.modeled_share"),
              value(r.layer, "ledger.proto.real_share"));
  std::printf("    %-10s %10.4f %10s\n", "rdma",
              value(r.layer, "ledger.rdma.modeled_share"), "in proto");
  std::printf("    %-10s %10.4f %10.4f\n", "dpa+core",
              value(r.layer, "ledger.dpa_core.modeled_share"),
              value(r.layer, "ledger.dpa_core.real_share"));
  std::printf("  tracing overhead: %.4f of the untraced wall_msg_rate\n",
              value(r.layer, "bench.tracing_overhead_share"));
  for (const Metric& m : in_order(r.layer, layer_metric_names()))
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void append_metrics(std::string& out, const std::vector<Metric>& ms,
                    const std::string& prefix) {
  for (const Metric& m : ms) {
    if (out.back() != '{') out += ",";
    out += "\"" + prefix + m.name + "\":{\"value\":" + num(m.value) +
           ",\"unit\":\"" + m.unit + "\"}";
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: otm_perfbench --workload <name|all> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir d] [--git-commit c] "
               "[--tiny]\n       otm_perfbench --self-test\n");
  return 2;
}

// ---- Self-test of the benchmark's own arithmetic ---------------------------

int check(bool ok, const char* what) {
  std::printf("  %-58s %s\n", what, ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

int run_self_test() {
  int failures = 0;
  std::printf("self-test: span arithmetic\n");
  // root [0,100] with children a [10,30], b [20,50] (overlapping a),
  // c [60,70]; a has one child [12,18].
  std::vector<Span> t = {
      {"x.root", 0, 100, -1, 0}, {"x.a", 10, 30, 0, 0}, {"y.b", 20, 50, 0, 0},
      {"y.c", 60, 70, 0, 0},     {"x.a1", 12, 18, 1, 0},
  };
  const std::vector<std::uint64_t> self = self_times(t);
  failures += check(self == std::vector<std::uint64_t>{50, 14, 30, 10, 6},
                    "self time = duration - union of child intervals");
  failures += check(layer_self_ns(t, self, "x.") == 70 &&
                        layer_self_ns(t, self, "y.") == 40,
                    "layer self time sums by name prefix");
  SpanRecorder rec(true, 8);
  {
    SpanRecorder::Scope outer(rec, "p.outer");
    SpanRecorder::Scope inner(rec, "p.inner");
  }
  failures += check(rec.spans().size() == 2 && rec.spans()[1].parent == 0 &&
                        rec.spans()[0].parent == -1,
                    "recorded spans link to their parent");
  failures += check(quantile({1, 2, 3, 4}, 0.5) == 2.5 &&
                        quantile({5}, 0.99) == 5.0,
                    "interpolated quantiles");

  std::printf("self-test: planted oracle mismatch\n");
  for (const Workload& w : {kWorkloads[0], kWorkloads[1]}) {
    RunOptions o;
    o.seed = 3;
    o.seconds = 0.0;
    o.tiny = true;
    const WorkloadResult clean = w.run(o);
    o.plant_mismatch = 5;
    const WorkloadResult planted = w.run(o);
    const std::string what = std::string(w.name) + ": clean run 0, planted > 0";
    failures += check(clean.failed == 0 && planted.failed > 0 &&
                          value(planted.layer, "ops_failed_ratio") > 0.0,
                      what.c_str());
  }
  std::printf("self-test: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  std::string workload;
  std::string git_commit = "unknown";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (a == "--self-test") return run_self_test();
    if (a == "--workload") workload = next();
    else if (a == "--seed") opt.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::atof(next().c_str());
    else if (a == "--trace") { opt.trace = next() == "1"; have_trace = true; }
    else if (a == "--out-dir") opt.out_dir = next();
    else if (a == "--git-commit") git_commit = next();
    else if (a == "--tiny") opt.tiny = true;
    else return usage();
  }
  if (workload.empty() || !have_trace || opt.seconds < 0.0) return usage();

  std::vector<const Workload*> chosen;
  for (const Workload& w : kWorkloads)
    if (workload == "all" || workload == w.name) chosen.push_back(&w);
  if (chosen.empty()) {
    std::fprintf(stderr, "unknown workload: %s\n", workload.c_str());
    return usage();
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("host {\"cpu\":\"%s\",\"nproc\":%u,\"compiler\":\"%s\","
              "\"build_type\":\"%s\",\"git_commit\":\"%s\","
              "\"calibration_ms\":%.3f}\n",
              json_escape(cpu_model()).c_str(),
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, json_escape(git_commit).c_str(),
              calibration_ms());
  std::fflush(stdout);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string metrics = "{";
  for (const Workload* w : chosen) {
    RunOptions o = opt;
    if (chosen.size() > 1) o.seconds = opt.seconds / static_cast<double>(chosen.size());
    const WorkloadResult r = w->run(o);
    print_report(r, opt.trace);
    std::fflush(stdout);
    attempted += r.attempted;
    failed += r.failed;
    const std::string prefix = chosen.size() > 1 ? r.workload + "." : "";
    append_metrics(metrics,
                   opt.trace ? in_order(r.layer, layer_metric_names())
                             : in_order(r.e2e, e2e_metric_names()),
                   prefix);
  }
  metrics += "}";
  const bool correct = failed == 0 && attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}
