// In-memory spans recorded by the benchmark around each call it makes into
// a layer of the library (the library itself is not instrumented). A span
// has a name, start and end on the real clock, the index of its parent
// span and the batch it belongs to. Spans are kept in memory and written
// out once the run ends; per-layer self time is computed from them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string: "<layer>.<call>"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the recorder's span list
  std::uint32_t batch = 0;
};

class SpanRecorder {
 public:
  /// Records nothing unless enabled; stops recording once `cap` spans are
  /// held (callers end their traced phase before that).
  SpanRecorder(bool enabled, std::size_t cap);

  bool enabled() const noexcept { return enabled_; }
  void set_batch(std::uint32_t batch) noexcept { batch_ = batch; }

  /// Open a span as a child of the innermost open span; -1 when disabled.
  std::int32_t open(const char* name);
  void close(std::int32_t idx);

  /// RAII span.
  class Scope {
   public:
    Scope(SpanRecorder& r, const char* name) : r_(r), idx_(r.open(name)) {}
    ~Scope() { r_.close(idx_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& r_;
    std::int32_t idx_;
  };

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Write the spans as a Chrome/Perfetto trace-event JSON file.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  std::size_t cap_;
  std::uint32_t batch_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
std::vector<std::uint64_t> self_times(const std::vector<Span>& spans);

/// Summed self time of the spans whose name starts with `prefix`
/// ("proto." etc.): one layer's self time.
std::uint64_t layer_self_ns(const std::vector<Span>& spans,
                            const std::vector<std::uint64_t>& self,
                            const std::string& prefix);

/// Durations (ns) of the spans named exactly `name`.
std::vector<double> durations(const std::vector<Span>& spans,
                              const char* name);

}  // namespace perfbench
