#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled, std::size_t cap)
    : enabled_(enabled), cap_(cap) {
  if (enabled_) spans_.reserve(cap_);
}

std::int32_t SpanRecorder::open(const char* name) {
  if (!enabled_ || spans_.size() >= cap_) return -1;
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.batch = batch_;
  const auto idx = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(s);
  stack_.push_back(idx);
  spans_.back().start_ns = now_ns();
  return idx;
}

void SpanRecorder::close(std::int32_t idx) {
  if (idx < 0) return;
  spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
  // Spans close in LIFO order; a parent closing implicitly pops any child
  // still open.
  while (!stack_.empty()) {
    const std::int32_t top = stack_.back();
    stack_.pop_back();
    if (top == idx) break;
  }
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"batch\":%u}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - base) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<int>(s.parent), static_cast<unsigned>(s.batch));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
  std::vector<std::uint64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    const std::uint64_t dur = p.end_ns - p.start_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t cur_lo = 0;
    std::uint64_t cur_hi = 0;
    bool open_iv = false;
    for (auto [lo, hi] : iv) {
      lo = std::clamp(lo, p.start_ns, p.end_ns);
      hi = std::clamp(hi, p.start_ns, p.end_ns);
      if (hi <= lo) continue;
      if (open_iv && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open_iv) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open_iv = true;
    }
    if (open_iv) covered += cur_hi - cur_lo;
    self[i] = dur - std::min(dur, covered);
  }
  return self;
}

std::uint64_t layer_self_ns(const std::vector<Span>& spans,
                            const std::vector<std::uint64_t>& self,
                            const std::string& prefix) {
  std::uint64_t ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (std::strncmp(spans[i].name, prefix.c_str(), prefix.size()) == 0)
      ns += self[i];
  return ns;
}

std::vector<double> durations(const std::vector<Span>& spans,
                              const char* name) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (std::strcmp(s.name, name) == 0)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

}  // namespace perfbench
