// pingpong_conflict and storm_incast: closed-loop batches driven through
// proto::Endpoint. A batch posts its early receives, sends every message,
// progresses until the early receives complete, posts the late receives
// (which match stored unexpected messages) and ends when each sender has
// received the receiver's ack. The next batch starts only then.
#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "baseline/list_matcher.hpp"
#include "core/engine.hpp"
#include "core/sharded_engine.hpp"
#include "dpa/accelerator.hpp"
#include "ledger.hpp"
#include "proto/endpoint.hpp"
#include "proto/wire.hpp"
#include "rdma/fabric.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace proto = otm::proto;
using otm::Rank;
using otm::Tag;

constexpr Tag kAckTag = 30000;
constexpr std::uint32_t kNone = ~std::uint32_t{0};
/// Spans kept by one traced run (about 20 MiB of JSON when written).
constexpr std::size_t kSpanCap = 200'000;
/// Progress rounds a batch may spend waiting before it counts as stuck.
constexpr unsigned kSpinLimit = 256;

struct Msg {
  std::uint32_t sender = 0;  ///< index; the sender's rank is sender + 1
  Tag tag = 0;
  std::uint32_t bytes = 8;
};

struct Recv {
  Rank src = 0;
  Tag tag = 0;
};

/// One batch of generated inputs plus the oracle's pairing.
struct Batch {
  std::vector<Msg> msgs;    ///< send order
  std::vector<Recv> recvs;  ///< posting order; [0, n_early) precede the sends
  std::size_t n_early = 0;
  std::vector<std::uint32_t> expect;  ///< receive -> message it must get
};

Rank rank_of(const Msg& m) { return static_cast<Rank>(m.sender + 1); }

/// The output oracle: a ListMatcher fed the batch's posts and arrivals in
/// issue order. Every (source, tag) stream is FIFO, so this fixes which
/// message each receive gets.
void fill_expectations(Batch& b) {
  otm::ListMatcher lm;
  b.expect.assign(b.recvs.size(), kNone);
  const auto post = [&](std::size_t i) {
    if (const auto m = lm.post({b.recvs[i].src, b.recvs[i].tag, 0}, i))
      b.expect[i] = static_cast<std::uint32_t>(*m);
  };
  for (std::size_t i = 0; i < b.n_early; ++i) post(i);
  for (std::size_t j = 0; j < b.msgs.size(); ++j)
    if (const auto r = lm.arrive({rank_of(b.msgs[j]), b.msgs[j].tag, 0}, j))
      b.expect[*r] = static_cast<std::uint32_t>(j);
  for (std::size_t i = b.n_early; i < b.recvs.size(); ++i) post(i);
  for (const std::uint32_t e : b.expect)
    if (e == kNone) {
      std::fprintf(stderr, "perfbench: generated batch leaves a receive "
                           "unmatched\n");
      std::abort();
    }
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

// ---- Workload inputs --------------------------------------------------------

constexpr unsigned kPingpongK = 100;
constexpr double kAnyTagShare = 0.1;

/// Per sequence the seed picks all-distinct tags (posted in tag order, sent
/// in a shuffled order) or one shared (source, tag); a share of receives is
/// ANY_TAG. In distinct sequences the ANY_TAG receives are posted last, so
/// each one is left for a message whose own receive it replaces.
std::vector<Batch> pingpong_inputs(std::uint64_t seed, unsigned batches) {
  Rng rng(seed);
  std::vector<Batch> out(batches);
  for (Batch& b : out) {
    const unsigned k = kPingpongK;
    b.n_early = k;
    if (rng.chance(0.5)) {
      const auto tag = static_cast<Tag>(1 + rng.below(1000));
      for (unsigned i = 0; i < k; ++i) {
        b.msgs.push_back({0, tag, 8});
        b.recvs.push_back({1, rng.chance(kAnyTagShare) ? otm::kAnyTag : tag});
      }
    } else {
      std::vector<Tag> order(k);
      std::iota(order.begin(), order.end(), 0);
      shuffle(order, rng);
      for (const Tag t : order) b.msgs.push_back({0, t, 8});
      unsigned wild = 0;
      for (unsigned t = 0; t < k; ++t) {
        if (rng.chance(kAnyTagShare)) {
          ++wild;
          continue;
        }
        b.recvs.push_back({1, static_cast<Tag>(t)});
      }
      for (unsigned w = 0; w < wild; ++w) b.recvs.push_back({1, otm::kAnyTag});
    }
    fill_expectations(b);
  }
  return out;
}

constexpr unsigned kStormSenders = 4;
constexpr unsigned kStormBurst = 512;  ///< messages per batch, all senders
constexpr std::uint32_t kStormMaxPayload = 128;

/// Round-robin bursts from 4 senders, distinct tags per sender within a
/// burst (so no conflicts), payloads 8..128 B, a seeded quarter of the
/// receives posted after the burst; both groups posted in shuffled order.
std::vector<Batch> storm_inputs(std::uint64_t seed, unsigned batches) {
  Rng rng(seed);
  std::vector<Batch> out(batches);
  for (Batch& b : out) {
    std::vector<Recv> early;
    std::vector<Recv> late;
    for (unsigned j = 0; j < kStormBurst; ++j) {
      Msg m;
      m.sender = j % kStormSenders;
      m.tag = static_cast<Tag>(j / kStormSenders);
      m.bytes = static_cast<std::uint32_t>(
          8 + rng.below(kStormMaxPayload - 8 + 1));
      b.msgs.push_back(m);
      (rng.chance(0.25) ? late : early).push_back({rank_of(m), m.tag});
    }
    shuffle(early, rng);
    shuffle(late, rng);
    b.n_early = early.size();
    b.recvs = early;
    b.recvs.insert(b.recvs.end(), late.begin(), late.end());
    fill_expectations(b);
  }
  return out;
}

// ---- Workload configurations ------------------------------------------------

struct ClosedLoopSpec {
  const char* name = "";
  unsigned senders = 1;
  proto::EndpointConfig sender_ep{};
  proto::EndpointConfig receiver_ep{};
  otm::MatchConfig recv_match{};
  otm::MatchConfig sender_match{};
  std::uint32_t max_payload = 8;
  std::size_t max_recvs = 0;
  bool flush_senders = false;  ///< progress senders after the burst
  unsigned batches_per_pass = 0;
  std::vector<Batch> (*generate)(std::uint64_t, unsigned) = nullptr;
};

otm::MatchConfig ack_only_match() {
  otm::MatchConfig m;
  m.bins = 16;
  m.block_size = 1;
  m.max_receives = 8;
  m.max_unexpected = 8;
  return m;
}

ClosedLoopSpec pingpong_spec(bool tiny) {
  ClosedLoopSpec s;
  s.name = "pingpong_conflict";
  s.senders = 1;
  s.recv_match = otm::MatchConfig::paper_prototype();
  s.recv_match.early_booking_check = false;  // as the paper's Fig. 8 runs
  s.sender_match = ack_only_match();
  s.max_payload = 8;
  s.max_recvs = kPingpongK;
  s.batches_per_pass = tiny ? 40 : 1000;
  s.generate = pingpong_inputs;
  return s;
}

ClosedLoopSpec storm_spec(bool tiny) {
  ClosedLoopSpec s;
  s.name = "storm_incast";
  s.senders = kStormSenders;
  proto::EndpointConfig ep;
  // A merged packet of 32 sub-messages of up to 64 B needs a 4 KiB bounce
  // buffer; pools and CQs cover a whole burst.
  ep.eager_threshold = 4096;
  ep.bounce_count = 2 * kStormBurst;
  ep.cq_depth = 2 * kStormBurst;
  ep.ingress_lanes = 4;
  s.receiver_ep = ep;
  s.sender_ep = ep;
  s.sender_ep.coalescing.enabled = true;
  s.sender_ep.coalescing.max_messages = 32;
  s.sender_ep.coalescing.eligible_bytes = 64;
  s.recv_match = otm::MatchConfig::paper_prototype();
  s.recv_match.shards = 4;
  s.recv_match.max_unexpected = 1024;
  s.sender_match = ack_only_match();
  s.max_payload = kStormMaxPayload;
  s.max_recvs = kStormBurst;
  s.flush_senders = true;
  s.batches_per_pass = tiny ? 8 : 64;
  s.generate = storm_inputs;
  return s;
}

// ---- The endpoints of one pass ----------------------------------------------

struct Rig {
  explicit Rig(const ClosedLoopSpec& s)
      : fabric(otm::rdma::FabricConfig{}),
        receiver(fabric, 0, s.receiver_ep, s.recv_match, otm::DpaConfig{}),
        user(s.max_recvs * s.max_payload),
        acks(s.senders * 8),
        tx(s.max_payload),
        max_payload(s.max_payload) {
    for (unsigned i = 0; i < s.senders; ++i) {
      senders.push_back(std::make_unique<proto::Endpoint>(
          fabric, static_cast<Rank>(i + 1), s.sender_ep, s.sender_match,
          otm::DpaConfig{}));
      senders.back()->connect(receiver);
    }
  }

  std::span<std::byte> user_buf(std::size_t i) {
    return {user.data() + i * max_payload, max_payload};
  }
  std::span<std::byte> ack_buf(std::size_t s) { return {acks.data() + s * 8, 8}; }

  otm::rdma::Fabric fabric;
  proto::Endpoint receiver;
  std::vector<std::unique_ptr<proto::Endpoint>> senders;
  std::vector<std::byte> user;
  std::vector<std::byte> acks;
  std::vector<std::byte> tx;
  std::size_t max_payload;
};

/// Modeled clocks of one message around its send().
struct MsgClock {
  std::uint64_t before = 0;   ///< sender now_ns() at send()
  std::uint64_t after = 0;    ///< sender now_ns() once send() returned
  std::uint64_t arrival = 0;  ///< modeled NIC arrival (0: not reported)
};

struct BatchRun {
  bool complete = false;
  std::uint64_t wall_ns = 0;
  std::uint64_t modeled_ns = 0;
  std::uint64_t refused = 0;  ///< sends/posts refused, acks missing
  std::vector<proto::Endpoint::RecvCompletion> done;
  std::vector<MsgClock> clocks;
  double depth_sum = 0.0;
  std::uint64_t depth_max = 0;
};

void run_batch(const ClosedLoopSpec& spec, Rig& rig, const Batch& b,
               std::uint64_t stamp_base, SpanRecorder& sp, BatchRun& o) {
  o.done.clear();
  o.clocks.assign(b.msgs.size(), {});
  o.refused = 0;
  o.depth_sum = 0.0;
  o.depth_max = 0;
  const std::size_t n = b.recvs.size();
  const auto post = [&](std::size_t i) {
    proto::Endpoint::PostResult r;
    {
      SpanRecorder::Scope s(sp, "proto.post_receive");
      r = rig.receiver.post_receive({b.recvs[i].src, b.recvs[i].tag, 0},
                                    rig.user_buf(i), i);
    }
    if (r.outcome == proto::Outcome::kCompleted)
      o.done.push_back(r.completion);
    else if (r.outcome != proto::Outcome::kPending)
      ++o.refused;
    const std::uint64_t depth = i + 1 - std::min(i + 1, o.done.size());
    o.depth_sum += static_cast<double>(depth);
    o.depth_max = std::max(o.depth_max, depth);
  };
  const auto progress_until = [&](std::size_t want) {
    for (unsigned spin = 0; o.done.size() < want && spin < kSpinLimit;
         ++spin) {
      if (spin > 0)
        for (auto& s : rig.senders) {
          SpanRecorder::Scope sc(sp, "proto.progress");
          s->progress();
        }
      SpanRecorder::Scope sc(sp, "proto.progress");
      auto got = rig.receiver.progress();
      o.done.insert(o.done.end(), got.begin(), got.end());
    }
  };

  const std::uint64_t t0 = now_ns();
  {
    SpanRecorder::Scope batch(sp, "bench.batch");
    for (std::size_t i = 0; i < b.n_early; ++i) post(i);
    for (std::size_t s = 0; s < rig.senders.size(); ++s) {
      SpanRecorder::Scope sc(sp, "proto.post_receive");
      const auto r = rig.senders[s]->post_receive({0, kAckTag, 0},
                                                  rig.ack_buf(s), 0);
      if (r.outcome != proto::Outcome::kPending) ++o.refused;
    }
    std::uint64_t start = 0;
    for (const auto& s : rig.senders) start = std::max(start, s->now_ns());
    for (std::size_t j = 0; j < b.msgs.size(); ++j) {
      const Msg& m = b.msgs[j];
      proto::Endpoint& ep = *rig.senders[m.sender];
      const std::uint64_t stamp = stamp_base + j;
      std::memcpy(rig.tx.data(), &stamp, sizeof(stamp));
      o.clocks[j].before = ep.now_ns();
      proto::Endpoint::SendResult r;
      {
        SpanRecorder::Scope sc(sp, "proto.send");
        r = ep.send(0, m.tag, 0, std::span<const std::byte>(rig.tx.data(), m.bytes));
      }
      o.clocks[j].after = ep.now_ns();
      if (r.outcome == proto::Outcome::kCompleted) o.clocks[j].arrival = r.arrival_ns;
      if (!r.ok) ++o.refused;
    }
    if (spec.flush_senders)
      for (auto& s : rig.senders) {
        SpanRecorder::Scope sc(sp, "proto.progress");
        s->progress();  // doorbell: flush the coalescing buffers
      }
    progress_until(b.n_early);
    for (std::size_t i = b.n_early; i < n; ++i) post(i);
    progress_until(n);

    std::uint64_t end = 0;
    for (std::size_t s = 0; s < rig.senders.size(); ++s) {
      proto::Endpoint::SendResult r;
      {
        SpanRecorder::Scope sc(sp, "proto.send");
        r = rig.receiver.send(static_cast<Rank>(s + 1), kAckTag, 0,
                              std::span<const std::byte>(rig.ack_buf(s)));
      }
      if (!r.ok) ++o.refused;
      std::size_t got = 0;
      for (unsigned spin = 0; got == 0 && spin < kSpinLimit; ++spin) {
        SpanRecorder::Scope sc(sp, "proto.progress");
        for (const auto& c : rig.senders[s]->progress()) {
          ++got;
          end = std::max(end, c.completion_ns);
        }
      }
      if (got != 1) ++o.refused;
    }
    o.modeled_ns = end > start ? end - start : 0;
  }
  o.wall_ns = now_ns() - t0;
  o.complete = o.done.size() == n && o.refused == 0;
}

/// Modeled per-message latency split: host posting, wire, NIC (dispatch +
/// matching + delivery), over messages whose send reported an arrival.
struct Stages {
  double host = 0.0, wire = 0.0, nic = 0.0;
};

/// Verdict counts of the output checks.
struct Verdicts {
  std::uint64_t oracle = 0;  ///< envelope, byte count or payload stamp wrong
  std::uint64_t fifo = 0;    ///< a (source, tag) stream delivered out of order
  std::uint64_t once = 0;    ///< a receive completed twice or never
  std::uint64_t refused = 0;  ///< sends/posts refused, acks missing
  std::uint64_t failed() const noexcept { return oracle + once + refused; }
  void operator+=(const Verdicts& v) noexcept {
    oracle += v.oracle;
    fifo += v.fifo;
    once += v.once;
    refused += v.refused;
  }
};

/// Oracle check of one batch; folds the modeled latencies into the pass
/// digest.
Verdicts verify_batch(Rig& rig, const Batch& b, const BatchRun& o,
                      std::uint64_t stamp_base, Digest& digest,
                      std::vector<double>& latencies, Stages& st) {
  Verdicts v;
  v.refused = o.refused;
  std::vector<char> seen(b.recvs.size(), 0);
  std::vector<std::uint64_t> stamps(b.recvs.size(), 0);
  for (const auto& c : o.done) {
    if (c.cookie >= b.recvs.size() || seen[c.cookie] != 0) {
      ++v.once;  // unknown receive or completed twice
      continue;
    }
    seen[c.cookie] = 1;
    const std::uint32_t j = b.expect[c.cookie];
    const Msg& m = b.msgs[j];
    std::uint64_t stamp = 0;
    std::memcpy(&stamp, rig.user_buf(c.cookie).data(), sizeof(stamp));
    stamps[c.cookie] = stamp;
    const bool ok = c.env == otm::Envelope{rank_of(m), m.tag, 0} &&
                    c.bytes == m.bytes && stamp == stamp_base + j;
    if (!ok) ++v.oracle;
    const MsgClock& k = o.clocks[j];
    const std::uint64_t lat = c.completion_ns >= k.before ? c.completion_ns - k.before : 0;
    latencies.push_back(static_cast<double>(lat));
    digest.add(lat);
    if (k.arrival != 0 && c.completion_ns >= k.arrival && k.arrival >= k.after) {
      st.host += static_cast<double>(k.after - k.before);
      st.wire += static_cast<double>(k.arrival - k.after);
      st.nic += static_cast<double>(c.completion_ns - k.arrival);
    }
  }
  v.once += static_cast<std::uint64_t>(std::count(seen.begin(), seen.end(), 0));
  // FIFO: along posting order, each fully specified receive of a stream
  // must get a later message of that stream than the receive before it.
  std::unordered_map<std::uint64_t, std::uint64_t> last;
  for (std::size_t i = 0; i < b.recvs.size(); ++i) {
    if (seen[i] == 0 || b.recvs[i].tag == otm::kAnyTag) continue;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(b.recvs[i].src))
         << 32) |
        static_cast<std::uint32_t>(b.recvs[i].tag);
    const auto [it, fresh] = last.try_emplace(key, stamps[i]);
    if (!fresh) {
      if (it->second >= stamps[i]) ++v.fifo;
      it->second = stamps[i];
    }
  }
  digest.add(o.modeled_ns);
  return v;
}

struct PassResult {
  bool complete = true;
  std::uint64_t setup_ns = 0;
  std::uint64_t msgs = 0;
  std::uint64_t wall_ns = 0;  ///< sum of batch wall times (the timed loop)
  std::uint64_t modeled_ns = 0;
  std::uint64_t attempted = 0;
  Verdicts verdicts;
  std::vector<double> batch_us;
  std::vector<double> batch_rates;  ///< kmsg/s of each batch
  std::vector<double> latencies;
  Digest digest;
  Stages stages;
  EndpointTotals totals;
  LedgerInputs ledger;
};

PassResult run_pass(const ClosedLoopSpec& spec, const RunOptions& opt,
                    SpanRecorder& sp, std::uint32_t& batch_id) {
  PassResult p;
  const std::uint64_t t0 = now_ns();
  std::vector<Batch> batches = spec.generate(opt.seed, spec.batches_per_pass);
  if (opt.plant_mismatch >= 0) {
    Batch& b = batches.front();
    const auto i = static_cast<std::size_t>(opt.plant_mismatch) % b.expect.size();
    b.expect[i] = static_cast<std::uint32_t>((b.expect[i] + 1) % b.msgs.size());
  }
  auto rig = std::make_unique<Rig>(spec);
  p.setup_ns = now_ns() - t0;

  BatchRun o;
  double depth_sum = 0.0;
  double posts = 0.0;
  double depth_max = 0.0;
  double eligible_bytes = 0.0;
  std::uint64_t stamp_base = 0;
  for (const Batch& b : batches) {
    // A traced pass stops before a batch whose spans might not all fit.
    if (sp.enabled() && sp.spans().size() + 8 * b.msgs.size() + 64 > kSpanCap)
      break;
    sp.set_batch(batch_id++);
    run_batch(spec, *rig, b, stamp_base, sp, o);
    p.attempted += b.msgs.size();
    p.verdicts += verify_batch(*rig, b, o, stamp_base, p.digest, p.latencies,
                               p.stages);
    p.msgs += b.msgs.size();
    p.wall_ns += o.wall_ns;
    p.modeled_ns += o.modeled_ns;
    p.batch_us.push_back(static_cast<double>(o.wall_ns) / 1e3);
    p.batch_rates.push_back(ratio(static_cast<double>(b.msgs.size()),
                                  static_cast<double>(o.wall_ns)) * 1e6);
    depth_sum += o.depth_sum;
    posts += static_cast<double>(b.recvs.size());
    depth_max = std::max(depth_max, static_cast<double>(o.depth_max));
    for (const Msg& m : b.msgs)
      if (spec.sender_ep.coalescing.enabled &&
          m.bytes <= spec.sender_ep.coalescing.eligible_bytes)
        eligible_bytes += static_cast<double>(proto::merged_sub_footprint(m.bytes));
    stamp_base += b.msgs.size();
    if (!o.complete) {
      p.complete = false;  // endpoints hold stale state: end the pass
      break;
    }
  }
  p.totals.add(rig->receiver);
  for (const auto& s : rig->senders) p.totals.add(*s);
  p.ledger.messages = static_cast<double>(p.msgs);
  p.ledger.crc_bytes =
      eligible_bytes + static_cast<double>(p.totals.c.merged_packets) *
                           static_cast<double>(proto::kHeaderBytes +
                                               proto::kMergedCountBytes);
  // Hart slots: one block of threads per ingress lane.
  const double harts = static_cast<double>(spec.recv_match.block_size) *
                       static_cast<double>(spec.receiver_ep.ingress_lanes);
  p.ledger.hart_cycles =
      harts * static_cast<double>(p.modeled_ns) * otm::DpaConfig{}.clock_ghz;
  p.ledger.queue_depth_avg = ratio(depth_sum, posts);
  p.ledger.queue_depth_max = depth_max;
  return p;
}

// ---- Isolated replay: the same posts and arrivals, straight into the DPA
// ---- and the matcher, timed from outside.

struct IsoResult {
  double msgs = 0.0;
  double recvs = 0.0;
  double dpa_post_ns = 0.0;
  double dpa_deliver_ns = 0.0;
  double core_post_ns = 0.0;
  double core_process_ns = 0.0;
  std::uint64_t failed = 0;
};

otm::IncomingMessage incoming(const Msg& m, std::size_t j) {
  auto im = otm::IncomingMessage::make(rank_of(m), m.tag, 0, m.bytes);
  im.wire_seq = j;
  return im;
}

/// Feed one batch to `post(spec, cookie)` / `arrive(msgs)` and check the
/// pairing against the oracle. Times go to `post_ns` / `arrive_ns`.
template <typename PostFn, typename ArriveFn>
std::uint64_t iso_batch(const Batch& b, std::vector<otm::IncomingMessage>& msgs,
                        PostFn&& post, ArriveFn&& arrive, SpanRecorder& sp,
                        const char* post_name, const char* arrive_name,
                        double& post_ns, double& arrive_ns) {
  std::vector<std::uint32_t> got(b.recvs.size(), kNone);
  const auto post_range = [&](std::size_t lo, std::size_t hi) {
    const std::uint64_t t = now_ns();
    SpanRecorder::Scope sc(sp, post_name);
    for (std::size_t i = lo; i < hi; ++i) {
      const otm::PostOutcome r = post({b.recvs[i].src, b.recvs[i].tag, 0}, i);
      if (r.kind == otm::PostOutcome::Kind::kMatchedUnexpected)
        got[i] = static_cast<std::uint32_t>(r.message.wire_seq);
    }
    post_ns += static_cast<double>(now_ns() - t);
  };
  post_range(0, b.n_early);
  std::vector<otm::ArrivalOutcome> out;
  {
    const std::uint64_t t = now_ns();
    SpanRecorder::Scope sc(sp, arrive_name);
    out = arrive(std::span<const otm::IncomingMessage>(msgs));
    arrive_ns += static_cast<double>(now_ns() - t);
  }
  for (std::size_t j = 0; j < out.size(); ++j)
    if (out[j].kind == otm::ArrivalOutcome::Kind::kMatched &&
        out[j].match.receive_cookie < got.size())
      got[out[j].match.receive_cookie] = static_cast<std::uint32_t>(j);
  post_range(b.n_early, b.recvs.size());
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (got[i] != b.expect[i]) ++failed;
  return failed;
}

IsoResult isolated_replay(const ClosedLoopSpec& spec,
                          const std::vector<Batch>& batches, SpanRecorder& sp) {
  IsoResult r;
  otm::DpaAccelerator dpa(otm::DpaConfig{}, spec.recv_match);
  dpa.set_ingress_lanes(spec.receiver_ep.ingress_lanes);
  otm::MatchEngine single(spec.recv_match);
  otm::ShardedEngine sharded(spec.recv_match);
  otm::LockstepExecutor ex;
  const bool use_sharded = spec.recv_match.shards > 1;
  std::vector<otm::IncomingMessage> msgs;
  std::uint32_t batch_id = 0;
  for (const Batch& b : batches) {
    sp.set_batch(batch_id++);  // past the span cap the calls are still timed
    SpanRecorder::Scope root(sp, "bench.isolated");
    msgs.clear();
    for (std::size_t j = 0; j < b.msgs.size(); ++j)
      msgs.push_back(incoming(b.msgs[j], j));
    r.failed += iso_batch(
        b, msgs,
        [&](const otm::MatchSpec& s, std::uint64_t c) {
          return dpa.post_receive(s, c + 1, spec.max_payload, c);
        },
        [&](std::span<const otm::IncomingMessage> m) { return dpa.deliver(m); },
        sp, "dpa.post_receive", "dpa.deliver", r.dpa_post_ns, r.dpa_deliver_ns);
    r.failed += iso_batch(
        b, msgs,
        [&](const otm::MatchSpec& s, std::uint64_t c) {
          return use_sharded ? sharded.post_receive(s, c + 1, spec.max_payload, c)
                             : single.post_receive(s, c + 1, spec.max_payload, c);
        },
        [&](std::span<const otm::IncomingMessage> m) {
          return use_sharded ? sharded.process(m, ex) : single.process(m, ex);
        },
        sp, "core.post_receive", "core.process", r.core_post_ns,
        r.core_process_ns);
    r.msgs += static_cast<double>(b.msgs.size());
    r.recvs += static_cast<double>(b.recvs.size());
  }
  return r;
}

// ---- The workload run -------------------------------------------------------

WorkloadResult run_closed_loop(const ClosedLoopSpec& spec,
                               const RunOptions& opt) {
  WorkloadResult res;
  res.workload = spec.name;
  SpanRecorder off(false, 0);
  std::uint32_t batch_id = 0;

  // Untraced passes: every end-to-end metric. Each pass sets up afresh, so
  // its modeled results must repeat pass 0's bit for bit.
  const double untraced_s = opt.trace ? opt.seconds * 0.5 : opt.seconds;
  std::vector<double> setup_s;
  std::vector<double> wall_rates;
  std::vector<double> batch_us;
  std::vector<double> batch_rates;
  std::optional<PassResult> first;
  double peak_rss = 0.0;
  Verdicts verdicts;
  std::uint64_t other_failures = 0;  // nondeterminism, isolated-replay misses
  repeat_for(untraced_s, 3, [&](unsigned) {
    PassResult p = run_pass(spec, opt, off, batch_id);
    res.attempted += p.attempted;
    verdicts += p.verdicts;
    setup_s.push_back(static_cast<double>(p.setup_ns) / 1e9);
    wall_rates.push_back(ratio(static_cast<double>(p.msgs),
                               static_cast<double>(p.wall_ns)) * 1e6);
    batch_us.insert(batch_us.end(), p.batch_us.begin(), p.batch_us.end());
    batch_rates.insert(batch_rates.end(), p.batch_rates.begin(),
                       p.batch_rates.end());
    if (!first) {
      first = std::move(p);
      // One pass holds the workload's whole footprint; later growth would
      // only be this run's sample vectors.
      peak_rss = peak_rss_mib();
    } else if (p.digest.value() != first->digest.value()) {
      ++other_failures;
      res.lines.push_back("  modeled clock differs between passes of one seed");
    }
    return first->complete;
  });

  const PassResult& f = *first;
  // The median batch's rate: a batch is one closed-loop round, and its
  // median is far less moved by neighbour load than a mean over passes.
  const double untraced_rate = median(batch_rates);  // kmsg/s
  set(res.e2e, "modeled_msg_rate",
      ratio(static_cast<double>(f.msgs), static_cast<double>(f.modeled_ns)) * 1e3,
      "Mmsg/s");
  set(res.e2e, "modeled_latency_p50_ns", quantile(f.latencies, 0.5), "ns");
  set(res.e2e, "modeled_latency_p99_ns", quantile(f.latencies, 0.99), "ns");
  set(res.e2e, "wall_msg_rate", untraced_rate, "kmsg/s");
  set(res.layer, "wall_batch_p50_us", quantile(batch_us, 0.5), "us");
  set(res.layer, "wall_batch_p99_us", quantile(batch_us, 0.99), "us");
  set(res.e2e, "setup_s", median(setup_s), "s");
  set(res.e2e, "peak_rss_mb", peak_rss, "MiB");
  res.lines.push_back(
      "  passes " + std::to_string(wall_rates.size()) + ", batches " +
      std::to_string(batch_us.size()) + ", modeled latency samples " +
      std::to_string(f.latencies.size()) + " per pass");
  res.lines.push_back(spread_line("rate per pass (all its batches), kmsg/s:", wall_rates));
  res.lines.push_back(spread_line("setup per pass, s:", setup_s));

  counter_metrics(f.totals, f.ledger, res.layer);
  const double total = f.stages.host + f.stages.wire + f.stages.nic;
  set(res.layer, "ledger.proto.modeled_share", ratio(f.stages.host, total), "ratio");
  set(res.layer, "ledger.rdma.modeled_share", ratio(f.stages.wire, total), "ratio");
  set(res.layer, "ledger.dpa_core.modeled_share", ratio(f.stages.nic, total), "ratio");

  if (opt.trace) {
    // Traced passes: spans around every call into the library.
    SpanRecorder sp(true, kSpanCap);
    std::uint64_t traced_msgs = 0;
    std::uint64_t traced_wall = 0;
    std::vector<double> traced_rates;
    repeat_for(opt.seconds * 0.2, 1, [&](unsigned) {
      PassResult p = run_pass(spec, opt, sp, batch_id);
      res.attempted += p.attempted;
      verdicts += p.verdicts;
      traced_msgs += p.msgs;
      traced_wall += p.wall_ns;
      traced_rates.insert(traced_rates.end(), p.batch_rates.begin(),
                          p.batch_rates.end());
      return p.complete && sp.spans().size() + 8 * kStormBurst + 64 <= kSpanCap;
    });
    const auto& spans = sp.spans();
    const std::vector<std::uint64_t> self = self_times(spans);
    const double msgs = static_cast<double>(traced_msgs);
    const double wall_per_msg = ratio(static_cast<double>(traced_wall), msgs);
    const std::vector<double> progress = durations(spans, "proto.progress");
    set(res.layer, "proto.send_ns_p50", median(durations(spans, "proto.send")), "ns");
    set(res.layer, "proto.post_receive_ns_p50",
        median(durations(spans, "proto.post_receive")), "ns");
    set(res.layer, "proto.progress_ns_per_msg",
        ratio(std::accumulate(progress.begin(), progress.end(), 0.0), msgs), "ns/msg");
    set(res.layer, "proto.progress_calls_per_msg",
        ratio(static_cast<double>(progress.size()), msgs), "1/msg");
    const double proto_self =
        ratio(static_cast<double>(layer_self_ns(spans, self, "proto.")), msgs);
    set(res.layer, "span.proto.self_ns_per_msg", proto_self, "ns/msg");
    set(res.layer, "span.bench.self_ns_per_msg",
        ratio(static_cast<double>(layer_self_ns(spans, self, "bench.")), msgs),
        "ns/msg");
    const double traced_rate = median(traced_rates);
    set(res.layer, "bench.tracing_overhead_share",
        ratio(untraced_rate - traced_rate, untraced_rate), "ratio");

    // Isolated replay of the same inputs into the DPA and the matcher.
    SpanRecorder iso_sp(true, kSpanCap);
    const std::vector<Batch> batches = spec.generate(opt.seed, spec.batches_per_pass);
    std::vector<double> deliver, process, post, dpa_post;
    repeat_for(opt.seconds * 0.3, 3, [&](unsigned) {
      const IsoResult r = isolated_replay(spec, batches, iso_sp);
      res.attempted += static_cast<std::uint64_t>(r.msgs);
      other_failures += r.failed;
      deliver.push_back(ratio(r.dpa_deliver_ns, r.msgs));
      dpa_post.push_back(ratio(r.dpa_post_ns, r.msgs));
      process.push_back(ratio(r.core_process_ns, r.msgs));
      post.push_back(ratio(r.core_post_ns, r.recvs));
      return r.msgs > 0;
    });
    const double d = median(deliver);
    const double c = median(process);
    const double dp = median(dpa_post);
    set(res.layer, "dpa.deliver_ns_per_msg", d, "ns/msg");
    set(res.layer, "core.process_ns_per_msg", c, "ns/msg");
    set(res.layer, "core.post_ns_per_recv", median(post), "ns/recv");
    set(res.layer, "derived.dpa.self_ns_per_msg", d - c, "ns/msg");
    set(res.layer, "derived.proto.self_ns_per_msg", proto_self - d - dp, "ns/msg");
    set(res.layer, "ledger.proto.real_share",
        ratio(proto_self - d - dp, wall_per_msg), "ratio");
    set(res.layer, "ledger.dpa_core.real_share", ratio(d + dp, wall_per_msg),
        "ratio");
    if (!opt.out_dir.empty()) {
      const std::string stem = opt.out_dir + "/spans-" + spec.name;
      if (!sp.write_json(stem + ".json") ||
          !iso_sp.write_json(stem + "-isolated.json"))
        res.lines.push_back("  warning: could not write spans under " + opt.out_dir);
      else
        res.lines.push_back("  spans: " + stem + ".json, " + stem +
                            "-isolated.json");
    }
    res.lines.push_back(
        "  traced " + std::to_string(traced_msgs) + " messages, " +
        std::to_string(spans.size()) + " spans; isolated replay " +
        std::to_string(deliver.size()) + " reps");
  }
  res.failed = verdicts.failed() + other_failures;
  set(res.layer, "trace.oracle_mismatches", static_cast<double>(verdicts.oracle),
      "count");
  set(res.layer, "trace.fifo_violations", static_cast<double>(verdicts.fifo),
      "count");
  set(res.layer, "trace.exactly_once_violations",
      static_cast<double>(verdicts.once), "count");
  set(res.layer, "ops_failed_ratio",
      ratio(static_cast<double>(res.failed), static_cast<double>(res.attempted)),
      "ratio");
  return res;
}

}  // namespace

WorkloadResult run_pingpong_conflict(const RunOptions& opt) {
  return run_closed_loop(pingpong_spec(opt.tiny), opt);
}

WorkloadResult run_storm_incast(const RunOptions& opt) {
  return run_closed_loop(storm_spec(opt.tiny), opt);
}

}  // namespace perfbench
