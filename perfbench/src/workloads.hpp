// The three benchmark workloads. Each runs closed loop on one thread,
// builds its inputs from the seed, checks every output against an oracle
// and fills a WorkloadResult (see README.md for what each one stresses).
#pragma once

#include "common.hpp"

namespace perfbench {

/// Paper Sec. VI ping-pong: one sender, one receiver, k=100 8 B messages per
/// sequence; seeded mix of all-distinct and shared-(source, tag) sequences
/// with a share of ANY_TAG receives.
WorkloadResult run_pingpong_conflict(const RunOptions& opt);

/// 4 senders burst small coalesced eager messages at one receiver with 4
/// ingress lanes and 4 matcher shards; a quarter of the receives is posted
/// after the burst lands (unexpected path).
WorkloadResult run_storm_incast(const RunOptions& opt);

/// BigFFT synthetic trace, 1024 ranks, replayed by TraceReplayDriver.
WorkloadResult run_replay_bigfft(const RunOptions& opt);

/// Unit checks of the benchmark's own arithmetic: span self time on a
/// hand-built tree and a planted oracle mismatch. Returns failures.
int self_test();

}  // namespace perfbench
