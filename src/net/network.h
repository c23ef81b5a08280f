// Simulated wide-area network between the data source and the providers.
//
// The paper's cost arguments are about communication volume, round trips
// and availability — not absolute wire speed — so the network is an
// in-process message layer with:
//   * exact per-channel byte / message accounting,
//   * a configurable latency + bandwidth model charged to a VirtualClock
//     (fan-out calls run "in parallel": the slowest leg dominates),
//   * failure injection (provider down, responses corrupted, intermittent
//     drops) for the fault-tolerance experiments (E8) and the §VI(b)
//     benign/malicious failure-model challenge.

#ifndef SSDB_NET_NETWORK_H_
#define SSDB_NET_NETWORK_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace ssdb {

/// \brief Endpoint interface implemented by every service provider (and by
/// baseline servers).
class ProviderEndpoint {
 public:
  virtual ~ProviderEndpoint() = default;

  /// Handles one request message; returns the response bytes.
  virtual Result<Buffer> Handle(Slice request) = 0;

  /// Diagnostic name.
  virtual std::string name() const = 0;
};

/// Latency/bandwidth model of one client<->provider link.
struct NetworkCostModel {
  /// One-way propagation latency in microseconds (default: 20 ms WAN).
  uint64_t latency_us = 20000;
  /// Link bandwidth in bytes per microsecond (default: 12.5 B/us = 100 Mbit/s).
  double bandwidth_bytes_per_us = 12.5;

  uint64_t TransferTimeUs(uint64_t bytes) const {
    if (bandwidth_bytes_per_us <= 0) return 0;
    return static_cast<uint64_t>(static_cast<double>(bytes) /
                                 bandwidth_bytes_per_us);
  }
  /// Full round trip: request out + response back.
  uint64_t RoundTripUs(uint64_t bytes_out, uint64_t bytes_in) const {
    return 2 * latency_us + TransferTimeUs(bytes_out + bytes_in);
  }
};

/// Failure injected into one provider's link.
enum class FailureMode {
  kHealthy,
  kDown,             ///< Every call returns Unavailable.
  kCorruptResponse,  ///< Responses arrive with one byte flipped.
  kDropSome,         ///< Calls fail independently with probability `param`.
  kSlow,             ///< Round trips take `param` times the modelled time.
  kFlaky,            ///< Bursty outages: each call first toggles the link
                     ///< between good and bad phases with probability
                     ///< `param` (per-link seeded stream); while bad, every
                     ///< call is dropped. Unlike kDropSome the failures are
                     ///< correlated, modelling a flapping provider.
  kKill,             ///< Provider process death: on the wire identical to
                     ///< kDown (every call Unavailable), but the mode marks
                     ///< the provider's RAM state as lost — set via
                     ///< FaultController::Kill, which also crashes the
                     ///< provider's storage engine, and cleared by
                     ///< FaultController::Restart, which recovers it from
                     ///< durable storage.
};

/// Exact accounting for one call leg, as charged to the channel stats and
/// the virtual clock. Lets callers attribute communication to individual
/// plan nodes without re-deriving the cost model.
struct CallTrace {
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t elapsed_us = 0;  ///< Round-trip time of this leg.
  /// True when the leg overran its deadline; `elapsed_us` is then exactly
  /// the deadline (the client stops waiting) and no response bytes are
  /// charged.
  bool deadline_exceeded = false;
};

/// Byte/message counters for one channel (or aggregated).
struct ChannelStats {
  uint64_t calls = 0;
  uint64_t failures = 0;
  uint64_t bytes_sent = 0;      // client -> provider
  uint64_t bytes_received = 0;  // provider -> client

  uint64_t total_bytes() const { return bytes_sent + bytes_received; }
  ChannelStats& operator+=(const ChannelStats& o) {
    calls += o.calls;
    failures += o.failures;
    bytes_sent += o.bytes_sent;
    bytes_received += o.bytes_received;
    return *this;
  }
};

/// \brief The network: n provider links plus a virtual clock.
///
/// Fan-out calls (CallManyDistinct) dispatch each leg to a
/// worker of an internal ThreadPool, so wall-clock tracks the slowest leg
/// instead of the sum — matching the virtual-clock model the paper's §V.A
/// cost argument assumes. Per-link failure state, statistics and the
/// failure RNG live behind a per-link mutex; the RNG stream is per link,
/// so injected drops/corruption depend only on that link's call sequence
/// and results are identical for any fan-out thread count.
class Network {
 public:
  /// `fanout_threads`: workers for the fan-out pool (0 = one per hardware
  /// thread). The pool is created lazily on the first fan-out call.
  explicit Network(NetworkCostModel model = NetworkCostModel(),
                   uint64_t failure_seed = 0xFA11, size_t fanout_threads = 0)
      : model_(model),
        failure_seed_(failure_seed),
        fanout_threads_(fanout_threads) {}

  /// Registers a provider; returns its index.
  size_t AddProvider(std::shared_ptr<ProviderEndpoint> endpoint);

  size_t num_providers() const { return links_.size(); }

  /// One round trip to provider i (advances the virtual clock by the full
  /// round-trip time of this single call). When `trace` is non-null it is
  /// filled with this leg's exact byte/clock charges. `deadline_us` (0 =
  /// none) bounds the call in virtual-clock microseconds: a leg whose
  /// modelled round trip overruns it returns Status::DeadlineExceeded and
  /// charges exactly the deadline — the response bytes never reach the
  /// client, so neither the channel stats nor the trace count them.
  Result<std::vector<uint8_t>> Call(size_t provider, Slice request,
                                    CallTrace* trace = nullptr,
                                    uint64_t deadline_us = 0);

  /// Like Call but does NOT advance the virtual clock: the caller owns the
  /// cross-leg clock arithmetic. Used by the resilience layer
  /// (net/resilience.h), whose retries, backoffs and hedges need to charge
  /// the clock once per orchestrated round rather than per leg.
  Result<std::vector<uint8_t>> CallUnclocked(size_t provider, Slice request,
                                             CallTrace* trace,
                                             uint64_t deadline_us = 0);

  /// Parallel fan-out: one request per listed provider; the virtual clock
  /// advances by the slowest leg only. Failed legs yield error Status in
  /// the result vector (the call itself succeeds if the fan-out ran).
  /// `legs` holds one CallTrace per leg (parallel to `responses`);
  /// `clock_advance_us` is the slowest leg, i.e. what the virtual clock
  /// was advanced by.
  struct FanOutResult {
    std::vector<Result<std::vector<uint8_t>>> responses;
    std::vector<CallTrace> legs;
    uint64_t clock_advance_us = 0;
  };
  /// `requests[i]` goes to `providers[i]` (the rewritten queries of §V.A
  /// differ per provider).
  FanOutResult CallManyDistinct(const std::vector<size_t>& providers,
                                const std::vector<Buffer>& requests,
                                uint64_t deadline_us = 0);

  /// Failure injection. `param` is mode-specific: the drop probability for
  /// kDropSome, the phase-flip probability for kFlaky, and the latency
  /// multiplier for kSlow.
  void SetFailure(size_t provider, FailureMode mode, double param = 0.0);
  FailureMode failure_mode(size_t provider) const {
    std::lock_guard<std::mutex> lock(links_[provider].mu);
    return links_[provider].mode;
  }
  /// The mode-specific parameter set with the current failure mode.
  double failure_param(size_t provider) const {
    std::lock_guard<std::mutex> lock(links_[provider].mu);
    return links_[provider].param;
  }

  /// Per-provider statistics. The reference is only safe to read while no
  /// fan-out involving this link is in flight (benchmarks and tests read
  /// between queries).
  const ChannelStats& stats(size_t provider) const {
    return links_[provider].stats;
  }
  ChannelStats TotalStats() const;
  void ResetStats();

  /// Mirrors every ChannelStats bump into `registry` under the
  /// `ssdb_net_*` series, labelled {provider: "<index>"}, plus a
  /// round-trip latency histogram per link. Handles are cached per link
  /// at attach time, so the per-call overhead is a handful of relaxed
  /// atomic adds. Registry totals reconcile with stats(i) exactly
  /// (same call sites, same values) from any common reset point.
  void AttachMetrics(MetricsRegistry* registry);

  /// Additionally mirrors every leg into per-shard-group series —
  /// `ssdb_shard_requests_total`, `ssdb_shard_bytes_sent_total`,
  /// `ssdb_shard_bytes_received_total`, labelled {shard} — where entry i
  /// of `shard_of_provider` names provider i's group. Bumped at the same
  /// call site from the same figures as the per-provider mirror, so the
  /// shard series reconcile exactly with the ChannelStats of the group's
  /// links. Only multi-shard deployments attach this: the 1-shard
  /// telemetry export stays byte-identical to the seed system.
  void AttachShardMetrics(MetricsRegistry* registry,
                          const std::vector<size_t>& shard_of_provider);

  VirtualClock& clock() { return clock_; }
  const NetworkCostModel& model() const { return model_; }

  /// The fan-out worker pool (created on first use). Shared with the
  /// client's ExecuteBatch so batched queries and their per-query fan-out
  /// legs draw from the same fixed set of workers.
  ThreadPool& pool();

 private:
  /// Cached registry handles for one link (null until AttachMetrics).
  struct LinkMetrics {
    MetricCounter* calls = nullptr;
    MetricCounter* failures = nullptr;
    MetricCounter* bytes_sent = nullptr;
    MetricCounter* bytes_received = nullptr;
    MetricCounter* deadline_exceeded = nullptr;
    MetricHistogram* round_trip_us = nullptr;
    // Per-shard-group mirror (null until AttachShardMetrics).
    MetricCounter* shard_requests = nullptr;
    MetricCounter* shard_bytes_sent = nullptr;
    MetricCounter* shard_bytes_received = nullptr;
  };

  struct Link {
    std::shared_ptr<ProviderEndpoint> endpoint;
    mutable std::mutex mu;  ///< Guards mode/param/flaky_bad/rng/stats.
    FailureMode mode = FailureMode::kHealthy;
    double param = 0.0;      ///< Mode-specific (see SetFailure).
    bool flaky_bad = false;  ///< kFlaky: currently in a bad phase.
    Rng rng;  ///< Per-link failure stream (deterministic per call sequence).
    ChannelStats stats;
    LinkMetrics metrics;  ///< Set once by AttachMetrics, then read-only.
  };

  /// Executes one call without touching the clock; reports the exact
  /// byte/clock charges through `trace`. CallNoClock wraps the impl to
  /// mirror the final per-leg accounting into the metrics registry.
  Result<std::vector<uint8_t>> CallNoClockImpl(size_t provider, Slice request,
                                               CallTrace* trace,
                                               uint64_t deadline_us);
  Result<std::vector<uint8_t>> CallNoClock(size_t provider, Slice request,
                                           CallTrace* trace,
                                           uint64_t deadline_us);

  void RegisterLinkMetrics(size_t provider);

  NetworkCostModel model_;
  VirtualClock clock_;
  uint64_t failure_seed_;
  size_t fanout_threads_;
  std::once_flag pool_once_;
  std::unique_ptr<ThreadPool> pool_;
  MetricsRegistry* registry_ = nullptr;
  std::deque<Link> links_;  // deque: stable addresses for mutex members
};

}  // namespace ssdb

#endif  // SSDB_NET_NETWORK_H_
