#include "net/network.h"

#include <algorithm>

namespace ssdb {

size_t Network::AddProvider(std::shared_ptr<ProviderEndpoint> endpoint) {
  links_.emplace_back();
  Link& link = links_.back();
  link.endpoint = std::move(endpoint);
  // Derive a per-link failure stream so injected drops/corruption depend
  // only on this link's own call sequence, never on fan-out interleaving.
  link.rng = Rng(failure_seed_ ^ (0x9E3779B97F4A7C15ULL * links_.size()));
  if (registry_ != nullptr) RegisterLinkMetrics(links_.size() - 1);
  return links_.size() - 1;
}

void Network::AttachMetrics(MetricsRegistry* registry) {
  registry_ = registry;
  for (size_t i = 0; i < links_.size(); ++i) RegisterLinkMetrics(i);
}

void Network::RegisterLinkMetrics(size_t provider) {
  const MetricLabels labels = {{"provider", std::to_string(provider)}};
  LinkMetrics& m = links_[provider].metrics;
  m.calls = registry_->GetCounter("ssdb_net_calls_total", labels);
  m.failures = registry_->GetCounter("ssdb_net_failures_total", labels);
  m.bytes_sent = registry_->GetCounter("ssdb_net_bytes_sent_total", labels);
  m.bytes_received =
      registry_->GetCounter("ssdb_net_bytes_received_total", labels);
  m.deadline_exceeded =
      registry_->GetCounter("ssdb_net_deadline_exceeded_total", labels);
  m.round_trip_us = registry_->GetHistogram("ssdb_net_round_trip_us", labels);
}

void Network::AttachShardMetrics(
    MetricsRegistry* registry, const std::vector<size_t>& shard_of_provider) {
  for (size_t i = 0; i < links_.size() && i < shard_of_provider.size(); ++i) {
    const MetricLabels labels = {
        {"shard", std::to_string(shard_of_provider[i])}};
    LinkMetrics& m = links_[i].metrics;
    m.shard_requests =
        registry->GetCounter("ssdb_shard_requests_total", labels);
    m.shard_bytes_sent =
        registry->GetCounter("ssdb_shard_bytes_sent_total", labels);
    m.shard_bytes_received =
        registry->GetCounter("ssdb_shard_bytes_received_total", labels);
  }
}

ThreadPool& Network::pool() {
  std::call_once(pool_once_,
                 [this] { pool_ = std::make_unique<ThreadPool>(
                              fanout_threads_); });
  return *pool_;
}

namespace {

/// Caps a failed leg's charge at the deadline: a call that would have
/// reported its failure after the deadline is seen by the client as a
/// timeout instead.
Status CapFailureAtDeadline(uint64_t deadline_us, CallTrace* trace,
                            Status original) {
  if (deadline_us > 0 && trace->elapsed_us > deadline_us) {
    trace->elapsed_us = deadline_us;
    trace->deadline_exceeded = true;
    return Status::DeadlineExceeded("network: deadline of " +
                                    std::to_string(deadline_us) +
                                    "us exceeded (" + original.message() + ")");
  }
  return original;
}

}  // namespace

Result<std::vector<uint8_t>> Network::CallNoClock(size_t provider,
                                                  Slice request,
                                                  CallTrace* trace,
                                                  uint64_t deadline_us) {
  auto result = CallNoClockImpl(provider, request, trace, deadline_us);
  // Mirror the finished leg into the registry from the same figures the
  // ChannelStats saw: trace fields are final here (deadline capping
  // included), so registry totals and stats(i) cannot diverge. Counter
  // bumps are commutative relaxed atomics — fan-out interleaving does
  // not affect the totals.
  if (provider < links_.size()) {
    const LinkMetrics& m = links_[provider].metrics;
    if (m.calls != nullptr) {
      m.calls->Inc();
      if (!result.ok()) m.failures->Inc();
      if (trace->bytes_sent) m.bytes_sent->Inc(trace->bytes_sent);
      if (trace->bytes_received) m.bytes_received->Inc(trace->bytes_received);
      if (trace->deadline_exceeded) m.deadline_exceeded->Inc();
      m.round_trip_us->Observe(trace->elapsed_us);
    }
    if (m.shard_requests != nullptr) {
      m.shard_requests->Inc();
      if (trace->bytes_sent) m.shard_bytes_sent->Inc(trace->bytes_sent);
      if (trace->bytes_received) {
        m.shard_bytes_received->Inc(trace->bytes_received);
      }
    }
  }
  return result;
}

Result<std::vector<uint8_t>> Network::CallNoClockImpl(size_t provider,
                                                      Slice request,
                                                      CallTrace* trace,
                                                      uint64_t deadline_us) {
  *trace = CallTrace();
  if (provider >= links_.size()) {
    return Status::InvalidArgument("network: unknown provider index");
  }
  Link& link = links_[provider];
  std::unique_lock<std::mutex> lock(link.mu);
  link.stats.calls++;

  // Failure injection happens "on the wire".
  if (link.mode == FailureMode::kDown || link.mode == FailureMode::kKill) {
    link.stats.failures++;
    trace->elapsed_us = model_.latency_us;  // timeout charged as one latency
    return CapFailureAtDeadline(
        deadline_us, trace,
        Status::Unavailable("provider " + link.endpoint->name() +
                            (link.mode == FailureMode::kKill ? " was killed"
                                                             : " is down")));
  }
  if (link.mode == FailureMode::kDropSome &&
      link.rng.Bernoulli(link.param)) {
    link.stats.failures++;
    trace->elapsed_us = model_.latency_us;
    return CapFailureAtDeadline(
        deadline_us, trace,
        Status::Unavailable("provider " + link.endpoint->name() +
                            " dropped the request"));
  }
  if (link.mode == FailureMode::kFlaky) {
    // Bursty outages: the link toggles between good and bad phases; while
    // bad, every call is lost. The per-link RNG keeps the phase sequence a
    // function of this link's call sequence only.
    if (link.rng.Bernoulli(link.param)) link.flaky_bad = !link.flaky_bad;
    if (link.flaky_bad) {
      link.stats.failures++;
      trace->elapsed_us = model_.latency_us;
      return CapFailureAtDeadline(
          deadline_us, trace,
          Status::Unavailable("provider " + link.endpoint->name() +
                              " is flapping"));
    }
  }
  const FailureMode mode = link.mode;
  // kSlow stretches the whole round trip by the configured multiplier.
  const double time_factor =
      mode == FailureMode::kSlow && link.param > 1.0 ? link.param : 1.0;
  link.stats.bytes_sent += request.size();
  trace->bytes_sent = request.size();

  // The provider computes outside the link lock: that is where the
  // parallelism is, and Provider/ShareTable carry their own locks.
  lock.unlock();
  Result<Buffer> response = link.endpoint->Handle(request);
  lock.lock();

  if (!response.ok()) {
    link.stats.failures++;
    trace->elapsed_us = static_cast<uint64_t>(
        static_cast<double>(model_.RoundTripUs(request.size(), 0)) *
        time_factor);
    return CapFailureAtDeadline(deadline_us, trace, response.status());
  }

  std::vector<uint8_t> bytes = std::move(*response).TakeBytes();
  const uint64_t round_trip_us = static_cast<uint64_t>(
      static_cast<double>(model_.RoundTripUs(request.size(), bytes.size())) *
      time_factor);
  if (deadline_us > 0 && round_trip_us > deadline_us) {
    // The client stopped waiting at the deadline: the response never
    // reaches it, so no received bytes are charged anywhere and the clock
    // charge is exactly the deadline.
    link.stats.failures++;
    trace->elapsed_us = deadline_us;
    trace->deadline_exceeded = true;
    return Status::DeadlineExceeded(
        "network: provider " + link.endpoint->name() + " overran the " +
        std::to_string(deadline_us) + "us deadline");
  }
  if (mode == FailureMode::kCorruptResponse && !bytes.empty()) {
    const size_t pos = link.rng.Uniform(bytes.size());
    bytes[pos] ^= 0x5A;
  }
  link.stats.bytes_received += bytes.size();
  trace->bytes_received = bytes.size();
  trace->elapsed_us = round_trip_us;
  return bytes;
}

Result<std::vector<uint8_t>> Network::Call(size_t provider, Slice request,
                                           CallTrace* trace,
                                           uint64_t deadline_us) {
  CallTrace local;
  auto result = CallNoClock(provider, request, &local, deadline_us);
  clock_.Advance(local.elapsed_us);
  if (trace != nullptr) *trace = local;
  return result;
}

Result<std::vector<uint8_t>> Network::CallUnclocked(size_t provider,
                                                    Slice request,
                                                    CallTrace* trace,
                                                    uint64_t deadline_us) {
  CallTrace local;
  auto result = CallNoClock(provider, request, &local, deadline_us);
  if (trace != nullptr) *trace = local;
  return result;
}

Network::FanOutResult Network::CallManyDistinct(
    const std::vector<size_t>& providers, const std::vector<Buffer>& requests,
    uint64_t deadline_us) {
  const size_t n = providers.size();
  FanOutResult out;
  out.responses.assign(
      n, Result<std::vector<uint8_t>>(Status::Internal("fan-out leg not run")));
  out.legs.assign(n, CallTrace());
  pool().ParallelFor(n, [&](size_t i) {
    const Slice req = i < requests.size() ? requests[i].AsSlice() : Slice();
    out.responses[i] =
        CallNoClock(providers[i], req, &out.legs[i], deadline_us);
  });
  // The legs ran in parallel: the slowest one dominates the round trip.
  uint64_t slowest = 0;
  for (const CallTrace& leg : out.legs) {
    slowest = std::max(slowest, leg.elapsed_us);
  }
  out.clock_advance_us = slowest;
  clock_.Advance(slowest);
  return out;
}

void Network::SetFailure(size_t provider, FailureMode mode, double param) {
  std::lock_guard<std::mutex> lock(links_[provider].mu);
  links_[provider].mode = mode;
  links_[provider].param = param;
  links_[provider].flaky_bad = false;  // a new fault starts in a good phase
}

ChannelStats Network::TotalStats() const {
  ChannelStats total;
  for (const Link& link : links_) {
    std::lock_guard<std::mutex> lock(link.mu);
    total += link.stats;
  }
  return total;
}

void Network::ResetStats() {
  for (Link& link : links_) {
    std::lock_guard<std::mutex> lock(link.mu);
    link.stats = ChannelStats();
  }
}

}  // namespace ssdb
