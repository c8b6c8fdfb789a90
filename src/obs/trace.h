// Per-request trace spans: a deterministic blktrace/RPC-trace analogue.
//
// A span is opened at VFS entry and closed when the system call returns;
// in between, the layers the request traverses attribute slices of the
// elapsed *virtual* time to named components:
//
//   network   link transmission + propagation + pipe queueing (both legs)
//   cpu       client and server per-layer processing charged by cost hooks
//   cache     time spent in cache lookups that hit (memory-speed, ~0 in
//             the current model; kept as a first-class component so a
//             future cache-cost model lands in the right bucket)
//   media     disk seek/rotation/transfer waits, incl. RAID queueing
//   protocol  everything else — computed at span end as the residual
//             total − (network + cpu + cache + media): protocol state
//             machine work, queue-slot waits, retransmission penalties
//
// By construction the five components sum exactly to the span's total
// virtual latency (the residual absorbs the remainder; an over-attribution
// — attributed time exceeding the window — is clamped and counted in
// `overattributed_spans` so model bugs are visible, never silent).
//
// Attribution is *blocking-path only*: asynchronous activity (write-behind
// RPCs, iSCSI tagged-queue writes, cache destage, background daemons)
// must not bill the request that happens to be on the stack, so async
// paths wrap themselves in a SuspendGuard and sim::Env suspends the tracer
// around every deferred-event dispatch.  Suspended charges are dropped;
// the traffic still lands in the MetricsRegistry counters.
//
// Completed spans land in a fixed-capacity ring buffer (oldest evicted)
// and feed per-component / per-op latency Samplers for summary reporting.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/stats.h"
#include "sim/time.h"

namespace netstore::obs {

enum class Component : std::uint8_t {
  kNetwork = 0,
  kCpu = 1,
  kCache = 2,
  kMedia = 3,
  kProtocol = 4,  // residual; never charged directly
};
inline constexpr std::size_t kComponentCount = 5;

[[nodiscard]] const char* to_string(Component c);

/// Request classes: every traced request is one VFS syscall, and the
/// syscall surface (vfs::Instrumentation) uses this enum as its kind.
enum class Op : std::uint8_t {
  kMeta = 0,
  kRead = 1,
  kWrite = 2,
  kOpen = 3,
  kClose = 4,
};
inline constexpr std::size_t kOpCount = 5;

[[nodiscard]] const char* to_string(Op op);

using SpanId = std::uint64_t;

/// One completed request, decomposed.
struct SpanRecord {
  SpanId id = 0;
  Op op = Op::kMeta;
  /// Issuing context (fleet client id; 0 for single-client runs).  Spans
  /// stay attributable per client even when a fleet multiplexes many
  /// flyweight clients over one protocol stack.
  std::uint32_t client = 0;
  sim::Time start = 0;
  sim::Time end = 0;
  std::array<sim::Duration, kComponentCount> component{};

  [[nodiscard]] sim::Duration total() const { return end - start; }
  [[nodiscard]] sim::Duration attributed() const {
    sim::Duration s = 0;
    for (const sim::Duration d : component) s += d;
    return s;
  }
};

class Tracer {
 public:
  explicit Tracer(std::size_t ring_capacity = 4096);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span at `now`.  Spans nest (a syscall issued while another is
  /// being traced charges both); end() must be called in LIFO order.
  SpanId begin(Op op, sim::Time now);

  /// Closes the innermost span (must be `id`): computes the protocol
  /// residual, records the span in the ring and the summary samplers.
  void end(SpanId id, sim::Time now);

  /// Attributes `d` of virtual time to every active span.  No-op when
  /// suspended, when no span is active, when d <= 0, or for kProtocol
  /// (the residual is derived, never charged).
  void charge(Component c, sim::Duration d);

  /// Client context stamped onto spans begun after this call (fleet
  /// support; 0 = the default single-client context).
  void set_client_context(std::uint32_t client) { client_context_ = client; }
  [[nodiscard]] std::uint32_t client_context() const {
    return client_context_;
  }

  // --- async suspension (see header comment) --------------------------
  void suspend() { suspended_++; }
  void resume() { suspended_--; }
  [[nodiscard]] bool suspended() const { return suspended_ > 0; }

  // --- sinks ----------------------------------------------------------
  /// Completed spans still resident in the ring, oldest first.
  [[nodiscard]] std::vector<SpanRecord> recent() const;

  [[nodiscard]] std::size_t active_spans() const { return active_.size(); }
  [[nodiscard]] std::uint64_t completed_spans() const {
    return completed_.value();
  }
  [[nodiscard]] std::uint64_t overattributed_spans() const {
    return overattributed_.value();
  }

  /// Per-component latency summaries over all completed spans (µs).
  [[nodiscard]] sim::Sampler& component_us(Component c) {
    return component_us_[static_cast<std::size_t>(c)];
  }
  /// Total-latency summaries per request class (µs).
  [[nodiscard]] sim::Sampler& op_total_us(Op op) {
    return op_total_us_[static_cast<std::size_t>(op)];
  }
  [[nodiscard]] sim::Sampler& total_us() { return total_us_; }

  /// Drops completed spans and summaries.  Active spans survive (a reset
  /// mid-syscall keeps the open span consistent).
  void reset();

  /// Copies the ring, samplers, and id counter from a source tracer with
  /// no active spans (checkpoint/fork support).  An open span belongs to a
  /// request still on the source's stack and cannot be meaningfully
  /// duplicated, so cloning a tracer mid-request is a CHECK failure.
  void clone_from(const Tracer& src);

 private:
  std::size_t ring_capacity_;
  std::vector<SpanRecord> ring_;  // circular once full
  std::vector<SpanRecord> active_;  // innermost last
  SpanId next_id_ = 1;
  int suspended_ = 0;
  std::uint32_t client_context_ = 0;

  sim::Counter completed_;
  sim::Counter overattributed_;
  std::array<sim::Sampler, kComponentCount> component_us_;
  std::array<sim::Sampler, kOpCount> op_total_us_;
  sim::Sampler total_us_;
};

/// RAII suspension for asynchronous code paths.  Null tracer is fine.
class SuspendGuard {
 public:
  explicit SuspendGuard(Tracer* t) : t_(t) {
    if (t_ != nullptr) t_->suspend();
  }
  ~SuspendGuard() {
    if (t_ != nullptr) t_->resume();
  }
  SuspendGuard(const SuspendGuard&) = delete;
  SuspendGuard& operator=(const SuspendGuard&) = delete;

 private:
  Tracer* t_;
};

}  // namespace netstore::obs
