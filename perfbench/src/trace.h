// Benchmark-side spans: one named span around every call the benchmark makes
// into a layer of the library. Spans are recorded only while tracing is on
// (a relaxed flag load otherwise), summed per thread into fixed arrays, and
// the first kMaxEvents of each thread are kept for the Chrome trace. Nothing
// here grows with run length, so tracing does not move peak RSS.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <cstdint>
#include <cstdio>

#include "src/stats/stats.h"

namespace perfbench {

enum class Span : uint8_t {
  // Top-level operations of the workloads (one per acknowledged op).
  kOpGet,
  kOpPut,
  kOpInsert,
  kOpDelete,
  kOpCopy,
  // Calls into the library.
  kTxRun,          // Pool::Run, begin to commit.
  kTxBody,         // The workload's transaction callback.
  kTxLog,          // Tx::LogRange / LogField / Set.
  kAlloc,          // Tx::Alloc.
  kFree,           // Tx::Free.
  kEpochSync,      // Pool::Sync.
  kIpcCall,        // One DaemonClient call.
  kDaemonImport,   // Pool import through the daemon.
  kLibOpen,        // Runtime::OpenPool.
  kLibWalk,        // First walk of an imported copy (faults + rewrite).
  kDaemonStart,    // Daemon::Start on an existing root.
  kDaemonRecovery, // Daemon::RunRecovery.
  kAllocGc,        // Pool::RecoverArenas.
  kNumSpans,
};

inline constexpr size_t kNumSpans = static_cast<size_t>(Span::kNumSpans);

const char* SpanName(Span span);

// Spans the workloads open at top level (op.* and the epoch-mode Sync that
// acknowledges a batch): trace.coverage sums these.
inline bool IsTopLevel(Span span) { return span <= Span::kOpCopy || span == Span::kEpochSync; }

struct SpanTotals {
  uint64_t ticks[kNumSpans] = {};
  uint64_t count[kNumSpans] = {};

  uint64_t Ticks(Span s) const { return ticks[static_cast<size_t>(s)]; }
  uint64_t Count(Span s) const { return count[static_cast<size_t>(s)]; }
  // Mean span duration in microseconds (0 when the span never ran).
  double MeanUs(Span s) const;
};

// Turns span recording on or off process-wide.
void SetTracing(bool on);
bool Tracing();

// Starts a new operation on this thread: later spans carry its id until the
// next BeginOp, so the spans of one operation share an id in the trace.
void BeginOp();

// Sums every thread's span totals. Call with recording threads quiesced.
SpanTotals CollectTotals();
// Zeroes totals and drops buffered events on every thread.
void ResetTraces();

// Appends every buffered event as one Chrome-trace JSON object per line
// (no enclosing array), tagged with `pid`.
void WriteEvents(std::FILE* out, int pid);

void RecordSpan(Span span, uint64_t start_ticks, uint64_t end_ticks);

class ScopedSpan {
 public:
  explicit ScopedSpan(Span span) : span_(span), on_(Tracing()) {
    if (on_) {
      start_ = puddles::stats::NowTicks();
    }
  }
  ~ScopedSpan() {
    if (on_) {
      RecordSpan(span_, start_, puddles::stats::NowTicks());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  bool on_;
  uint64_t start_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
