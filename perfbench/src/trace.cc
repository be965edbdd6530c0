#include "perfbench/src/trace.h"

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {
namespace {

constexpr size_t kMaxEvents = 8192;  // Per thread and traced phase.

// Left uninitialized until recorded, so an idle buffer stays unbacked.
struct Event {
  uint64_t start;
  uint64_t end;
  uint64_t op;
  Span span;
};

// One per thread that ever recorded a span. Owned by the registry and kept
// after the thread exits, so its totals stay in CollectTotals().
struct ThreadTrace {
  int tid = 0;
  uint64_t op = 0;
  SpanTotals totals;
  std::array<Event, kMaxEvents> events;
  size_t num_events = 0;
};

std::atomic<bool> g_tracing{false};
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadTrace>> g_registry;  // Guarded by g_registry_mu.
thread_local ThreadTrace* t_trace = nullptr;

ThreadTrace& Local() {
  if (t_trace == nullptr) {
    auto trace = std::make_unique_for_overwrite<ThreadTrace>();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    trace->tid = static_cast<int>(g_registry.size()) + 1;
    t_trace = trace.get();
    g_registry.push_back(std::move(trace));
  }
  return *t_trace;
}

constexpr const char* kSpanNames[kNumSpans] = {
    "op.get",          "op.put",         "op.insert",       "op.delete",
    "op.copy",         "tx.run",         "workloads.body",  "tx.log",
    "alloc.alloc",     "alloc.free",     "epoch.sync",      "ipc.call",
    "daemon.import",   "libpuddles.open", "libpuddles.walk", "daemon.start",
    "daemon.recovery", "alloc.gc",
};

}  // namespace

const char* SpanName(Span span) { return kSpanNames[static_cast<size_t>(span)]; }

double SpanTotals::MeanUs(Span s) const {
  const uint64_t n = Count(s);
  if (n == 0) {
    return 0;
  }
  return static_cast<double>(puddles::stats::TicksToNanos(Ticks(s))) / 1e3 /
         static_cast<double>(n);
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

void BeginOp() {
  if (Tracing()) {
    ++Local().op;
  }
}

void RecordSpan(Span span, uint64_t start_ticks, uint64_t end_ticks) {
  ThreadTrace& t = Local();
  const size_t i = static_cast<size_t>(span);
  t.totals.ticks[i] += end_ticks - start_ticks;
  t.totals.count[i] += 1;
  if (t.num_events < kMaxEvents) {
    // Op ids are unique across threads: the thread id sits in the top bits.
    t.events[t.num_events++] = {start_ticks, end_ticks,
                                (static_cast<uint64_t>(t.tid) << 40) | t.op, span};
  }
}

SpanTotals CollectTotals() {
  SpanTotals sum;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& t : g_registry) {
    for (size_t i = 0; i < kNumSpans; ++i) {
      sum.ticks[i] += t->totals.ticks[i];
      sum.count[i] += t->totals.count[i];
    }
  }
  return sum;
}

void ResetTraces() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& t : g_registry) {
    t->totals = SpanTotals();
    t->num_events = 0;
  }
}

void WriteEvents(std::FILE* out, int pid) {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& t : g_registry) {
    for (size_t e = 0; e < t->num_events; ++e) {
      const Event& ev = t->events[e];
      // Chrome wants microseconds; tick deltas convert at the current ratio.
      const double ts = static_cast<double>(puddles::stats::TicksToNanos(ev.start)) / 1e3;
      const double dur =
          static_cast<double>(puddles::stats::TicksToNanos(ev.end - ev.start)) / 1e3;
      std::fprintf(out,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,"
                   "\"tid\":%d,\"args\":{\"op\":%llu}}\n",
                   SpanName(ev.span), ts, dur, pid, t->tid,
                   static_cast<unsigned long long>(ev.op));
    }
  }
}

}  // namespace perfbench
