// Shared plumbing of the benchmark: arguments, the report a run produces, the
// progress page the workload process shares with its parent, the traced
// library adapter, and the per-layer metric derivation.
//
// Process model (README.md): the parent forks one workload process before any
// thread exists. The child sets up, measures, sends its report down a pipe and
// keeps issuing operations; the parent then SIGKILLs it with operations in
// flight, recovers the pool in its own fresh runtime and checks the result.
#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/trace.h"
#include "src/daemon/server.h"
#include "src/libpuddles/libpuddles.h"
#include "src/pmem/flush.h"
#include "src/stats/stats.h"
#include "src/workloads/adapters.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path out_dir;  // Daemon roots, trace files, layer table.
  std::string source_id;          // Commit or source digest of the build.
};

using Metrics = std::map<std::string, double>;

// Output checks: how often each ran, and how often it failed.
struct CheckCount {
  uint64_t ran = 0;
  uint64_t failed = 0;
};

struct Report {
  Metrics metrics;
  std::map<std::string, CheckCount> checks;

  void Check(const std::string& name, bool ok) { Count(name, 1, ok ? 0 : 1); }
  void Count(const std::string& name, uint64_t ran, uint64_t failed) {
    checks[name].ran += ran;
    checks[name].failed += failed;
  }
  void Merge(const Report& other);
};

inline constexpr int kMaxThreads = 8;

// Shared (MAP_SHARED) between the workload process and the parent, so the
// parent knows exactly which operations were acknowledged before the kill.
struct Progress {
  std::atomic<uint64_t> started[kMaxThreads];  // Ops begun, per client thread.
  std::atomic<uint64_t> acked[kMaxThreads];    // Ops acknowledged, per client thread.
  std::atomic<uint64_t> round;        // ship: the home round in progress.
  std::atomic<uint64_t> round_acked;  // ship: copies acknowledged in that round.
  // Set by the workload process once it is issuing the operations the
  // parent should crash it in the middle of.
  std::atomic<bool> kill_ready;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Workload process: set up, measure, fill `report`.
  virtual void Measure(Report* report) = 0;
  // Workload process, after the report is sent: keep issuing operations
  // until killed.
  virtual void Continue() = 0;
  // Parent, after the kill: recover in a fresh runtime, timed, then (when
  // `check_outputs`) check the recovered data against the model.
  virtual void Recover(Report* report, bool check_outputs) = 0;
};

std::unique_ptr<Workload> MakeYcsbA(const Args& args, Progress* progress);
std::unique_ptr<Workload> MakeChurn(const Args& args, Progress* progress, bool epoch);
std::unique_ptr<Workload> MakeShip(const Args& args, Progress* progress);

// ---- Traced adapter ----
// workloads::PuddlesAdapter with a span around every call into tx and alloc:
// TxRun forwards to Pool::Run and TxCtx to puddles::Tx. Everything else is
// inherited.
class TracedAdapter : public workloads::PuddlesAdapter {
 public:
  class TxCtx {
   public:
    explicit TxCtx(puddles::Tx& tx) : tx_(tx) {}

    template <typename T>
    puddles::Status Log(T* p) {
      return LogRange(p, sizeof(T));
    }
    puddles::Status LogRange(void* p, size_t n) {
      ScopedSpan span(Span::kTxLog);
      return tx_.LogRange(p, n);
    }
    template <typename T, typename M>
    puddles::Status LogField(T* p, M T::*field) {
      return LogRange(&(p->*field), sizeof(M));
    }
    template <typename T>
    puddles::Status Set(T* dst, const T& value) {
      ScopedSpan span(Span::kTxLog);
      return tx_.Set(dst, value);
    }
    template <typename T>
    puddles::Result<T*> Alloc(size_t count = 1) {
      ScopedSpan span(Span::kAlloc);
      return tx_.Alloc<T>(count);
    }
    template <typename T>
    puddles::Status Free(T* p) {
      ScopedSpan span(Span::kFree);
      return tx_.Free(p);
    }

   private:
    puddles::Tx& tx_;
  };

  explicit TracedAdapter(puddles::Pool* pool) : PuddlesAdapter(pool), pool_(pool) {}

  template <typename Fn>
  puddles::Status TxRun(Fn&& fn) {
    ScopedSpan run(Span::kTxRun);
    return pool_->Run([&](puddles::Tx& tx) -> puddles::Status {
      ScopedSpan body(Span::kTxBody);
      TxCtx ctx(tx);
      return fn(ctx);
    });
  }

 private:
  puddles::Pool* pool_;
};

// One node of the system: a daemon on a root directory, its socket server,
// and a runtime that talks to it over the UNIX socket through a client that
// records every call as an ipc.call span (Recover below differs).
// Members destroy in reverse order: the runtime unmaps before the server and
// the daemon stop.
struct Stack {
  std::unique_ptr<puddled::Daemon> daemon;
  std::unique_ptr<puddled::Server> server;
  std::unique_ptr<puddles::Runtime> runtime;
  puddles::Pool* pool = nullptr;

  // Daemon, server and runtime on `root` (created if missing).
  static Stack Start(const std::filesystem::path& root);
  // Start on a fresh root, then create pool `pool_name`.
  static Stack Create(const std::filesystem::path& root, const std::string& pool_name);
  // The recovery path on a killed root: daemon start, RunRecovery, a fresh
  // runtime, OpenPool (skipped for an empty name). The runtime calls the
  // daemon directly (EmbeddedDaemonClient), as a process sharing it would:
  // a socket round trip per member puddle would make recover_s measure
  // thread wake-up latency. Records daemon.* and libpuddles.open_ms.
  static Stack Recover(const std::filesystem::path& root, const std::string& pool_name,
                       Report* report);

  // Tears down in dependency order (move-assigning a Stack would not).
  void Stop() {
    pool = nullptr;
    runtime.reset();
    server.reset();
    daemon.reset();
  }

 private:
  void Connect(const std::filesystem::path& root);
};

// ---- Layer counters ----
// Everything the library exports, read before and after a measured phase.
struct LayerSnapshot {
  puddles::stats::Snapshot stats;
  pmem::PersistStats persist;
  puddles::Runtime::Stats runtime;
  SpanTotals spans;

  static LayerSnapshot Take(puddles::Runtime* runtime);
};

struct PhaseWork {
  uint64_t ops = 0;
  uint64_t user_bytes = 0;  // Payload bytes the workload wrote.
  uint64_t wall_ticks = 0;
  int threads = 1;
  uint64_t copies = 0;            // ship
  uint64_t members_relocated = 0; // ship
};

// Adds every per-layer metric derivable from one traced phase.
void AddLayerMetrics(const LayerSnapshot& before, const LayerSnapshot& after,
                     const PhaseWork& work, Metrics* out);

// Sets a workload up `reps` times and reports the median as setup_s; every
// repetition but the last is torn down again. Traced runs record the
// daemon round trips of set-up as ipc.setup_rtt_us.
void MeasureSetup(const Args& args, int reps, const std::function<void()>& set_up,
                  const std::function<void()>& tear_down, Report* report);

// Runs a workload's timed phase as kSlices calls of `run`, each measuring
// args.seconds / kSlices, and reports the median slice throughput; workloads
// report the median of their per-slice latency percentiles the same way, so
// a burst of outside load moves one slice, not the result. Traced runs
// measure half the slices untraced, then one traced phase of the other half
// whose layer counters feed AddLayerMetrics; trace.overhead is its
// throughput over the untraced median.
inline constexpr int kSlices = 10;
void MeasurePhases(const Args& args, puddles::Runtime* runtime,
                   const std::function<PhaseWork(double seconds)>& run, Report* report);

// Latency helpers: histograms record TSC ticks.
double TicksToUs(uint64_t ticks);
double TicksToSeconds(uint64_t ticks);
double PercentileUs(const puddles::stats::Histogram& h, double p);

// Latency percentiles of one kind of operation over the measured slices.
// When every slice holds enough samples for its p99 (kMinSliceSamples, ten
// beyond the percentile), the result is the median of the per-slice values;
// otherwise the slices are pooled into one histogram first.
struct SliceLatency {
  static constexpr uint64_t kMinSliceSamples = 1000;

  std::vector<double> p50;
  std::vector<double> p99;
  puddles::stats::Histogram pooled;
  bool every_slice_full = true;

  void Add(const puddles::stats::Histogram& slice);
  void ReportTo(const std::string& prefix, Metrics* out) const;
};

double PeakRssMb();
// Bytes of puddle files under a daemon root.
uint64_t PuddleFileBytes(const std::filesystem::path& root);
// Median of a small sample (copied).
double Median(std::vector<double> values);

// Deterministic 64-bit mix (splitmix64 finalizer) for generated payloads.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Aborts the workload process with a message: a set-up step that fails
// leaves nothing to measure.
#define PERFBENCH_CHECK_OK(expr)                                              \
  do {                                                                        \
    const auto& perfbench_status_ = (expr);                                       \
    if (!perfbench_status_.ok()) {                                            \
      std::fprintf(stderr, "perfbench: %s failed: %s\n", #expr,               \
                   ::perfbench::StatusText(perfbench_status_).c_str());       \
      std::_Exit(3);                                                          \
    }                                                                         \
  } while (0)

inline std::string StatusText(const puddles::Status& s) { return s.ToString(); }
template <typename T>
std::string StatusText(const puddles::Result<T>& r) {
  return r.status().ToString();
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
