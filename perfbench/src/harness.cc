#include "perfbench/src/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <vector>

namespace perfbench {

namespace st = puddles::stats;

void Report::Merge(const Report& other) {
  for (const auto& [name, value] : other.metrics) {
    metrics[name] = value;
  }
  for (const auto& [name, count] : other.checks) {
    Count(name, count.ran, count.failed);
  }
}

LayerSnapshot LayerSnapshot::Take(puddles::Runtime* runtime) {
  LayerSnapshot s;
  s.stats = st::Aggregate();
  s.persist = pmem::ReadPersistStats();
  if (runtime != nullptr) {
    s.runtime = runtime->stats();
  }
  s.spans = CollectTotals();
  return s;
}

double TicksToUs(uint64_t ticks) {
  return static_cast<double>(st::TicksToNanos(ticks)) / 1e3;
}

double TicksToSeconds(uint64_t ticks) {
  return static_cast<double>(st::TicksToNanos(ticks)) / 1e9;
}

double PercentileUs(const st::Histogram& h, double p) {
  return TicksToUs(h.ValueAtPercentile(p));
}

namespace {

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Client time per daemon request beyond the daemon's own service time.
double IpcRttUs(const LayerSnapshot& before, const LayerSnapshot& after) {
  const uint64_t calls = after.spans.Count(Span::kIpcCall) - before.spans.Count(Span::kIpcCall);
  const uint64_t client = after.spans.Ticks(Span::kIpcCall) - before.spans.Ticks(Span::kIpcCall);
  const uint64_t service =
      st::Delta(after.stats, before.stats).hist(st::Hist::kDaemonServiceTicks).sum();
  return Ratio(TicksToUs(client > service ? client - service : 0), static_cast<double>(calls));
}

}  // namespace

void AddLayerMetrics(const LayerSnapshot& before, const LayerSnapshot& after,
                     const PhaseWork& work, Metrics* out) {
  const st::Snapshot d = st::Delta(after.stats, before.stats);
  SpanTotals sp;
  for (size_t i = 0; i < kNumSpans; ++i) {
    sp.ticks[i] = after.spans.ticks[i] - before.spans.ticks[i];
    sp.count[i] = after.spans.count[i] - before.spans.count[i];
  }
  auto c = [&](st::Counter counter) { return static_cast<double>(d.counter(counter)); };
  const double txs = c(st::Counter::kTxCommit) + c(st::Counter::kTxAbort);
  const double runs = static_cast<double>(sp.Count(Span::kTxRun));
  const double ops = static_cast<double>(work.ops);
  const double copies = static_cast<double>(work.copies);
  const double fences = static_cast<double>(after.persist.fences - before.persist.fences);
  const double flush_calls =
      static_cast<double>(after.persist.flush_calls - before.persist.flush_calls);
  const double lines =
      static_cast<double>(after.persist.flushed_lines - before.persist.flushed_lines);
  Metrics& m = *out;

  // tx
  const uint64_t body = sp.Ticks(Span::kTxBody);
  m["tx.commit_us"] = Ratio(TicksToUs(sp.Ticks(Span::kTxRun) - body), runs);
  m["tx.log_us"] = Ratio(TicksToUs(sp.Ticks(Span::kTxLog)), runs);
  m["tx.log_calls_per_tx"] = Ratio(static_cast<double>(sp.Count(Span::kTxLog)), runs);
  m["tx.undo_entries_per_tx"] = Ratio(c(st::Counter::kUndoAppend), txs);
  m["tx.undo_elided_per_tx"] = Ratio(c(st::Counter::kUndoElided), txs);
  m["tx.redo_entries_per_tx"] = Ratio(c(st::Counter::kRedoAppend), txs);
  m["tx.log_bytes_per_tx"] = Ratio(c(st::Counter::kLogBytes), txs);
  m["tx.log_chains"] = c(st::Counter::kLogChain);
  m["tx.aborts_per_ktx"] = Ratio(1000 * c(st::Counter::kTxAbort), c(st::Counter::kTxBegin));

  // pmem
  m["pmem.fences_per_tx"] = Ratio(fences, txs);
  m["pmem.flush_calls_per_tx"] = Ratio(flush_calls, txs);
  m["pmem.lines_flushed_per_tx"] = Ratio(lines, txs);
  m["pmem.dedup_ratio"] =
      Ratio(c(st::Counter::kFlushLinesPublished), c(st::Counter::kFlushLinesStaged));
  m["pmem.write_amp"] = Ratio(lines * 64, static_cast<double>(work.user_bytes));
  const st::Histogram& publish = d.hist(st::Hist::kFlushPublishTicks);
  m["pmem.publish_p50_us"] = PercentileUs(publish, 50);
  m["pmem.publish_p99_us"] = PercentileUs(publish, 99);

  // alloc
  m["alloc.alloc_us"] = sp.MeanUs(Span::kAlloc);
  m["alloc.free_us"] = sp.MeanUs(Span::kFree);
  m["alloc.arena_hit_ratio"] =
      Ratio(c(st::Counter::kArenaAlloc), static_cast<double>(sp.Count(Span::kAlloc)));
  m["alloc.refill_slabs_per_kop"] = Ratio(1000 * c(st::Counter::kArenaRefillSlabs), ops);
  m["alloc.flush_slabs_per_kop"] = Ratio(1000 * c(st::Counter::kArenaFlushSlabs), ops);
  m["alloc.remote_frees_per_kop"] = Ratio(1000 * c(st::Counter::kArenaRemoteFree), ops);
  m["alloc.slab_carves_per_kop"] = Ratio(1000 * c(st::Counter::kSlabCarve), ops);

  // epoch
  m["epoch.sync_us"] = sp.MeanUs(Span::kEpochSync);
  m["epoch.txs_per_epoch"] = Ratio(c(st::Counter::kEpochTxs), c(st::Counter::kEpochAdvanced));
  m["epoch.publish_waits_per_ktx"] = Ratio(1000 * c(st::Counter::kEpochPublishWaits), txs);
  m["epoch.sync_waits_per_ktx"] = Ratio(1000 * c(st::Counter::kEpochSyncWaits), txs);
  m["epoch.sync_wait_p99_us"] = PercentileUs(d.hist(st::Hist::kEpochSyncWaitTicks), 99);

  // daemon + ipc
  const st::Histogram& service = d.hist(st::Hist::kDaemonServiceTicks);
  m["daemon.import_ms"] = sp.MeanUs(Span::kDaemonImport) / 1e3;
  m["daemon.requests_per_copy"] = Ratio(c(st::Counter::kDaemonRequest), copies);
  m["daemon.service_p50_us"] = PercentileUs(service, 50);
  m["ipc.rtt_us"] = IpcRttUs(before, after);

  // libpuddles
  m["libpuddles.open_ms"] = sp.MeanUs(Span::kLibOpen) / 1e3;
  m["libpuddles.walk_ms"] = sp.MeanUs(Span::kLibWalk) / 1e3;
  m["libpuddles.pointers_rewritten_per_copy"] = Ratio(
      static_cast<double>(after.runtime.pointers_rewritten - before.runtime.pointers_rewritten),
      copies);
  m["libpuddles.puddles_mapped_per_copy"] = Ratio(
      static_cast<double>(after.runtime.puddles_mapped - before.runtime.puddles_mapped), copies);
  m["libpuddles.members_relocated_per_copy"] =
      Ratio(static_cast<double>(work.members_relocated), copies);

  // workloads: callback time outside the tx and alloc spans.
  const uint64_t inner =
      sp.Ticks(Span::kTxLog) + sp.Ticks(Span::kAlloc) + sp.Ticks(Span::kFree);
  m["workloads.body_self_us"] = Ratio(TicksToUs(body > inner ? body - inner : 0), runs);

  // trace
  uint64_t op_ticks = 0;
  for (size_t i = 0; i < kNumSpans; ++i) {
    if (IsTopLevel(static_cast<Span>(i))) {
      op_ticks += sp.ticks[i];
    }
  }
  m["trace.coverage"] =
      Ratio(static_cast<double>(op_ticks),
            static_cast<double>(work.wall_ticks) * static_cast<double>(work.threads));
}

void MeasureSetup(const Args& args, int reps, const std::function<void()>& set_up,
                  const std::function<void()>& tear_down, Report* report) {
  SetTracing(args.trace);
  const LayerSnapshot before = LayerSnapshot::Take(nullptr);
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) {
    const uint64_t t0 = st::NowTicks();
    set_up();
    seconds.push_back(TicksToSeconds(st::NowTicks() - t0));
    if (rep != reps - 1) {
      tear_down();
    }
  }
  SetTracing(false);
  report->metrics["setup_s"] = Median(seconds);
  if (args.trace) {
    report->metrics["ipc.setup_rtt_us"] = IpcRttUs(before, LayerSnapshot::Take(nullptr));
  }
}

void MeasurePhases(const Args& args, puddles::Runtime* runtime,
                   const std::function<PhaseWork(double seconds)>& run, Report* report) {
  auto throughput = [](const PhaseWork& w) {
    return w.wall_ticks == 0 ? 0.0 : static_cast<double>(w.ops) / TicksToSeconds(w.wall_ticks);
  };
  // Untraced: kSlices equal slices, median throughput. Traced: half the
  // slices untraced, then one traced phase as long as those together.
  const int untraced_slices = args.trace ? kSlices / 2 : kSlices;
  std::vector<double> slices;
  for (int i = 0; i < untraced_slices; ++i) {
    slices.push_back(throughput(run(args.seconds / kSlices)));
  }
  report->metrics["throughput_ops_s"] = Median(slices);
  if (!args.trace) {
    return;
  }
  ResetTraces();
  SetTracing(true);
  const LayerSnapshot before = LayerSnapshot::Take(runtime);
  const PhaseWork traced = run(args.seconds / 2);
  SetTracing(false);
  const LayerSnapshot after = LayerSnapshot::Take(runtime);
  AddLayerMetrics(before, after, traced, &report->metrics);
  report->metrics["trace.overhead"] = Ratio(throughput(traced), Median(slices));
}

namespace {

// Every client call into the daemon, timed as one ipc.call span.
class TimedClient : public puddled::DaemonClient {
 public:
  explicit TimedClient(std::unique_ptr<puddled::DaemonClient> inner) : inner_(std::move(inner)) {}

  puddles::Status Ping() override {
    ScopedSpan s(Span::kIpcCall);
    return inner_->Ping();
  }
  puddles::Result<std::pair<puddled::PuddleInfo, int>> CreatePuddle(puddled::PuddleKind kind,
                                                                    size_t heap_size,
                                                                    const puddles::Uuid& pool,
                                                                    uint32_t mode) override {
    ScopedSpan s(Span::kIpcCall);
    return inner_->CreatePuddle(kind, heap_size, pool, mode);
  }
  puddles::Result<std::pair<puddled::PuddleInfo, int>> GetPuddle(const puddles::Uuid& uuid,
                                                                 bool write) override {
    ScopedSpan s(Span::kIpcCall);
    return inner_->GetPuddle(uuid, write);
  }
  puddles::Result<puddled::PuddleInfo> StatPuddle(const puddles::Uuid& uuid) override {
    ScopedSpan s(Span::kIpcCall);
    return inner_->StatPuddle(uuid);
  }
  puddles::Result<puddled::PuddleInfo> FindPuddleByAddr(uint64_t addr) override {
    ScopedSpan s(Span::kIpcCall);
    return inner_->FindPuddleByAddr(addr);
  }
  puddles::Status DeletePuddle(const puddles::Uuid& uuid) override {
    ScopedSpan s(Span::kIpcCall);
    return inner_->DeletePuddle(uuid);
  }
  puddles::Result<puddled::PoolInfo> CreatePool(const std::string& name, uint32_t mode) override {
    ScopedSpan s(Span::kIpcCall);
    return inner_->CreatePool(name, mode);
  }
  puddles::Result<puddled::PoolInfo> OpenPool(const std::string& name) override {
    ScopedSpan s(Span::kIpcCall);
    return inner_->OpenPool(name);
  }
  puddles::Status RegisterLogSpace(const puddles::Uuid& uuid) override {
    ScopedSpan s(Span::kIpcCall);
    return inner_->RegisterLogSpace(uuid);
  }
  puddles::Status RegisterPtrMap(const puddled::PtrMapRecord& record) override {
    ScopedSpan s(Span::kIpcCall);
    return inner_->RegisterPtrMap(record);
  }
  puddles::Result<puddled::PtrMapRecord> GetPtrMap(uint64_t type_id) override {
    ScopedSpan s(Span::kIpcCall);
    return inner_->GetPtrMap(type_id);
  }
  puddles::Status CompleteRewrite(const puddles::Uuid& uuid) override {
    ScopedSpan s(Span::kIpcCall);
    return inner_->CompleteRewrite(uuid);
  }
  puddles::Status ExportPool(const std::string& name, const std::string& dest) override {
    ScopedSpan s(Span::kIpcCall);
    return inner_->ExportPool(name, dest);
  }
  puddles::Result<puddled::ImportResult> ImportPool(const std::string& src,
                                                    const std::string& new_name,
                                                    uint32_t mode) override {
    ScopedSpan s(Span::kIpcCall);
    return inner_->ImportPool(src, new_name, mode);
  }
  puddles::Result<puddled::StatsReport> FetchStats() override {
    ScopedSpan s(Span::kIpcCall);
    return inner_->FetchStats();
  }

 private:
  std::unique_ptr<puddled::DaemonClient> inner_;
};

}  // namespace

void Stack::Connect(const std::filesystem::path& root) {
  auto server = puddled::Server::Start(daemon.get(), (root / "puddled.sock").string());
  PERFBENCH_CHECK_OK(server);
  this->server = std::move(*server);
  auto client = puddled::SocketDaemonClient::Connect(this->server->socket_path());
  PERFBENCH_CHECK_OK(client);
  auto created = puddles::Runtime::Create(std::make_shared<TimedClient>(std::move(*client)));
  PERFBENCH_CHECK_OK(created);
  runtime = std::move(*created);
}

Stack Stack::Start(const std::filesystem::path& root) {
  Stack s;
  auto daemon = puddled::Daemon::Start({.root_dir = root.string()});
  PERFBENCH_CHECK_OK(daemon);
  s.daemon = std::move(*daemon);
  s.Connect(root);
  return s;
}

Stack Stack::Create(const std::filesystem::path& root, const std::string& pool_name) {
  Stack s = Start(root);
  auto pool = s.runtime->CreatePool(pool_name);
  PERFBENCH_CHECK_OK(pool);
  s.pool = *pool;
  return s;
}

Stack Stack::Recover(const std::filesystem::path& root, const std::string& pool_name,
                     Report* report) {
  Stack s;
  {
    ScopedSpan span(Span::kDaemonStart);
    auto daemon = puddled::Daemon::Start({.root_dir = root.string(), .run_recovery = false});
    PERFBENCH_CHECK_OK(daemon);
    s.daemon = std::move(*daemon);
  }
  const uint64_t t0 = st::NowTicks();
  auto recovery = [&] {
    ScopedSpan span(Span::kDaemonRecovery);
    return s.daemon->RunRecovery();
  }();
  const uint64_t t1 = st::NowTicks();
  report->Check("recovery.daemon_recovered", recovery.ok());
  if (recovery.ok()) {
    report->metrics["daemon.recovery_s"] = TicksToSeconds(t1 - t0);
    report->metrics["daemon.logs_replayed"] = static_cast<double>(recovery->logs_replayed);
    report->metrics["daemon.entries_applied"] = static_cast<double>(recovery->entries_applied);
    report->metrics["daemon.logs_gated"] = static_cast<double>(recovery->logs_gated_retired);
  }
  auto runtime = puddles::Runtime::Create(
      std::make_shared<puddled::EmbeddedDaemonClient>(s.daemon.get()));
  PERFBENCH_CHECK_OK(runtime);
  s.runtime = std::move(*runtime);
  if (!pool_name.empty()) {
    const uint64_t t2 = st::NowTicks();
    auto pool = [&] {
      ScopedSpan span(Span::kLibOpen);
      return s.runtime->OpenPool(pool_name);
    }();
    report->metrics["libpuddles.open_ms"] = TicksToUs(st::NowTicks() - t2) / 1e3;
    PERFBENCH_CHECK_OK(pool);
    s.pool = *pool;
  }
  return s;
}

void SliceLatency::Add(const st::Histogram& slice) {
  pooled.Merge(slice);
  every_slice_full = every_slice_full && slice.count() >= kMinSliceSamples;
  p50.push_back(PercentileUs(slice, 50));
  p99.push_back(PercentileUs(slice, 99));
}

void SliceLatency::ReportTo(const std::string& prefix, Metrics* out) const {
  (*out)[prefix + "_p50_us"] = every_slice_full ? Median(p50) : PercentileUs(pooled, 50);
  (*out)[prefix + "_p99_us"] = every_slice_full ? Median(p99) : PercentileUs(pooled, 99);
}

double PeakRssMb() {
  // VmHWM: this process's resident high-water mark.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t PuddleFileBytes(const std::filesystem::path& root) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(root, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".pud") {
      total += entry.file_size();
    }
  }
  return total;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace perfbench
