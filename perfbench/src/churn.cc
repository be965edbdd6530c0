// churn / churn-epoch: min(nproc - 1, 4) client threads (at least one) on one
// shared pool in arena allocation mode. Thread t owns lane t, a FIFO ring of
// 64-byte records in the pool; every transaction inserts a fresh record
// (tx.Alloc) or deletes the oldest (tx.Free) while the lane's live set stays
// within a narrow band around its preloaded size. churn commits with
// immediate durability; churn-epoch runs the same stream under epoch
// durability and acknowledges a batch of commits when the Pool::Sync after it
// returns.
//
// After the measured phase the workload process is killed mid-stream; the
// parent recovers (daemon start, RunRecovery, OpenPool, RecoverArenas) and
// rebuilds each lane from the seed and the acknowledged op count.
#include <condition_variable>
#include <mutex>
#include <thread>

#include "perfbench/src/harness.h"
#include "src/common/rng.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace st = puddles::stats;

constexpr uint64_t kLiveObjects = 131072;  // Across all lanes.
constexpr uint64_t kBand = 64;             // Live set per lane stays within ±kBand.
constexpr uint64_t kPreloadBatch = 64;     // Inserts per set-up transaction.
constexpr uint64_t kSyncBatch = 8;         // Epoch mode: commits per Pool::Sync.
constexpr int kSetupReps = 5;
// Payload bytes an op stores: record + slot + two lane words / slot + two.
constexpr uint64_t kInsertBytes = 64 + 8 + 16;
constexpr uint64_t kDeleteBytes = 8 + 16;

struct Record {
  uint64_t key;
  uint64_t check;
  uint64_t payload[6];
};
static_assert(sizeof(Record) == 64);

struct Slots {
  Record* r[1];  // Variable length: Lane::capacity entries.
};

// One cache line per lane, so lanes of different threads never share one.
struct Lane {
  Slots* slots;
  uint64_t head;  // Deletes so far (the oldest live record's sequence number).
  uint64_t tail;  // Inserts so far, preload included.
  uint64_t size;
  uint64_t capacity;
  uint64_t pad[3];
};
static_assert(sizeof(Lane) == 64);

struct ChurnRoot {
  Lane* lanes[kMaxThreads];
};

void RegisterTypes() {
  TracedAdapter::RegisterType<Record>();
  TracedAdapter::RegisterType<Slots>(&Slots::r);
  TracedAdapter::RegisterType<Lane>(&Lane::slots);
  TracedAdapter::RegisterType<ChurnRoot>(&ChurnRoot::lanes);
}

// The op stream of one lane: a function of the seed, the lane and the ops
// applied so far, so the parent can replay it after the kill.
class LaneStream {
 public:
  LaneStream(uint64_t seed, int lane, uint64_t live)
      : rng_(Mix64(seed) ^ (static_cast<uint64_t>(lane) + 1) * 0x9e3779b97f4a7c15ULL),
        live_(live),
        tail_(live) {}

  bool NextIsInsert() {
    const bool coin = (rng_() & 1) != 0;
    const uint64_t size = tail_ - head_;
    const bool insert = size <= live_ - kBand ? true : size >= live_ + kBand ? false : coin;
    insert ? ++tail_ : ++head_;
    return insert;
  }
  uint64_t head() const { return head_; }
  uint64_t tail() const { return tail_; }

 private:
  puddles::Xoshiro256 rng_;
  uint64_t live_;
  uint64_t head_ = 0;
  uint64_t tail_;
};

// One vCPU is left to the epoch advancer (churn-epoch) and the daemon, so
// the clients never share a vCPU with the thread they wait on; churn uses
// the same count so the two workloads differ only in durability mode.
int ClientThreads() {
  const int vcpus = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(vcpus - 1, 1, 4);
}

uint64_t RecordKey(int lane, uint64_t seq) { return (static_cast<uint64_t>(lane) << 48) | seq; }

class Churn : public Workload {
 public:
  Churn(const Args& args, Progress* progress, bool epoch)
      : args_(args),
        progress_(progress),
        epoch_(epoch),
        threads_(ClientThreads()),
        live_(kLiveObjects / static_cast<uint64_t>(threads_)),
        capacity_(live_ + 2 * kBand + 2),
        root_(args.out_dir / "data" / "churn") {}

  ~Churn() override { StopWorkers(); }

  void Measure(Report* report) override {
    RegisterTypes();
    MeasureSetup(
        args_, kSetupReps, [&] { SetUp(); },
        [&] {
          StopWorkers();
          stack_.Stop();
          fs::remove_all(root_);
        },
        report);
    MeasurePhases(
        args_, stack_.runtime.get(),
        [&](double seconds) { return RunPhase(seconds, report); }, report);
    write_latency_.ReportTo("write", &report->metrics);
  }

  void Continue() override {
    // Be a few milliseconds into the streams when the kill comes.
    Command(0);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    progress_->kill_ready.store(true);
  }

  void Recover(Report* report, bool check_outputs) override {
    RegisterTypes();
    const uint64_t t0 = st::NowTicks();
    Stack stack = Stack::Recover(root_, "churn", report);
    const uint64_t t_gc = st::NowTicks();
    auto gc = [&] {
      ScopedSpan span(Span::kAllocGc);
      return stack.pool->RecoverArenas();
    }();
    const uint64_t t_gc_end = st::NowTicks();
    auto root = stack.pool->Root<ChurnRoot>();
    const bool readable = root.ok() && *root != nullptr;
    report->metrics["recover_s"] = TicksToSeconds(st::NowTicks() - t0);
    report->Check("recovery.arena_gc_ok", gc.ok());
    report->Check("recovery.root_readable", readable);
    if (gc.ok()) {
      report->metrics["alloc.gc_s"] = TicksToSeconds(t_gc_end - t_gc);
      report->metrics["alloc.gc_slabs"] = static_cast<double>(gc->slabs_scanned);
      report->metrics["alloc.gc_reclaimed"] = static_cast<double>(gc->slots_reclaimed);
    }
    if (!readable || !check_outputs) {
      return;
    }

    uint64_t live_records = 0;
    for (int t = 0; t < threads_; ++t) {
      live_records += CheckLane(t, (*root)->lanes[t], report);
    }
    auto again = stack.pool->RecoverArenas();
    report->Check("recovery.second_gc_reclaims_nothing",
                  again.ok() && again->slots_reclaimed == 0);
    report->metrics["space_amp"] =
        static_cast<double>(PuddleFileBytes(root_)) /
        static_cast<double>(std::max<uint64_t>(1, live_records) * sizeof(Record));
  }

 private:
  struct Worker {
    int lane = 0;
    Lane* pm = nullptr;
    std::unique_ptr<LaneStream> stream;
    uint64_t ops = 0;  // Stream ops begun (== acknowledged at phase end).
    // Per phase:
    st::Histogram writes;
    uint64_t acked = 0;
    uint64_t failures = 0;
    uint64_t user_bytes = 0;
    uint64_t end_ticks = 0;
    std::thread thread;
  };

  void SetUp() {
    stack_ = Stack::Create(root_, "churn");
    PERFBENCH_CHECK_OK(stack_.pool->SetAllocMode(puddles::AllocMode::kArena));
    if (epoch_) {
      PERFBENCH_CHECK_OK(stack_.pool->SetDurability(puddles::Durability::kEpoch));
    }
    TracedAdapter adapter(stack_.pool);
    ChurnRoot* root_obj = nullptr;
    PERFBENCH_CHECK_OK(adapter.TxRun([&](TracedAdapter::TxCtx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(root_obj, tx.Alloc<ChurnRoot>());
      *root_obj = ChurnRoot{};
      return adapter.SetRoot(root_obj);
    }));
    for (int t = 0; t < threads_; ++t) {
      PERFBENCH_CHECK_OK(adapter.TxRun([&](TracedAdapter::TxCtx& tx) -> puddles::Status {
        ASSIGN_OR_RETURN(Lane * lane, tx.Alloc<Lane>());
        ASSIGN_OR_RETURN(Slots * slots, tx.Alloc<Slots>(capacity_));
        for (uint64_t i = 0; i < capacity_; ++i) {
          slots->r[i] = nullptr;
        }
        *lane = Lane{slots, 0, 0, 0, capacity_, {}};
        RETURN_IF_ERROR(tx.LogField(root_obj, &ChurnRoot::lanes));
        root_obj->lanes[t] = lane;
        return puddles::OkStatus();
      }));
    }
    if (epoch_) {
      stack_.pool->Sync();
    }
    // Each worker preloads its own lane, so the records sit in its arenas.
    generation_ = 0;
    done_ = 0;
    workers_.clear();
    for (int t = 0; t < threads_; ++t) {
      auto w = std::make_unique<Worker>();
      w->lane = t;
      w->pm = root_obj->lanes[t];
      w->stream = std::make_unique<LaneStream>(args_.seed, t, live_);
      workers_.push_back(std::move(w));
    }
    for (auto& w : workers_) {
      w->thread = std::thread([this, worker = w.get()] { WorkerMain(worker); });
    }
    WaitDone();
  }

  // ---- Worker crew: the main thread posts a command, workers run it. ----

  // Runs one phase on every worker; seconds == 0 runs until the kill.
  void Command(double seconds) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      phase_seconds_ = seconds;
      phase_start_ = st::NowTicks();
      done_ = 0;
      ++generation_;
    }
    cv_.notify_all();
    if (seconds > 0) {
      WaitDone();
    }
  }

  void WaitDone() {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return done_ == threads_; });
  }

  void StopWorkers() {
    if (workers_.empty()) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      ++generation_;
    }
    cv_.notify_all();
    for (auto& w : workers_) {
      w->thread.join();
    }
    workers_.clear();
    stop_ = false;
  }

  void WorkerMain(Worker* w) {
    Preload(w);
    uint64_t seen = 0;
    for (;;) {
      double seconds;
      {
        std::unique_lock<std::mutex> lock(mu_);
        ++done_;
        done_cv_.notify_all();
        cv_.wait(lock, [&] { return generation_ != seen; });
        seen = generation_;
        if (stop_) {
          return;
        }
        seconds = phase_seconds_;
      }
      RunOps(w, seconds);
    }
  }

  void Preload(Worker* w) {
    TracedAdapter adapter(stack_.pool);
    for (uint64_t seq = 0; seq < live_;) {
      const uint64_t end = std::min(live_, seq + kPreloadBatch);
      PERFBENCH_CHECK_OK(adapter.TxRun([&](TracedAdapter::TxCtx& tx) -> puddles::Status {
        for (uint64_t s = seq; s < end; ++s) {
          RETURN_IF_ERROR(InsertIn(tx, w, s));
        }
        RETURN_IF_ERROR(tx.LogRange(&w->pm->tail, 2 * sizeof(uint64_t)));
        w->pm->tail = end;
        w->pm->size = end - w->pm->head;
        return puddles::OkStatus();
      }));
      seq = end;
    }
    if (epoch_) {
      stack_.pool->Sync();
    }
  }

  // Allocates record `seq` and links it into its ring slot (lane words are
  // the caller's).
  puddles::Status InsertIn(TracedAdapter::TxCtx& tx, Worker* w, uint64_t seq) {
    ASSIGN_OR_RETURN(Record * r, tx.Alloc<Record>());
    r->key = RecordKey(w->lane, seq);
    r->check = Mix64(r->key ^ args_.seed);
    for (uint64_t& word : r->payload) {
      word = r->check;
    }
    Record** slot = &w->pm->slots->r[seq % capacity_];
    RETURN_IF_ERROR(tx.LogRange(slot, sizeof(*slot)));
    *slot = r;
    return puddles::OkStatus();
  }

  puddles::Status Insert(TracedAdapter& adapter, Worker* w) {
    ScopedSpan span(Span::kOpInsert);
    return adapter.TxRun([&](TracedAdapter::TxCtx& tx) -> puddles::Status {
      RETURN_IF_ERROR(InsertIn(tx, w, w->pm->tail));
      RETURN_IF_ERROR(tx.LogRange(&w->pm->tail, 2 * sizeof(uint64_t)));
      w->pm->tail++;
      w->pm->size++;
      return puddles::OkStatus();
    });
  }

  puddles::Status Delete(TracedAdapter& adapter, Worker* w) {
    ScopedSpan span(Span::kOpDelete);
    return adapter.TxRun([&](TracedAdapter::TxCtx& tx) -> puddles::Status {
      Lane* lane = w->pm;
      Record** slot = &lane->slots->r[lane->head % capacity_];
      Record* victim = *slot;
      RETURN_IF_ERROR(tx.LogRange(slot, sizeof(*slot)));
      *slot = nullptr;
      RETURN_IF_ERROR(tx.LogField(lane, &Lane::head));
      lane->head++;
      RETURN_IF_ERROR(tx.LogField(lane, &Lane::size));
      lane->size--;
      return tx.Free(victim);
    });
  }

  // One phase of one worker: ops until the deadline (or forever), every op
  // acknowledged before it returns.
  void RunOps(Worker* w, double seconds) {
    TracedAdapter adapter(stack_.pool);
    w->writes.Reset();
    w->acked = w->failures = w->user_bytes = 0;
    const bool forever = seconds == 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::duration<double>(forever ? 0 : seconds);
    std::atomic<uint64_t>& started = progress_->started[w->lane];
    std::atomic<uint64_t>& acked = progress_->acked[w->lane];
    uint64_t batch_start[kSyncBatch];
    uint64_t batch = 0;
    auto acknowledge = [&] {
      if (epoch_ && batch > 0) {
        {
          ScopedSpan span(Span::kEpochSync);
          stack_.pool->Sync();
        }
        const uint64_t now = st::NowTicks();
        for (uint64_t i = 0; i < batch; ++i) {
          w->writes.Record(now - batch_start[i]);
        }
        w->acked += batch;
        batch = 0;
        acked.store(w->ops, std::memory_order_relaxed);
      }
    };
    for (;;) {
      if (!forever && batch == 0 && std::chrono::steady_clock::now() >= deadline) {
        break;
      }
      started.store(w->ops + 1, std::memory_order_relaxed);
      BeginOp();
      const uint64_t t0 = st::NowTicks();
      const bool insert = w->stream->NextIsInsert();
      const puddles::Status status = insert ? Insert(adapter, w) : Delete(adapter, w);
      ++w->ops;
      if (!status.ok()) {
        ++w->failures;
      }
      w->user_bytes += insert ? kInsertBytes : kDeleteBytes;
      if (epoch_) {
        batch_start[batch++] = t0;
        if (batch == kSyncBatch || (!forever && std::chrono::steady_clock::now() >= deadline)) {
          acknowledge();
        }
      } else {
        w->writes.Record(st::NowTicks() - t0);
        ++w->acked;
        acked.store(w->ops, std::memory_order_relaxed);
      }
    }
    w->end_ticks = st::NowTicks();
  }

  PhaseWork RunPhase(double seconds, Report* report) {
    Command(seconds);
    PhaseWork work;
    work.threads = threads_;
    uint64_t end = phase_start_;
    uint64_t failures = 0;
    st::Histogram writes;
    for (const auto& w : workers_) {
      writes.Merge(w->writes);
      work.ops += w->acked;
      work.user_bytes += w->user_bytes;
      failures += w->failures;
      end = std::max(end, w->end_ticks);
    }
    work.wall_ticks = end - phase_start_;
    write_latency_.Add(writes);
    report->Count("ops.ok", work.ops, failures);
    return work;
  }

  // Checks lane t against the model replayed to the op count the recovered
  // lane shows; returns its live record count.
  uint64_t CheckLane(int t, const Lane* lane, Report* report) {
    if (lane == nullptr || lane->capacity != capacity_) {
      report->Check("recovery.lane_matches_model", false);
      return 0;
    }
    const uint64_t ops = lane->head + lane->tail - live_;
    const uint64_t acked = progress_->acked[t].load();
    const uint64_t started = progress_->started[t].load();
    // Every acknowledged op survived; nothing that never started did.
    report->Check("recovery.acked_ops_durable", ops >= acked);
    report->Check("recovery.no_unstarted_ops", ops <= started);
    LaneStream model(args_.seed, t, live_);
    for (uint64_t i = 0; i < ops && i <= started; ++i) {
      model.NextIsInsert();
    }
    report->Check("recovery.lane_matches_model",
                  model.head() == lane->head && model.tail() == lane->tail);
    // The size field equals the count of reachable records, and every live
    // slot holds the record the model put there.
    uint64_t reachable = 0, intact = 0;
    for (uint64_t i = 0; i < capacity_; ++i) {
      reachable += lane->slots->r[i] != nullptr ? 1 : 0;
    }
    for (uint64_t seq = lane->head; seq < lane->tail; ++seq) {
      const Record* r = lane->slots->r[seq % capacity_];
      const uint64_t key = RecordKey(t, seq);
      intact += r != nullptr && r->key == key && r->check == Mix64(key ^ args_.seed) &&
                        r->payload[5] == r->check
                    ? 1
                    : 0;
    }
    const uint64_t live = lane->tail - lane->head;
    report->Check("recovery.size_matches_reachable", lane->size == live && reachable == live);
    report->Count("recovery.records_intact", live, live - intact);
    return live;
  }

  const Args args_;
  Progress* progress_;
  const bool epoch_;
  const int threads_;
  const uint64_t live_;      // Preloaded (and target) records per lane.
  const uint64_t capacity_;  // Ring slots per lane.
  const fs::path root_;
  Stack stack_;
  SliceLatency write_latency_;

  std::mutex mu_;
  std::condition_variable cv_;       // Workers wait for a new generation.
  std::condition_variable done_cv_;  // Main waits for every worker's phase.
  uint64_t generation_ = 0;          // Guarded by mu_.
  int done_ = 0;                     // Guarded by mu_.
  bool stop_ = false;                // Guarded by mu_.
  double phase_seconds_ = 0;         // Guarded by mu_.
  uint64_t phase_start_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;  // Threads last: join before the rest dies.
};

}  // namespace

std::unique_ptr<Workload> MakeChurn(const Args& args, Progress* progress, bool epoch) {
  return std::make_unique<Churn>(args, progress, epoch);
}

}  // namespace perfbench
