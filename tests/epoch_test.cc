// Epoch-based group commit (src/epoch; docs/epoch.md) on the full stack:
// durability modes, sync-before-ack, the bounded buffered window, shutdown
// drain, mode switching, an 8-thread cross-epoch commit storm, cross-epoch
// replay order, and the handoff wait primitive (parking under a one-CPU
// affinity set; publication durable before the ticket returns). The
// threaded tests run under the CI ThreadSanitizer job (`ctest -L
// concurrency`); the crash-atomicity half of the contract — an epoch torn by
// power failure rolls back whole, never a prefix — is crashsim's job
// (tests/crashsim_test.cc, `epoch` workload).
#include <gtest/gtest.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/align.h"
#include "src/daemon/client.h"
#include "src/daemon/daemon.h"
#include "src/libpuddles/libpuddles.h"
#include "src/pmem/flush.h"
#include "src/stats/stats.h"

namespace puddles {
namespace {

namespace fs = std::filesystem;

constexpr int kThreads = 8;
constexpr uint64_t kCellsPerThread = 512;
constexpr uint64_t kChunk = 64;

struct Shard {
  uint64_t* cells[kThreads];
  uint64_t committed_rounds[kThreads];
};

class EpochTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("epoch_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    (void)TypeRegistry::Instance().Register<Shard>(&Shard::cells);
    Start(/*create=*/true);
  }

  void TearDown() override {
    runtime_.reset();
    daemon_.reset();
    fs::remove_all(dir_);
  }

  void Start(bool create, const std::string& root = "root") {
    auto started = puddled::Daemon::Start({.root_dir = (dir_ / root).string()});
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    daemon_ = std::move(*started);
    auto rt = Runtime::Create(
        std::make_shared<puddled::EmbeddedDaemonClient>(daemon_.get()));
    ASSERT_TRUE(rt.ok()) << rt.status().ToString();
    runtime_ = std::move(*rt);
    auto pool = create ? runtime_->CreatePool("epoch") : runtime_->OpenPool("epoch");
    ASSERT_TRUE(pool.ok()) << pool.status().ToString();
    pool_ = *pool;
  }

  // Daemon restart: recovery runs before any remap. The previous runtime's
  // destructor stops the epoch advancer (draining any open epoch) first.
  void Reopen(const std::string& root = "root") {
    runtime_.reset();
    daemon_.reset();
    Start(/*create=*/false, root);
  }

  Shard* InitShard() {
    Shard* shard = nullptr;
    EXPECT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(shard, tx.Alloc<Shard>());
      for (int t = 0; t < kThreads; ++t) {
        ASSIGN_OR_RETURN(shard->cells[t], tx.Alloc<uint64_t>(kCellsPerThread));
        for (uint64_t i = 0; i < kCellsPerThread; ++i) {
          shard->cells[t][i] = 0;
        }
        shard->committed_rounds[t] = 0;
      }
      return pool_->SetRoot(shard);
    }).ok());
    return shard;
  }

  Shard* Root() {
    auto root = pool_->Root<Shard>();
    EXPECT_TRUE(root.ok()) << root.status().ToString();
    return root.ok() ? *root : nullptr;
  }

  fs::path dir_;
  std::unique_ptr<puddled::Daemon> daemon_;
  std::unique_ptr<Runtime> runtime_;
  Pool* pool_ = nullptr;
};

// One round for thread t: chunk transactions over its slice, each adding
// (t+1), then a committed-rounds bump — the Fig. 12 shape.
void RunRound(Pool& pool, Shard* shard, int t) {
  uint64_t* cells = shard->cells[t];
  for (uint64_t at = 0; at < kCellsPerThread; at += kChunk) {
    ASSERT_TRUE(pool.Run([&](Tx& tx) -> puddles::Status {
      RETURN_IF_ERROR(tx.LogRange(&cells[at], kChunk * sizeof(uint64_t)));
      for (uint64_t i = at; i < at + kChunk; ++i) {
        cells[i] += static_cast<uint64_t>(t) + 1;
      }
      return OkStatus();
    }).ok());
  }
  ASSERT_TRUE(pool.Run([&](Tx& tx) -> puddles::Status {
    RETURN_IF_ERROR(tx.LogRange(&shard->committed_rounds[t], sizeof(uint64_t)));
    shard->committed_rounds[t]++;
    return OkStatus();
  }).ok());
}

void ExpectRound(Shard* shard, int t, uint64_t rounds) {
  ASSERT_NE(shard, nullptr);
  EXPECT_EQ(shard->committed_rounds[t], rounds) << "thread " << t;
  for (uint64_t i = 0; i < kCellsPerThread; ++i) {
    ASSERT_EQ(shard->cells[t][i], rounds * (static_cast<uint64_t>(t) + 1))
        << "thread " << t << " cell " << i;
  }
}

// Sync() must not return before the open epoch is closed and persistently
// retired: afterwards the retirement mirror (and kEpochAdvanced, in telemetry
// builds) has moved and a daemon restart recovers every synced transaction.
TEST_F(EpochTest, SyncRetiresBeforeReturning) {
  Shard* shard = InitShard();
  // A huge window: nothing closes the epoch except the Sync under test.
  EpochOptions options;
  options.max_epoch_age_us = 60 * 1000 * 1000;
  options.max_staged_bytes = 1ULL << 40;
  options.max_epoch_txs = 1ULL << 40;
  ASSERT_TRUE(pool_->SetDurability(Durability::kEpoch, options).ok());

  const uint64_t retired = runtime_->epoch_sys()->retired_epoch();
  const stats::Snapshot before = stats::Aggregate();
  RunRound(*pool_, shard, 0);
  pool_->Sync();
  const stats::Snapshot after = stats::Aggregate();
  EXPECT_GE(runtime_->epoch_sys()->retired_epoch(), retired + 1);
#if PUDDLES_STATS
  EXPECT_GE(after.counter(stats::Counter::kEpochAdvanced),
            before.counter(stats::Counter::kEpochAdvanced) + 1);
  EXPECT_GT(after.counter(stats::Counter::kEpochTxs),
            before.counter(stats::Counter::kEpochTxs));
#else
  (void)before;
  (void)after;
#endif

  Reopen();
  ExpectRound(Root(), 0, 1);
}

// Per-Run sync-on-demand: Run(RunOptions{.sync=true}, fn) is transaction +
// Sync in one call — the "this one must be durable before we ack" idiom.
TEST_F(EpochTest, RunWithSyncOption) {
  Shard* shard = InitShard();
  ASSERT_TRUE(pool_->SetDurability(Durability::kEpoch).ok());
  ASSERT_TRUE(pool_
                  ->Run(RunOptions{.sync = true},
                        [&](Tx& tx) -> puddles::Status {
                          RETURN_IF_ERROR(
                              tx.LogRange(&shard->committed_rounds[1], sizeof(uint64_t)));
                          shard->committed_rounds[1] = 7;
                          return OkStatus();
                        })
                  .ok());
  Reopen();
  Shard* reopened = Root();
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->committed_rounds[1], 7u);
}

// The bounded buffered window: with no Sync at all, the advancer must close
// the epoch on its own once it exceeds max_epoch_age_us.
TEST_F(EpochTest, TimerClosesEpochWithoutSync) {
  Shard* shard = InitShard();
  EpochOptions options;
  options.max_epoch_age_us = 2000;  // 2 ms window.
  ASSERT_TRUE(pool_->SetDurability(Durability::kEpoch, options).ok());

  const uint64_t retired = runtime_->epoch_sys()->retired_epoch();
  RunRound(*pool_, shard, 2);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    if (runtime_->epoch_sys()->retired_epoch() > retired) {
      return;  // Advancer closed the dirty epoch on the age threshold.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  FAIL() << "epoch never closed on the age threshold";
}

// Clean shutdown must drain: committed-but-unsynced transactions survive a
// runtime/daemon restart because the advancer closes the dirty epoch on Stop.
TEST_F(EpochTest, ShutdownDrainsOpenEpoch) {
  Shard* shard = InitShard();
  EpochOptions options;
  options.max_epoch_age_us = 60 * 1000 * 1000;
  options.max_staged_bytes = 1ULL << 40;
  options.max_epoch_txs = 1ULL << 40;
  ASSERT_TRUE(pool_->SetDurability(Durability::kEpoch, options).ok());
  RunRound(*pool_, shard, 3);
  // No Sync: the epoch is still open when the runtime is torn down.
  Reopen();
  ExpectRound(Root(), 3, 1);
}

// Switching back to immediate durability quiesces the thread's epoch port
// (waits out the pending epoch, rearms the log) before the next immediate
// transaction; both modes' writes must survive recovery.
TEST_F(EpochTest, DurabilitySwitchQuiesces) {
  Shard* shard = InitShard();
  ASSERT_TRUE(pool_->SetDurability(Durability::kEpoch).ok());
  RunRound(*pool_, shard, 4);
  pool_->Sync();
  ASSERT_TRUE(pool_->SetDurability(Durability::kImmediate).ok());
  RunRound(*pool_, shard, 4);  // Same slice again, immediate mode.
  ExpectRound(shard, 4, 2);
  Reopen();
  ExpectRound(Root(), 4, 2);
}

// Pools of one runtime share the thread's log target. A Run nested inside an
// epoch-mode Run, on an immediate-mode pool, must be refused before it
// switches that target back to immediate mode: the switch would quiesce the
// very epoch the open transaction is in. The outer transaction commits.
TEST_F(EpochTest, NestedRunLeavesSharedTargetAlone) {
  Shard* shard = InitShard();
  auto immediate = runtime_->CreatePool("immediate");
  ASSERT_TRUE(immediate.ok()) << immediate.status().ToString();
  ASSERT_TRUE(pool_->SetDurability(Durability::kEpoch).ok());
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    RETURN_IF_ERROR(tx.LogRange(&shard->committed_rounds[0], sizeof(uint64_t)));
    shard->committed_rounds[0] = 5;
    puddles::Status inner = (*immediate)->Run([](Tx&) { return OkStatus(); });
    EXPECT_EQ(inner.code(), StatusCode::kFailedPrecondition) << inner.ToString();
    return OkStatus();
  }).ok());
  pool_->Sync();
  Reopen();
  EXPECT_EQ(Root()->committed_rounds[0], 5u);
}

// Aborts in epoch mode roll back in memory immediately and stay rolled back
// across recovery (their undo entries replay idempotently if the epoch was
// not yet retired — never against post-epoch state).
TEST_F(EpochTest, AbortRollsBackInEpochMode) {
  Shard* shard = InitShard();
  ASSERT_TRUE(pool_->SetDurability(Durability::kEpoch).ok());
  RunRound(*pool_, shard, 5);
  auto status = pool_->Run([&](Tx& tx) -> puddles::Status {
    RETURN_IF_ERROR(tx.LogRange(shard->cells[5], kChunk * sizeof(uint64_t)));
    for (uint64_t i = 0; i < kChunk; ++i) {
      shard->cells[5][i] = 0xdead;
    }
    return InternalError("deliberate abort");
  });
  EXPECT_FALSE(status.ok());
  pool_->Sync();
  ExpectRound(shard, 5, 1);
  Reopen();
  ExpectRound(Root(), 5, 1);
}

// The TSan-tier storm: 8 threads commit across many epochs concurrently —
// ports join/leave epochs, splice batches into the advancer, and block on
// publish tickets while the advancer closes epochs under them. One fence per
// epoch must serve every thread: fences/tx stays far below the >= 2 of
// immediate mode, and a restart recovers every round.
TEST_F(EpochTest, EightThreadsAcrossEpochs) {
  Shard* shard = InitShard();
  EpochOptions options;
  options.max_epoch_age_us = 500;  // Many epoch closes during the storm.
  ASSERT_TRUE(pool_->SetDurability(Durability::kEpoch, options).ok());

  constexpr int kRounds = 6;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([this, shard, t] {
      for (int r = 0; r < kRounds; ++r) {
        RunRound(*pool_, shard, t);
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  pool_->Sync();
  for (int t = 0; t < kThreads; ++t) {
    ExpectRound(shard, t, kRounds);
  }
  EXPECT_GT(runtime_->epoch_sys()->retired_epoch(), 0u);
#if PUDDLES_STATS
  const stats::Snapshot snap = stats::Aggregate();
  EXPECT_GT(snap.counter(stats::Counter::kEpochAdvanced), 0u);
  EXPECT_GT(snap.counter(stats::Counter::kEpochTxs),
            snap.counter(stats::Counter::kEpochAdvanced))
      << "group commit amortized nothing: fewer txs than epochs";
#endif

  Reopen();
  for (int t = 0; t < kThreads; ++t) {
    ExpectRound(Root(), t, kRounds);
  }
}

// Replay order across epochs. X (this thread, the lowest log index)
// commits in epoch e; a straggler holds e's close open; Y joins e+1 and
// overwrites the same word, so Y's undo pre-image is X's unretired value. A
// crash image taken now must recover the value from before e, which needs
// Y's chain replayed before X's — newest epoch first.
TEST_F(EpochTest, RecoveryReplaysNewerEpochFirst) {
  Shard* shard = InitShard();
  uint64_t* word = &shard->committed_rounds[6];
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    RETURN_IF_ERROR(tx.LogRange(word, sizeof(uint64_t)));
    *word = 11;  // Durable (immediate mode): the value from before e.
    return OkStatus();
  }).ok());

  EpochOptions options;
  options.max_epoch_age_us = 60 * 1000 * 1000;
  options.max_staged_bytes = 1ULL << 40;
  options.max_epoch_txs = 2;  // X plus the straggler's join closes e.
  ASSERT_TRUE(pool_->SetDurability(Durability::kEpoch, options).ok());
  EpochSys* epochs = runtime_->epoch_sys();
  ASSERT_NE(epochs, nullptr);
  const uint64_t e = epochs->current_epoch();

  auto set_word = [&](uint64_t value) {
    return pool_->Run([&](Tx& tx) -> puddles::Status {
      RETURN_IF_ERROR(tx.LogRange(word, sizeof(uint64_t)));
      *word = value;
      return OkStatus();
    });
  };
  ASSERT_TRUE(set_word(22).ok());  // X, epoch e.

  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::thread straggler([&] {
    EXPECT_TRUE(pool_->Run([&](Tx&) -> puddles::Status {
      entered.store(true);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return OkStatus();
    }).ok());
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((!entered.load() || epochs->current_epoch() != e + 1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(epochs->current_epoch(), e + 1) << "epoch e never started closing";

  std::thread y([&] { EXPECT_TRUE(set_word(33).ok()); });  // Y, epoch e+1.
  y.join();
  EXPECT_LT(epochs->retired_epoch(), e) << "e retired under a straggler";
  // The crash image: every store so far, neither epoch retired.
  fs::copy(dir_ / "root", dir_ / "crash", fs::copy_options::recursive);
  release.store(true);
  straggler.join();

  Reopen("crash");
  Shard* recovered = Root();
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->committed_rounds[6], 11u);
}

// Applies `mask` to every thread of the process (threads created later
// inherit it from their creator).
void SetProcessAffinity(const cpu_set_t& mask) {
  for (const auto& task : fs::directory_iterator("/proc/self/task")) {
    const pid_t tid = static_cast<pid_t>(std::stol(task.path().filename().string()));
    (void)sched_setaffinity(tid, sizeof(mask), &mask);
  }
}

// The CPU rule of the wait primitive: pinned to one CPU, four committing
// threads plus the advancer cannot each own a CPU, so every handoff wait
// must park instead of spinning against the thread it waits for — and the
// run must still finish, with every round recovered.
TEST_F(EpochTest, OneCpuWaitsParkAndFinish) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) {
    ++first;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  SetProcessAffinity(one);

  Shard* shard = InitShard();
  const stats::Snapshot before = stats::Aggregate();
  // A long epoch deadline is a long poll bound: without the CPU rule the
  // waits would spin out their time slices and finish polled, not parked.
  EpochOptions options;
  options.max_epoch_age_us = 60 * 1000 * 1000;
  // The epoch system reads the affinity set when it starts, here.
  ASSERT_TRUE(pool_->SetDurability(Durability::kEpoch, options).ok());
  constexpr int kWorkers = 4;
  constexpr int kRounds = 3;
  std::vector<std::thread> workers;
  for (int t = 0; t < kWorkers; ++t) {
    workers.emplace_back([this, shard, t] {
      for (int r = 0; r < kRounds; ++r) {
        RunRound(*pool_, shard, t);
        pool_->Sync();
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  const stats::Snapshot after = stats::Aggregate();
  SetProcessAffinity(saved);

#if PUDDLES_STATS
  EXPECT_GT(after.counter(stats::Counter::kEpochParkedWaits),
            before.counter(stats::Counter::kEpochParkedWaits))
      << "one CPU for five participants, yet no wait parked";
#else
  (void)before;
  (void)after;
#endif
  Reopen();
  for (int t = 0; t < kWorkers; ++t) {
    ExpectRound(Root(), t, kRounds);
  }
}

// Records, per cache line, the latest flush that a fence on the flushing
// thread has since retired — the fence-retires-own-flushes model. Events
// (flushes and fences) share one sequence, so "flushed after t and fenced"
// is durable_[line] > t.
class PublicationObserver : public pmem::PersistObserver {
 public:
  void OnFlushRange(const void* addr, size_t size) override {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t at = ++events_;
    auto& pending = pending_[std::this_thread::get_id()];
    const uintptr_t start = AlignDown(reinterpret_cast<uintptr_t>(addr), kCacheLineSize);
    for (uintptr_t line = start; line < reinterpret_cast<uintptr_t>(addr) + size;
         line += kCacheLineSize) {
      pending.emplace_back(line, at);
    }
  }

  void OnFence() override {
    std::lock_guard<std::mutex> lock(mu_);
    ++events_;
    auto& pending = pending_[std::this_thread::get_id()];
    for (const auto& [line, at] : pending) {
      durable_[line] = std::max(durable_[line], at);
    }
    pending.clear();
  }

  uint64_t Now() {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

  // Every line of [start, end) flushed after event `since`, then fenced.
  bool DurableSince(uintptr_t start, uintptr_t end, uint64_t since) {
    std::lock_guard<std::mutex> lock(mu_);
    for (uintptr_t line = AlignDown(start, kCacheLineSize); line < end;
         line += kCacheLineSize) {
      auto it = durable_.find(line);
      if (it == durable_.end() || it->second <= since) {
        return false;
      }
    }
    return true;
  }

 private:
  std::mutex mu_;
  uint64_t events_ = 0;
  std::map<std::thread::id, std::vector<std::pair<uintptr_t, uint64_t>>> pending_;
  std::map<uintptr_t, uint64_t> durable_;
};

// Forwards to the real port and checks, when each Publish returns, that the
// lines it published — the log header and every entry byte appended since
// the previous publication — were flushed after the call and fenced.
class CheckedPort : public EpochPort {
 public:
  CheckedPort(std::unique_ptr<EpochPort> inner, LogRegion* log, PublicationObserver* observer,
              std::atomic<int>* violations)
      : inner_(std::move(inner)), log_(log), observer_(observer), violations_(violations) {}

  puddles::Status JoinTx(LogRegion* head, std::vector<LogRegion*>* chain) override {
    puddles::Status joined = inner_->JoinTx(head, chain);
    if (log_->empty()) {
      published_to_ = sizeof(LogHeader);  // Rearmed: entries restart at the header.
    }
    return joined;
  }

  void Publish(pmem::FlushBatch* batch) override {
    const uint64_t since = observer_->Now();
    inner_->Publish(batch);
    const auto base = reinterpret_cast<uintptr_t>(log_->base());
    const uint64_t next_free = log_->capacity() - log_->free_bytes();
    if (!observer_->DurableSince(base, base + sizeof(LogHeader), since) ||
        !observer_->DurableSince(base + published_to_, base + next_free, since)) {
      violations_->fetch_add(1);
    }
    published_to_ = next_free;
  }

  void StageDeferred(pmem::FlushBatch* batch) override { inner_->StageDeferred(batch); }
  void LeaveTx(const std::vector<LogRegion*>& chain) override { inner_->LeaveTx(chain); }
  puddles::Status Quiesce(LogRegion* head) override { return inner_->Quiesce(head); }

 private:
  std::unique_ptr<EpochPort> inner_;
  LogRegion* log_;
  PublicationObserver* observer_;
  std::atomic<int>* violations_;
  uint64_t published_to_ = sizeof(LogHeader);
};

// Undo-before-mutate under the polled handoff: three unpinned threads (each
// with its own participant CPU on a >= 4-CPU host, so the poll path runs)
// undo-log and then store, with Syncs in between; every publication must be
// durable before its ticket returns, i.e. before the caller's store.
TEST(EpochWaitTest, PublicationDurableBeforeTicketReturns) {
  PublicationObserver observer;
  pmem::SetPersistObserver(&observer);
  std::atomic<int> violations{0};
  {
    EpochSys epochs(EpochOptions{}, [](uint64_t) {});
    ASSERT_TRUE(epochs.Start().ok());
    constexpr int kWorkers = 3;
    constexpr int kTxs = 400;
    constexpr size_t kCells = 64;
    std::vector<std::thread> workers;
    for (int t = 0; t < kWorkers; ++t) {
      workers.emplace_back([&] {
        std::vector<uint8_t> log_buffer(1 << 20);
        ASSERT_TRUE(LogRegion::Format(log_buffer.data(), log_buffer.size()).ok());
        auto log = LogRegion::Attach(log_buffer.data(), log_buffer.size());
        ASSERT_TRUE(log.ok());
        LogRegion head = *log;
        CheckedPort port(epochs.CreatePort(nullptr), &head, &observer, &violations);
        TxTarget target;
        target.log = &head;
        target.epoch = &port;
        std::vector<uint64_t> cells(kCells, 0);
        for (int i = 0; i < kTxs; ++i) {
          auto tx = Transaction::Begin(target);
          ASSERT_TRUE(tx.ok()) << tx.status().ToString();
          uint64_t* cell = &cells[static_cast<size_t>(i) % kCells];
          ASSERT_TRUE((*tx)->AddUndo(cell, sizeof(uint64_t)).ok());
          *cell += 1;
          ASSERT_TRUE((*tx)->Commit().ok());
          if (i % 16 == 15) {
            epochs.Sync();
          }
        }
        ASSERT_TRUE(port.Quiesce(&head).ok());
      });
    }
    for (auto& worker : workers) {
      worker.join();
    }
  }
  pmem::SetPersistObserver(nullptr);
  EXPECT_EQ(violations.load(), 0) << "a publication returned before its lines were durable";
}

}  // namespace
}  // namespace puddles
