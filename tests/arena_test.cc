// Per-thread slab arena tests — the concurrency-era allocator tier.
//
// The arena is the allocator's concurrency story: each thread owns slab
// pages with a lock-free local free list (no lock, no undo log on the hot
// path), refilled in batches from the shared heap and flushed back on
// thread exit or imbalance. These tests drive the full lifecycle (refill,
// flush-back, thread-exit orphan handoff, cross-thread free), prove exact
// leak accounting under an 8-thread malloc/free storm, and exercise the
// recovery-time GC that reclaims leaked in-flight blocks. The CI TSan job
// builds and runs this binary (`ctest -L concurrency`).
//
// Arena telemetry counters compile out under -DPUDDLES_STATS=OFF, so every
// assertion on a counter delta sits under `if (PUDDLES_STATS)`: the default
// build checks them, the telemetry-free build runs everything else.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <thread>
#include <vector>

#include "src/alloc/arena.h"
#include "src/daemon/client.h"
#include "src/daemon/daemon.h"
#include "src/libpuddles/libpuddles.h"
#include "src/stats/stats.h"

namespace puddles {
namespace {

namespace fs = std::filesystem;

constexpr int kStormThreads = 8;
constexpr int kStormRounds = 6;
constexpr int kStormBatch = 16;  // Allocations per round; all but one freed.

// 40 bytes + 16-byte header = 56 → the 64-byte slab class. No pointer
// fields, so reachability counts it without walking it.
struct Node {
  uint64_t value;
  uint64_t pad[4];
};

// One published slot per (thread, round); the pointer array registers as a
// repeat region so ReachableObjects() walks every slot.
struct ArenaRoot {
  Node* slots[kStormThreads * kStormRounds];
};

class ArenaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("arena_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    (void)TypeRegistry::Instance().Register<ArenaRoot>(&ArenaRoot::slots);
    Start(/*create=*/true);
  }

  void TearDown() override {
    runtime_.reset();
    daemon_.reset();
    fs::remove_all(dir_);
  }

  void Start(bool create) {
    auto started = puddled::Daemon::Start({.root_dir = (dir_ / "root").string()});
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    daemon_ = std::move(*started);
    auto rt = Runtime::Create(
        std::make_shared<puddled::EmbeddedDaemonClient>(daemon_.get()));
    ASSERT_TRUE(rt.ok()) << rt.status().ToString();
    runtime_ = std::move(*rt);
    auto pool = create ? runtime_->CreatePool("arena") : runtime_->OpenPool("arena");
    ASSERT_TRUE(pool.ok()) << pool.status().ToString();
    pool_ = *pool;
  }

  // Drops every in-DRAM handle without flushing arenas: the persistent image
  // is what a crash after the last commit would leave (active directory
  // entries, arena-owned slabs). Reopen gives recovery a cold pool.
  void ReopenWithoutFlush() {
    runtime_.reset();
    daemon_.reset();
    Start(/*create=*/false);
  }

  ArenaRoot* InitRoot() {
    ArenaRoot* root = nullptr;
    EXPECT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(root, tx.Alloc<ArenaRoot>());
      for (auto& slot : root->slots) {
        slot = nullptr;
      }
      return pool_->SetRoot(root);
    }).ok());
    return root;
  }

  size_t ReachableCount() {
    auto reachable = pool_->ReachableObjects();
    EXPECT_TRUE(reachable.ok()) << reachable.status().ToString();
    return reachable.ok() ? reachable->size() : 0;
  }

  fs::path dir_;
  std::unique_ptr<puddled::Daemon> daemon_;
  std::unique_ptr<Runtime> runtime_;
  Pool* pool_ = nullptr;
};

// Refill: the first small allocation pulls slabs from the shared heap in a
// batch; subsequent allocations in the class are served without touching it.
TEST_F(ArenaTest, RefillServesSmallAllocations) {
  ArenaRoot* root = InitRoot();
  ASSERT_TRUE(pool_->SetAllocMode(AllocMode::kArena, {.refill_slabs = 2}).ok());

  const stats::Snapshot before = stats::Aggregate();
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    for (int i = 0; i < 8; ++i) {
      ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
      n->value = 100 + i;
      RETURN_IF_ERROR(tx.LogRange(&root->slots[i], sizeof(Node*)));
      root->slots[i] = n;
    }
    return OkStatus();
  }).ok());
  const stats::Snapshot delta = stats::Delta(stats::Aggregate(), before);

  if (PUDDLES_STATS) {
    EXPECT_EQ(delta.counter(stats::Counter::kArenaAlloc), 8u);
    EXPECT_GE(delta.counter(stats::Counter::kArenaRefillSlabs), 1u);
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(root->slots[i]->value, 100u + i);
  }
  EXPECT_EQ(ReachableCount(), 1u + 8u);
}

// Free returns the slot to the thread's local list; the next allocation in
// the class reuses it with no further refill from the shared heap.
TEST_F(ArenaTest, FreeFeedsLocalFreeList) {
  ArenaRoot* root = InitRoot();
  ASSERT_TRUE(pool_->SetAllocMode(AllocMode::kArena, {.refill_slabs = 1}).ok());

  Node* scratch = nullptr;
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(scratch, tx.Alloc<Node>());
    scratch->value = 7;
    return OkStatus();
  }).ok());

  const stats::Snapshot before = stats::Aggregate();
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    return tx.Free(scratch);
  }).ok());
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
    n->value = 8;
    RETURN_IF_ERROR(tx.LogRange(&root->slots[0], sizeof(Node*)));
    root->slots[0] = n;
    return OkStatus();
  }).ok());
  const stats::Snapshot delta = stats::Delta(stats::Aggregate(), before);

  if (PUDDLES_STATS) {
    EXPECT_EQ(delta.counter(stats::Counter::kArenaFree), 1u);
  }
  EXPECT_EQ(delta.counter(stats::Counter::kArenaRefillSlabs), 0u);
  EXPECT_EQ(root->slots[0]->value, 8u);
  EXPECT_EQ(ReachableCount(), 1u + 1u);
}

// An aborted transaction must leave no trace: directory claims, slab
// acquisitions, and slot pops all roll back — persistently via the undo log
// and in DRAM via the arena's abort hook.
TEST_F(ArenaTest, AbortRollsBackArenaState) {
  ArenaRoot* root = InitRoot();
  ASSERT_TRUE(pool_->SetAllocMode(AllocMode::kArena, {.refill_slabs = 2}).ok());
  const size_t baseline = ReachableCount();

  puddles::Status aborted = pool_->Run([&](Tx& tx) -> puddles::Status {
    for (int i = 0; i < 5; ++i) {
      ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
      n->value = 9000 + i;
      RETURN_IF_ERROR(tx.LogRange(&root->slots[i], sizeof(Node*)));
      root->slots[i] = n;
    }
    return InternalError("deliberate abort");
  });
  ASSERT_FALSE(aborted.ok());

  EXPECT_EQ(ReachableCount(), baseline);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(root->slots[i], nullptr);
  }

  // The rolled-back arena still serves allocations afterwards.
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
    n->value = 42;
    RETURN_IF_ERROR(tx.LogRange(&root->slots[0], sizeof(Node*)));
    root->slots[0] = n;
    return OkStatus();
  }).ok());
  EXPECT_EQ(ReachableCount(), baseline + 1);
  ASSERT_TRUE(pool_->FlushAllArenas().ok());
  EXPECT_EQ(root->slots[0]->value, 42u);
}

// Flush-back hands every arena slab to the shared heap (occupancy from the
// shadow bitmap), clears the directory entry, and leaves the pool fully
// usable under the global-lock allocator.
TEST_F(ArenaTest, FlushBackReturnsSlabsToGlobalHeap) {
  ArenaRoot* root = InitRoot();
  ASSERT_TRUE(pool_->SetAllocMode(AllocMode::kArena, {.refill_slabs = 2}).ok());

  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    for (int i = 0; i < 6; ++i) {
      ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
      n->value = 500 + i;
      RETURN_IF_ERROR(tx.LogRange(&root->slots[i], sizeof(Node*)));
      root->slots[i] = n;
    }
    return OkStatus();
  }).ok());

  const stats::Snapshot before = stats::Aggregate();
  // kGlobalLock flushes all arenas as a side effect.
  ASSERT_TRUE(pool_->SetAllocMode(AllocMode::kGlobalLock).ok());
  const stats::Snapshot delta = stats::Delta(stats::Aggregate(), before);
  if (PUDDLES_STATS) {
    EXPECT_GE(delta.counter(stats::Counter::kArenaFlushSlabs), 1u);
  }

  // Arena-era survivors are ordinary global objects now: values intact,
  // freeable through the logged global path.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(root->slots[i]->value, 500u + i);
  }
  EXPECT_EQ(ReachableCount(), 1u + 6u);
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    RETURN_IF_ERROR(tx.Free(root->slots[5]));
    RETURN_IF_ERROR(tx.LogRange(&root->slots[5], sizeof(Node*)));
    root->slots[5] = nullptr;
    return OkStatus();
  }).ok());
  EXPECT_EQ(ReachableCount(), 1u + 5u);

  // A clean flush leaves nothing for recovery to do.
  ReopenWithoutFlush();
  auto report = pool_->RecoverArenas();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->arenas_recovered, 0u);
  EXPECT_EQ(ReachableCount(), 1u + 5u);
}

// A thread that exits without flushing orphans its arena; the next thread to
// refill adopts it and can serve and free its objects locally.
TEST_F(ArenaTest, ThreadExitOrphanHandoff) {
  ArenaRoot* root = InitRoot();
  ASSERT_TRUE(pool_->SetAllocMode(AllocMode::kArena, {.refill_slabs = 1}).ok());

  std::thread worker([&]() {
    ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
      for (int i = 0; i < 4; ++i) {
        ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
        n->value = 700 + i;
        RETURN_IF_ERROR(tx.LogRange(&root->slots[i], sizeof(Node*)));
        root->slots[i] = n;
      }
      return OkStatus();
    }).ok());
  });
  worker.join();

  const stats::Snapshot before = stats::Aggregate();
  // The main thread's first refill adopts the orphan.
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
    n->value = 704;
    RETURN_IF_ERROR(tx.LogRange(&root->slots[4], sizeof(Node*)));
    root->slots[4] = n;
    return OkStatus();
  }).ok());
  const stats::Snapshot delta = stats::Delta(stats::Aggregate(), before);
  if (PUDDLES_STATS) {
    EXPECT_GE(delta.counter(stats::Counter::kArenaOrphanAdopt), 1u);
  }

  // Adopted objects free through the adopting thread's own arena.
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    for (int i = 0; i < 4; ++i) {
      RETURN_IF_ERROR(tx.Free(root->slots[i]));
      RETURN_IF_ERROR(tx.LogRange(&root->slots[i], sizeof(Node*)));
      root->slots[i] = nullptr;
    }
    return OkStatus();
  }).ok());
  ASSERT_TRUE(pool_->FlushAllArenas().ok());
  EXPECT_EQ(ReachableCount(), 1u + 1u);
  EXPECT_EQ(root->slots[4]->value, 704u);
}

// A free issued by a thread that does not own the slab queues to the owner;
// housekeeping at the next refill/flush applies it. Nothing is lost even
// when both threads are gone before the drain.
TEST_F(ArenaTest, CrossThreadFreeReachesOwner) {
  ArenaRoot* root = InitRoot();
  ASSERT_TRUE(pool_->SetAllocMode(AllocMode::kArena, {.refill_slabs = 1}).ok());

  std::thread owner([&]() {
    ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
      for (int i = 0; i < 8; ++i) {
        ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
        n->value = 800 + i;
        RETURN_IF_ERROR(tx.LogRange(&root->slots[i], sizeof(Node*)));
        root->slots[i] = n;
      }
      return OkStatus();
    }).ok());
  });
  owner.join();

  const stats::Snapshot before = stats::Aggregate();
  std::thread freer([&]() {
    ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
      for (int i = 0; i < 8; ++i) {
        RETURN_IF_ERROR(tx.Free(root->slots[i]));
        RETURN_IF_ERROR(tx.LogRange(&root->slots[i], sizeof(Node*)));
        root->slots[i] = nullptr;
      }
      return OkStatus();
    }).ok());
  });
  freer.join();

  // FlushAllArenas adopts both orphaned arenas and drains the remote queue
  // before handing the slabs back — the 8 frees land before the flush.
  ASSERT_TRUE(pool_->FlushAllArenas().ok());
  const stats::Snapshot delta = stats::Delta(stats::Aggregate(), before);
  if (PUDDLES_STATS) {
    EXPECT_GE(delta.counter(stats::Counter::kArenaRemoteFree), 8u);
  }
  EXPECT_EQ(ReachableCount(), 1u);

  ReopenWithoutFlush();
  auto report = pool_->RecoverArenas();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(ReachableCount(), 1u);
}

// The 8-thread malloc/free storm with exact leak accounting. Every thread
// runs rounds of batch-allocate + free-all-but-one; after join and flush the
// books must balance to the slot: arena allocations minus arena frees equals
// the published survivors, every acquired slab is flushed back, and the
// reachable set is exactly root + survivors.
TEST_F(ArenaTest, EightThreadStormExactLeakAccounting) {
  ArenaRoot* root = InitRoot();
  ASSERT_TRUE(pool_->SetAllocMode(AllocMode::kArena, {.refill_slabs = 2}).ok());

  const stats::Snapshot before = stats::Aggregate();
  std::vector<std::thread> threads;
  threads.reserve(kStormThreads);
  for (int t = 0; t < kStormThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int r = 0; r < kStormRounds; ++r) {
        ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
          Node* keep = nullptr;
          for (int i = 0; i < kStormBatch; ++i) {
            ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
            n->value = static_cast<uint64_t>(t) * 1000 + r;
            if (i == 0) {
              keep = n;
            } else {
              RETURN_IF_ERROR(tx.Free(n));
            }
          }
          const int slot = t * kStormRounds + r;
          RETURN_IF_ERROR(tx.LogRange(&root->slots[slot], sizeof(Node*)));
          root->slots[slot] = keep;
          return OkStatus();
        }).ok());
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_TRUE(pool_->FlushAllArenas().ok());

  const stats::Snapshot delta = stats::Delta(stats::Aggregate(), before);
  using stats::Counter;
  const uint64_t allocs = delta.counters[static_cast<size_t>(Counter::kArenaAlloc)];
  const uint64_t frees = delta.counters[static_cast<size_t>(Counter::kArenaFree)];
  const uint64_t refills =
      delta.counters[static_cast<size_t>(Counter::kArenaRefillSlabs)];
  const uint64_t flushes =
      delta.counters[static_cast<size_t>(Counter::kArenaFlushSlabs)];
  constexpr uint64_t kPublished = kStormThreads * kStormRounds;
  constexpr uint64_t kAllocs = kPublished * kStormBatch;

  if (PUDDLES_STATS) {
    EXPECT_EQ(allocs, kAllocs);             // Every allocation was arena-served.
    EXPECT_EQ(allocs - frees, kPublished);  // Exact leak accounting.
  }
  EXPECT_EQ(refills, flushes);  // Every acquired slab flushed back.
  EXPECT_EQ(ReachableCount(), 1u + kPublished);
  for (int t = 0; t < kStormThreads; ++t) {
    for (int r = 0; r < kStormRounds; ++r) {
      ASSERT_NE(root->slots[t * kStormRounds + r], nullptr);
      EXPECT_EQ(root->slots[t * kStormRounds + r]->value,
                static_cast<uint64_t>(t) * 1000 + r);
    }
  }

  // Survivors persist across a reopen; the clean flush left recovery idle.
  ReopenWithoutFlush();
  auto report = pool_->RecoverArenas();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->arenas_recovered, 0u);
  EXPECT_EQ(ReachableCount(), 1u + kPublished);
}

// Recovery GC: a pool reopened with active arena directory entries (no
// flush before shutdown) walks the roots, keeps every reachable object, and
// reclaims committed-but-unreachable slots — the post-crash leak story.
TEST_F(ArenaTest, RecoverArenasReclaimsLeakedObjects) {
  ArenaRoot* root = InitRoot();
  ASSERT_TRUE(pool_->SetAllocMode(AllocMode::kArena, {.refill_slabs = 2}).ok());

  constexpr int kKeep = 8;
  constexpr int kLeak = 10;
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    for (int i = 0; i < kKeep; ++i) {
      ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
      n->value = 600 + i;
      RETURN_IF_ERROR(tx.LogRange(&root->slots[i], sizeof(Node*)));
      root->slots[i] = n;
    }
    // Committed but never published nor freed: unreachable leaks only the
    // recovery GC can reclaim.
    for (int i = 0; i < kLeak; ++i) {
      ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
      n->value = 999;
    }
    return OkStatus();
  }).ok());

  ReopenWithoutFlush();
  const stats::Snapshot before = stats::Aggregate();
  auto report = pool_->RecoverArenas();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GE(report->arenas_recovered, 1u);
  EXPECT_GE(report->slabs_scanned, 1u);
  EXPECT_EQ(report->slots_reclaimed, static_cast<uint64_t>(kLeak));
  EXPECT_EQ(report->objects_live, 1u + kKeep);
  const stats::Snapshot delta = stats::Delta(stats::Aggregate(), before);
  if (PUDDLES_STATS) {
    EXPECT_EQ(delta.counter(stats::Counter::kArenaGcReclaimed), static_cast<uint64_t>(kLeak));
  }

  // Recovery is idempotent and leaves an ordinary global heap behind.
  auto again = pool_->RecoverArenas();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->arenas_recovered, 0u);
  EXPECT_EQ(ReachableCount(), 1u + kKeep);
  auto recovered_root = pool_->Root<ArenaRoot>();
  ASSERT_TRUE(recovered_root.ok());
  for (int i = 0; i < kKeep; ++i) {
    EXPECT_EQ((*recovered_root)->slots[i]->value, 600u + i);
  }
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
    n->value = 1;
    RETURN_IF_ERROR(tx.LogRange(&(*recovered_root)->slots[kKeep], sizeof(Node*)));
    (*recovered_root)->slots[kKeep] = n;
    return OkStatus();
  }).ok());
  EXPECT_EQ(ReachableCount(), 1u + kKeep + 1u);
}

// Differential: the same workload under the arena and under the global-lock
// allocator must converge to identical reachable sets and contents — the
// arena changes performance, never semantics.
TEST_F(ArenaTest, ArenaMatchesGlobalLockSemantics) {
  auto run_workload = [&](const char* name, bool arena,
                          std::vector<uint64_t>* values) -> size_t {
    auto pool_or = runtime_->CreatePool(name);
    EXPECT_TRUE(pool_or.ok());
    Pool* pool = *pool_or;
    if (arena) {
      EXPECT_TRUE(pool->SetAllocMode(AllocMode::kArena, {.refill_slabs = 2}).ok());
    }
    ArenaRoot* root = nullptr;
    EXPECT_TRUE(pool->Run([&](Tx& tx) -> puddles::Status {
      ASSIGN_OR_RETURN(root, tx.Alloc<ArenaRoot>());
      for (auto& slot : root->slots) {
        slot = nullptr;
      }
      return pool->SetRoot(root);
    }).ok());
    for (int r = 0; r < 4; ++r) {
      EXPECT_TRUE(pool->Run([&](Tx& tx) -> puddles::Status {
        for (int i = 0; i < 12; ++i) {
          ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
          n->value = static_cast<uint64_t>(r) * 100 + i;
          if (i % 3 == 0) {
            const int slot = r * 4 + i / 3;
            RETURN_IF_ERROR(tx.LogRange(&root->slots[slot], sizeof(Node*)));
            root->slots[slot] = n;
          } else {
            RETURN_IF_ERROR(tx.Free(n));
          }
        }
        return OkStatus();
      }).ok());
    }
    if (arena) {
      EXPECT_TRUE(pool->FlushAllArenas().ok());
    }
    for (int s = 0; s < 16; ++s) {
      values->push_back(root->slots[s] == nullptr ? ~0ULL : root->slots[s]->value);
    }
    auto reachable = pool->ReachableObjects();
    EXPECT_TRUE(reachable.ok());
    return reachable.ok() ? reachable->size() : 0;
  };

  std::vector<uint64_t> arena_values, global_values;
  const size_t arena_count = run_workload("diff_arena", true, &arena_values);
  const size_t global_count = run_workload("diff_global", false, &global_values);
  EXPECT_EQ(arena_count, global_count);
  EXPECT_EQ(arena_values, global_values);
}

// A second free of an arena-owned slot whose first free has already been
// applied (magic cleared at publication) must fail like the global path's
// double-free check, not silently queue a release against whatever occupies
// the slot next.
TEST_F(ArenaTest, DoubleFreeOfArenaObjectRejected) {
  InitRoot();
  ASSERT_TRUE(pool_->SetAllocMode(AllocMode::kArena, {.refill_slabs = 1}).ok());

  Node* node = nullptr;
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(node, tx.Alloc<Node>());
    node->value = 11;
    return OkStatus();
  }).ok());
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    return tx.Free(node);
  }).ok());

  // The first free's publication ran post-commit: the slot is dead but still
  // in an arena-owned slab, so the stale pointer resolves through the locked
  // tag check and must be rejected there.
  puddles::Status dup = pool_->Run([&](Tx& tx) -> puddles::Status {
    return tx.Free(node);
  });
  EXPECT_EQ(dup.code(), StatusCode::kFailedPrecondition) << dup.ToString();

  // The rejection left the arena untouched: the slot is still on the free
  // list exactly once, so reuse works and the pool flushes clean.
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
    n->value = 12;
    return tx.Free(n);
  }).ok());
  ASSERT_TRUE(pool_->FlushAllArenas().ok());
}

// Builds a two-slab 64-byte-class arena with every slot free and the spill
// hint raised: the next small allocation's slow path will try to spill the
// whole-empty slab back to the buddy.
class ArenaSpillTest : public ArenaTest {
 protected:
  void PrimeSpill(ArenaRoot* root) {
    (void)root;
    ASSERT_TRUE(pool_
                    ->SetAllocMode(AllocMode::kArena,
                                   {.refill_slabs = 1, .flush_watermark = 64})
                    .ok());
    // 70 Nodes overflow one 63-slot slab, forcing a second refill.
    nodes_.resize(70);
    ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
      for (auto& n : nodes_) {
        ASSIGN_OR_RETURN(n, tx.Alloc<Node>());
        n->value = 1;
      }
      return OkStatus();
    }).ok());
    // Freeing everything publishes 70 releases post-commit: both slabs end
    // whole-empty and the free count crosses the watermark.
    ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
      for (Node* n : nodes_) {
        RETURN_IF_ERROR(tx.Free(n));
      }
      return OkStatus();
    }).ok());
  }

  std::vector<Node*> nodes_;
};

// Committed spill: the chain unlink is staged in the triggering transaction
// and the buddy release runs at its commit head, so after commit the slab is
// global again and the pool flushes and recovers clean.
TEST_F(ArenaSpillTest, SpillCommitsBuddyReleaseAtCommitHead) {
  ArenaRoot* root = InitRoot();
  PrimeSpill(root);

  const stats::Snapshot before = stats::Aggregate();
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
    n->value = 77;
    RETURN_IF_ERROR(tx.LogRange(&root->slots[0], sizeof(Node*)));
    root->slots[0] = n;
    return OkStatus();
  }).ok());
  const stats::Snapshot delta = stats::Delta(stats::Aggregate(), before);
  if (PUDDLES_STATS) {
    EXPECT_GE(delta.counter(stats::Counter::kArenaFlushSlabs), 1u);
  }

  EXPECT_EQ(root->slots[0]->value, 77u);
  ASSERT_TRUE(pool_->FlushAllArenas().ok());
  ReopenWithoutFlush();
  auto report = pool_->RecoverArenas();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->arenas_recovered, 0u);
  EXPECT_EQ(ReachableCount(), 1u + 1u);
}

// Aborted spill: the deferred buddy release never runs, the persistent
// unlink rolls back with the transaction, and the abort hook resurrects the
// slab with its free list rebuilt — so re-allocating both slabs' worth of
// slots needs no fresh refill and the heap stays consistent.
TEST_F(ArenaSpillTest, AbortedSpillResurrectsSlabWithoutBuddyRelease) {
  ArenaRoot* root = InitRoot();
  PrimeSpill(root);
  const size_t baseline = ReachableCount();

  puddles::Status aborted = pool_->Run([&](Tx& tx) -> puddles::Status {
    ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
    n->value = 88;
    return InternalError("deliberate abort");
  });
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(ReachableCount(), baseline);

  // Both slabs (126 slots) must still be arena-owned and fully free: if the
  // spill had leaked — buddy release applied under an aborted unlink, or
  // free-list entries lost — this would either refill or corrupt.
  const stats::Snapshot before = stats::Aggregate();
  ASSERT_TRUE(pool_->Run([&](Tx& tx) -> puddles::Status {
    for (int i = 0; i < 70; ++i) {
      ASSIGN_OR_RETURN(Node * n, tx.Alloc<Node>());
      n->value = 100 + i;
      if (i == 0) {
        RETURN_IF_ERROR(tx.LogRange(&root->slots[0], sizeof(Node*)));
        root->slots[0] = n;
      } else {
        RETURN_IF_ERROR(tx.Free(n));
      }
    }
    return OkStatus();
  }).ok());
  const stats::Snapshot delta = stats::Delta(stats::Aggregate(), before);
  EXPECT_EQ(delta.counters[static_cast<size_t>(stats::Counter::kArenaRefillSlabs)], 0u);

  ASSERT_TRUE(pool_->FlushAllArenas().ok());
  ReopenWithoutFlush();
  auto report = pool_->RecoverArenas();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->arenas_recovered, 0u);
  EXPECT_EQ(ReachableCount(), baseline + 1);
  EXPECT_EQ(root->slots[0]->value, 100u);
}

// Unit-level check of the remote-free validation added for recycled-claim
// safety: a record must be dropped on generation mismatch, consumed inertly
// when its offset cannot resolve in the current slab layout, and applied
// only when generation, bounds, and slot alignment all line up.
TEST(ArenaRemoteFreeValidation, GenerationAndBoundsGateShadowWrites) {
  ThreadArena ta{ArenaOptions{}};
  std::vector<uint8_t> heap(kSlabBlockSize, 0);
  const Uuid uuid{1, 2};
  PuddleArena* pa = ta.AddPuddleArena(uuid, heap.data(), heap.size(), /*dir_slot=*/0);
  pa->claim_gen = 7;

  // One slab of the largest class (272 bytes → 14 slots) with slot 3 live.
  const int class_index = static_cast<int>(kNumSlabClasses) - 1;
  const int64_t slot_size = static_cast<int64_t>(kSlabSlotSizes[class_index]);
  const uint16_t num_slots =
      static_cast<uint16_t>((kSlabBlockSize - sizeof(SlabHeader)) / slot_size);
  const uint64_t bitmap[2] = {1ULL << 3, 0};
  ArenaSlab* slab = ta.AddSlab(pa, /*offset=*/0, class_index, num_slots, bitmap,
                               /*used=*/1, /*prev_chain_head=*/-1);
  const size_t free_before = ta.free_slot_count();
  const int64_t slot3 =
      static_cast<int64_t>(sizeof(SlabHeader)) + 3 * slot_size;

  // Published under an earlier claim of this (uuid, tag): not ours to apply.
  EXPECT_FALSE(ta.AcceptRemoteFree(uuid, pa->tag(), /*gen=*/6, slot3, /*epoch=*/0));
  EXPECT_EQ(slab->used, 1);

  // Matching claim but unresolvable offsets — misaligned, past the last
  // slot, inside the slab header — are stale duplicates: consumed without
  // touching shadow state (this is the shape that used to index past the
  // shadow bitmap).
  EXPECT_TRUE(ta.AcceptRemoteFree(uuid, pa->tag(), 7, slot3 + 5, 0));
  EXPECT_TRUE(ta.AcceptRemoteFree(
      uuid, pa->tag(), 7,
      static_cast<int64_t>(sizeof(SlabHeader)) + num_slots * slot_size, 0));
  EXPECT_TRUE(ta.AcceptRemoteFree(uuid, pa->tag(), 7, /*slot_offset=*/8, 0));
  EXPECT_EQ(slab->used, 1);
  EXPECT_EQ(slab->shadow[0], 1ULL << 3);
  EXPECT_EQ(ta.free_slot_count(), free_before);

  // The genuine record applies; a duplicate of it is inert.
  EXPECT_TRUE(ta.AcceptRemoteFree(uuid, pa->tag(), 7, slot3, 0));
  EXPECT_EQ(slab->used, 0);
  EXPECT_EQ(slab->shadow[0], 0u);
  EXPECT_EQ(ta.free_slot_count(), free_before + 1);
  EXPECT_TRUE(ta.AcceptRemoteFree(uuid, pa->tag(), 7, slot3, 0));
  EXPECT_EQ(ta.free_slot_count(), free_before + 1);
}

// Claim generations are monotonic per (uuid, tag): re-claiming a released
// directory slot bumps the generation, which is what invalidates queued
// remote frees published under the earlier claim.
TEST(ArenaManagerClaims, ReclaimBumpsGeneration) {
  auto mgr = std::make_shared<ArenaManager>(ArenaOptions{});
  const Uuid uuid{3, 4};
  EXPECT_EQ(mgr->ClaimGenOf(uuid, /*tag=*/1), 0u);

  const uint64_t first = mgr->RegisterClaim(uuid, 1);
  EXPECT_NE(first, 0u);
  EXPECT_EQ(mgr->ClaimGenOf(uuid, 1), first);

  const uint64_t second = mgr->RegisterClaim(uuid, 1);
  EXPECT_GT(second, first);
  EXPECT_EQ(mgr->ClaimGenOf(uuid, 1), second);

  // Distinct tags and puddles track independently.
  const uint64_t other_tag = mgr->RegisterClaim(uuid, 2);
  EXPECT_GT(other_tag, second);
  EXPECT_EQ(mgr->ClaimGenOf(uuid, 1), second);
  EXPECT_EQ(mgr->ClaimGenOf(Uuid{5, 6}, 1), 0u);
}

}  // namespace
}  // namespace puddles
