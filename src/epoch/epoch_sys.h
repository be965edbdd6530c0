// Epoch-based group commit (docs/epoch.md, DESIGN.md §13).
//
// EpochSys amortizes persistence fences *across* threads. A global epoch
// clock groups transactions; committing threads hand their staged cache lines
// to a single background advancer thread instead of flushing and fencing
// themselves. The advancer:
//
//   * services *delegated publications* — the blocking pre-mutation handoff
//     of undo logging — by flushing every concurrently waiting thread's
//     staged log lines and issuing ONE fence that retires them all, and
//   * *closes* an epoch when it ages out (bounded buffered-durability
//     window), when enough bytes/transactions have staged, on Sync(), or at
//     shutdown: it advances the clock so new transactions join the next
//     epoch, waits for the closing epoch's in-flight transactions to finish
//     (still servicing their publications — they may be blocked on exactly
//     that), drains all deferred lines in one deduplicated pass, fences
//     once, and then persistently retires the epoch by bumping the log
//     space's retirement record.
//
// The retirement record is the single commit point for every transaction of
// the epoch: recovery replays a tagged log chain only if its tag is above the
// record, so a crash before retirement rolls back ALL of the epoch's
// transactions (their undo entries are still live) and a crash after finds
// every mutation durable. No prefix of an epoch can survive.
//
// Why the advancer issues the flushes itself (not just the fence): a cache
// line a thread merely *staged* can be evicted-dirty at any moment, so the
// undo-before-mutate invariant needs the entry lines written back and fenced
// before the caller's first in-place store. clwb is cache-coherent — the
// advancer's flush writes back the latest value regardless of which core
// stored it — and keeping flush+fence on one thread also matches the
// fence-retires-own-flushes model crashsim verifies against.
//
// The handoff waits (publication tickets, retirement waits, and the
// advancer's own wait for work) all go through one primitive, AwaitLocked.
// A waiter first *polls* an atomic watermark — publish_done_ or retired_ for
// clients, the kick counter kicks_ for the advancer — and only then parks on
// a condition variable. Polling is allowed only while every participant has
// a CPU of its own: participants are the threads inside epoch transactions
// or Sync/Quiesce calls (counted from before they take mu_, since a thread
// queued on the lock needs a CPU too) plus the advancer, counted against
// the process's sched_getaffinity CPU set. A spinning waiter on an oversubscribed machine
// would steal the very CPU its wakeup needs, so past that point every wait
// parks, exactly like a plain condvar handoff. A poll is also bounded by the
// epoch deadline (max_epoch_age_us; for the advancer's idle wait, the open
// epoch's close deadline). A notifier signals a condvar only when a waiter is actually
// parked on it, so the polled path costs no futex traffic in either
// direction.
//
// Memory ordering: the advancer release-stores publish_done_ (and retired_)
// only after the fence of the flush cycle that covered the ticket (the
// retirement record's persist). A publisher acquire-loads the watermark
// before returning from Publish, so its first in-place store is ordered
// after that fence: the undo-before-mutate invariant holds without the
// mutex on the wakeup path.
#ifndef SRC_EPOCH_EPOCH_SYS_H_
#define SRC_EPOCH_EPOCH_SYS_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/pmem/flush.h"
#include "src/tx/epoch_port.h"
#include "src/tx/log_format.h"

namespace puddles {

struct EpochOptions {
  // Maximum age of a dirty epoch before the advancer force-closes it: the
  // bound on the buffered-durability window (docs/epoch.md). A committed
  // transaction is durable no later than ~this after its epoch first dirtied
  // (plus the drain itself).
  uint64_t max_epoch_age_us = 500;
  // Close early once this many deferred bytes have staged (pre-dedup), so
  // epochs stay well below log capacity and continuation chaining stays rare.
  uint64_t max_staged_bytes = 64 * 1024;
  // ... or once this many transactions have joined the epoch.
  uint64_t max_epoch_txs = 4096;
};

class EpochSys {
 public:
  // Persists the retirement record for an epoch (the runtime injects a
  // PersistStore64 on the log space header). Called from the advancer thread
  // only, after the epoch's drain fence.
  using RetireFn = std::function<void(uint64_t epoch)>;
  // Recycles a continuation log region after its epoch retired (persistent
  // Reset + return to the thread's spare list). Called on the owning thread.
  using ReleaseFn = std::function<void(LogRegion*)>;

  EpochSys(const EpochOptions& options, RetireFn retire);
  ~EpochSys();  // Stop()s.

  EpochSys(const EpochSys&) = delete;
  EpochSys& operator=(const EpochSys&) = delete;

  // Spawns the advancer. Must be called (once) before any port is used.
  puddles::Status Start();

  // Closes and retires any outstanding dirty epoch, then joins the advancer.
  // No transaction may be active; ports must not be used afterwards. Safe to
  // call twice.
  void Stop();

  // Blocks until every transaction that joined an epoch before this call is
  // persistently retired — the sync-on-demand half of the durability
  // contract. Returns immediately when nothing is outstanding.
  void Sync();

  // Creates the per-thread port handed to TxTarget::epoch. The port must not
  // outlive this EpochSys; `release_grown` must be callable on the port's
  // owning thread.
  std::unique_ptr<EpochPort> CreatePort(ReleaseFn release_grown);

  // Monitoring/tests. current_epoch() takes the lock; not for hot paths.
  uint64_t retired_epoch() const;
  uint64_t current_epoch() const;

 private:
  class Port;
  using Clock = std::chrono::steady_clock;

  // All *Locked methods require mu_; those taking the unique_lock may drop
  // and reacquire it around the flush work.
  bool ShouldCloseLocked() const;
  void MarkOpenDirtyLocked();
  void ServicePublishLocked(std::unique_lock<std::mutex>& lock);
  void CloseEpochLocked(std::unique_lock<std::mutex>& lock);
  void WaitRetiredLocked(std::unique_lock<std::mutex>& lock, uint64_t epoch);
  void DelegatePublish(pmem::FlushBatch* batch);
  void AdvancerMain();

  // The one wait of the epoch handoff (file header): returns once done()
  // holds or park_until passes. Polls (mu_ dropped) for up to poll_for while
  // PollAllowed(), then parks on `cv` counted in *parked. done() must read
  // only atomics. Requires mu_.
  template <typename Done>
  void AwaitLocked(std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
                   uint32_t* parked, Clock::duration poll_for, Clock::time_point park_until,
                   Done done);
  // Advancer: waits for the next kick (state change a notifier published
  // under mu_).
  void AwaitKickLocked(std::unique_lock<std::mutex>& lock, Clock::duration poll_for,
                       Clock::time_point park_until);
  bool PollAllowed() const;
  Clock::duration PollBudget() const;  // The epoch deadline, max_epoch_age_us.
  void KickAdvancerLocked();
  void NotifyClientsLocked();

  const EpochOptions options_;
  const RetireFn retire_;

  // CPUs in the process's affinity set (sched_getaffinity, read at
  // construction): the budget of the polling rule.
  const uint32_t cpus_;

  mutable std::mutex mu_;
  // Bumped under mu_ by every state change the advancer may be waiting on;
  // beside mu_, so a notifier's bump touches a line it already holds.
  std::atomic<uint64_t> kicks_{0};
  std::condition_variable advancer_cv_;  // Advancer parks for work/timer.
  std::condition_variable client_cv_;    // Parked publishers and retirement waiters.
  uint32_t advancer_parked_ = 0;         // Parked-waiter counts: notify only if > 0.
  uint32_t clients_parked_ = 0;

  uint64_t current_ = 1;   // Open epoch; 0 is reserved for immediate mode.
  uint64_t closing_ = 0;   // Epoch mid-close (drain in progress); 0 = none.
  bool stop_ = false;
  bool close_requested_ = false;  // Sync()/retirement waiters force a close.

  // Open-epoch state. `dirty` flips on the first join/stage and starts the
  // age clock; an idle epoch is never closed (no fences burned when idle).
  bool open_dirty_ = false;
  std::chrono::steady_clock::time_point open_deadline_{};
  uint64_t open_txs_ = 0;       // Joined (lifetime) — close threshold.
  uint64_t active_open_ = 0;    // Still inside Begin..Commit/Abort.
  uint64_t active_closing_ = 0; // Same, for the closing epoch's drain wait.
  // Threads inside epoch transactions or Sync/Quiesce, counted from before
  // they take mu_ (the advancer is the +1 of the polling rule).
  std::atomic<uint32_t> participants_{0};
  pmem::FlushBatch deferred_open_;     // Close-time write-back set.
  pmem::FlushBatch deferred_closing_;

  // Delegated-publication tickets: a publisher splices its lines, takes
  // ticket publish_seq_, and waits until publish_done_ covers it. One
  // advancer flush+fence cycle retires every ticket spliced before it.
  pmem::FlushBatch publish_pending_;
  uint64_t publish_seq_ = 0;

  // Advancer-only scratch batch (reused to avoid per-cycle allocation).
  pmem::FlushBatch drain_batch_;

  // The watermarks waiting clients poll, on a line of their own. Written
  // by the advancer only, each release-stored after the fence (retired_:
  // the retirement record's persist) that it publishes.
  alignas(64) std::atomic<uint64_t> publish_done_{0};
  std::atomic<uint64_t> retired_{0};  // Highest persistently retired epoch.

  // Declared last: the advancer uses every member above.
  std::thread advancer_;
};

}  // namespace puddles

#endif  // SRC_EPOCH_EPOCH_SYS_H_
