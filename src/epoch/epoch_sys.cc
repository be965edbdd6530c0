#include "src/epoch/epoch_sys.h"

#include <sched.h>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <utility>

#include "src/stats/stats.h"

namespace puddles {
namespace {

// Counts the calling thread as a participant of the polling rule while in
// scope. Taken before mu_: a thread queued on the lock needs a CPU too.
class ParticipantScope {
 public:
  explicit ParticipantScope(std::atomic<uint32_t>& participants)
      : participants_(participants) {
    participants_.fetch_add(1, std::memory_order_relaxed);
  }
  ~ParticipantScope() { participants_.fetch_sub(1, std::memory_order_relaxed); }
  ParticipantScope(const ParticipantScope&) = delete;
  ParticipantScope& operator=(const ParticipantScope&) = delete;

 private:
  std::atomic<uint32_t>& participants_;
};

// CPUs this process may run on; 1 (never poll) if the set is unreadable.
uint32_t AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return static_cast<uint32_t>(std::max(1, CPU_COUNT(&set)));
}

}  // namespace

// ---------------------------------------------------------------------------
// Per-thread port. All methods run on the owning thread; shared state is
// touched under sys_->mu_ only, except the atomic participants_ count.
// pending_epoch_/tail_ are owner-thread-only.
// ---------------------------------------------------------------------------
class EpochSys::Port : public EpochPort {
 public:
  Port(EpochSys* sys, ReleaseFn release_grown)
      : sys_(sys), release_grown_(std::move(release_grown)) {}

  puddles::Status JoinTx(LogRegion* head, std::vector<LogRegion*>* chain) override {
    // Counted from before the lock (as in ParticipantScope) until LeaveTx.
    sys_->participants_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(sys_->mu_);
    if (pending_epoch_ != 0 && pending_epoch_ != sys_->current_) {
      // The log still holds entries of a closed (or closing) epoch. Entries
      // from two epochs in one log would break the single-tag replay gate,
      // so wait for that epoch's retirement, then recycle the log: the head
      // volatile-only (its stale tag gates it out of replay either way), the
      // continuation regions with a persistent reset (they have no gate of
      // their own — a stale region re-linked by a later epoch would replay
      // retired undo entries).
      sys_->WaitRetiredLocked(lock, pending_epoch_);
      head->RearmVolatile();
      for (LogRegion* region : tail_) {
        if (release_grown_) {
          release_grown_(region);
        }
      }
      tail_.clear();
      pending_epoch_ = 0;
    }
    if (sys_->stop_) {
      sys_->participants_.fetch_sub(1, std::memory_order_relaxed);
      return FailedPreconditionError("epoch system stopped");
    }
    if (pending_epoch_ == 0) {
      pending_epoch_ = sys_->current_;
      head->SetEpochTagVolatile(pending_epoch_);
    }
    ++sys_->active_open_;
    ++sys_->open_txs_;
    sys_->MarkOpenDirtyLocked();
    if (sys_->open_txs_ >= sys_->options_.max_epoch_txs) {
      sys_->KickAdvancerLocked();
    }
    PUDDLES_COUNT(kEpochTxs);
    // Re-adopt continuation regions grown by this epoch's earlier
    // transactions, so appends resume at the chain tail instead of
    // clobbering the head's next_log link.
    chain->insert(chain->end(), tail_.begin(), tail_.end());
    return OkStatus();
  }

  void Publish(pmem::FlushBatch* batch) override { sys_->DelegatePublish(batch); }

  void StageDeferred(pmem::FlushBatch* batch) override {
    if (batch->empty()) {
      return;
    }
    std::lock_guard<std::mutex> lock(sys_->mu_);
    // Route by the transaction's epoch: it may have joined an epoch that is
    // now closing (the advance happened mid-transaction), in which case its
    // lines belong to the closing drain, not the new open epoch.
    if (sys_->closing_ != 0 && pending_epoch_ == sys_->closing_) {
      sys_->deferred_closing_.Splice(batch);
      return;
    }
    sys_->deferred_open_.Splice(batch);
    sys_->MarkOpenDirtyLocked();
    if (sys_->deferred_open_.staged_bytes() >= sys_->options_.max_staged_bytes) {
      sys_->KickAdvancerLocked();
    }
  }

  void LeaveTx(const std::vector<LogRegion*>& chain) override {
    std::lock_guard<std::mutex> lock(sys_->mu_);
    tail_.assign(chain.begin() + 1, chain.end());
    sys_->participants_.fetch_sub(1, std::memory_order_relaxed);
    if (sys_->closing_ != 0 && pending_epoch_ == sys_->closing_) {
      if (--sys_->active_closing_ == 0) {
        sys_->KickAdvancerLocked();  // Unblock the drain wait.
      }
    } else {
      --sys_->active_open_;
    }
  }

  puddles::Status Quiesce(LogRegion* head) override {
    if (pending_epoch_ == 0) {
      return OkStatus();
    }
    ParticipantScope participant(sys_->participants_);
    std::unique_lock<std::mutex> lock(sys_->mu_);
    sys_->WaitRetiredLocked(lock, pending_epoch_);
    head->RearmVolatile();
    for (LogRegion* region : tail_) {
      if (release_grown_) {
        release_grown_(region);
      }
    }
    tail_.clear();
    pending_epoch_ = 0;
    return OkStatus();
  }

 private:
  EpochSys* sys_;
  ReleaseFn release_grown_;
  // Epoch whose entries occupy this thread's log; 0 = log is clean.
  uint64_t pending_epoch_ = 0;
  // Continuation regions grown during the pending epoch, in chain order.
  std::vector<LogRegion*> tail_;
};

// ---------------------------------------------------------------------------
// EpochSys
// ---------------------------------------------------------------------------

EpochSys::EpochSys(const EpochOptions& options, RetireFn retire)
    : options_(options), retire_(std::move(retire)), cpus_(AffinityCpus()) {}

EpochSys::~EpochSys() { Stop(); }

puddles::Status EpochSys::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (advancer_.joinable()) {
    return FailedPreconditionError("epoch advancer already running");
  }
  if (stop_) {
    return FailedPreconditionError("epoch system stopped");
  }
  advancer_ = std::thread([this] { AdvancerMain(); });
  return OkStatus();
}

void EpochSys::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    KickAdvancerLocked();
  }
  if (advancer_.joinable()) {
    advancer_.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  NotifyClientsLocked();
}

void EpochSys::Sync() {
  ParticipantScope participant(participants_);
  std::unique_lock<std::mutex> lock(mu_);
  uint64_t target = 0;
  if (open_dirty_) {
    target = current_;  // WaitRetiredLocked will request the close.
  } else if (closing_ != 0) {
    target = closing_;  // A close is already in flight; just wait it out.
  } else {
    return;  // current_ == retired_ + 1 and the open epoch is idle.
  }
  WaitRetiredLocked(lock, target);
}

std::unique_ptr<EpochPort> EpochSys::CreatePort(ReleaseFn release_grown) {
  return std::make_unique<Port>(this, std::move(release_grown));
}

uint64_t EpochSys::retired_epoch() const {
  return retired_.load(std::memory_order_acquire);
}

uint64_t EpochSys::current_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

void EpochSys::MarkOpenDirtyLocked() {
  if (!open_dirty_) {
    open_dirty_ = true;
    open_deadline_ = std::chrono::steady_clock::now() +
                     std::chrono::microseconds(options_.max_epoch_age_us);
    KickAdvancerLocked();  // The advancer may be in an indefinite wait.
  }
}

bool EpochSys::ShouldCloseLocked() const {
  if (!open_dirty_) {
    return false;
  }
  return stop_ || close_requested_ ||
         std::chrono::steady_clock::now() >= open_deadline_ ||
         deferred_open_.staged_bytes() >= options_.max_staged_bytes ||
         open_txs_ >= options_.max_epoch_txs;
}

bool EpochSys::PollAllowed() const {
  return participants_.load(std::memory_order_relaxed) + 1 <= cpus_;
}

EpochSys::Clock::duration EpochSys::PollBudget() const {
  return std::chrono::microseconds(options_.max_epoch_age_us);
}

void EpochSys::KickAdvancerLocked() {
  kicks_.store(kicks_.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  if (advancer_parked_ > 0) {
    advancer_cv_.notify_one();
  }
}

void EpochSys::NotifyClientsLocked() {
  if (clients_parked_ > 0) {
    client_cv_.notify_all();
  }
}

// The wait primitive (file header of epoch_sys.h). A parked waiter checks
// done() under mu_ and every watermark/kick store is followed by a notify
// under mu_ whenever *parked > 0, so no wakeup is lost between the poll
// phase and the park.
template <typename Done>
void EpochSys::AwaitLocked(std::unique_lock<std::mutex>& lock, std::condition_variable& cv,
                           uint32_t* parked, Clock::duration poll_for,
                           Clock::time_point park_until, Done done) {
  if (done()) {
    return;
  }
  const bool may_poll = poll_for > Clock::duration::zero();
  if (may_poll && PollAllowed()) {
    const Clock::time_point poll_until = Clock::now() + poll_for;
    lock.unlock();
    for (uint32_t spins = 1; !done(); ++spins) {
#if defined(__x86_64__)
      _mm_pause();
#endif
      if (spins % 64 == 0 && (!PollAllowed() || Clock::now() >= poll_until)) {
        break;
      }
    }
    lock.lock();
    if (done()) {
      return;
    }
  }
  if (may_poll) {
    PUDDLES_COUNT(kEpochParkedWaits);
  }
  ++*parked;
  if (park_until == Clock::time_point::max()) {
    cv.wait(lock, done);
  } else {
    cv.wait_until(lock, park_until, done);
  }
  --*parked;
}

void EpochSys::AwaitKickLocked(std::unique_lock<std::mutex>& lock, Clock::duration poll_for,
                               Clock::time_point park_until) {
  const uint64_t seen = kicks_.load(std::memory_order_relaxed);
  AwaitLocked(lock, advancer_cv_, &advancer_parked_, poll_for, park_until,
              [&] { return kicks_.load(std::memory_order_acquire) != seen; });
}

void EpochSys::WaitRetiredLocked(std::unique_lock<std::mutex>& lock, uint64_t epoch) {
  if (retired_.load(std::memory_order_relaxed) >= epoch) {
    return;
  }
  if (epoch == current_) {
    // The target epoch is still open; ask the advancer to close it now
    // rather than waiting out the age bound.
    close_requested_ = true;
    KickAdvancerLocked();
  }
  PUDDLES_COUNT(kEpochSyncWaits);
  PUDDLES_SCOPED_TIMER(kEpochSyncWaitTicks);
  AwaitLocked(lock, client_cv_, &clients_parked_, PollBudget(), Clock::time_point::max(),
              [&] { return retired_.load(std::memory_order_acquire) >= epoch; });
}

void EpochSys::DelegatePublish(pmem::FlushBatch* batch) {
  std::unique_lock<std::mutex> lock(mu_);
  publish_pending_.Splice(batch);
  const uint64_t ticket = ++publish_seq_;
  PUDDLES_COUNT(kEpochPublishWaits);
  KickAdvancerLocked();
  PUDDLES_SCOPED_TIMER(kEpochPublishWaitTicks);
  // The acquire load orders the caller's in-place stores after the fence
  // that made its undo entries durable.
  AwaitLocked(lock, client_cv_, &clients_parked_, PollBudget(), Clock::time_point::max(),
              [&] { return publish_done_.load(std::memory_order_acquire) >= ticket; });
}

// One delegated-publication service cycle: flush everything spliced so far,
// fence once, retire every waiting ticket. Runs on the advancer; drops the
// lock around the flush work so publishers can keep splicing.
void EpochSys::ServicePublishLocked(std::unique_lock<std::mutex>& lock) {
  drain_batch_.Splice(&publish_pending_);
  const uint64_t upto = publish_seq_;
  lock.unlock();
  drain_batch_.FlushPending();
  pmem::Fence();
  // Release pollers straight after the fence; parked waiters re-check under
  // mu_, which the notify below takes after this store.
  publish_done_.store(upto, std::memory_order_release);
  lock.lock();
  PUDDLES_COUNT(kEpochPublishCycles);
  NotifyClientsLocked();
}

// Closes the open epoch: advance the clock, drain, fence once, retire.
void EpochSys::CloseEpochLocked(std::unique_lock<std::mutex>& lock) {
  const uint64_t closing = current_;
  closing_ = closing;
  ++current_;  // New transactions join the next epoch from here on.
  active_closing_ = active_open_;
  active_open_ = 0;
  open_txs_ = 0;
  open_dirty_ = false;
  deferred_closing_.Splice(&deferred_open_);

  // Wait for the closing epoch's in-flight transactions, servicing delegated
  // publications meanwhile — a closing transaction may be blocked on exactly
  // such a publication, so parking without servicing would deadlock.
  while (active_closing_ > 0) {
    if (!publish_pending_.empty()) {
      ServicePublishLocked(lock);
      continue;
    }
    AwaitKickLocked(lock, PollBudget(), Clock::time_point::max());
  }

  // Drain: the epoch's deferred lines, plus any publication spliced since
  // the last service cycle (flushing next-epoch lines early is harmless —
  // their tickets retire under this fence too).
  const uint64_t upto = publish_seq_;
  const uint64_t drained_bytes = deferred_closing_.staged_bytes();
  drain_batch_.Splice(&publish_pending_);
  drain_batch_.Splice(&deferred_closing_);
  lock.unlock();
  drain_batch_.FlushPending();
  pmem::Fence();      // THE epoch fence: every line of the epoch is durable.
  retire_(closing);   // Retirement record: the epoch's single commit point.
  publish_done_.store(upto, std::memory_order_release);
  retired_.store(closing, std::memory_order_release);
  lock.lock();
  closing_ = 0;
  PUDDLES_COUNT(kEpochAdvanced);
  PUDDLES_COUNT_N(kEpochStagedBytes, drained_bytes);
  NotifyClientsLocked();
}

void EpochSys::AdvancerMain() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (!publish_pending_.empty()) {
      ServicePublishLocked(lock);
      continue;
    }
    if (ShouldCloseLocked()) {
      CloseEpochLocked(lock);
      close_requested_ = false;
      continue;
    }
    if (!open_dirty_) {
      close_requested_ = false;  // Sync() raced an already-idle epoch.
    }
    if (stop_) {
      return;
    }
    // A dirty epoch bounds the poll and the park by its close deadline; an
    // idle one parks until the next kick without polling.
    if (open_dirty_) {
      AwaitKickLocked(lock, open_deadline_ - Clock::now(), open_deadline_);
    } else {
      AwaitKickLocked(lock, Clock::duration::zero(), Clock::time_point::max());
    }
  }
}

}  // namespace puddles
