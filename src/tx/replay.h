// Log replay — the single implementation used both by the in-process runtime
// (transaction abort) and by Puddled (post-crash, application-independent
// recovery, §4.1). "Regardless of whether an entry is an undo or redo log
// entry, to apply an active log entry, the daemon needs to only copy the
// entry's content to the corresponding memory location."
#ifndef SRC_TX_REPLAY_H_
#define SRC_TX_REPLAY_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/tx/log_format.h"

namespace puddles {

// Resolves a logged target address to a writable location in the replayer's
// address space, or nullptr when the address must not be touched (outside any
// puddle the crashed owner could write — §4.6 access control).
class AddressResolver {
 public:
  virtual ~AddressResolver() = default;
  virtual void* Resolve(uint64_t addr, uint32_t size) = 0;
};

// Identity resolution within [base, base+size): used when the log targets a
// region mapped at its logged address (the common case, since daemon and
// clients share the global puddle space layout).
class RangeResolver : public AddressResolver {
 public:
  RangeResolver(uint64_t base, uint64_t size) : base_(base), size_(size) {}
  void* Resolve(uint64_t addr, uint32_t size) override {
    // Overflow-safe bounds check: a hostile/corrupt log entry with addr near
    // UINT64_MAX must not wrap addr+size around and pass (§4.6 — the daemon
    // replays logs it did not write).
    if (addr < base_ || size > size_ || addr - base_ > size_ - size) {
      return nullptr;
    }
    return reinterpret_cast<void*>(addr);
  }

 private:
  uint64_t base_;
  uint64_t size_;
};

struct ReplayStats {
  uint64_t applied = 0;
  uint64_t skipped_out_of_range = 0;  // Sequence number outside the valid range.
  uint64_t skipped_volatile = 0;
  uint64_t skipped_checksum = 0;
  uint64_t unresolvable = 0;  // Resolver refused the address.
};

struct ReplayOptions {
  // Post-crash recovery (the daemon) skips volatile entries; in-process abort
  // applies them to keep DRAM consistent with PM (§4.1).
  bool include_volatile = false;
  // If true, unresolvable addresses poison the whole log: nothing is applied
  // and an error returns (the daemon marks such logs invalid rather than
  // replaying a possibly-hostile log, §4.6).
  bool fail_on_unresolvable = true;
};

// Replays one log (a chain of regions in link order). Valid reverse-order
// (undo) entries are applied newest-first across the whole chain, then valid
// forward-order (redo) entries oldest-first — exactly the two recovery rolls
// of Fig. 7. Applied locations are flushed; one fence ends the replay.
puddles::Result<ReplayStats> ReplayLogChain(const std::vector<LogRegion>& chain,
                                            AddressResolver& resolver,
                                            const ReplayOptions& options = {});

// Cross-chain replay order within one log space, shared by the daemon and
// the crashsim pruner's replay model: chains replay by descending rank, ties
// in log-space order (a stable sort). Replay must run newest writer first,
// because two unretired chains can both hold undo entries for one word:
// epoch e+1 opens (and its publications are serviced) while e's close still
// waits on a straggler, so e+1's pre-image is e's uncommitted value and only
// e's own undo restores the value from before e. Hence a higher epoch tag
// replays earlier. A tag-0 (immediate-mode) chain with live entries is an
// uncommitted transaction, the newest writer of every word it logged, so
// tag-0 chains come first of all.
inline uint64_t ReplayRank(uint64_t epoch_tag) {
  return epoch_tag == 0 ? ~uint64_t{0} : epoch_tag;
}

}  // namespace puddles

#endif  // SRC_TX_REPLAY_H_
