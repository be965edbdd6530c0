// ship: the paper's location-independence claim (Fig. 13/14). Set-up builds
// the sensor exports: a seed node publishes a pointer-rich state list of
// kVars variables, and each of 20 sensor nodes (an isolated daemon root)
// imports it, adds its contribution to every variable and exports it again.
// The measured loop is the home node's: one client thread talking to an
// in-process puddled over its UNIX socket, which for each copy imports the
// export under a fresh name, opens it, and walks the list once — opening maps
// the copy and rewrites its pointers. Each walked value goes into the
// aggregate, which must equal its closed form.
//
// A home round aggregates all 20 exports; the home daemon then restarts on a
// clean root (outside the timed interval) so disk use stays bounded.
#include <sched.h>

#include "perfbench/src/harness.h"
#include "src/workloads/list.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace st = puddles::stats;
using StateList = workloads::PersistentList<TracedAdapter>;

// Paper Fig. 14's largest state is 1600 variables. An export is a meta and a
// data puddle file of fixed size (about 4.7 MB) whatever the state holds, so
// at 1600 variables the file copy inside ImportPool is 80% of a copy, and
// the page-cache copy speed of a VM drifts by a quarter over tens of
// seconds. At 32768 variables (one data puddle still holds them) opening the
// copy — mapping and pointer rewrite, the relocation this workload exists to
// measure — is most of a copy.
constexpr uint64_t kVars = 32768;
constexpr uint64_t kSensorBatch = 1024;  // Variables a sensor changes per tx.
constexpr int kNodes = 20;               // As bench_fig14_aggregation.
constexpr int kSetupReps = 5;

class Ship : public Workload {
 public:
  Ship(const Args& args, Progress* progress)
      : args_(args),
        progress_(progress),
        data_(args.out_dir / "data") {}

  void Measure(Report* report) override {
    PinToOneCpu();
    StateList::RegisterTypes();
    MeasureSetup(
        args_, kSetupReps,
        [&] {
          fs::remove_all(data_ / "exports");
          BuildExports();
          StartHome(0);
        },
        [&] { StopHome(); }, report);

    MeasurePhases(
        args_, nullptr, [&](double seconds) { return RunFor(seconds, report); }, report);
    // Runtime counters restart with every home round, so the per-copy
    // libpuddles figures are summed here rather than by AddLayerMetrics.
    if (args_.trace && phase_copies_ > 0) {
      const double copies = static_cast<double>(phase_copies_);
      report->metrics["libpuddles.pointers_rewritten_per_copy"] =
          static_cast<double>(phase_runtime_.pointers_rewritten) / copies;
      report->metrics["libpuddles.puddles_mapped_per_copy"] =
          static_cast<double>(phase_runtime_.puddles_mapped) / copies;
    }
    copy_latency_.ReportTo("write", &report->metrics);
    if (space_amp_.empty()) {
      space_amp_.push_back(SpaceAmp());
    }
    report->metrics["space_amp"] = Median(space_amp_);
  }

  void Continue() override {
    // Crash the home node in the import of the copy half way through a
    // fresh round, so every run recovers the same kind of state.
    NextRound();
    Report ignored;
    for (;;) {
      if (copy_in_round_ == kNodes / 2) {
        progress_->kill_ready.store(true);
      }
      CopyOnce(&ignored);
    }
  }

  // Recovery of the home node: daemon start on the killed root, then every
  // copy acknowledged before the kill is opened and walked again, which
  // rebuilds the aggregate over them.
  void Recover(Report* report, bool check_outputs) override {
    StateList::RegisterTypes();
    const uint64_t round = progress_->round.load();
    const uint64_t acked = progress_->round_acked.load();
    const uint64_t t0 = st::NowTicks();
    Stack stack = Stack::Recover(HomeRoot(round), "", report);
    std::vector<uint64_t> sums, counts;
    bool opened = true;
    for (uint64_t j = 0; j < acked; ++j) {
      auto pool = stack.runtime->OpenPool(CopyName(round, j));
      auto head = pool.ok() ? (*pool)->Root<StateList::Head>()
                            : puddles::Result<StateList::Head*>(pool.status());
      opened = opened && head.ok() && *head != nullptr;
      uint64_t count = 0;
      sums.push_back(head.ok() && *head != nullptr ? Walk(*head, &count) : 0);
      counts.push_back(count);
    }
    report->metrics["recover_s"] = TicksToSeconds(st::NowTicks() - t0);
    report->Check("recovery.acked_copies_open", opened && acked > 0);
    for (uint64_t j = 0; check_outputs && j < acked; ++j) {
      report->Check("recovery.acked_copies_intact",
                    sums[j] == ExpectedSum(static_cast<int>(j)) && counts[j] == kVars);
    }
  }

 private:
  // The home client and the daemon's event loop take turns: every request
  // blocks the client until the reply. On one vCPU each turn is a context
  // switch; across vCPUs it is a wake-up of an idle vCPU, whose latency the
  // hypervisor sets and which varies run to run several-fold. Threads
  // created later (the daemon's) inherit the mask.
  static void PinToOneCpu() {
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        (void)sched_setaffinity(0, sizeof(one), &one);
        return;
      }
    }
  }

  static std::string CopyName(uint64_t round, uint64_t j) {
    return "copy" + std::to_string(round) + "_" + std::to_string(j);
  }
  fs::path HomeRoot(uint64_t round) const { return data_ / ("home" + std::to_string(round)); }
  fs::path ExportDir(int node) const { return data_ / "exports" / ("node" + std::to_string(node)); }

  uint64_t SeedValue(uint64_t i) const { return Mix64(args_.seed ^ (i * 0x51ed27ULL)) % 1000 + 1; }
  // Sum over one copy from `node`: every variable plus the node's share.
  uint64_t ExpectedSum(int node) const {
    uint64_t sum = 0;
    for (uint64_t i = 0; i < kVars; ++i) {
      sum += SeedValue(i) + static_cast<uint64_t>(node) + 1;
    }
    return sum;
  }

  static uint64_t Walk(StateList::Head* head, uint64_t* count) {
    uint64_t sum = 0;
    for (StateList::Node* n = head->head; n != nullptr; n = n->next) {
      sum += n->value;
      ++*count;
    }
    return sum;
  }

  void BuildExports() {
    {
      Stack seed = Stack::Create(data_ / "seed_node", "state");
      StateList state{TracedAdapter(seed.pool)};
      PERFBENCH_CHECK_OK(state.Init());
      for (uint64_t i = 0; i < kVars; ++i) {
        PERFBENCH_CHECK_OK(state.InsertTail(SeedValue(i)));
      }
      PERFBENCH_CHECK_OK(seed.runtime->ExportPool("state", (data_ / "exports" / "seed").string()));
    }
    fs::remove_all(data_ / "seed_node");
    for (int node = 0; node < kNodes; ++node) {
      const fs::path root = data_ / ("node" + std::to_string(node));
      {
        Stack sensor = Stack::Start(root);
        auto pool = sensor.runtime->ImportPool((data_ / "exports" / "seed").string(), "state");
        PERFBENCH_CHECK_OK(pool);
        StateList::Head* head = *(*pool)->Root<StateList::Head>();
        for (StateList::Node* n = head->head; n != nullptr;) {
          PERFBENCH_CHECK_OK((*pool)->Run([&](puddles::Tx& tx) -> puddles::Status {
            for (uint64_t k = 0; k < kSensorBatch && n != nullptr; ++k, n = n->next) {
              RETURN_IF_ERROR(tx.LogField(n, &StateList::Node::value));
              n->value += static_cast<uint64_t>(node) + 1;
            }
            return puddles::OkStatus();
          }));
        }
        PERFBENCH_CHECK_OK(sensor.runtime->ExportPool("state", ExportDir(node).string()));
      }
      fs::remove_all(root);
    }
  }

  void StartHome(uint64_t round) {
    round_ = round;
    copy_in_round_ = 0;
    progress_->round_acked.store(0);
    progress_->round.store(round);
    home_ = Stack::Start(HomeRoot(round));
  }

  void StopHome() {
    const fs::path root = HomeRoot(round_);
    home_.Stop();
    fs::remove_all(root);
  }

  double SpaceAmp() const {
    return static_cast<double>(PuddleFileBytes(HomeRoot(round_))) /
           static_cast<double>(std::max(1, copy_in_round_) * kVars *
                               sizeof(StateList::Node));
  }

  // Ends the current home round and starts the next one on a clean root.
  void NextRound() {
    const puddles::Runtime::Stats rs = home_.runtime->stats();
    if (Tracing()) {
      phase_runtime_.pointers_rewritten += rs.pointers_rewritten - round_base_.pointers_rewritten;
      phase_runtime_.puddles_mapped += rs.puddles_mapped - round_base_.puddles_mapped;
    }
    StopHome();
    StartHome(round_ + 1);
    round_base_ = home_.runtime->stats();
  }

  // Imports, opens and walks the next copy. Returns its busy ticks.
  uint64_t CopyOnce(Report* report) {
    const int node = copy_in_round_;
    const std::string name = CopyName(round_, static_cast<uint64_t>(node));
    progress_->started[0].fetch_add(1, std::memory_order_relaxed);
    BeginOp();
    const uint64_t t0 = st::NowTicks();
    bool ok = false;
    {
      ScopedSpan op(Span::kOpCopy);
      auto imported = [&] {
        ScopedSpan span(Span::kDaemonImport);
        return home_.runtime->client().ImportPool(ExportDir(node).string(), name, 0600);
      }();
      if (imported.ok()) {
        relocated_ += imported->members_relocated;
        auto pool = [&] {
          ScopedSpan span(Span::kLibOpen);
          return home_.runtime->OpenPool(name);
        }();
        if (pool.ok()) {
          ScopedSpan span(Span::kLibWalk);
          auto head = (*pool)->Root<StateList::Head>();
          uint64_t count = 0;
          const uint64_t sum = head.ok() ? Walk(*head, &count) : 0;
          aggregate_ += sum;
          expected_aggregate_ += ExpectedSum(node);
          ok = head.ok() && count == kVars && sum == ExpectedSum(node);
        }
      }
    }
    const uint64_t busy = st::NowTicks() - t0;
    copies_.Record(busy);
    report->Check("ops.ok", ok);
    progress_->acked[0].fetch_add(1, std::memory_order_relaxed);
    progress_->round_acked.store(static_cast<uint64_t>(++copy_in_round_));
    if (copy_in_round_ == kNodes) {
      space_amp_.push_back(SpaceAmp());
      NextRound();
    }
    return busy;
  }

  // Copies until `seconds` of busy time; home restarts are not counted.
  PhaseWork RunFor(double seconds, Report* report) {
    copies_.Reset();
    relocated_ = 0;
    aggregate_ = expected_aggregate_ = 0;
    phase_runtime_ = {};
    round_base_ = home_.runtime->stats();
    PhaseWork work;
    const uint64_t t_start = st::NowTicks();
    const double budget_s = seconds;
    uint64_t busy = 0;
    while (TicksToSeconds(busy) < budget_s) {
      busy += CopyOnce(report);
      ++work.ops;
      // A safety net for a stalled home restart: never run past 3x the budget.
      if (TicksToSeconds(st::NowTicks() - t_start) > 3 * budget_s) {
        break;
      }
    }
    if (Tracing()) {
      const puddles::Runtime::Stats rs = home_.runtime->stats();
      phase_runtime_.pointers_rewritten += rs.pointers_rewritten - round_base_.pointers_rewritten;
      phase_runtime_.puddles_mapped += rs.puddles_mapped - round_base_.puddles_mapped;
    }
    phase_copies_ = work.ops;
    copy_latency_.Add(copies_);
    work.wall_ticks = busy;
    work.copies = work.ops;
    work.members_relocated = relocated_;
    report->Check("ship.aggregate_closed_form", aggregate_ == expected_aggregate_);
    return work;
  }

  const Args args_;
  Progress* progress_;
  const fs::path data_;
  Stack home_;
  uint64_t round_ = 0;
  int copy_in_round_ = 0;
  st::Histogram copies_;  // Current slice: import + open + walk per copy.
  SliceLatency copy_latency_;
  std::vector<double> space_amp_;
  uint64_t relocated_ = 0;
  uint64_t aggregate_ = 0;
  uint64_t expected_aggregate_ = 0;
  uint64_t phase_copies_ = 0;
  puddles::Runtime::Stats round_base_;
  puddles::Runtime::Stats phase_runtime_;
};

}  // namespace

std::unique_ptr<Workload> MakeShip(const Args& args, Progress* progress) {
  return std::make_unique<Ship>(args, progress);
}

}  // namespace perfbench
