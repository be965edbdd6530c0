// ycsb-a: the paper's headline path. One client thread, immediate durability,
// global-lock allocation, the Fig. 11 KvStore preloaded with 1M records, then
// YCSB-A (50% Get / 50% in-place Put, zipfian). Every Get is checked against
// a DRAM model of the last value written (one version number per key; values
// are a function of key and version, so the model stays 4 MiB).
#include <cstring>

#include "perfbench/src/harness.h"
#include "src/workloads/kvstore.h"
#include "src/workloads/ycsb.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace st = puddles::stats;
using Kv = workloads::KvStore<TracedAdapter>;
using workloads::YcsbStream;

constexpr uint64_t kRecords = 1000000;  // Paper Fig. 11.
constexpr uint64_t kBuckets = 1 << 16;  // As bench_fig11_ycsb.
constexpr int kSetupReps = 3;

class YcsbA : public Workload {
 public:
  YcsbA(const Args& args, Progress* progress)
      : args_(args),
        progress_(progress),
        root_(args.out_dir / "data" / "kv") {}

  void Measure(Report* report) override {
    Kv::RegisterTypes();
    MeasureSetup(
        args_, kSetupReps,
        [&] {
          stack_ = Stack::Create(root_, "kv");
          kv_ = std::make_unique<Kv>(TracedAdapter(stack_.pool));
          PERFBENCH_CHECK_OK(kv_->Init(kBuckets));
          char value[workloads::kKvValueSize];
          for (uint64_t i = 0; i < kRecords; ++i) {
            FillValue(i, 0, value);
            PERFBENCH_CHECK_OK(kv_->Put(YcsbStream::KeyFor(i), value));
          }
        },
        [&] {
          kv_.reset();
          stack_.Stop();
          fs::remove_all(root_);
        },
        report);
    versions_.assign(kRecords, 0);
    stream_ = std::make_unique<YcsbStream>(workloads::YcsbWorkload::kA, kRecords, args_.seed);

    MeasurePhases(
        args_, stack_.runtime.get(),
        [&](double seconds) { return RunFor(seconds, report); }, report);
    write_latency_.ReportTo("write", &report->metrics);
    read_latency_.ReportTo("workloads.read", &report->metrics);
    report->metrics["space_amp"] =
        static_cast<double>(PuddleFileBytes(root_)) /
        static_cast<double>(kRecords * sizeof(Kv::Entry));
  }

  void Continue() override {
    // Be a few milliseconds into the stream when the kill comes.
    Report ignored;
    RunFor(0.005, &ignored);
    progress_->kill_ready.store(true);
    for (;;) {
      RunFor(3600, &ignored);
    }
  }

  void Recover(Report* report, bool check_outputs) override {
    Kv::RegisterTypes();
    const uint64_t t0 = st::NowTicks();
    Stack stack = Stack::Recover(root_, "kv", report);
    Kv kv{TracedAdapter(stack.pool)};
    const bool readable = kv.Init(kBuckets).ok();
    report->metrics["recover_s"] = TicksToSeconds(st::NowTicks() - t0);
    report->Check("recovery.root_readable", readable);
    if (!readable || !check_outputs) {
      return;
    }

    // Rebuild the model from the seed: every acknowledged Put applied; the
    // one in flight at the kill (if any) may or may not have landed.
    const uint64_t acked = progress_->acked[0].load();
    const uint64_t started = progress_->started[0].load();
    std::vector<uint32_t> versions(kRecords, 0);
    YcsbStream stream(workloads::YcsbWorkload::kA, kRecords, args_.seed);
    uint64_t in_flight = kRecords;  // Key index of the in-flight Put, if any.
    for (uint64_t i = 0; i < started; ++i) {
      const workloads::YcsbRequest request = stream.Next();
      if (request.op != workloads::YcsbOp::kUpdate) {
        continue;
      }
      if (i < acked) {
        ++versions[request.key_index];
      } else {
        in_flight = request.key_index;
      }
    }
    uint64_t mismatches = 0;
    char value[workloads::kKvValueSize];
    char expected[workloads::kKvValueSize];
    for (uint64_t k = 0; k < kRecords; ++k) {
      if (!kv.Get(YcsbStream::KeyFor(k), value)) {
        ++mismatches;
        continue;
      }
      FillValue(k, versions[k], expected);
      bool ok = std::memcmp(value, expected, sizeof(value)) == 0;
      if (!ok && k == in_flight) {
        FillValue(k, versions[k] + 1, expected);
        ok = std::memcmp(value, expected, sizeof(value)) == 0;
      }
      mismatches += ok ? 0 : 1;
    }
    report->Count("recovery.acked_puts_present", kRecords, mismatches);
    report->Check("recovery.size_matches", kv.size() == kRecords);
  }

 private:
  // The 64-byte value of key `k` after `version` updates.
  void FillValue(uint64_t k, uint32_t version, char* out) const {
    uint64_t words[workloads::kKvValueSize / 8];
    for (size_t w = 0; w < std::size(words); ++w) {
      words[w] = Mix64(args_.seed ^ (k << 20) ^ (uint64_t{version} << 4) ^ w);
    }
    words[std::size(words) - 1] &= ~(uint64_t{0xff} << 56);  // Keep a NUL at the end.
    std::memcpy(out, words, sizeof(words));
  }

  PhaseWork RunFor(double seconds, Report* report) {
    reads_.Reset();
    writes_.Reset();
    PhaseWork work;
    char value[workloads::kKvValueSize];
    char expected[workloads::kKvValueSize];
    uint64_t failures = 0, get_mismatches = 0, gets = 0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(seconds);
    const uint64_t start = st::NowTicks();
    for (uint64_t n = 0;; ++n) {
      if ((n & 63) == 0 && std::chrono::steady_clock::now() >= deadline) {
        break;
      }
      const workloads::YcsbRequest request = stream_->Next();
      const std::string key = YcsbStream::KeyFor(request.key_index);
      progress_->started[0].store(op_index_ + 1, std::memory_order_relaxed);
      BeginOp();
      if (request.op == workloads::YcsbOp::kRead) {
        const uint64_t t0 = st::NowTicks();
        bool found;
        {
          ScopedSpan span(Span::kOpGet);
          found = kv_->Get(key, value);
        }
        reads_.Record(st::NowTicks() - t0);
        FillValue(request.key_index, versions_[request.key_index], expected);
        ++gets;
        get_mismatches += found && std::memcmp(value, expected, sizeof(value)) == 0 ? 0 : 1;
      } else {
        FillValue(request.key_index, versions_[request.key_index] + 1, value);
        const uint64_t t0 = st::NowTicks();
        puddles::Status status = puddles::OkStatus();
        {
          ScopedSpan span(Span::kOpPut);
          status = kv_->Put(key, value);
        }
        writes_.Record(st::NowTicks() - t0);
        if (status.ok()) {
          ++versions_[request.key_index];
          work.user_bytes += workloads::kKvValueSize;
        } else {
          ++failures;
        }
      }
      progress_->acked[0].store(++op_index_, std::memory_order_relaxed);
      ++work.ops;
    }
    work.wall_ticks = st::NowTicks() - start;
    read_latency_.Add(reads_);
    write_latency_.Add(writes_);
    report->Count("ops.ok", work.ops, failures);
    report->Count("ycsb.get_matches_model", gets, get_mismatches);
    return work;
  }

  const Args args_;
  Progress* progress_;
  const fs::path root_;
  Stack stack_;
  std::unique_ptr<Kv> kv_;
  std::unique_ptr<YcsbStream> stream_;
  std::vector<uint32_t> versions_;
  uint64_t op_index_ = 0;
  st::Histogram reads_;  // Current slice.
  st::Histogram writes_;
  SliceLatency read_latency_;
  SliceLatency write_latency_;
};

}  // namespace

std::unique_ptr<Workload> MakeYcsbA(const Args& args, Progress* progress) {
  return std::make_unique<YcsbA>(args, progress);
}

}  // namespace perfbench
