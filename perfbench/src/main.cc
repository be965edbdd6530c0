// perfbench: one workload per invocation, end-to-end metrics (--trace 0) or
// per-layer metrics (--trace 1), printed as the last stdout line in JSON.
//
//   perfbench --workload ycsb-a|churn|churn-epoch|ship --seed N --seconds S
//             --trace 0|1 --out-dir DIR [--source-id ID]
//
// run.py builds this binary and passes the arguments through.
#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/harness.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"throughput_ops_s", "ops/s"}, {"write_p50_us", "us"}, {"write_p99_us", "us"},
    {"recover_s", "s"},            {"setup_s", "s"},       {"space_amp", "ratio"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"tx.commit_us", "us"},
    {"tx.log_us", "us"},
    {"tx.log_calls_per_tx", "count"},
    {"tx.undo_entries_per_tx", "count"},
    {"tx.undo_elided_per_tx", "count"},
    {"tx.redo_entries_per_tx", "count"},
    {"tx.log_bytes_per_tx", "bytes"},
    {"tx.log_chains", "count"},
    {"tx.aborts_per_ktx", "count"},
    {"pmem.fences_per_tx", "count"},
    {"pmem.flush_calls_per_tx", "count"},
    {"pmem.lines_flushed_per_tx", "count"},
    {"pmem.dedup_ratio", "ratio"},
    {"pmem.write_amp", "ratio"},
    {"pmem.publish_p50_us", "us"},
    {"pmem.publish_p99_us", "us"},
    {"alloc.alloc_us", "us"},
    {"alloc.free_us", "us"},
    {"alloc.arena_hit_ratio", "ratio"},
    {"alloc.refill_slabs_per_kop", "count"},
    {"alloc.flush_slabs_per_kop", "count"},
    {"alloc.remote_frees_per_kop", "count"},
    {"alloc.slab_carves_per_kop", "count"},
    {"alloc.gc_s", "s"},
    {"alloc.gc_slabs", "count"},
    {"alloc.gc_reclaimed", "count"},
    {"epoch.sync_us", "us"},
    {"epoch.txs_per_epoch", "count"},
    {"epoch.publish_waits_per_ktx", "count"},
    {"epoch.sync_waits_per_ktx", "count"},
    {"epoch.sync_wait_p99_us", "us"},
    {"daemon.recovery_s", "s"},
    {"daemon.logs_replayed", "count"},
    {"daemon.entries_applied", "count"},
    {"daemon.logs_gated", "count"},
    {"daemon.import_ms", "ms"},
    {"daemon.requests_per_copy", "count"},
    {"daemon.service_p50_us", "us"},
    {"ipc.rtt_us", "us"},
    {"ipc.setup_rtt_us", "us"},
    {"libpuddles.open_ms", "ms"},
    {"libpuddles.walk_ms", "ms"},
    {"libpuddles.pointers_rewritten_per_copy", "count"},
    {"libpuddles.puddles_mapped_per_copy", "count"},
    {"libpuddles.members_relocated_per_copy", "count"},
    {"workloads.body_self_us", "us"},
    {"workloads.read_p50_us", "us"},
    {"workloads.read_p99_us", "us"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload ycsb-a|churn|churn-epoch|ship "
               "--seed N --seconds S --trace 0|1 --out-dir DIR [--source-id ID]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--source-id") {
      args.source_id = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.out_dir.empty() || args.seconds <= 0) {
    Usage("--out-dir and a positive --seconds are required");
  }
  return args;
}

std::unique_ptr<Workload> MakeWorkload(const Args& args, Progress* progress) {
  if (args.workload == "ycsb-a") return MakeYcsbA(args, progress);
  if (args.workload == "churn") return MakeChurn(args, progress, /*epoch=*/false);
  if (args.workload == "churn-epoch") return MakeChurn(args, progress, /*epoch=*/true);
  if (args.workload == "ship") return MakeShip(args, progress);
  Usage(("unknown workload " + args.workload).c_str());
}

// ---- Report transport: one "m name value" / "c name ran failed" per line ----

void SendReport(int fd, const Report& report) {
  std::string text;
  char line[256];
  for (const auto& [name, value] : report.metrics) {
    std::snprintf(line, sizeof(line), "m %s %.17g\n", name.c_str(), value);
    text += line;
  }
  for (const auto& [name, c] : report.checks) {
    std::snprintf(line, sizeof(line), "c %s %llu %llu\n", name.c_str(),
                  static_cast<unsigned long long>(c.ran),
                  static_cast<unsigned long long>(c.failed));
    text += line;
  }
  text += "end\n";
  size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
    if (n <= 0) {
      std::_Exit(4);
    }
    off += static_cast<size_t>(n);
  }
}

// Reads the child's report; false if the child died or timed out first.
bool ReceiveReport(int fd, double timeout_s, Report* report) {
  std::string text;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(static_cast<int64_t>(timeout_s * 1e3));
  while (text.size() < 4 || text.compare(text.size() - 4, 4, "end\n") != 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      return false;
    }
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left.count())) <= 0) {
      continue;
    }
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      return false;
    }
    text.append(buf, static_cast<size_t>(n));
  }
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    char name[200];
    if (line.rfind("m ", 0) == 0) {
      double value = 0;
      if (std::sscanf(line.c_str(), "m %199s %lf", name, &value) == 2) {
        report->metrics[name] = value;
      }
    } else if (line.rfind("c ", 0) == 0) {
      unsigned long long ran = 0, failed = 0;
      if (std::sscanf(line.c_str(), "c %199s %llu %llu", name, &ran, &failed) == 3) {
        report->Count(name, ran, failed);
      }
    }
  }
  return true;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? "" : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

void PrintPlatform(const Args& args) {
  std::printf(
      "platform: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"pm\": \"emulated: page-cache mmap of daemon-owned files\", "
      "\"flush\": \"%s\", \"nproc\": %ld, \"cpu\": \"%s\", \"stats\": \"%s\", "
      "\"build_type\": \"%s\", \"source\": \"%s\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0,
      pmem::FlushInstructionName(pmem::ActiveFlushInstruction()),
      sysconf(_SC_NPROCESSORS_ONLN), JsonEscape(CpuModel()).c_str(),
      PUDDLES_STATS ? "on" : "off", PERFBENCH_BUILD_TYPE, JsonEscape(args.source_id).c_str());
}

// Joins the child's span events with the parent's into one Chrome trace.
void WriteChromeTrace(const Args& args) {
  const auto child_events = args.out_dir / "events.child.jsonl";
  std::FILE* parent = std::fopen((args.out_dir / "events.parent.jsonl").c_str(), "w");
  if (parent != nullptr) {
    WriteEvents(parent, static_cast<int>(::getpid()));
    std::fclose(parent);
  }
  std::ofstream out(args.out_dir / "trace.json");
  out << "[\n";
  bool first = true;
  for (const auto& part : {child_events, args.out_dir / "events.parent.jsonl"}) {
    std::ifstream in(part);
    std::string line;
    while (std::getline(in, line)) {
      out << (first ? "" : ",\n") << line;
      first = false;
    }
    std::filesystem::remove(part);
  }
  out << "\n]\n";
}

void WriteLayerTable(const Args& args, const Report& report) {
  std::ofstream out(args.out_dir / "layers.txt");
  out << "# " << args.workload << " seed " << args.seed << ": per-layer metrics\n";
  for (const MetricSpec& spec : kPerLayer) {
    const auto it = report.metrics.find(spec.name);
    char line[160];
    std::snprintf(line, sizeof(line), "%-42s %14.4f %s\n", spec.name,
                  it == report.metrics.end() ? 0.0 : it->second, spec.unit);
    out << line;
  }
}

// Copies the regular files of `from` into `to`, recursively (a daemon root
// also holds its UNIX socket, which is not copied).
void CopyFiles(const std::filesystem::path& from, const std::filesystem::path& to) {
  namespace fs = std::filesystem;
  fs::create_directories(to);
  for (const auto& entry : fs::recursive_directory_iterator(from)) {
    const fs::path target = to / fs::relative(entry.path(), from);
    if (entry.is_directory()) {
      fs::create_directories(target);
    } else if (entry.is_regular_file()) {
      fs::copy_file(entry.path(), target);
    }
  }
}

// Recovers the crashed state kRecoverReps times: once in place, with every
// output check, then on byte-identical copies of the crashed data, timing
// only. Each metric is the median over the repetitions, so one slow daemon
// start or GC pass does not set recover_s.
Report RecoverRepeatedly(const Args& args, Progress* progress) {
  constexpr int kRecoverReps = 9;
  namespace fs = std::filesystem;
  const fs::path pristine = args.out_dir / "crashed";
  fs::remove_all(pristine);
  CopyFiles(args.out_dir / "data", pristine);
  Report report;
  MakeWorkload(args, progress)->Recover(&report, /*check_outputs=*/true);
  std::map<std::string, std::vector<double>> samples;
  for (const auto& [name, value] : report.metrics) {
    samples[name].push_back(value);
  }
  Args replica = args;
  replica.out_dir = args.out_dir / "replica";
  for (int rep = 1; rep < kRecoverReps; ++rep) {
    fs::remove_all(replica.out_dir);
    CopyFiles(pristine, replica.out_dir / "data");
    Report timing;
    MakeWorkload(replica, progress)->Recover(&timing, /*check_outputs=*/false);
    for (const auto& [name, value] : timing.metrics) {
      samples[name].push_back(value);
    }
    for (const auto& [name, count] : timing.checks) {
      report.Count(name, count.ran, count.failed);
    }
  }
  fs::remove_all(replica.out_dir);
  fs::remove_all(pristine);
  for (const auto& [name, values] : samples) {
    report.metrics[name] = Median(values);
  }
  return report;
}

int Run(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  // Validate the workload name before forking.
  { (void)MakeWorkload(args, nullptr); }
  std::filesystem::remove_all(args.out_dir / "data");
  std::filesystem::create_directories(args.out_dir / "data");

  void* shared = ::mmap(nullptr, sizeof(Progress), PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (shared == MAP_FAILED) {
    std::perror("mmap");
    return 1;
  }
  auto* progress = new (shared) Progress();
  int fds[2];
  if (::pipe(fds) != 0) {
    std::perror("pipe");
    return 1;
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (pid == 0) {
    // The workload process: dies with the parent, never outlives it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::close(fds[0]);
    std::unique_ptr<Workload> workload = MakeWorkload(args, progress);
    Report report;
    workload->Measure(&report);
    if (args.trace) {
      std::FILE* events = std::fopen((args.out_dir / "events.child.jsonl").c_str(), "w");
      if (events != nullptr) {
        WriteEvents(events, static_cast<int>(::getpid()));
        std::fclose(events);
      }
    }
    report.metrics["peak_rss_mb"] = PeakRssMb();
    SetTracing(false);
    SendReport(fds[1], report);
    workload->Continue();
    for (;;) {
      ::pause();  // Wait for the kill.
    }
  }
  ::close(fds[1]);
  Report report;
  // The child sets up (several times) and measures for --seconds; anything
  // past this bound is a hang.
  const bool received = ReceiveReport(fds[0], 150 + args.seconds, &report);
  if (received) {
    // Crash the child as soon as it is issuing the operations to crash.
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!progress->kill_ready.load() && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  ::kill(pid, SIGKILL);
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  ::close(fds[0]);
  if (!received) {
    std::fprintf(stderr, "perfbench: workload process exited before reporting\n");
    return 1;
  }
  const double child_rss = report.metrics["peak_rss_mb"];

  SetTracing(args.trace);
  report.Merge(RecoverRepeatedly(args, progress));
  SetTracing(false);
  report.metrics["peak_rss_mb"] = std::max(child_rss, PeakRssMb());
  std::filesystem::remove_all(args.out_dir / "data");

  uint64_t attempted = report.checks["ops.ok"].ran;
  uint64_t failed = 0;
  bool all_ran = true;
  for (const auto& [name, c] : report.checks) {
    failed += c.failed;
    all_ran = all_ran && c.ran > 0;
  }
  const bool correct = failed == 0 && all_ran && attempted > 0;

  PrintPlatform(args);
  std::printf("checks: {");
  bool first = true;
  for (const auto& [name, c] : report.checks) {
    std::printf("%s\"%s\": {\"ran\": %llu, \"failed\": %llu}", first ? "" : ", ", name.c_str(),
                static_cast<unsigned long long>(c.ran),
                static_cast<unsigned long long>(c.failed));
    first = false;
  }
  std::printf("}\nfailed_frac: %.6g (%llu of %llu)\n",
              attempted == 0 ? 1.0 : static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  if (args.trace) {
    WriteChromeTrace(args);
    WriteLayerTable(args, report);
    std::printf("trace: %s\nlayers: %s\n", (args.out_dir / "trace.json").c_str(),
                (args.out_dir / "layers.txt").c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  first = true;
  auto emit = [&](const MetricSpec& spec) {
    const auto it = report.metrics.find(spec.name);
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", first ? "" : ", ", spec.name,
                it == report.metrics.end() ? 0.0 : it->second, spec.unit);
    first = false;
  };
  if (args.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
