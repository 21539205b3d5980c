// Benchmark program for three workloads (see README.md in this directory):
//
//   paper-sweep   the paper's Fig. 4 (non-preemptive) and Fig. 7
//                 (preemptive) panels under the six paper policies,
//                 through run_sweep on two threads;
//   stream-heavy  Poisson streams of layered IR jobs at offered load 0.9
//                 through multi_simulate, under kgreedy, mqb and llf;
//   serve-open    an open loop of Poisson wall-clock arrivals into a
//                 two-shard MQB ShardedService.
//
// Usage: perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                  [--spans=PATH]
//
// Every input is generated here from --seed; the library only receives
// the generated inputs.  Untraced runs (--trace=0) time the library calls
// from outside, and report host times calibrated against the machine's
// speed measured during the run (see "Machine-speed calibration").  Traced runs (--trace=1) wrap the library's public entry
// points in spans recorded by this file alone, derive each layer's self
// time from the span tree, and write the spans to --spans.
//
// Output: human-readable lines, then as the last line one JSON object
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exit status 1 when an output check failed, 2 on a usage error or on a
// build this benchmark refuses to measure.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exp/configs.hh"
#include "exp/json.hh"
#include "exp/sweep.hh"
#include "graph/analysis.hh"
#include "metrics/bounds.hh"
#include "multijob/multijob.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "rt/stream_rt.hh"
#include "sched/registry.hh"
#include "service/journal.hh"
#include "shard/shard_journal.hh"
#include "shard/sharded_service.hh"
#include "support/rng.hh"
#include "workload/workload.hh"

namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload sizes, chosen so that one run's medians repeat within the
// bounds of BENCHMARK.json on a 4-core machine.

/// paper-sweep: instances per Fig. 4 panel (six panels, non-preemptive)
/// and per Fig. 7 panel (three layered panels, preemptive).  A panel
/// takes one to two seconds on one thread, so that the calibration
/// after each follows the machine's drift.
constexpr std::size_t kFig4Instances = 100;
constexpr std::size_t kFig7Instances = 50;
/// Calibration slices a worker runs after each of its panels.
constexpr int kPanelSlices = 12;
/// Instances per panel of the smaller grid run at 1 and at
/// kThreadCheckThreads threads in one run_sweep call, to
/// check that the report does not depend on the thread count.
constexpr std::size_t kThreadCheckInstances = 10;
constexpr std::size_t kThreadCheckThreads = 4;

/// stream-heavy: independent streams, jobs per stream, offered load.
/// Many short streams average out how arrivals bunch up, which at load
/// 0.9 swings one long stream's dispatch cost by 40% between seeds.
constexpr std::size_t kStreams = 256;
constexpr std::size_t kStreamJobs = 20;
constexpr double kStreamLoad = 0.9;
/// A traced run measures the first streams only: its three passes
/// (untraced reference, traced, trace-recording) must fit in one run.
constexpr std::size_t kTracedStreams = 24;
const std::vector<std::string> kStreamPolicies = {"kgreedy", "mqb", "llf"};

/// How many of `streams` streams policy `p` runs: llf, the slowest by
/// far, runs the first eighth only, which keeps a round within --seconds.
/// mqb runs them all, because mqb_stretch needs them: its spread between
/// seeds falls with the square root of the number of streams.
std::size_t policy_streams(std::size_t p, std::size_t streams) {
  return kStreamPolicies[p] == "llf" ? (streams + 7) / 8 : streams;
}

/// serve-open: short IR jobs (2-4 map/reduce iterations instead of
/// 6-12), so that a run completes thousands of them.  The two-shard knee
/// of a 10-second session is about 250 jobs/s on a 4-core machine, but
/// queueing before the fold grows with the length of a session; 60 jobs/s
/// keeps 30-second sessions well clear of it.  The latency limit defines
/// goodput.
constexpr double kServeRatePerSecond = 60.0;
fhs::IrParams serve_job_params() {
  fhs::IrParams params;
  params.min_iterations = 2;
  params.max_iterations = 4;
  return params;
}
constexpr std::size_t kServeShards = 2;
constexpr double kServeLatencyLimitMs = 50.0;
/// How long the poller waits for stragglers after the last arrival.
constexpr double kServeDrainSeconds = 30.0;
/// Pause between two poll sweeps over the outstanding tickets.
constexpr std::chrono::microseconds kPollPause{20};
/// Interval between two ShardedService::stats() reads by the poller.
constexpr std::chrono::milliseconds kStatsInterval{100};
/// The generator runs calibration slices while its next arrival is at
/// least this far away, then spins to the due time.
constexpr std::chrono::milliseconds kSliceHeadroom{3};

/// Set-up is repeated this many times and its median reported.
constexpr int kSetupRepeats = 3;

/// Worker threads of paper-sweep and stream-heavy: two, so that the
/// machine keeps cores for everything else it runs; fewer on a smaller
/// machine.
std::size_t bench_threads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 2);
}

/// stream-heavy and serve-open run on K = 4 types of 16 processors.
fhs::Cluster bench_cluster() { return fhs::Cluster({16, 16, 16, 16}); }

// ---------------------------------------------------------------------------
// Small helpers.

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double geomean(const std::vector<double>& values) {
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Machine-speed calibration.  On a shared host the speed of a core drifts
// by 20-35% over minutes, and not by the same share on every core, so raw
// host times of two runs minutes apart differ by more than any change
// worth finding.  Each workload therefore runs a fixed calibration slice
// on the threads that do its work, right after pieces of that work, and
// reports its host times in calibrated units: raw time x (nominal slice
// time / measured median slice time).  The slice is this file's code
// alone, so a change to the library cannot move it; raw figures are
// printed too.

/// About the slice's median wall time on the 4-core Xeon VM the benchmark
/// was sized on (gcc 12 Release).  Only the scale of calibrated figures
/// depends on it.
constexpr double kNominalSliceMs = 1.0;

/// The calibration DAG: 3000 tasks of four types, each with one to three
/// earlier parents, in adjacency-array form.  Built once per thread, so
/// that slices allocate nothing.
struct CalibrationDag {
  static constexpr int kTasks = 3000;
  static constexpr std::size_t kTypes = 4;
  std::vector<std::size_t> first_successor;  // kTasks + 1 offsets into successors
  std::vector<int> successors;
  std::vector<int> indegree;
  std::vector<std::size_t> type;
  std::vector<long> work;
};

std::uint64_t xorshift(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

const CalibrationDag& calibration_dag() {
  thread_local const CalibrationDag dag = [] {
    CalibrationDag d;
    std::uint64_t state = 12345;
    std::vector<std::vector<int>> successors(CalibrationDag::kTasks);
    d.indegree.assign(CalibrationDag::kTasks, 0);
    for (int v = 1; v < CalibrationDag::kTasks; ++v) {
      const auto parents = 1 + xorshift(state) % 3;
      for (std::uint64_t i = 0; i < parents; ++i) {
        successors[xorshift(state) % static_cast<std::uint64_t>(v)].push_back(v);
        ++d.indegree[static_cast<std::size_t>(v)];
      }
    }
    for (int v = 0; v < CalibrationDag::kTasks; ++v) {
      d.type.push_back(xorshift(state) % CalibrationDag::kTypes);
      d.work.push_back(static_cast<long>(1 + xorshift(state) % 50));
    }
    d.first_successor.push_back(0);
    for (const std::vector<int>& list : successors) {
      d.successors.insert(d.successors.end(), list.begin(), list.end());
      d.first_successor.push_back(d.successors.size());
    }
    return d;
  }();
  return dag;
}

/// One calibration slice: an arithmetic loop over an L1-sized table, then
/// a list schedule of the calibration DAG on 4x4 processors with a ready
/// heap per type and an event heap -- the operations scheduling code is
/// made of, written here so that no library code runs in it.  Identical
/// work every call, and no allocation after a thread's first call.
/// Returns its wall milliseconds.  Of the kernels tried, these two
/// tracked the library's own speed best; a kernel that allocates, or one
/// that loads at random from 128 KiB, tracked it worse.
double calibration_slice_ms() {
  const CalibrationDag& dag = calibration_dag();
  thread_local std::vector<int> indegree;
  thread_local std::vector<std::vector<std::pair<std::uint64_t, int>>> ready(
      CalibrationDag::kTypes);
  thread_local std::vector<std::pair<long, int>> events;  // (-finish, task): a min-heap
  const auto start = Clock::now();

  std::uint64_t acc = 0;
  std::uint64_t x = 1;
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 120000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    table[x >> 56] += static_cast<std::uint32_t>(x >> 20);
    acc += (x >> 33) % 7 == 0 ? table[i & 255] : 1;
  }

  std::uint64_t state = 777;
  indegree = dag.indegree;
  auto make_ready = [&](int v) {
    auto& queue = ready[dag.type[static_cast<std::size_t>(v)]];
    queue.emplace_back(xorshift(state) % 1000, v);
    std::push_heap(queue.begin(), queue.end());
  };
  for (int v = 0; v < CalibrationDag::kTasks; ++v) {
    if (indegree[static_cast<std::size_t>(v)] == 0) make_ready(v);
  }
  std::array<int, CalibrationDag::kTypes> free_processors{4, 4, 4, 4};
  long now = 0;
  for (int done = 0; done < CalibrationDag::kTasks; ++done) {
    for (std::size_t a = 0; a < CalibrationDag::kTypes; ++a) {
      while (free_processors[a] > 0 && !ready[a].empty()) {
        std::pop_heap(ready[a].begin(), ready[a].end());
        const int v = ready[a].back().second;
        ready[a].pop_back();
        --free_processors[a];
        events.emplace_back(-(now + dag.work[static_cast<std::size_t>(v)]), v);
        std::push_heap(events.begin(), events.end());
      }
    }
    std::pop_heap(events.begin(), events.end());
    const auto [finish, v] = events.back();
    events.pop_back();
    now = -finish;
    const auto task = static_cast<std::size_t>(v);
    ++free_processors[dag.type[task]];
    acc += static_cast<std::uint64_t>(now);
    for (std::size_t i = dag.first_successor[task]; i < dag.first_successor[task + 1]; ++i) {
      const int w = dag.successors[i];
      if (--indegree[static_cast<std::size_t>(w)] == 0) make_ready(w);
    }
  }
  // Keeps the work observable so it cannot be optimized away.
  static std::atomic<std::uint64_t> sink{0};
  sink.fetch_add(acc, std::memory_order_relaxed);
  return ms_between(start, Clock::now());
}

/// Calibration slices of one run, or of one part of it.
class SpeedLog {
 public:
  void add(double slice_ms) { slices_ms_.push_back(slice_ms); }
  void merge(const SpeedLog& other) {
    slices_ms_.insert(slices_ms_.end(), other.slices_ms_.begin(), other.slices_ms_.end());
  }
  [[nodiscard]] std::size_t size() const { return slices_ms_.size(); }
  /// Nominal over the median slice time: host times are multiplied by
  /// it, host rates divided by it.  1 when nothing was measured.  The
  /// median, not the mean, because a slice that an interruption
  /// stretched says nothing about the machine's speed.
  [[nodiscard]] double factor() const {
    return slices_ms_.empty() ? 1.0 : kNominalSliceMs / median(slices_ms_);
  }

 private:
  std::vector<double> slices_ms_;
};

/// Runs `slices` slices on this thread into `log`.
void calibrate(int slices, SpeedLog& log) {
  for (int i = 0; i < slices; ++i) log.add(calibration_slice_ms());
}

/// Runs body(0) on this thread and body(1) .. body(workers - 1) on their
/// own threads.  Rethrows the first exception any of them threw, once
/// all have ended.
void run_workers(std::size_t workers, const std::function<void(std::size_t)>& body) {
  std::mutex error_mutex;
  std::exception_ptr error;
  auto guarded = [&](std::size_t w) {
    try {
      body(w);
    } catch (...) {
      const std::lock_guard lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(guarded, w);
  guarded(0);
  for (std::thread& thread : pool) thread.join();
  if (error) std::rethrow_exception(error);
}

/// Slices run around each set-up repetition.
constexpr int kSetupSlices = 20;

/// Runs `body` kSetupRepeats times, each between two calibrations on
/// this thread; returns the median calibrated seconds.
double timed_setup(const std::function<void()>& body) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupRepeats; ++i) {
    SpeedLog speed;
    calibrate(kSetupSlices, speed);
    const auto start = Clock::now();
    body();
    const double raw = seconds_between(start, Clock::now());
    calibrate(kSetupSlices, speed);
    samples.push_back(raw * speed.factor());
  }
  return median(samples);
}

// ---------------------------------------------------------------------------
// Report: named metrics, operation counts and output checks.

class Report {
 public:
  /// A metric of the final JSON line.
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// A figure printed for reading only (workload-specific names).
  void note(const std::string& name, double value, const std::string& unit) {
    notes_.push_back({name, value, unit});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  void warn(const std::string& what) { warnings_.push_back(what); }
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  [[nodiscard]] bool correct() const { return failures_.empty(); }

  void print(std::ostream& out) const {
    for (const auto& n : notes_) {
      out << "  " << n.name << " = " << format(n.value) << ' ' << n.unit << '\n';
    }
    for (const auto& m : metrics_) {
      out << "metric " << m.name << " = " << format(m.value) << ' ' << m.unit << '\n';
    }
    for (const auto& w : warnings_) out << "WARNING: " << w << '\n';
    for (const auto& f : failures_) out << "CHECK FAILED: " << f << '\n';
    out << "attempted " << attempted_ << " failed " << failed_ << '\n';
    out << "{\"correct\": " << (correct() ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      out << (i ? ", " : "") << fhs::json_quote(metrics_[i].name)
          << ": {\"value\": " << format(metrics_[i].value)
          << ", \"unit\": " << fhs::json_quote(metrics_[i].unit) << '}';
    }
    out << "}}" << std::endl;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  static std::string format(double value) {
    if (!std::isfinite(value)) return "null";
    char buffer[32];
    const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
    return std::string(buffer, result.ptr);
  }

  std::vector<Entry> metrics_;
  std::vector<Entry> notes_;
  std::vector<std::string> warnings_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Tracer: spans recorded from this file only, around calls into the
// library.  Each thread records on its own Lane.  When a span closes, its
// duration is added to its name's total and to its parent's child time,
// so self time = duration - time covered by direct children.  The totals
// cover every span; stored records (for the span file) are capped per
// lane to bound memory.

constexpr std::uint32_t kNoJob = std::numeric_limits<std::uint32_t>::max();
constexpr std::size_t kStoredSpansPerLane = 100000;

struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::vector<double> samples_ns;  // only for names interned with samples
};

class Tracer;

class Lane {
 public:
  explicit Lane(const Tracer& tracer) : tracer_(tracer) {}

  void open(std::uint32_t name, std::uint32_t job) {
    stack_.push_back({name, job, Clock::now(), 0});
  }
  void close();

 private:
  friend class Tracer;
  struct Open {
    std::uint32_t name;
    std::uint32_t job;
    Clock::time_point start;
    std::int64_t child_ns;
  };
  struct Record {
    std::uint32_t name;
    std::uint32_t job;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;  // record index in this lane, -1 for a root
  };

  const Tracer& tracer_;
  std::vector<Open> stack_;
  std::vector<SpanTotals> totals_;  // by name id
  std::vector<Record> records_;
  /// Records closed at each depth whose parent has not closed yet.
  std::vector<std::vector<std::size_t>> unparented_;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Interns a span name.  Not thread-safe: call while no other thread
  /// records.
  std::uint32_t name(const std::string& text, bool keep_samples = false) {
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == text) return i;
    }
    names_.push_back(text);
    keep_samples_.push_back(keep_samples);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  /// A new lane for one recording thread.  Not thread-safe, as name().
  Lane& lane() {
    lanes_.push_back(std::make_unique<Lane>(*this));
    return *lanes_.back();
  }

  /// Totals of one span name over every lane (after recording ends).
  [[nodiscard]] SpanTotals totals(const std::string& text) const {
    SpanTotals sum;
    for (std::uint32_t id = 0; id < names_.size(); ++id) {
      if (names_[id] != text) continue;
      for (const auto& lane : lanes_) {
        if (id >= lane->totals_.size()) continue;
        const SpanTotals& t = lane->totals_[id];
        sum.count += t.count;
        sum.total_ns += t.total_ns;
        sum.self_ns += t.self_ns;
        sum.samples_ns.insert(sum.samples_ns.end(), t.samples_ns.begin(),
                              t.samples_ns.end());
      }
    }
    return sum;
  }

  [[nodiscard]] std::uint64_t span_count() const {
    std::uint64_t n = 0;
    for (const auto& lane : lanes_) n += spans_of(*lane);
    return n;
  }

  /// Writes the stored spans as one JSON document.
  void write(std::ostream& out) const {
    out << "{\"schema\": 1, \"names\": [";
    for (std::size_t i = 0; i < names_.size(); ++i) {
      out << (i ? ", " : "") << fhs::json_quote(names_[i]);
    }
    out << "],\n \"fields\": [\"name\", \"job\", \"start_ns\", \"end_ns\", \"parent\"],\n"
        << " \"lanes\": [";
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      const Lane& lane = *lanes_[l];
      out << (l ? ",\n  " : "\n  ") << "{\"lane\": " << l << ", \"spans\": " << spans_of(lane)
          << ", \"stored\": " << lane.records_.size() << ", \"records\": [";
      for (std::size_t i = 0; i < lane.records_.size(); ++i) {
        const Lane::Record& r = lane.records_[i];
        out << (i ? "," : "") << (i % 6 == 0 ? "\n   " : " ") << '[' << r.name << ','
            << (r.job == kNoJob ? std::int64_t{-1} : std::int64_t{r.job}) << ','
            << r.start_ns << ',' << r.end_ns << ',' << r.parent << ']';
      }
      out << "]}";
    }
    out << "\n]}\n";
  }

 private:
  friend class Lane;
  static std::uint64_t spans_of(const Lane& lane) {
    std::uint64_t n = 0;
    for (const SpanTotals& t : lane.totals_) n += t.count;
    return n;
  }

  Clock::time_point origin_;
  std::vector<std::string> names_;
  std::vector<bool> keep_samples_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

void Lane::close() {
  const auto end = Clock::now();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = ns_between(open.start, end);
  if (totals_.size() <= open.name) totals_.resize(open.name + 1);
  SpanTotals& totals = totals_[open.name];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += duration - open.child_ns;
  if (tracer_.keep_samples_[open.name]) {
    totals.samples_ns.push_back(static_cast<double>(duration));
  }
  if (!stack_.empty()) stack_.back().child_ns += duration;

  // Children close before their parent: link them now that the parent
  // has a record index, then file this record under its own depth.
  const std::size_t depth = stack_.size();
  if (unparented_.size() < depth + 2) unparented_.resize(depth + 2);
  std::int64_t index = -1;
  if (records_.size() < kStoredSpansPerLane) {
    index = static_cast<std::int64_t>(records_.size());
    records_.push_back({open.name, open.job, ns_between(tracer_.origin_, open.start),
                        ns_between(tracer_.origin_, end), -1});
    unparented_[depth].push_back(records_.size() - 1);
  }
  for (const std::size_t child : unparented_[depth + 1]) records_[child].parent = index;
  unparented_[depth + 1].clear();
}

/// RAII span on a lane; a null lane (untraced run) records nothing.
class Span {
 public:
  Span(Lane* lane, std::uint32_t name, std::uint32_t job = kNoJob) : lane_(lane) {
    if (lane_ != nullptr) lane_->open(name, job);
  }
  ~Span() {
    if (lane_ != nullptr) lane_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Lane* lane_;
};

double per_call_us(const SpanTotals& t, bool self = false) {
  if (t.count == 0) return 0.0;
  return static_cast<double>(self ? t.self_ns : t.total_ns) / 1e3 /
         static_cast<double>(t.count);
}

// ---------------------------------------------------------------------------
// paper-sweep.

/// One panel of the grid, expanded into an ExperimentSpec.
std::vector<fhs::ExperimentSpec> make_grid(const std::vector<fhs::Fig4Panel>& panels,
                                           std::size_t instances, fhs::ExecutionMode mode,
                                           std::uint64_t seed, std::uint64_t salt) {
  std::vector<fhs::ExperimentSpec> grid;
  for (std::size_t e = 0; e < panels.size(); ++e) {
    fhs::ExperimentSpec spec;
    spec.name = panels[e].name;
    spec.workload = panels[e].workload;
    spec.cluster = panels[e].cluster;
    spec.schedulers = fhs::paper_scheduler_names();
    spec.instances = instances;
    spec.mode = mode;
    spec.seed = fhs::mix_seed(seed, salt, e);
    grid.push_back(std::move(spec));
  }
  return grid;
}

/// The sweep's results without its timing block: identical bytes at any
/// thread count and on every repetition.
std::string canonical_report(const fhs::SweepResult& sweep) {
  std::string out;
  for (const fhs::ExperimentResult& result : sweep.results) out += fhs::to_json(result);
  return out;
}

/// Per-cell wall milliseconds of the last sweep, from the sweep's own
/// "cell" spans (the program records one per cell while obs tracing is
/// active).
std::vector<double> cell_ms_from_obs_trace() {
  std::ostringstream trace;
  fhs::obs::write_chrome_trace(trace);
  const std::string text = trace.str();
  std::vector<double> cells;
  const std::string cell_key = "{\"name\": \"cell\"";
  const std::string dur_key = "\"dur\": ";
  for (std::size_t at = text.find(cell_key); at != std::string::npos;
       at = text.find(cell_key, at + 1)) {
    const std::size_t dur = text.find(dur_key, at);
    if (dur == std::string::npos) break;
    cells.push_back(std::strtod(text.c_str() + dur + dur_key.size(), nullptr) / 1e3);
  }
  return cells;
}

/// Wraps a single-job policy: spans around prepare() and dispatch().
class TracedScheduler final : public fhs::Scheduler {
 public:
  TracedScheduler(fhs::Scheduler& inner, Lane& lane, std::uint32_t prepare,
                  std::uint32_t dispatch)
      : inner_(inner), lane_(lane), prepare_(prepare), dispatch_(dispatch) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void prepare(const fhs::KDag& dag, const fhs::Cluster& cluster) override {
    const Span span(&lane_, prepare_);
    inner_.prepare(dag, cluster);
  }
  void dispatch(fhs::DispatchContext& ctx) override {
    const Span span(&lane_, dispatch_);
    inner_.dispatch(ctx);
  }

 private:
  fhs::Scheduler& inner_;
  Lane& lane_;
  std::uint32_t prepare_;
  std::uint32_t dispatch_;
};

struct SweepRound {
  fhs::SweepResult np;
  fhs::SweepResult pre;
  double np_seconds = 0.0;  // summed over workers (thread time, not wall)
  double pre_seconds = 0.0;
  std::vector<double> cell_ms;
};

/// Runs a grid's panels, each through its own single-threaded run_sweep
/// call, on `workers` threads that claim panels in order; after each
/// panel its worker runs kPanelSlices calibration slices into `speed`,
/// when given, so that the slices run where the panel ran.  A lane is
/// recorded on by one thread only, so a traced grid takes one worker.
/// Returns the panels' results as one sweep and the seconds the workers
/// spent in run_sweep, summed.
double sweep_panels(const std::vector<fhs::ExperimentSpec>& grid, std::size_t workers,
                    Lane* lane, std::uint32_t span_name, SpeedLog* speed,
                    fhs::SweepResult& sweep) {
  fhs::SweepOptions options;
  options.threads = 1;
  std::vector<fhs::SweepResult> panels(grid.size());
  std::vector<double> panel_seconds(grid.size(), 0.0);
  std::vector<SpeedLog> worker_speed(workers);
  std::atomic<std::size_t> next{0};
  run_workers(workers, [&](std::size_t w) {
    for (std::size_t i = next.fetch_add(1); i < grid.size(); i = next.fetch_add(1)) {
      const auto start = Clock::now();
      {
        const Span span(lane, span_name);
        panels[i] = fhs::run_sweep(std::span(&grid[i], 1), options);
      }
      panel_seconds[i] = seconds_between(start, Clock::now());
      if (speed != nullptr) calibrate(kPanelSlices, worker_speed[w]);
    }
  });
  if (speed != nullptr) {
    for (const SpeedLog& part : worker_speed) speed->merge(part);
  }
  double seconds = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const fhs::SweepResult& panel = panels[i];
    sweep.results.insert(sweep.results.end(), panel.results.begin(), panel.results.end());
    sweep.metrics.cells += panel.metrics.cells;
    sweep.metrics.threads = std::max(sweep.metrics.threads, panel.metrics.threads);
    sweep.metrics.wall_seconds += panel.metrics.wall_seconds;
    sweep.metrics.cell_seconds.merge(panel.metrics.cell_seconds);
    seconds += panel_seconds[i];
  }
  return seconds;
}

SweepRound sweep_round(const std::vector<fhs::ExperimentSpec>& fig4,
                       const std::vector<fhs::ExperimentSpec>& fig7, std::size_t threads,
                       Lane* lane, std::uint32_t span_name, SpeedLog* speed) {
  SweepRound round;
  fhs::obs::start_tracing();
  round.np_seconds = sweep_panels(fig4, threads, lane, span_name, speed, round.np);
  round.pre_seconds = sweep_panels(fig7, threads, lane, span_name, speed, round.pre);
  fhs::obs::stop_tracing();
  round.cell_ms = cell_ms_from_obs_trace();
  return round;
}

/// T >= L(J) in every cell: the ratio T/L never drops below 1.
bool ratios_at_least_one(const fhs::SweepResult& sweep) {
  for (const fhs::ExperimentResult& result : sweep.results) {
    for (const fhs::SchedulerOutcome& outcome : result.outcomes) {
      if (outcome.ratio.min() < 1.0) return false;
    }
  }
  return true;
}

double mean_mqb_ratio(const fhs::SweepResult& sweep) {
  double sum = 0.0;
  for (const fhs::ExperimentResult& result : sweep.results) {
    sum += result.outcome("mqb").ratio.mean();
  }
  return sum / static_cast<double>(sweep.results.size());
}

void run_paper_sweep(std::uint64_t seed, double seconds, Tracer* tracer, Report& report) {
  const std::size_t threads = bench_threads();
  std::vector<fhs::ExperimentSpec> fig4;
  std::vector<fhs::ExperimentSpec> fig7;
  // Set-up: the grid plus every cell's input, drawn exactly as run_sweep
  // draws it (the traced run replays these inputs layer by layer).
  struct Cell {
    const fhs::ExperimentSpec* spec;
    std::size_t instance;
    fhs::KDag dag;
    fhs::Cluster cluster;
  };
  std::vector<Cell> cells;
  const double setup_s = timed_setup([&] {
    fig4 = make_grid(fhs::fig4_panels(), kFig4Instances, fhs::ExecutionMode::kNonPreemptive,
                     seed, 4);
    fig7 = make_grid(fhs::layered_panels(), kFig7Instances, fhs::ExecutionMode::kPreemptive,
                     seed, 7);
    cells.clear();
    for (const auto* grid : {&fig4, &fig7}) {
      for (const fhs::ExperimentSpec& spec : *grid) {
        for (std::size_t i = 0; i < spec.instances; ++i) {
          fhs::Rng rng(fhs::mix_seed(spec.seed, i));
          fhs::KDag dag = fhs::generate(spec.workload, rng);
          fhs::Cluster cluster = spec.cluster.sample(rng);
          cells.push_back({&spec, i, std::move(dag), std::move(cluster)});
        }
      }
    }
  });
  const std::size_t cells_per_round = cells.size();

  // Timed section: whole rounds while the next one still fits in the
  // time.  The untraced reference round of a traced run is the first one.
  std::vector<SweepRound> rounds;
  SpeedLog speed;
  const auto start = Clock::now();
  for (;;) {
    rounds.push_back(sweep_round(fig4, fig7, threads, nullptr, 0, &speed));
    const double elapsed = seconds_between(start, Clock::now());
    const double per_round = elapsed / static_cast<double>(rounds.size());
    if (tracer != nullptr || elapsed + per_round > seconds) break;
  }
  const double factor = speed.factor();

  const std::string reference_np = canonical_report(rounds.front().np);
  const std::string reference_pre = canonical_report(rounds.front().pre);
  const double ratio = mean_mqb_ratio(rounds.front().np);
  std::uint64_t failed_cells = 0;
  for (const SweepRound& round : rounds) {
    const bool same = canonical_report(round.np) == reference_np &&
                      canonical_report(round.pre) == reference_pre;
    const bool bounded = ratios_at_least_one(round.np) && ratios_at_least_one(round.pre);
    report.check(same, "paper-sweep: a repeated sweep changed its report");
    report.check(bounded, "paper-sweep: a cell finished below its lower bound L(J)");
    report.check(round.cell_ms.size() == cells_per_round,
                 "paper-sweep: cell spans missing from the sweep's trace");
    if (!same || !bounded) failed_cells += cells_per_round;
  }
  report.count(cells_per_round * rounds.size(), failed_cells);

  // A smaller grid of the same panels, each grid in one run_sweep call,
  // must give the same bytes on one thread as on several.
  for (const auto& check : {make_grid(fhs::fig4_panels(), kThreadCheckInstances,
                                      fhs::ExecutionMode::kNonPreemptive, seed, 4),
                            make_grid(fhs::layered_panels(), kThreadCheckInstances,
                                      fhs::ExecutionMode::kPreemptive, seed, 7)}) {
    fhs::SweepOptions serial;
    serial.threads = 1;
    fhs::SweepOptions parallel;
    parallel.threads = kThreadCheckThreads;
    report.check(canonical_report(fhs::run_sweep(check, serial)) ==
                     canonical_report(fhs::run_sweep(check, parallel)),
                 "paper-sweep: report at " + std::to_string(kThreadCheckThreads) +
                     " threads differs from the report at 1 thread");
  }

  // Rates pool every round: cells over the summed time of their sweeps.
  double np_cells = 0.0;
  double np_seconds = 0.0;
  double pre_cells = 0.0;
  double pre_seconds = 0.0;
  std::vector<double> cell_ms;
  for (const SweepRound& round : rounds) {
    np_cells += static_cast<double>(round.np.metrics.cells);
    np_seconds += round.np_seconds;
    pre_cells += static_cast<double>(round.pre.metrics.cells);
    pre_seconds += round.pre_seconds;
    cell_ms.insert(cell_ms.end(), round.cell_ms.begin(), round.cell_ms.end());
  }
  const double np_rate = np_cells / np_seconds;
  const double pre_rate = pre_cells / pre_seconds;
  report.note("sweep.cells_per_s", np_rate, "1/s");
  report.note("sweep.pre.cells_per_s", pre_rate, "1/s");
  report.note("raw.throughput_per_s", geomean({np_rate, pre_rate}), "1/s");
  report.note("raw.p50_ms", quantile(cell_ms, 0.5), "ms");
  report.note("machine.speed", factor, "ratio");
  report.note("sweep.mqb_ratio", ratio, "ratio");
  report.note("sweep.rounds", static_cast<double>(rounds.size()), "count");
  report.note("sweep.threads", static_cast<double>(threads), "count");

  if (tracer == nullptr) {
    report.metric("setup_s", setup_s, "s");
    report.metric("throughput_per_s", geomean({np_rate, pre_rate}) / factor, "1/s");
    report.metric("mqb_stretch", ratio, "ratio");
    report.metric("p50_ms", quantile(cell_ms, 0.5) * factor, "ms");
    report.note("sweep.cell_ms.p99", quantile(cell_ms, 0.99), "ms");
    report.metric("rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced: the sweep again inside an exp span, then every cell replayed
  // serially with spans around generate, typed descendants, prepare,
  // dispatch and simulate.
  Lane& lane = tracer->lane();
  const std::uint32_t sweep_span = tracer->name("exp.run_sweep");
  SpeedLog traced_speed;
  const SweepRound traced = sweep_round(fig4, fig7, 1, &lane, sweep_span, &traced_speed);
  const double traced_factor = traced_speed.factor();
  report.metric("machine.speed", traced_factor, "ratio");
  report.check(canonical_report(traced.np) == reference_np &&
                   canonical_report(traced.pre) == reference_pre,
               "paper-sweep: traced sweep report differs from the untraced one");
  const double traced_np = static_cast<double>(traced.np.metrics.cells) / traced.np_seconds;
  const double traced_pre =
      static_cast<double>(traced.pre.metrics.cells) / traced.pre_seconds;
  report.metric("traced.throughput_per_s", geomean({traced_np, traced_pre}) / traced_factor,
                "1/s");
  report.metric("traced.p50_ms", quantile(traced.cell_ms, 0.5) * traced_factor, "ms");
  report.metric("traced.p99_ms", quantile(traced.cell_ms, 0.99) * traced_factor, "ms");

  double cell_sum_s = 0.0;
  double cell_max_s = 0.0;
  std::size_t cell_count = 0;
  double wall_threads_s = 0.0;
  for (const fhs::SweepResult* sweep : {&traced.np, &traced.pre}) {
    const fhs::SweepMetrics& m = sweep->metrics;
    cell_sum_s += m.cell_seconds.mean() * static_cast<double>(m.cell_seconds.count());
    cell_max_s = std::max(cell_max_s, m.cell_seconds.max());
    cell_count += m.cell_seconds.count();
    wall_threads_s += m.wall_seconds * static_cast<double>(m.threads);
  }
  report.metric("exp.cell_ms", cell_sum_s * 1e3 / static_cast<double>(cell_count), "ms");
  report.metric("exp.cell_max_ms", cell_max_s * 1e3, "ms");
  report.metric("exp.efficiency", cell_sum_s / wall_threads_s, "ratio");

  const std::uint32_t generate_span = tracer->name("workload.generate");
  const std::uint32_t typed_desc_span = tracer->name("graph.typed_desc");
  const std::uint32_t simulate_np = tracer->name("sim.np.simulate");
  const std::uint32_t simulate_pre = tracer->name("sim.pre.simulate");
  std::vector<std::uint32_t> prepare_span;
  std::vector<std::uint32_t> dispatch_span;
  const std::vector<fhs::SchedulerSpec>& policies = fhs::paper_scheduler_names();
  for (const fhs::SchedulerSpec& policy : policies) {
    prepare_span.push_back(tracer->name("sched." + policy.to_string() + ".prepare"));
    dispatch_span.push_back(tracer->name("sched." + policy.to_string() + ".dispatch"));
  }

  std::uint64_t decisions_np = 0;
  std::uint64_t decisions_pre = 0;
  std::uint64_t preemptions_pre = 0;
  bool replay_matches = true;
  // Replayed ratios, folded per (experiment, policy) in the sweep's order.
  std::vector<std::vector<fhs::RunningStats>> replayed;
  const fhs::ExperimentSpec* current = nullptr;
  std::size_t cell_index = 0;
  auto compare_experiment = [&](const fhs::ExperimentSpec* spec) {
    const bool np = spec->mode == fhs::ExecutionMode::kNonPreemptive;
    const fhs::SweepResult& sweep = np ? traced.np : traced.pre;
    const std::size_t e =
        static_cast<std::size_t>(spec - (np ? fig4.data() : fig7.data()));
    for (std::size_t s = 0; s < policies.size(); ++s) {
      const fhs::RunningStats& live = sweep.results[e].outcomes[s].ratio;
      const fhs::RunningStats& again = replayed.back()[s];
      replay_matches = replay_matches && live.mean() == again.mean() &&
                       live.min() == again.min() && live.max() == again.max();
    }
  };
  for (const Cell& cell : cells) {
    if (cell.spec != current) {
      if (current != nullptr) compare_experiment(current);
      current = cell.spec;
      replayed.emplace_back(policies.size());
    }
    const auto job = static_cast<std::uint32_t>(cell_index++);
    {
      // Regenerated under a span: the set-up copy is what the sweep drew.
      const Span span(&lane, generate_span, job);
      fhs::Rng rng(fhs::mix_seed(cell.spec->seed, cell.instance));
      const fhs::KDag dag = fhs::generate(cell.spec->workload, rng);
      (void)cell.spec->cluster.sample(rng);
      replay_matches = replay_matches && dag.task_count() == cell.dag.task_count() &&
                       dag.total_work() == cell.dag.total_work();
    }
    {
      const Span span(&lane, typed_desc_span, job);
      (void)fhs::typed_descendant_values(cell.dag);
    }
    const double bound = fhs::fractional_lower_bound(cell.dag, cell.cluster);
    const bool np = cell.spec->mode == fhs::ExecutionMode::kNonPreemptive;
    for (std::size_t s = 0; s < policies.size(); ++s) {
      auto inner = cell.spec->schedulers[s].instantiate(
          fhs::mix_seed(cell.spec->seed, cell.instance, s + 1));
      TracedScheduler wrapped(*inner, lane, prepare_span[s], dispatch_span[s]);
      fhs::SimOptions options;
      options.mode = cell.spec->mode;
      fhs::SimResult sim;
      {
        const Span span(&lane, np ? simulate_np : simulate_pre, job);
        sim = fhs::simulate(cell.dag, cell.cluster, wrapped, options);
      }
      replayed.back()[s].add(static_cast<double>(sim.completion_time) / bound);
      (np ? decisions_np : decisions_pre) += sim.decision_points;
      if (!np) preemptions_pre += sim.preemptions;
    }
  }
  compare_experiment(current);
  report.check(replay_matches,
               "paper-sweep: traced layer-by-layer replay differs from the sweep");

  for (std::size_t s = 0; s < policies.size(); ++s) {
    const std::string p = policies[s].to_string();
    const SpanTotals dispatch = tracer->totals("sched." + p + ".dispatch");
    report.metric("sched." + p + ".dispatch_ns", per_call_us(dispatch) * 1e3, "ns");
    report.metric("sched." + p + ".prepare_us",
                  per_call_us(tracer->totals("sched." + p + ".prepare")), "us");
  }
  report.metric("graph.typed_desc_us", per_call_us(tracer->totals("graph.typed_desc")),
                "us");
  report.metric("workload.generate_us", per_call_us(tracer->totals("workload.generate")),
                "us");
  // simulate's self time: the span minus its prepare and dispatch children.
  report.metric("sim.np.self_us", per_call_us(tracer->totals("sim.np.simulate"), true), "us");
  report.metric("sim.pre.self_us", per_call_us(tracer->totals("sim.pre.simulate"), true),
                "us");
  report.metric("sim.np.decisions", static_cast<double>(decisions_np), "count");
  report.metric("sim.pre.decisions", static_cast<double>(decisions_pre), "count");
  report.metric("sim.pre.preemptions", static_cast<double>(preemptions_pre), "count");
}

// ---------------------------------------------------------------------------
// stream-heavy.

struct Stream {
  std::vector<fhs::JobArrival> jobs;
  std::vector<double> bound;  // L(J) of each job on the whole cluster
  std::size_t tasks = 0;
};

/// Poisson arrivals of default layered IR jobs.  The gaps are rescaled so
/// that the arrival window offers exactly kStreamLoad of the cluster's
/// capacity for the drawn work, leaving only the arrival pattern to vary
/// with the seed.
Stream make_stream(std::uint64_t seed, const fhs::Cluster& cluster) {
  fhs::Rng rng(seed);
  Stream stream;
  std::vector<fhs::KDag> dags;
  double total_work = 0.0;
  for (std::size_t j = 0; j < kStreamJobs; ++j) {
    dags.push_back(fhs::generate(fhs::WorkloadParams{fhs::IrParams{}}, rng));
    total_work += static_cast<double>(dags.back().total_work());
  }
  std::vector<double> raw(kStreamJobs, 0.0);
  double t = 0.0;
  for (std::size_t j = 0; j < kStreamJobs; ++j) {
    raw[j] = t;
    t += rng.exponential(1.0);
  }
  const double capacity = static_cast<double>(cluster.total_processors());
  const double window = total_work / (kStreamLoad * capacity);
  for (std::size_t j = 0; j < kStreamJobs; ++j) {
    fhs::JobArrival arrival;
    arrival.arrival = static_cast<fhs::Time>(std::llround(raw[j] / t * window));
    arrival.dag = std::move(dags[j]);
    stream.tasks += arrival.dag.task_count();
    stream.bound.push_back(fhs::fractional_lower_bound(arrival.dag, cluster));
    stream.jobs.push_back(std::move(arrival));
  }
  return stream;
}

/// Forwards a decision point to the real engine, with spans around
/// ready() and assign() and a count of ready entries returned.
class TracedContext final : public fhs::MultiDispatchContext {
 public:
  TracedContext(fhs::MultiDispatchContext& inner, Lane* lane, std::uint32_t ready_span,
                std::uint32_t assign_span)
      : inner_(inner), lane_(lane), ready_span_(ready_span), assign_span_(assign_span) {}

  [[nodiscard]] fhs::ResourceType num_types() const noexcept override {
    return inner_.num_types();
  }
  [[nodiscard]] fhs::Time now() const noexcept override { return inner_.now(); }
  [[nodiscard]] std::uint32_t free_processors(fhs::ResourceType a) const override {
    return inner_.free_processors(a);
  }
  [[nodiscard]] std::uint32_t total_processors(fhs::ResourceType a) const override {
    return inner_.total_processors(a);
  }
  [[nodiscard]] std::span<const fhs::GlobalTask> ready(fhs::ResourceType a) const override {
    const Span span(lane_, ready_span_);
    const auto tasks = inner_.ready(a);
    scanned += tasks.size();
    return tasks;
  }
  [[nodiscard]] fhs::Work task_work(fhs::GlobalTask id) const override {
    return inner_.task_work(id);
  }
  [[nodiscard]] fhs::Work queue_work(fhs::ResourceType a) const override {
    return inner_.queue_work(a);
  }
  [[nodiscard]] fhs::Work remaining_job_work(std::uint32_t job) const override {
    return inner_.remaining_job_work(job);
  }
  void assign(fhs::ResourceType a, std::size_t index) override {
    const Span span(lane_, assign_span_);
    inner_.assign(a, index);
    ++assigned;
  }

  mutable std::uint64_t scanned = 0;
  std::uint64_t assigned = 0;

 private:
  fhs::MultiDispatchContext& inner_;
  Lane* lane_;
  std::uint32_t ready_span_;
  std::uint32_t assign_span_;
};

/// Wraps a stream policy.  Times each dispatch() call when given a
/// sample vector (decision latency is an end-to-end metric); with a
/// lane, also records spans around admit(), dispatch(), ready() and
/// assign().
class TimedPolicy final : public fhs::MultiJobScheduler {
 public:
  struct Names {
    std::uint32_t admit = 0, dispatch = 0, ready = 0, assign = 0, simulate = 0;
  };
  TimedPolicy(fhs::MultiJobScheduler& inner, Lane* lane, Names names,
              std::vector<double>* decision_ns)
      : inner_(inner), lane_(lane), names_(names), decision_ns_(decision_ns) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void prepare(const fhs::Cluster& cluster) override { inner_.prepare(cluster); }
  void admit(std::uint32_t job, const fhs::JobArrival& arrival) override {
    const Span span(lane_, names_.admit, job);
    inner_.admit(job, arrival);
  }
  void dispatch(fhs::MultiDispatchContext& ctx) override {
    const auto start = Clock::now();
    if (lane_ == nullptr) {
      inner_.dispatch(ctx);
    } else {
      const Span span(lane_, names_.dispatch);
      TracedContext traced(ctx, lane_, names_.ready, names_.assign);
      inner_.dispatch(traced);
      scanned += traced.scanned;
      assigned += traced.assigned;
    }
    if (decision_ns_ != nullptr) {
      decision_ns_->push_back(static_cast<double>(ns_between(start, Clock::now())));
    }
  }

  std::uint64_t scanned = 0;
  std::uint64_t assigned = 0;

 private:
  fhs::MultiJobScheduler& inner_;
  Lane* lane_;
  Names names_;
  std::vector<double>* decision_ns_;
};

/// One policy over its streams (policy_streams) of the workload.
struct PolicyRun {
  double seconds = 0.0;  // summed over streams (thread time, not wall)
  std::uint64_t tasks = 0;
  std::vector<fhs::MultiJobResult> results;  // per stream
  std::vector<double> decision_ns;           // every dispatch() call (MQB only)
  std::uint64_t scanned = 0;
  std::uint64_t assigned = 0;
};

/// Every (stream, policy) pair policy_streams() names, claimed stream by
/// stream by bench_threads()
/// workers.  Each multi_simulate call is single-threaded and
/// deterministic.  After each call its worker runs one calibration slice
/// into `speed`.  `names` and `lanes` are empty for an untraced round;
/// otherwise one Names per policy and one Lane per worker.
std::vector<PolicyRun> run_round(const std::vector<Stream>& streams,
                                 const fhs::Cluster& cluster,
                                 const std::vector<TimedPolicy::Names>& names,
                                 const std::vector<Lane*>& lanes, bool record_trace,
                                 SpeedLog& speed) {
  const std::size_t policies = kStreamPolicies.size();
  struct Item {
    fhs::MultiJobResult result;
    double seconds = 0.0;
    std::vector<double> decision_ns;
    std::uint64_t scanned = 0;
    std::uint64_t assigned = 0;
  };
  std::vector<std::pair<std::size_t, std::size_t>> pairs;  // (stream, policy)
  for (std::size_t s = 0; s < streams.size(); ++s) {
    for (std::size_t p = 0; p < policies; ++p) {
      if (s < policy_streams(p, streams.size())) pairs.emplace_back(s, p);
    }
  }
  std::vector<Item> items(pairs.size());
  std::atomic<std::size_t> next{0};
  fhs::MultiEngineOptions options;
  options.record_trace = record_trace;

  const std::size_t workers = lanes.empty() ? bench_threads() : lanes.size();
  std::vector<SpeedLog> worker_speed(workers);
  run_workers(workers, [&](std::size_t w) {
    Lane* lane = lanes.empty() ? nullptr : lanes[w];
    for (std::size_t i = next.fetch_add(1); i < items.size(); i = next.fetch_add(1)) {
      const auto [s, p] = pairs[i];
      Item& item = items[i];
      const TimedPolicy::Names span_names = names.empty() ? TimedPolicy::Names{} : names[p];
      auto inner = fhs::make_stream_scheduler(kStreamPolicies[p]);
      TimedPolicy timed(*inner, lane, span_names,
                        kStreamPolicies[p] == "mqb" ? &item.decision_ns : nullptr);
      const auto start = Clock::now();
      {
        const Span span(lane, span_names.simulate);
        item.result = fhs::multi_simulate(streams[s].jobs, cluster, timed, options);
      }
      item.seconds = seconds_between(start, Clock::now());
      item.scanned = timed.scanned;
      item.assigned = timed.assigned;
      worker_speed[w].add(calibration_slice_ms());
    }
  });
  for (const SpeedLog& part : worker_speed) speed.merge(part);

  std::vector<PolicyRun> runs(policies);
  for (std::size_t i = 0; i < items.size(); ++i) {
    PolicyRun& run = runs[pairs[i].second];
    Item& item = items[i];
    run.tasks += streams[pairs[i].first].tasks;
    run.results.push_back(std::move(item.result));
    run.seconds += item.seconds;
    run.decision_ns.insert(run.decision_ns.end(), item.decision_ns.begin(),
                           item.decision_ns.end());
    run.scanned += item.scanned;
    run.assigned += item.assigned;
  }
  return runs;
}

std::vector<std::vector<fhs::Time>> flow_times(const PolicyRun& run) {
  std::vector<std::vector<fhs::Time>> flows;
  for (const fhs::MultiJobResult& result : run.results) flows.push_back(result.flow_time);
  return flows;
}

/// Jobs of one stream that did not complete or beat their lower bound.
std::uint64_t invalid_jobs(const Stream& stream, const fhs::MultiJobResult& result) {
  if (result.flow_time.size() != stream.jobs.size()) return stream.jobs.size();
  std::uint64_t bad = 0;
  for (std::size_t j = 0; j < stream.jobs.size(); ++j) {
    const bool cancelled = !result.cancelled.empty() && result.cancelled[j] != 0;
    if (cancelled || static_cast<double>(result.flow_time[j]) < stream.bound[j]) ++bad;
  }
  return bad;
}

void run_stream_heavy(std::uint64_t seed, double seconds, Tracer* tracer, Report& report) {
  const fhs::Cluster cluster = bench_cluster();
  std::vector<Stream> streams;
  const double setup_s = timed_setup([&] {
    streams.clear();
    for (std::size_t s = 0; s < kStreams; ++s) {
      streams.push_back(make_stream(fhs::mix_seed(seed, 0x57ea, s), cluster));
    }
  });
  if (tracer != nullptr) streams.resize(kTracedStreams);
  std::size_t tasks = 0;
  std::size_t jobs = 0;
  for (const Stream& stream : streams) {
    tasks += stream.tasks;
    jobs += stream.jobs.size();
  }
  report.note("stream.streams", static_cast<double>(streams.size()), "count");
  report.note("stream.jobs", static_cast<double>(jobs), "count");
  report.note("stream.tasks", static_cast<double>(tasks), "count");

  // Untraced rounds until the time is used; a traced run makes one, as
  // its untraced reference.
  std::vector<std::vector<PolicyRun>> rounds;
  SpeedLog speed;
  const auto start = Clock::now();
  for (;;) {
    rounds.push_back(run_round(streams, cluster, {}, {}, false, speed));
    const double elapsed = seconds_between(start, Clock::now());
    const double per_round = elapsed / static_cast<double>(rounds.size());
    if (tracer != nullptr || elapsed + per_round > seconds * 1.1) break;
  }
  // With a single round, the first stream runs once more so repetition
  // is still checked.
  if (rounds.size() == 1) {
    SpeedLog unused;
    std::vector<PolicyRun> again = run_round({streams.front()}, cluster, {}, {}, false, unused);
    for (std::size_t p = 0; p < kStreamPolicies.size(); ++p) {
      report.check(again[p].results.front().flow_time ==
                       rounds.front()[p].results.front().flow_time,
                   "stream-heavy: " + kStreamPolicies[p] +
                       " flow times changed between repetitions");
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> rates;
  for (std::size_t p = 0; p < kStreamPolicies.size(); ++p) {
    const std::string& policy = kStreamPolicies[p];
    const auto reference = flow_times(rounds.front()[p]);
    for (const auto& round : rounds) {
      for (std::size_t s = 0; s < round[p].results.size(); ++s) {
        const std::uint64_t bad = invalid_jobs(streams[s], round[p].results[s]);
        attempted += streams[s].jobs.size();
        failed += bad;
        report.check(bad == 0, "stream-heavy: " + policy +
                                   " left a job unfinished or below its lower bound");
      }
      report.check(flow_times(round[p]) == reference,
                   "stream-heavy: " + policy + " flow times changed between repetitions");
    }
    double total_tasks = 0.0;
    double total_seconds = 0.0;
    for (const auto& round : rounds) {
      total_tasks += static_cast<double>(round[p].tasks);
      total_seconds += round[p].seconds;
    }
    rates.push_back(total_tasks / total_seconds);
    report.note("stream." + policy + ".tasks_per_s", rates.back(), "1/s");
  }
  report.count(attempted, failed);

  // Decision latency and schedule quality are MQB's (policy index 1).
  std::vector<double> decision_ms;
  for (const auto& round : rounds) {
    for (double ns : round[1].decision_ns) decision_ms.push_back(ns / 1e6);
  }
  double flow_sum = 0.0;
  double stretch_sum = 0.0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const fhs::MultiJobResult& result = rounds.front()[1].results[s];
    for (std::size_t j = 0; j < streams[s].jobs.size(); ++j) {
      flow_sum += static_cast<double>(result.flow_time[j]);
      stretch_sum += static_cast<double>(result.flow_time[j]) / streams[s].bound[j];
    }
  }
  report.note("stream.mqb.mean_flow", flow_sum / static_cast<double>(jobs), "ticks");
  report.note("stream.rounds", static_cast<double>(rounds.size()), "count");
  const double factor = speed.factor();
  report.note("raw.throughput_per_s", geomean(rates), "1/s");
  report.note("raw.p50_ms", quantile(decision_ms, 0.5), "ms");
  report.note("machine.speed", factor, "ratio");

  if (tracer == nullptr) {
    report.metric("setup_s", setup_s, "s");
    report.metric("throughput_per_s", geomean(rates) / factor, "1/s");
    report.metric("mqb_stretch", stretch_sum / static_cast<double>(jobs), "ratio");
    report.metric("p50_ms", quantile(decision_ms, 0.5) * factor, "ms");
    report.note("stream.mqb.decision_ms.p99", quantile(decision_ms, 0.99), "ms");
    report.metric("rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced round: spans around multi_simulate, admit, dispatch, ready
  // and assign, per policy.
  std::vector<Lane*> lanes;
  for (std::size_t t = 0; t < bench_threads(); ++t) lanes.push_back(&tracer->lane());
  std::vector<TimedPolicy::Names> names;
  for (const std::string& p : kStreamPolicies) {
    TimedPolicy::Names entry;
    entry.admit = tracer->name("multijob." + p + ".admit");
    entry.dispatch = tracer->name("policy." + p + ".dispatch");
    entry.ready = tracer->name("multijob." + p + ".ready");
    entry.assign = tracer->name("multijob." + p + ".assign");
    entry.simulate = tracer->name("core." + p + ".multi_simulate");
    names.push_back(entry);
  }
  SpeedLog traced_speed;
  const std::vector<PolicyRun> traced =
      run_round(streams, cluster, names, lanes, false, traced_speed);
  const double traced_factor = traced_speed.factor();
  report.metric("machine.speed", traced_factor, "ratio");
  std::vector<double> traced_rates;
  for (const PolicyRun& run : traced) {
    traced_rates.push_back(static_cast<double>(run.tasks) / run.seconds);
  }
  std::vector<double> traced_decision_ms;
  for (double ns : traced[1].decision_ns) traced_decision_ms.push_back(ns / 1e6);
  report.metric("traced.throughput_per_s", geomean(traced_rates) / traced_factor, "1/s");
  report.metric("traced.p50_ms", quantile(traced_decision_ms, 0.5) * traced_factor, "ms");
  report.metric("traced.p99_ms", quantile(traced_decision_ms, 0.99) * traced_factor, "ms");

  for (std::size_t i = 0; i < kStreamPolicies.size(); ++i) {
    const std::string& p = kStreamPolicies[i];
    const PolicyRun& run = traced[i];
    report.check(flow_times(run) == flow_times(rounds.front()[i]),
                 "stream-heavy: traced " + p + " flow times differ from the untraced run");
    const double assigned = static_cast<double>(std::max<std::uint64_t>(run.assigned, 1));
    const SpanTotals dispatch = tracer->totals("policy." + p + ".dispatch");
    const SpanTotals simulate = tracer->totals("core." + p + ".multi_simulate");
    report.metric("policy." + p + ".dispatch_ns",
                  static_cast<double>(dispatch.self_ns) / assigned, "ns");
    report.metric("multijob." + p + ".scan_per_assign",
                  static_cast<double>(run.scanned) / assigned, "count");
    report.metric("multijob." + p + ".ready_ns",
                  per_call_us(tracer->totals("multijob." + p + ".ready")) * 1e3, "ns");
    report.metric("multijob." + p + ".assign_ns",
                  per_call_us(tracer->totals("multijob." + p + ".assign")) * 1e3, "ns");
    report.metric("multijob." + p + ".admit_us",
                  per_call_us(tracer->totals("multijob." + p + ".admit")), "us");
    report.metric("multijob." + p + ".decisions", static_cast<double>(dispatch.count),
                  "count");
    // multi_simulate's self time (the span minus its admit and dispatch
    // children) is the engine core's share, over every stream.
    report.metric("core." + p + ".self_ms", static_cast<double>(simulate.self_ns) / 1e6,
                  "ms");
  }

  // Trace-recording pass: every schedule replays clean through the
  // independent checker.
  SpeedLog unused;
  const std::vector<PolicyRun> recorded = run_round(streams, cluster, {}, {}, true, unused);
  for (std::size_t p = 0; p < kStreamPolicies.size(); ++p) {
    std::size_t bad_streams = 0;
    std::string first;
    for (std::size_t s = 0; s < recorded[p].results.size(); ++s) {
      const auto violations =
          fhs::check_multijob_trace(streams[s].jobs, cluster, recorded[p].results[s]);
      if (!violations.empty() && bad_streams++ == 0) first = violations.front();
    }
    report.check(bad_streams == 0, "stream-heavy: " + kStreamPolicies[p] + " traces of " +
                                       std::to_string(bad_streams) +
                                       " streams fail check_multijob_trace: " + first);
    report.check(flow_times(recorded[p]) == flow_times(rounds.front()[p]),
                 "stream-heavy: trace-recording " + kStreamPolicies[p] +
                     " run changed flow times");
  }
}

// ---------------------------------------------------------------------------
// serve-open.

struct ServeInputs {
  std::vector<fhs::KDag> dags;
  std::vector<double> due_s;  // offset of each arrival from the start
  std::vector<double> bound;  // L(J) on one shard's slice
};

ServeInputs make_serve_inputs(std::uint64_t seed, double seconds, const fhs::Cluster& slice) {
  fhs::Rng rng(fhs::mix_seed(seed, 0x5e7e));
  const auto count = static_cast<std::size_t>(std::llround(kServeRatePerSecond * seconds));
  ServeInputs in;
  double t = 0.0;
  for (std::size_t j = 0; j < count; ++j) {
    in.dags.push_back(fhs::generate(fhs::WorkloadParams{serve_job_params()}, rng));
    in.bound.push_back(fhs::fractional_lower_bound(in.dags.back(), slice));
    in.due_s.push_back(t);
    t += rng.exponential(1.0 / kServeRatePerSecond);
  }
  // Rescale so the offered rate over the window is exactly the target.
  const double window = static_cast<double>(count) / kServeRatePerSecond;
  for (double& due : in.due_s) due = due / t * window;
  return in;
}

struct JobRecord {
  Clock::time_point due;
  Clock::time_point sent;
  std::optional<fhs::JobTicket> ticket;
  Clock::time_point folded;  // first poll that saw the job in the engine
  Clock::time_point done;    // first poll that saw it completed
  bool seen_folded = false;
  bool completed = false;
  fhs::Time flow = -1;
};

void run_serve_open(std::uint64_t seed, double seconds, Tracer* tracer, Report& report) {
  const fhs::Cluster cluster = bench_cluster();
  const fhs::ShardPartition partition = fhs::make_shard_partition(cluster, kServeShards);
  ServeInputs inputs;
  std::ostringstream journal;
  std::unique_ptr<fhs::ShardedService> service;
  fhs::ShardedConfig config;
  config.policy = "mqb";
  config.shards = kServeShards;
  config.journal = &journal;
  const double setup_s = timed_setup([&] {
    service.reset();
    journal.str("");
    inputs = make_serve_inputs(seed, seconds, partition.shards.front());
    service = std::make_unique<fhs::ShardedService>(cluster, config);
  });
  const std::size_t count = inputs.dags.size();
  std::vector<JobRecord> jobs(count);

  Lane* submit_lane = tracer ? &tracer->lane() : nullptr;
  Lane* poll_lane = tracer ? &tracer->lane() : nullptr;
  const std::uint32_t submit_span = tracer ? tracer->name("service.submit", true) : 0;
  const std::uint32_t poll_span = tracer ? tracer->name("service.poll", true) : 0;
  const std::uint32_t stats_span = tracer ? tracer->name("service.stats") : 0;

  const fhs::obs::MetricsSnapshot obs_before = fhs::obs::Registry::global().snapshot();
  std::mutex handoff_mutex;
  std::vector<std::size_t> handoff;  // submitted job indices for the poller
  std::atomic<bool> generator_done{false};
  // A failure on either thread stops both and is reported after the join.
  std::mutex error_mutex;
  std::exception_ptr thread_error;
  std::atomic<bool> aborted{false};
  auto guarded = [&](const std::function<void()>& body) {
    return [&, body] {
      try {
        body();
      } catch (...) {
        const std::lock_guard lock(error_mutex);
        if (!thread_error) thread_error = std::current_exception();
        aborted.store(true);
      }
    };
  };
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);

  auto due_at = [&](std::size_t j) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(inputs.due_s[j]));
  };
  SpeedLog speed;
  // Neither load thread sleeps: on a VM a sleeping thread wakes late by
  // an amount that depends on the host's load, and that would be part of
  // every latency measured.  The generator fills its waits with
  // calibration slices; the poller spins between sweeps.
  std::thread generator(guarded([&] {
    for (std::size_t j = 0; j < count && !aborted.load(); ++j) {
      JobRecord& job = jobs[j];
      job.due = due_at(j);
      while (Clock::now() + kSliceHeadroom < job.due) speed.add(calibration_slice_ms());
      while (Clock::now() < job.due) {
      }
      job.sent = Clock::now();
      {
        const Span span(submit_lane, submit_span, static_cast<std::uint32_t>(j));
        job.ticket = service->submit(std::move(inputs.dags[j]));
      }
      const std::lock_guard lock(handoff_mutex);
      handoff.push_back(j);
    }
    generator_done.store(true, std::memory_order_release);
  }));

  std::vector<double> poll_period_ms;
  std::thread poller(guarded([&] {
    std::vector<std::size_t> outstanding;
    auto last_sweep = Clock::now();
    auto last_stats_at = last_sweep;
    std::uint64_t sweeps = 0;
    const auto give_up = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      static_cast<double>(count) / kServeRatePerSecond +
                                      kServeDrainSeconds));
    for (;;) {
      const bool done_submitting = generator_done.load(std::memory_order_acquire);
      {
        const std::lock_guard lock(handoff_mutex);
        outstanding.insert(outstanding.end(), handoff.begin(), handoff.end());
        handoff.clear();
      }
      const auto sweep_start = Clock::now();
      // Every 64th period is kept: enough for the median, and the
      // samples of a spinning poller would otherwise add to rss_mb.
      if (sweeps++ % 64 == 0) poll_period_ms.push_back(ms_between(last_sweep, sweep_start));
      last_sweep = sweep_start;
      std::size_t kept = 0;
      for (const std::size_t j : outstanding) {
        JobRecord& job = jobs[j];
        if (!job.ticket) continue;  // rejected: nothing to observe
        fhs::JobStatus status;
        {
          const Span span(poll_lane, poll_span, static_cast<std::uint32_t>(j));
          status = service->poll(*job.ticket);
        }
        const auto now = Clock::now();
        if (status.state != fhs::JobState::kQueued && !job.seen_folded) {
          job.seen_folded = true;
          job.folded = now;
        }
        if (status.state == fhs::JobState::kCompleted) {
          job.completed = true;
          job.done = now;
          job.flow = status.flow_time;
          continue;
        }
        if (status.state == fhs::JobState::kTimedOut ||
            status.state == fhs::JobState::kRetriesExhausted) {
          continue;  // terminal without completing: a miss
        }
        outstanding[kept++] = j;
      }
      outstanding.resize(kept);
      if (sweep_start - last_stats_at >= kStatsInterval) {
        // An operator's periodic stats read is part of the served load.
        const Span span(poll_lane, stats_span);
        (void)service->stats();
        last_stats_at = sweep_start;
      }
      if (done_submitting && outstanding.empty()) break;
      if (Clock::now() > give_up || aborted.load()) break;
      while (Clock::now() < sweep_start + kPollPause) {
      }
    }
  }));
  generator.join();
  poller.join();
  if (thread_error) std::rethrow_exception(thread_error);
  service->shutdown();
  const fhs::ServiceStats stats = service->stats();
  const fhs::obs::MetricsSnapshot obs_after = fhs::obs::Registry::global().snapshot();

  // Every accepted ticket reaches kCompleted exactly once: the service
  // counts one completion per accepted job, and a poll after shutdown
  // still reads kCompleted with the flow time first observed.
  std::uint64_t accepted = 0;
  std::uint64_t misses = 0;
  std::uint64_t good = 0;
  std::vector<double> latency_ms;
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  std::vector<double> late_ms;
  double flow_sum = 0.0;
  double stretch_sum = 0.0;
  std::uint64_t completed = 0;
  auto last_done = t0;
  for (std::size_t j = 0; j < count; ++j) {
    JobRecord& job = jobs[j];
    late_ms.push_back(ms_between(job.due, job.sent));
    if (!job.ticket) {
      ++misses;
      continue;
    }
    ++accepted;
    const fhs::JobStatus final_status = service->poll(*job.ticket);
    const bool ok = job.completed && final_status.state == fhs::JobState::kCompleted &&
                    final_status.flow_time == job.flow;
    if (!ok) {
      ++misses;
      continue;
    }
    ++completed;
    last_done = std::max(last_done, job.done);
    const double latency = ms_between(job.due, job.done);
    latency_ms.push_back(latency);
    queue_ms.push_back(ms_between(job.due, job.folded));
    run_ms.push_back(ms_between(job.folded, job.done));
    if (latency <= kServeLatencyLimitMs) ++good;
    flow_sum += static_cast<double>(job.flow);
    stretch_sum += static_cast<double>(job.flow) / inputs.bound[j];
  }
  report.count(count, misses);
  report.check(misses == 0, "serve-open: " + std::to_string(misses) +
                                " jobs were rejected, timed out or never completed");
  report.check(stats.completed == accepted && stats.admitted == accepted,
               "serve-open: service counted " + std::to_string(stats.completed) +
                   " completions for " + std::to_string(accepted) + " accepted jobs");

  // The in-memory journal replays every live flow time exactly.
  service.reset();
  inputs.dags.clear();
  {
    std::vector<fhs::JournalEntry> entries;
    {
      std::istringstream in(std::move(journal).str());
      entries = fhs::read_journal(in);
    }
    const fhs::ShardReplayResult replay = fhs::replay_shard_journal(entries, partition, "mqb");
    std::uint64_t mismatched = 0;
    for (const JobRecord& job : jobs) {
      if (!job.completed) continue;
      if (replay.flow_time_of(job.ticket->id) != job.flow) ++mismatched;
    }
    report.check(mismatched == 0, "serve-open: journal replay changed " +
                                      std::to_string(mismatched) + " flow times");
  }

  // Misses count against the latency percentiles as the longest wait.
  const double window_s = seconds_between(t0, std::max(last_done, t0));
  for (std::uint64_t i = 0; i < misses; ++i) latency_ms.push_back(window_s * 1e3);
  const double p50 = quantile(latency_ms, 0.5);
  const double p99 = quantile(latency_ms, 0.99);
  const double goodput = static_cast<double>(good) / std::max(window_s, 1e-9);
  const double late_p99 = quantile(late_ms, 0.99);
  const double poll_period = median(poll_period_ms);
  const double factor = speed.factor();
  report.note("serve.p50_ms", p50, "ms");
  report.note("machine.speed", factor, "ratio");
  report.note("serve.p99_ms", p99, "ms");
  report.note("serve.goodput_per_s", goodput, "1/s");
  report.note("serve.offered_per_s", kServeRatePerSecond, "1/s");
  report.note("serve.completed", static_cast<double>(completed), "count");
  report.note("serve.late_ms.p99", late_p99, "ms");
  report.note("serve.poll_period_ms", poll_period, "ms");
  // Validity: lateness and poll resolution are part of every latency
  // measured, so they must stay well below the median.
  if (late_p99 > p50 / 2.0 || poll_period > p50 / 4.0) {
    std::ostringstream what;
    what << "serve-open: generator lateness p99 " << late_p99 << " ms or poll period "
         << poll_period << " ms is not well below p50 " << p50 << " ms";
    report.warn(what.str());
  }
  const double stretch = completed ? stretch_sum / static_cast<double>(completed) : 0.0;

  if (tracer == nullptr) {
    report.metric("setup_s", setup_s, "s");
    report.metric("throughput_per_s", goodput, "1/s");
    report.metric("mqb_stretch", stretch, "ratio");
    report.metric("p50_ms", p50 * factor, "ms");
    report.metric("rss_mb", peak_rss_mb(), "MB");
    return;
  }

  report.metric("machine.speed", factor, "ratio");
  report.metric("traced.throughput_per_s", goodput, "1/s");
  report.metric("traced.p50_ms", p50 * factor, "ms");
  report.metric("traced.p99_ms", p99 * factor, "ms");
  const SpanTotals submit = tracer->totals("service.submit");
  const SpanTotals poll = tracer->totals("service.poll");
  report.metric("service.submit_us.p50", quantile(submit.samples_ns, 0.5) / 1e3, "us");
  report.metric("service.submit_us.p99", quantile(submit.samples_ns, 0.99) / 1e3, "us");
  report.metric("service.poll_us", quantile(poll.samples_ns, 0.5) / 1e3, "us");
  report.metric("service.queue_ms.p50", quantile(queue_ms, 0.5), "ms");
  report.metric("service.queue_ms.p99", quantile(queue_ms, 0.99), "ms");
  report.metric("service.run_ms.p50", quantile(run_ms, 0.5), "ms");
  report.metric("service.run_ms.p99", quantile(run_ms, 0.99), "ms");
  // service.epoch_ns is a log2 histogram: the delta's median is a bucket
  // bound, not an interpolated value.
  {
    fhs::obs::HistogramSnapshot delta;
    const auto* before = obs_before.histogram("service.epoch_ns");
    const auto* after = obs_after.histogram("service.epoch_ns");
    if (after != nullptr) {
      delta = *after;
      if (before != nullptr) {
        delta.count -= before->count;
        for (std::size_t b = 0; b < delta.buckets.size(); ++b) {
          delta.buckets[b] -= before->buckets[b];
        }
      }
    }
    report.metric("service.epoch_us.p50",
                  static_cast<double>(delta.quantile_bound(0.5)) / 1e3, "us");
  }
  report.metric("shard.steals", static_cast<double>(stats.steals), "count");
  report.metric("service.deferred", static_cast<double>(stats.deferred), "count");
  report.metric("service.rejected", static_cast<double>(stats.rejected), "count");
  report.metric("serve.late_ms.p99", late_p99, "ms");
  report.metric("serve.late_ms.max", quantile(late_ms, 1.0), "ms");
  report.metric("serve.poll_period_ms", poll_period, "ms");
  report.metric("serve.flow_ticks", completed ? flow_sum / static_cast<double>(completed) : 0.0,
                "ticks");
}

// ---------------------------------------------------------------------------
// Build guard, options and main.

/// Why this build must not report numbers, or nothing.
std::optional<std::string> refuse_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "sanitizer build";
#endif
#endif
#ifndef NDEBUG
  return "assertions enabled (not an optimized Release build)";
#endif
  if (!fhs::obs::kCompiledIn) return "FHS_OBS_OFF build";
  return std::nullopt;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans;
};

Options parse(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::invalid_argument("expected --name=value, got '" + arg + "'");
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      options.workload = value;
    } else if (key == "seed") {
      options.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "seconds") {
      options.seconds = std::stod(value);
    } else if (key == "trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (key == "spans") {
      options.spans = value;
    } else {
      throw std::invalid_argument("unknown flag --" + key);
    }
  }
  if (options.workload.empty() || !have_seed || !(options.seconds > 0.0)) {
    throw std::invalid_argument("--workload, --seed and --seconds > 0 are required");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what()
              << "\nusage: perfbench --workload=paper-sweep|stream-heavy|serve-open"
                 " --seed=N --seconds=S --trace=0|1 [--spans=PATH]\n";
    return 2;
  }
  if (const auto reason = refuse_build()) {
    std::cerr << "perfbench: refusing to measure a " << *reason << '\n';
    return 2;
  }
#ifdef __clang__
  const char* compiler = "clang ";
#else
  const char* compiler = "gcc ";
#endif
  std::cout << "build: " << PERFBENCH_BUILD_TYPE << ", compiler " << compiler << __VERSION__
            << ", nproc " << std::thread::hardware_concurrency() << '\n';

  const std::map<std::string, void (*)(std::uint64_t, double, Tracer*, Report&)> workloads = {
      {"paper-sweep", run_paper_sweep},
      {"stream-heavy", run_stream_heavy},
      {"serve-open", run_serve_open},
  };
  const auto it = workloads.find(options.workload);
  if (it == workloads.end()) {
    std::cerr << "perfbench: unknown workload '" << options.workload << "'\n";
    return 2;
  }

  std::unique_ptr<Tracer> tracer = options.trace ? std::make_unique<Tracer>() : nullptr;
  Report report;
  try {
    it->second(options.seed, options.seconds, tracer.get(), report);
  } catch (const std::exception& e) {
    report.check(false, options.workload + ": " + e.what());
  }
  if (tracer != nullptr) {
    report.metric("trace.spans", static_cast<double>(tracer->span_count()), "count");
    if (!options.spans.empty()) {
      std::ofstream out(options.spans);
      tracer->write(out);
      report.check(static_cast<bool>(out), "could not write spans to " + options.spans);
    }
  }
  report.print(std::cout);
  return report.correct() ? 0 : 1;
}
