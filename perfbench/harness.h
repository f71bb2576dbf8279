// Benchmark-side plumbing shared by the three workloads: clocks, latency
// summaries, phase accounting, the Chrome-trace span log, the run report,
// seeded inputs and per-op-group attribution of ExecutionContext profiles.
//
// Everything here sits *outside* the engine: spans are recorded around the
// benchmark's own calls into the public API, and per-node times come from
// the engine's existing ExecutionOptions::enable_profiling.
#ifndef LCE_PERFBENCH_HARNESS_H_
#define LCE_PERFBENCH_HARNESS_H_

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "graph/compiled_model.h"
#include "graph/ir.h"

namespace perfbench {

std::uint64_t NowNs();
double SecondsSince(std::uint64_t t0_ns);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string report_path;  // full JSON report
  std::string trace_path;   // Chrome trace (traced runs only)
};

double Median(std::vector<double> v);

// A JSON number with all its digits ("null" when not finite).
std::string Num(double v);

// Median plus the tail: the highest percentile that still has at least ten
// samples beyond it (the 11th-largest sample, percentile 100*(1-10/n)),
// taken in each of up to five consecutive blocks of at least 200 samples
// and reported as the median over the blocks. The k=10 order statistic of a
// single sample set swings with a handful of bursts; the block median keeps
// the definition and is steady from run to run. `samples` must be in
// arrival order so that blocks are consecutive in time. With fewer than 11
// samples in a block its maximum stands in (percentile 100).
struct LatencySummary {
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double tail_pct = 0.0;  // percentile of the smallest block
  std::size_t samples = 0;
  int blocks = 0;
};
LatencySummary Summarize(const std::vector<double>& ms);

// Resident set size of this process, from /proc/self/statm.
double ResidentMiB();

// Share of the machine's CPU time the hypervisor gave to other guests
// ("steal", /proc/stat) between two readings.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks ReadCpuTicks();
double StealFrac(const CpuTicks& a, const CpuTicks& b);

// Blocks with more steal than this are not measured (see SelectQuiet).
inline constexpr double kStealLimit = 0.02;

// What a phase's generator thread samples while it runs: resident memory
// every 50 ms, and hypervisor steal per 0.25 s block. On a shared host a
// stolen vCPU stalls every shard of a ParallelFor, so a steal burst doubles
// 4-thread latency for as long as it lasts; latency and closed-loop
// throughput are therefore taken from the quiet blocks only.
class PhaseSampler {
 public:
  // Opens a measuring window; a phase may open several.
  void Start();
  // Call often from the generator loop.
  void Tick();
  // Closes the window.
  void Finish();
  // Keeps the blocks with steal <= kStealLimit; when fewer than a quarter
  // are that quiet, keeps the quietest quarter instead.
  void SelectQuiet();
  bool Kept(std::uint64_t t_ns) const;
  double KeptSeconds() const;
  const std::vector<double>& rss_mib() const { return rss_mib_; }
  std::string ToJson() const;

 private:
  struct Block {
    std::uint64_t t0 = 0, t1 = 0;
    double steal = 0.0;
    bool kept = true;
  };
  std::vector<Block> blocks_;
  std::vector<double> rss_mib_;
  CpuTicks block_ticks_;
  std::uint64_t last_rss_ = 0;
};

// Requests of one phase. `failed` counts every non-Ok outcome plus output
// mismatches; the breakdown keys (shed, deadline, ...) are informational.
struct Phase {
  std::string name;
  std::int64_t attempted = 0;
  std::int64_t succeeded = 0;
  std::int64_t failed = 0;
  std::int64_t mismatched = 0;
  std::map<std::string, std::int64_t> detail;
};

// In-memory span log written out as Chrome trace JSON at the end of a
// traced run. Thread-safe; bounded so a long run cannot grow it without
// limit (dropped spans are counted in the file's metadata).
class SpanLog {
 public:
  explicit SpanLog(bool enabled, std::size_t capacity = 400000)
      : enabled_(enabled), capacity_(capacity) {}
  bool enabled() const { return enabled_; }
  // `req` is the request id the span belongs to (0: not request-scoped).
  void Add(const std::string& name, const char* cat, std::uint64_t t0_ns,
           std::uint64_t t1_ns, std::int64_t req, int tid);
  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    const char* cat;
    std::uint64_t t0, t1;
    std::int64_t req;
    int tid;
  };
  const bool enabled_;
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

// Named metrics with units plus free-form report sections.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  // `json` must already be a JSON value.
  void Section(const std::string& key, const std::string& json);
  void AddPhase(const Phase& p) { phases_.push_back(p); }
  std::string ToJson(bool correct) const;
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> sections_;
  std::vector<Phase> phases_;
};

std::string ProvenanceJson(const Args& args);

// Re-draws a training graph's weights from `seed` without changing their
// statistics: every float constant and every per-channel attribute vector
// (batch-norm scale/offset, bias, PReLU slopes) is shuffled with a seeded
// Fisher-Yates permutation. Binary weights take their signs from the
// shuffled latent weights, so they change too.
void ReseedWeights(lce::Graph& g, std::uint64_t seed);

// Seeded uniform [-1, 1) input tensor data.
std::vector<float> SeededInput(std::uint64_t seed, std::uint64_t stream,
                               std::size_t n);

// Op groups the kernels layer is reported by.
enum Group {
  kBconv2d = 0,
  kConv2d,
  kConv2dInt8,
  kDepthwise,
  kPool,
  kElementwise,
  kQuantize,
  kFc,
  kNumGroups
};
const char* GroupName(int g);
int GroupOf(lce::OpType t);

// Multiply-accumulates per op group for one batch-1 request, counted the way
// lce::ComputeModelStats counts them (Conv2DGeometry::macs()).
std::array<double, kNumGroups> GroupMacs(const lce::Graph& g);

// Accumulates per-group node time against the Invoke wall time that
// contained it, per request (a batch-N Invoke counts as N requests).
struct Attribution {
  std::array<double, kNumGroups> group_s{};
  double node_s = 0.0;
  double wall_s = 0.0;
  std::int64_t requests = 0;
  std::int64_t invokes = 0;
  void Add(const std::vector<lce::OpProfile>& profile, double wall_s,
           int lanes);
  void Merge(const Attribution& o);
};

// Fastest way to compare outputs exactly.
bool SameBits(const float* out, const std::vector<float>& ref);
double MaxAbsDiff(const std::vector<float>& a, const std::vector<float>& b);

}  // namespace perfbench

#endif  // LCE_PERFBENCH_HARNESS_H_
