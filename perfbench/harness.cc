#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "core/random.h"
#include "gemm/bgemm.h"
#include "gemm/int8_isa.h"
#include "telemetry/json.h"

namespace perfbench {

using lce::OpType;

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double SecondsSince(std::uint64_t t0_ns) {
  return static_cast<double>(NowNs() - t0_ns) * 1e-9;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

LatencySummary Summarize(const std::vector<double>& ms) {
  LatencySummary s;
  s.samples = ms.size();
  if (ms.empty()) return s;
  s.p50_ms = Median(ms);
  const std::size_t n = ms.size();
  s.blocks = static_cast<int>(std::clamp<std::size_t>(n / 200, 1, 5));
  std::vector<double> tails;
  for (int b = 0; b < s.blocks; ++b) {
    std::vector<double> block(ms.begin() + static_cast<long>(n * b / s.blocks),
                              ms.begin() + static_cast<long>(n * (b + 1) / s.blocks));
    std::sort(block.begin(), block.end());
    const std::size_t m = block.size();
    tails.push_back(m >= 11 ? block[m - 11] : block.back());
    const double pct = m >= 11 ? 100.0 * (1.0 - 10.0 / static_cast<double>(m)) : 100.0;
    s.tail_pct = b == 0 ? pct : std::min(s.tail_pct, pct);
  }
  s.tail_ms = Median(tails);
  return s;
}

double ResidentMiB() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long size = 0, resident = 0;
  const int got = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  if (!(stat >> cpu) || cpu != "cpu") return t;
  for (std::uint64_t& x : v) stat >> x;
  for (const std::uint64_t x : v) t.total += x;
  t.steal = v[7];
  return t;
}

double StealFrac(const CpuTicks& a, const CpuTicks& b) {
  return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                 static_cast<double>(b.total - a.total)
                           : 0.0;
}

void PhaseSampler::Start() {
  blocks_.push_back(Block{NowNs(), 0, 0.0, true});
  block_ticks_ = ReadCpuTicks();
  last_rss_ = 0;
}

void PhaseSampler::Tick() {
  const std::uint64_t now = NowNs();
  if (now - last_rss_ >= 50'000'000) {
    rss_mib_.push_back(ResidentMiB());
    last_rss_ = now;
  }
  if (now - blocks_.back().t0 >= 250'000'000) {
    const CpuTicks ticks = ReadCpuTicks();
    blocks_.back().t1 = now;
    blocks_.back().steal = StealFrac(block_ticks_, ticks);
    blocks_.push_back(Block{now, 0, 0.0, true});
    block_ticks_ = ticks;
  }
}

void PhaseSampler::Finish() {
  blocks_.back().t1 = NowNs();
  blocks_.back().steal = StealFrac(block_ticks_, ReadCpuTicks());
}

void PhaseSampler::SelectQuiet() {
  std::size_t quiet = 0;
  for (Block& b : blocks_) {
    b.kept = b.steal <= kStealLimit;
    quiet += b.kept ? 1 : 0;
  }
  if (4 * quiet >= blocks_.size()) return;
  std::vector<std::size_t> order(blocks_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return blocks_[a].steal < blocks_[b].steal;
  });
  for (std::size_t i = 0; i < order.size(); ++i) {
    blocks_[order[i]].kept = 4 * i < order.size();
  }
}

bool PhaseSampler::Kept(std::uint64_t t_ns) const {
  for (const Block& b : blocks_) {
    if (t_ns >= b.t0 && t_ns < b.t1) return b.kept;
  }
  return false;
}

double PhaseSampler::KeptSeconds() const {
  double s = 0.0;
  for (const Block& b : blocks_) {
    if (b.kept) s += static_cast<double>(b.t1 - b.t0) * 1e-9;
  }
  return s;
}

std::string PhaseSampler::ToJson() const {
  std::vector<double> steal;
  std::size_t kept = 0;
  for (const Block& b : blocks_) {
    steal.push_back(b.steal);
    kept += b.kept ? 1 : 0;
  }
  const double max_steal =
      steal.empty() ? 0.0 : *std::max_element(steal.begin(), steal.end());
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "{\"blocks\":%zu,\"kept\":%zu,\"steal_median\":%.4f,"
                "\"steal_max\":%.4f,\"steal_limit\":%.2f}",
                blocks_.size(), kept, Median(steal), max_steal, kStealLimit);
  return buf;
}

void SpanLog::Add(const std::string& name, const char* cat,
                  std::uint64_t t0_ns, std::uint64_t t1_ns, std::int64_t req,
                  int tid) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{name, cat, t0_ns, t1_ns, req, tid});
}

bool SpanLog::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  const std::uint64_t base = spans_.empty() ? 0 : spans_.front().t0;
  out << "{\"traceEvents\":[\n";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = static_cast<double>(static_cast<std::int64_t>(s.t0 - base)) * 1e-3;
    const double dur = static_cast<double>(s.t1 - s.t0) * 1e-3;
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                  "\"args\":{\"req\":%lld}}",
                  ts, dur, s.tid, static_cast<long long>(s.req));
    out << (i ? ",\n" : "") << "{\"name\":\"" << lce::telemetry::JsonEscape(s.name)
        << "\",\"cat\":\"" << s.cat << buf;
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans\":"
      << spans_.size() << ",\"dropped_spans\":" << dropped_ << "}}\n";
  return static_cast<bool>(out);
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Entry{name, value, unit});
}

void Report::Section(const std::string& key, const std::string& json) {
  sections_.emplace_back(key, json);
}

std::string Report::ToJson(bool correct) const {
  std::ostringstream o;
  o << "{\"correct\":" << (correct ? "true" : "false") << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    o << (i ? "," : "") << "\"" << e.name << "\":{\"value\":" << Num(e.value)
      << ",\"unit\":\"" << e.unit << "\"}";
  }
  o << "},\"phases\":[";
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const Phase& p = phases_[i];
    o << (i ? "," : "") << "{\"name\":\"" << p.name
      << "\",\"attempted\":" << p.attempted << ",\"succeeded\":" << p.succeeded
      << ",\"failed\":" << p.failed << ",\"mismatched\":" << p.mismatched;
    for (const auto& [k, v] : p.detail) o << ",\"" << k << "\":" << v;
    o << "}";
  }
  o << "]";
  for (const auto& [k, v] : sections_) o << ",\"" << k << "\":" << v;
  o << "}";
  return o.str();
}

void Report::Print() const {
  for (const Entry& e : metrics_) {
    std::printf("  %-36s %14.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
  for (const Phase& p : phases_) {
    std::printf("  phase %-10s attempted %6lld succeeded %6lld failed %4lld "
                "(mismatched %lld)\n",
                p.name.c_str(), static_cast<long long>(p.attempted),
                static_cast<long long>(p.succeeded),
                static_cast<long long>(p.failed),
                static_cast<long long>(p.mismatched));
  }
  for (const auto& [k, v] : sections_) {
    std::printf("  %s: %s\n", k.c_str(), v.c_str());
  }
}

std::string ProvenanceJson(const Args& args) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  std::ostringstream o;
  o << "{\"git_sha\":\"" << lce::telemetry::JsonEscape(sha != nullptr ? sha : "unknown")
    << "\",\"cpu\":\"" << lce::telemetry::JsonEscape(cpu)
    << "\",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"compiler\":\"" << lce::telemetry::JsonEscape(__VERSION__)
    << "\",\"int8_tier\":\""
    << lce::gemm::Int8TierName(lce::gemm::SelectInt8Tier())
    << "\",\"simd_bgemm\":" << (lce::gemm::HasSimdBGemm() ? "true" : "false")
    << ",\"seed\":" << args.seed << ",\"seconds\":" << Num(args.seconds)
    << ",\"trace\":" << (args.trace ? "true" : "false")
    << ",\"smoke\":" << (args.smoke ? "true" : "false") << "}";
  return o.str();
}

namespace {

template <typename T>
void Shuffle(T* data, std::size_t n, lce::Rng& rng) {
  for (std::size_t i = n; i > 1; --i) {
    std::swap(data[i - 1], data[rng.UniformInt(i)]);
  }
}

}  // namespace

void ReseedWeights(lce::Graph& g, std::uint64_t seed) {
  lce::Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  for (const auto& v : g.values()) {
    if (!v->is_constant || v->dtype != lce::DataType::kFloat32 ||
        !v->constant_data.allocated()) {
      continue;
    }
    Shuffle(v->constant_data.data<float>(),
            static_cast<std::size_t>(v->constant_data.num_elements()), rng);
  }
  for (const auto& n : g.nodes()) {
    for (std::vector<float>* attr :
         {&n->attrs.bn_scale, &n->attrs.bn_offset, &n->attrs.bias,
          &n->attrs.prelu_slope}) {
      Shuffle(attr->data(), attr->size(), rng);
    }
  }
}

std::vector<float> SeededInput(std::uint64_t seed, std::uint64_t stream,
                               std::size_t n) {
  lce::Rng rng(seed * 1000003ull + stream * 7919ull + 5);
  std::vector<float> v(n);
  for (float& x : v) x = rng.Uniform();
  return v;
}

const char* GroupName(int g) {
  static const char* kNames[kNumGroups] = {
      "bconv2d", "conv2d",      "conv2d_int8", "depthwise",
      "pool",    "elementwise", "quantize",    "fc"};
  return kNames[g];
}

int GroupOf(OpType t) {
  switch (t) {
    case OpType::kLceBConv2d:
      return kBconv2d;
    case OpType::kConv2D:
      return kConv2d;
    case OpType::kConv2DInt8:
      return kConv2dInt8;
    case OpType::kDepthwiseConv2D:
      return kDepthwise;
    case OpType::kMaxPool2D:
    case OpType::kAvgPool2D:
    case OpType::kGlobalAvgPool:
    case OpType::kLceBMaxPool2d:
      return kPool;
    case OpType::kQuantizeInt8:
    case OpType::kDequantizeInt8:
    case OpType::kLceQuantize:
    case OpType::kLceDequantize:
      return kQuantize;
    case OpType::kFullyConnected:
    case OpType::kLceBFullyConnected:
      return kFc;
    default:
      return kElementwise;
  }
}

std::array<double, kNumGroups> GroupMacs(const lce::Graph& g) {
  std::array<double, kNumGroups> macs{};
  for (const auto& n : g.nodes()) {
    if (!n->alive) continue;
    const lce::Conv2DGeometry& c = n->attrs.conv;
    switch (n->type) {
      case OpType::kLceBConv2d:
      case OpType::kConv2D:
      case OpType::kConv2DInt8:
        macs[GroupOf(n->type)] += static_cast<double>(c.macs());
        break;
      case OpType::kDepthwiseConv2D:
        macs[kDepthwise] += static_cast<double>(c.batch) * c.out_h() *
                            c.out_w() * c.filter_h * c.filter_w * c.in_c;
        break;
      case OpType::kFullyConnected:
      case OpType::kLceBFullyConnected:
        macs[kFc] += static_cast<double>(n->attrs.fc_in_features) *
                     n->attrs.fc_out_features;
        break;
      default:
        break;
    }
  }
  return macs;
}

void Attribution::Add(const std::vector<lce::OpProfile>& profile,
                      double wall, int lanes) {
  for (const lce::OpProfile& p : profile) {
    group_s[GroupOf(p.type)] += p.seconds;
    node_s += p.seconds;
  }
  wall_s += wall;
  requests += lanes;
  invokes += 1;
}

void Attribution::Merge(const Attribution& o) {
  for (int g = 0; g < kNumGroups; ++g) group_s[g] += o.group_s[g];
  node_s += o.node_s;
  wall_s += o.wall_s;
  requests += o.requests;
  invokes += o.invokes;
}

bool SameBits(const float* out, const std::vector<float>& ref) {
  return std::memcmp(out, ref.data(), ref.size() * sizeof(float)) == 0;
}

double MaxAbsDiff(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return INFINITY;
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(static_cast<double>(a[i]) - b[i]));
  }
  return m;
}

}  // namespace perfbench
