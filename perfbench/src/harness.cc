#include "harness.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <unordered_map>

#include "core/schedule_cache.h"
#include "core/simulate.h"
#include "obs/export.h"
#include "quantile.h"

namespace perfbench {

const std::vector<std::pair<const char*, const char*>>& EndToEndCatalog() {
  static const std::vector<std::pair<const char*, const char*>> kCatalog = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"latency_ms", "ms"},
      {"throughput_per_s", "1/s"},
  };
  return kCatalog;
}

namespace {

// What each layer metric should move: "<end-to-end metric> (<the figure
// the workload reports it as>) on <workload>".
constexpr const char* kFit = "latency_ms (fit_s) on fit_cold";
constexpr const char* kLm =
    "latency_ms (fit_s) on fit_cold; latency_ms (flush lag) and recover_s "
    "on stream_ingest; serve p99_ms on serve_resident via refits";
constexpr const char* kIngest =
    "throughput_per_s (ingest_rows_per_s) on stream_ingest";
constexpr const char* kFlush = "latency_ms (flush lag) on stream_ingest";
constexpr const char* kServe = "latency_ms (p50) and p99_ms on serve_*";
constexpr const char* kRegistry =
    "latency_ms (p50) on serve_spill; no change on serve_resident";

}  // namespace

const std::vector<LayerSpec>& LayerCatalog() {
  static const std::vector<LayerSpec> kCatalog = {
      // core: FitDspot stages, wall ms per fit.
      {"core.global_fit.ms", "ms", kFit},
      {"core.local_fit.ms", "ms", kFit},
      {"core.estimate.ms", "ms", kFit},
      {"core.unattributed.ms", "ms", kFit},
      {"core.stage_coverage", "ratio", kFit},
      {"core.fit_cost_bits", "bits", "model quality on fit_cold"},
      // core: GLOBALFIT round internals, ms summed over threads per pass.
      {"core.shock_search.ms", "ms", kFit},
      {"core.growth_search.ms", "ms", kFit},
      {"core.shock.candidates", "count", kFit},
      {"core.shock.added", "count", kFit},
      {"core.shock.accept_ratio", "ratio", kFit},
      {"core.forecast_sim.us", "us",
       "latency_ms (p50) on serve_resident; no change on serve_spill"},
      // optimize, per pass (ms summed over threads).
      {"optimize.lm.solves", "count", kLm},
      {"optimize.lm.iterations", "count", kLm},
      {"optimize.lm.solve.ms", "ms", kLm},
      {"optimize.lm.jacobian.ms", "ms", kLm},
      // parallel, over the traced phase.
      {"parallel.busy_frac", "ratio", kFit},
      {"parallel.tasks", "count", kFit},
      // tensor.
      {"tensor.csv.rows_per_s", "1/s", kIngest},
      // durable / stream, per replay pass.
      {"durable.append.p50_ns", "ns", kIngest},
      {"durable.append.tail_ns", "ns", kIngest},
      {"durable.wal.bytes", "bytes", kIngest},
      {"durable.wal.syncs", "count", kIngest},
      {"durable.recover.ms", "ms", "recover_s on stream_ingest"},
      {"durable.replayed_appends", "count", "recover_s on stream_ingest"},
      {"stream.flush.ms", "ms", kFlush},
      {"stream.forecast_read.ns", "ns", "forecast reads on stream_ingest"},
      {"stream.cold_fits", "count", kFlush},
      {"stream.warm_refits", "count", kFlush},
      {"stream.escalations", "count", kFlush},
      {"stream.buffer_bytes", "bytes", "peak_rss_mb on stream_ingest"},
      // serve, over the traced fixed-rate phase.
      {"serve.engine.latency_p50_ms", "ms", kServe},
      {"serve.engine.latency_p99_ms", "ms", kServe},
      {"serve.net.overhead_ms", "ms", kServe},
      {"serve.engine.exec_ms.forecast", "ms", kServe},
      {"serve.engine.exec_ms.outlier", "ms", kServe},
      {"serve.engine.exec_ms.refit", "ms", kServe},
      {"serve.engine.queue_wait_ms", "ms", kServe},
      {"serve.engine.batch_size", "count",
       "throughput_per_s (capacity_rps) on serve_*"},
      {"serve.registry.hit_ratio", "ratio", kRegistry},
      {"serve.registry.reloads", "count", kRegistry},
      {"serve.registry.evictions", "count", kRegistry},
      {"serve.registry.spills", "count", kRegistry},
      {"serve.registry.get.us.hit", "us", kRegistry},
      {"serve.registry.get.us.miss", "us", kRegistry},
      {"serve.protocol.encode.us", "us", "latency_ms (p50) on serve_*, small"},
      {"serve.protocol.decode.us", "us", "latency_ms (p50) on serve_*, small"},
      {"serve.client.late_ms", "ms", "validity of serve_* runs, not speed"},
      {"serve.client.p99_ms", "ms", "p99_ms on serve_* (traced)"},
      // Tracing overhead: traced minus untraced latency_ms of one run.
      {"obs.overhead.latency_ms", "ms", "tracing overhead, all workloads"},
  };
  return kCatalog;
}

void Result::Gate(bool ok, const std::string& what) {
  gates_.push_back(std::string(ok ? "ok   " : "FAIL ") + what);
  if (!ok) {
    correct_ = false;
    std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
                 what.c_str());
  }
}

void Result::SetEndToEnd(const std::string& name, double value) {
  e2e_[name] = value;
}

void Result::SetSetup(const std::vector<double>& samples_s) {
  e2e_["setup_s"] = Median(samples_s);
  std::string line = "setup samples (s):";
  for (const double s : samples_s) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.4f", s);
    line += buf;
  }
  notes_.push_back(line);
}

void Result::SetLayer(const std::string& name, double value) {
  layer_[name] = value;
}

void Result::SetReport(const std::string& name, double value,
                       const std::string& unit) {
  report_.push_back({name, {value, unit}});
}

void Result::Note(const std::string& line) { notes_.push_back(line); }

namespace {

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

double Lookup(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

}  // namespace

void Result::PrintReport(const Args& args, const std::string& provenance_json,
                         const std::string& path) const {
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.smoke ? " smoke" : "");
  std::printf("provenance %s\n", provenance_json.c_str());
  for (const std::string& g : gates_) std::printf("gate %s\n", g.c_str());
  for (const std::string& n : notes_) std::printf("note %s\n", n.c_str());
  std::printf("attempted %llu failed %llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (const auto& [name, vu] : report_) {
    std::printf("report %-28s %14.10g %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  for (const auto& [name, unit] : EndToEndCatalog()) {
    std::printf("e2e    %-28s %14.6g %s\n", name, Lookup(e2e_, name), unit);
  }
  if (args.trace) {
    for (const LayerSpec& spec : LayerCatalog()) {
      const auto it = layer_.find(spec.name);
      if (it == layer_.end()) {
        std::printf("layer  %-30s %14s %-6s -> %s\n", spec.name,
                    "not exercised", spec.unit, spec.moves);
      } else {
        std::printf("layer  %-30s %14.6g %-6s -> %s\n", spec.name, it->second,
                    spec.unit, spec.moves);
      }
    }
  }

  std::ostringstream os;
  os << "{\n  \"workload\": " << Quote(args.workload)
     << ",\n  \"seed\": " << args.seed << ",\n  \"trace\": "
     << (args.trace ? "true" : "false")
     << ",\n  \"provenance\": " << provenance_json
     << ",\n  \"correct\": " << (correct_ ? "true" : "false")
     << ",\n  \"attempted\": " << attempted_ << ",\n  \"failed\": " << failed_
     << ",\n  \"gates\": [";
  for (size_t i = 0; i < gates_.size(); ++i) {
    os << (i ? ", " : "") << Quote(gates_[i]);
  }
  os << "],\n  \"report\": {";
  for (size_t i = 0; i < report_.size(); ++i) {
    os << (i ? "," : "") << "\n    " << Quote(report_[i].first)
       << ": {\"value\": " << Number(report_[i].second.first)
       << ", \"unit\": " << Quote(report_[i].second.second) << "}";
  }
  os << "\n  },\n  \"end_to_end\": {";
  bool first = true;
  for (const auto& [name, unit] : EndToEndCatalog()) {
    os << (first ? "" : ",") << "\n    " << Quote(name)
       << ": {\"value\": " << Number(Lookup(e2e_, name))
       << ", \"unit\": " << Quote(unit) << "}";
    first = false;
  }
  os << "\n  },\n  \"per_layer\": [";
  first = true;
  for (const LayerSpec& spec : LayerCatalog()) {
    const auto it = layer_.find(spec.name);
    os << (first ? "" : ",") << "\n    {\"name\": " << Quote(spec.name)
       << ", \"value\": "
       << (it == layer_.end() ? std::string("null") : Number(it->second))
       << ", \"unit\": " << Quote(spec.unit)
       << ", \"moves\": " << Quote(spec.moves) << "}";
    first = false;
  }
  os << "\n  ]\n}\n";
  std::ofstream out(path);
  out << os.str();
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  } else {
    std::printf("wrote %s\n", path.c_str());
  }
}

std::string Result::ResultLine(bool traced) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct_ ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const char* name, const char* unit, double v) {
    os << (first ? "" : ", ") << Quote(name) << ": {\"value\": " << Number(v)
       << ", \"unit\": " << Quote(unit) << "}";
    first = false;
  };
  if (traced) {
    // A layer the workload never exercises did no work: report 0.
    for (const LayerSpec& spec : LayerCatalog()) {
      emit(spec.name, spec.unit, Lookup(layer_, spec.name));
    }
  } else {
    for (const auto& [name, unit] : EndToEndCatalog()) {
      emit(name, unit, Lookup(e2e_, name));
    }
  }
  os << "}}";
  return os.str();
}

ScratchDir::ScratchDir(const std::string& parent, const std::string& prefix) {
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  std::string templ = parent + "/" + prefix + "-XXXXXX";
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) != nullptr) {
    path_ = buf.data();
  } else {
    std::fprintf(stderr, "perfbench: mkdtemp under %s failed\n",
                 parent.c_str());
  }
}

ScratchDir::~ScratchDir() {
  if (path_.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

void SyncFilesystem(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double HistogramSumMs(const dspot::ObsSnapshot& snap, std::string_view name) {
  const dspot::MetricSnapshot* m = snap.Find(name);
  return m == nullptr ? 0.0 : m->sum;
}

namespace {

struct Span {
  double begin = 0.0;
  double end = 0.0;
};

/// Spans of the given names on one thread that no other span of those
/// names on the thread contains (nested re-entries, e.g. a pool task run
/// inside another task's wait, would otherwise be counted twice).
std::vector<Span> TopLevel(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.begin != b.begin ? a.begin < b.begin : a.end > b.end;
  });
  std::vector<Span> top;
  for (const Span& s : spans) {
    if (!top.empty() && s.end <= top.back().end + 1e-3) continue;
    top.push_back(s);
  }
  return top;
}

}  // namespace

double SelfTimeMs(const std::vector<dspot::TraceEvent>& events,
                  std::string_view outer,
                  const std::vector<std::string_view>& inner) {
  std::unordered_map<uint32_t, std::vector<Span>> outer_by_tid;
  std::unordered_map<uint32_t, std::vector<Span>> inner_by_tid;
  for (const dspot::TraceEvent& e : events) {
    if (e.name == nullptr) continue;
    const std::string_view name(e.name);
    const Span span{e.ts_us, e.ts_us + e.dur_us};
    if (name == outer) {
      outer_by_tid[e.tid].push_back(span);
    } else if (std::find(inner.begin(), inner.end(), name) != inner.end()) {
      inner_by_tid[e.tid].push_back(span);
    }
  }
  double total_us = 0.0;
  for (auto& [tid, spans] : outer_by_tid) {
    const std::vector<Span> outers = TopLevel(std::move(spans));
    for (const Span& s : outers) total_us += s.end - s.begin;
    const auto it = inner_by_tid.find(tid);
    if (it == inner_by_tid.end()) continue;
    for (const Span& s : TopLevel(std::move(it->second))) {
      // The outer span that starts last at or before this inner span.
      auto pos = std::upper_bound(
          outers.begin(), outers.end(), s.begin,
          [](double t, const Span& o) { return t < o.begin; });
      if (pos == outers.begin()) continue;
      --pos;
      if (s.end <= pos->end + 1e-3) total_us -= s.end - s.begin;
    }
  }
  return total_us / 1e3;
}

void SetFitLayerMetrics(const dspot::ObsSnapshot& snap,
                        const std::vector<dspot::TraceEvent>& events,
                        double wall_s, size_t threads, double passes,
                        Result* result) {
  const double per = passes > 0.0 ? 1.0 / passes : 0.0;
  result->SetLayer("optimize.lm.solves",
                   static_cast<double>(snap.CounterValue("lm.solves")) * per);
  result->SetLayer(
      "optimize.lm.iterations",
      static_cast<double>(snap.CounterValue("lm.iterations")) * per);
  // Solve time net of the Jacobian spans nested in it, so the two add up.
  result->SetLayer("optimize.lm.solve.ms",
                   SelfTimeMs(events, "lm.solve", {"lm.jacobian"}) * per);
  result->SetLayer("optimize.lm.jacobian.ms",
                   SelfTimeMs(events, "lm.jacobian", {}) * per);
  const double busy_ms = SelfTimeMs(events, "pool.task", {});
  result->SetLayer("parallel.busy_frac",
                   wall_s > 0.0 && threads > 0
                       ? busy_ms / (wall_s * 1e3 * static_cast<double>(threads))
                       : 0.0);
  result->SetLayer(
      "parallel.tasks",
      static_cast<double>(snap.CounterValue("pool.tasks_executed")) * per);
  // A GLOBALFIT round's self time, net of its base LM refit and growth
  // search, is the shock-candidate search and strength refits.
  result->SetLayer("core.shock_search.ms",
                   SelfTimeMs(events, "global_fit.round",
                              {"global_fit.base_lm",
                               "global_fit.growth_search"}) *
                       per);
  result->SetLayer("core.growth_search.ms",
                   SelfTimeMs(events, "global_fit.growth_search", {}) * per);
  const double candidates =
      static_cast<double>(snap.CounterValue("global_fit.shock_candidates"));
  const double added =
      static_cast<double>(snap.CounterValue("global_fit.shocks_added"));
  result->SetLayer("core.shock.candidates", candidates * per);
  result->SetLayer("core.shock.added", added * per);
  result->SetLayer("core.shock.accept_ratio",
                   candidates > 0.0 ? added / candidates : 0.0);
}

double SimulateGlobalUs(const dspot::ModelParamSet& set) {
  std::vector<double> curve(set.num_ticks, 0.0);
  std::vector<double> us;
  for (int rep = 0; rep < 1000; ++rep) {
    const Clock::time_point t0 = Clock::now();
    dspot::ScheduleCache cache;
    dspot::SimulateGlobalInto(set, 0, &cache, std::span<double>(curve));
    us.push_back(MsSince(t0) * 1e3);
  }
  return Median(us);
}

void WriteTrace(const std::string& path, Result* result) {
  const dspot::Status s = dspot::WriteChromeTrace(path);
  if (s.ok()) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    result->Note("chrome trace not written: " + s.ToString());
  }
}

}  // namespace perfbench
