// The repo benchmark: one workload per invocation.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--work-dir DIR] [--git-sha SHA]
//
// Prints a human-readable report, writes it as JSON (and, traced, a Chrome
// trace) under --work-dir, and ends stdout with one JSON result line.
// Exits 2 on a usage error, 0 otherwise (an incorrect run says so in the
// result line).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>

#include "common/parse_util.h"
#include "harness.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_SIMD_ISA
#define PERFBENCH_SIMD_ISA "unknown"
#endif

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fit_cold|stream_ingest|serve_spill|serve_resident --seed N "
               "--seconds S --trace 0|1 [--smoke] [--work-dir DIR] "
               "[--git-sha SHA]\n",
               why);
  return 2;
}

/// Where the numbers came from; non-optimised builds are flagged.
std::string Provenance(const Args& args, const std::string& threads) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const bool optimised = build_type == "Release" ||
                         build_type == "RelWithDebInfo" ||
                         build_type == "MinSizeRel";
  const unsigned nproc = std::thread::hardware_concurrency();
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"git_sha\": \"%s\", \"build_type\": \"%s\", \"optimised\": %s, "
      "\"compiler\": \"%s\", \"simd_isa\": \"%s\", \"nproc\": %u, "
      "\"threads\": \"%s\", \"seed\": %llu, \"tracing\": %s, "
      "\"smoke\": %s}",
      args.git_sha.c_str(), build_type.c_str(), optimised ? "true" : "false",
#if defined(__clang__)
      "clang " __clang_version__,
#elif defined(__GNUC__)
      "gcc " __VERSION__,
#else
      "unknown",
#endif
      PERFBENCH_SIMD_ISA, nproc, threads.c_str(),
      static_cast<unsigned long long>(args.seed), args.trace ? "true" : "false",
      args.smoke ? "true" : "false");
  if (!optimised) {
    std::fprintf(stderr,
                 "perfbench: WARNING: build type '%s' is not optimised; "
                 "timings are not comparable\n",
                 build_type.c_str());
  }
  return buf;
}

int Main(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      auto v = dspot::ParseInt64Text(value);
      if (!v.ok() || *v < 0) return Usage("--seed needs an integer >= 0");
      args.seed = static_cast<uint64_t>(*v);
      have_seed = true;
    } else if (arg == "--seconds") {
      auto v = dspot::ParseInt64Text(value);
      if (!v.ok() || *v < 1 || *v > 600) {
        return Usage("--seconds needs an integer in [1, 600]");
      }
      args.seconds = static_cast<double>(*v);
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace needs 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (arg == "--work-dir") {
      args.work_dir = value;
    } else if (arg == "--git-sha") {
      args.git_sha = value;
    } else {
      return Usage(("unknown flag " + std::string(arg)).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  void (*run)(const Args&, Result*) = nullptr;
  if (args.workload == "fit_cold") run = RunFitCold;
  if (args.workload == "stream_ingest") run = RunStreamIngest;
  if (args.workload == "serve_spill") run = RunServeSpill;
  if (args.workload == "serve_resident") run = RunServeResident;
  if (run == nullptr) return Usage("unknown --workload");

  Result result;
  run(args, &result);
  result.PrintReport(args, Provenance(args, result.threads()),
                     args.work_dir + "/" + args.workload + "-seed" +
                         std::to_string(args.seed) +
                         (args.trace ? "-traced" : "") + ".json");
  std::printf("%s\n", result.ResultLine(args.trace).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
