// sensorbench: the full sensor path — capture/decode, PipelineRuntime
// (route + SPSC ring), TcpReassembler, IdsEngine (prefilter screen, exact
// scan, verify), NDJSON alert sink — on one workload.
//
//   sensorbench --workload NAME --seed N --seconds S --trace 0|1
//               [--tiny] [--tamper] [--spans FILE]
//
// --trace 0 prints the end-to-end metrics from untraced multi-worker runs;
// --trace 1 prints the per-layer metrics from the traced run.  Every output
// starts with a context line (seed, nproc, selected SIMD widths, build type)
// and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 1 when a correctness check failed, 2 on a usage or
// set-up error (no JSON line then).
//
// --tiny shrinks every input (the smoke test); --tamper corrupts one alert
// before the exact gate, which must then fail.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "sensorbench.hpp"
#include "simd/cpu_features.hpp"

namespace sensorbench {
namespace {

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--trace") {
      opt.trace = std::stoi(value()) != 0;
    } else if (arg == "--spans") {
      opt.spans_path = value();
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--tamper") {
      opt.tamper = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return opt;
}

// The numbers depend on the vector width dispatch picked: an AVX2-only
// host's rows are not comparable with AVX-512 rows.
void print_context(const Options& opt) {
  pattern::PatternSet one;
  one.add("sensor");
  const std::string vpatch(vpm::compile(core::Algorithm::vpatch, one)->engine().name());
  const simd::CpuFeatures& cpu = simd::cpu();
  const int ac_lanes = cpu.has_avx512_kernel() ? 16 : cpu.has_avx2_kernel() ? 8 : 0;
  const char* force = std::getenv("VPM_FORCE_ISA");
  std::printf(
      "context: workload=%s seed=%llu seconds=%g trace=%d nproc=%ld workers=%u "
      "vpatch=%s ac_compact_lanes=%d avx2=%d avx512=%d force_isa=%s build=%s%s\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0, ::sysconf(_SC_NPROCESSORS_ONLN), kWorkers, vpatch.c_str(), ac_lanes,
      cpu.has_avx2_kernel() ? 1 : 0, cpu.has_avx512_kernel() ? 1 : 0,
      force != nullptr ? force : "-", SENSORBENCH_BUILD_TYPE, opt.tiny ? " tiny" : "");
}

void print_result(const RunResult& r, bool correct) {
  for (const Metric& m : r.metrics) {
    std::printf("%-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int run(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  print_context(opt);
  std::fflush(stdout);
  const Workload w = make_workload(opt.workload, opt.seed, opt.tiny);
  Gate gate;
  const RunResult r = opt.trace ? run_traced(w, opt, gate) : run_end_to_end(w, opt, gate);
  print_result(r, gate.ok());
  return gate.ok() ? 0 : 1;
}

}  // namespace
}  // namespace sensorbench

int main(int argc, char** argv) {
  try {
    return sensorbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sensorbench: %s\n", e.what());
    return 2;
  }
}
