/// osprey_bench: one rep of one workload in a fresh process.
///
///   osprey_bench --workload <name> --seed <n> [--traced] [--smoke]
///                [--scratch <dir>]
///
/// Prints one report (report.hpp) as a single JSON line and exits 0, or
/// 1 when an output check failed (the report lists why), or 2 on a
/// usage error. run.py runs the reps, interleaves workloads and
/// aggregates; see README.md.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "report.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

namespace {

using osprey::bench::Options;
using osprey::bench::Report;

using Workload = void (*)(const Options&, Report&);

const std::map<std::string, Workload>& workloads() {
  static const std::map<std::string, Workload> kWorkloads = {
      {"ww_rt_year", osprey::bench::run_ww_rt_year},
      {"feeds_hourly", osprey::bench::run_feeds_hourly},
      {"feeds_durable", osprey::bench::run_feeds_durable},
      {"serve_flood", osprey::bench::run_serve_flood},
  };
  return kWorkloads;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "osprey_bench: %s\nusage: osprey_bench --workload "
               "<ww_rt_year|feeds_hourly|feeds_durable|serve_flood> "
               "--seed <n> [--traced] [--smoke] [--scratch <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      const char* text = argv[++i];
      options.seed = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0') return usage("--seed takes an integer");
      have_seed = true;
    } else if (arg == "--scratch" && has_value) {
      options.scratch = argv[++i];
    } else if (arg == "--traced") {
      options.traced = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else {
      return usage(("unknown or incomplete argument " + arg).c_str());
    }
  }
  auto it = workloads().find(options.workload);
  if (it == workloads().end()) return usage("unknown workload");
  if (!have_seed) return usage("--seed is required");

  osprey::util::set_log_level(osprey::util::LogLevel::kError);
  Report report;
  report.workload = options.workload;
  report.seed = options.seed;
  report.traced = options.traced;
  report.smoke = options.smoke;
  try {
    it->second(options, report);
  } catch (const std::exception& e) {
    report.failures.push_back(std::string("exception: ") + e.what());
  }
  std::printf("%s\n", report.to_value().to_json().c_str());
  return report.failures.empty() ? 0 : 1;
}
