// STGSim end-to-end benchmark binary: runs one workload for a time budget
// and prints its metrics. run.py builds this binary and wraps it into the
// benchmark's command line; see README.md for the workloads and metrics.
//
// Usage: stgsim_perfbench --workload am_scale|parallel_host|validate_serve
//                         [--seed N] [--seconds S] [--trace 0|1]
//                         [--golden FILE] [--commit ID]
//                         [--smoke] [--setup-only]
//
// Output: human-readable lines, a "host {...}" fingerprint line, and as
// the last line "result {...}" with correct/attempted/failed and the
// metric values by name. --trace 1 runs the traced variant: per-layer
// metrics instead of end-to-end ones, and a Chrome trace plus a self-time
// table under .bench_out/. Exit code 0 on a completed run (its
// correctness is in the result), 1 on usage errors, 2 when the run itself
// could not complete.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "support/json.hpp"
#include "support/numparse.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef STGSIM_BUILD_TYPE
#define STGSIM_BUILD_TYPE "unknown"
#endif

using namespace perfbench;
namespace json = stgsim::json;

namespace {

int host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

bool optimized() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

json::Value host_fingerprint(const Options& o, const std::string& commit) {
  json::Value h = json::Value::object();
  h.set("nproc", o.nproc);
#if defined(__clang__)
  h.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  h.set("compiler", std::string("gcc ") + __VERSION__);
#else
  h.set("compiler", "unknown");
#endif
  h.set("build_type", STGSIM_BUILD_TYPE);
  h.set("optimized", optimized());
  h.set("sanitized", sanitized());
  h.set("commit", commit);
  return h;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "stgsim_perfbench: " << why << "\n";
  std::exit(1);
}

std::uint64_t parse_u64(const char* flag, const char* text) {
  long long v = 0;
  if (stgsim::support::parse_i64(text, &v) !=
          stgsim::support::ParseNumStatus::kOk ||
      v < 0) {
    usage(std::string(flag) + ": expected a non-negative integer");
  }
  return static_cast<std::uint64_t>(v);
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  o.nproc = host_nproc();
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = parse_u64("--seed", value());
    } else if (a == "--seconds") {
      o.seconds = static_cast<double>(parse_u64("--seconds", value()));
    } else if (a == "--trace") {
      o.trace = parse_u64("--trace", value()) != 0;
    } else if (a == "--golden") {
      o.golden_path = value();
    } else if (a == "--commit") {
      commit = value();
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--setup-only") {
      o.setup_only = true;
    } else {
      usage("unknown flag " + a);
    }
  }
  const bool predictions =
      o.workload == "am_scale" || o.workload == "parallel_host";
  if (!predictions && o.workload != "validate_serve") {
    usage("unknown workload '" + o.workload + "'");
  }

  try {
    std::filesystem::create_directories(o.out_dir);
    std::vector<PredictCase> cases;
    if (o.workload == "am_scale") cases = am_scale_cases(o);
    if (o.workload == "parallel_host") cases = parallel_host_cases(o);
    if (o.setup_only) {
      if (predictions) {
        setup_predictions(o, cases);
      } else {
        setup_validate_serve(o);
      }
      std::cout << "ready" << std::endl;
      return 0;
    }

    const json::Value host = host_fingerprint(o, commit);
    if (!optimized() || sanitized()) {
      std::cerr << "warning: timings from an unoptimized or sanitized build "
                   "are not comparable\n";
    }
    Tracer tracer;
    Tracer* tr = o.trace ? &tracer : nullptr;
    Result r;
    if (predictions) {
      run_prediction_workload(o, cases, tr, &r);
    } else {
      run_validate_serve(o, tr, &r);
    }

    if (tr != nullptr) {
      const std::string stem = o.out_dir + "/trace-" + o.workload + "-" +
                               std::to_string(o.seed);
      json::Value meta = host;
      meta.set("workload", o.workload);
      meta.set("seed", static_cast<double>(o.seed));
      tracer.write_chrome_json(stem + ".json", meta);
      tracer.write_self_time_table(stem + ".selftime.txt");
      std::cout << "trace: " << stem << ".json, " << stem
                << ".selftime.txt\n";
    }
    for (const auto& [name, v] : r.metrics) {
      std::printf("%-36s %.6g\n", name.c_str(), v);
    }
    r.details["failed_frac"] = {
        r.attempted > 0 ? static_cast<double>(r.failed) /
                              static_cast<double>(r.attempted)
                        : 0.0,
        "ratio"};
    for (const auto& [name, d] : r.details) {
      std::printf("%-36s %.6g %s\n", name.c_str(), d.first, d.second.c_str());
    }
    for (const auto& [key, d] : r.digests) {
      std::cout << "digest " << key << " " << d << '\n';
    }
    for (const std::string& f : r.failures) {
      std::cout << "FAILED: " << f << '\n';
    }
    std::cout << "host " << host.dump() << '\n';

    json::Value metrics = json::Value::object();
    for (const auto& [name, v] : r.metrics) metrics.set(name, v);
    json::Value out = json::Value::object();
    out.set("correct", r.failed == 0 && r.attempted > 0);
    out.set("attempted", r.attempted);
    out.set("failed", r.failed);
    out.set("metrics", std::move(metrics));
    std::cout << "result " << out.dump() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "stgsim_perfbench: " << e.what() << "\n";
    return 2;
  }
}
