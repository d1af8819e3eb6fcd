// am_scale and parallel_host: repeated full AM predictions.
//
// Checks, each counted against the prediction it concerns:
//   * the run ends ok;
//   * a case's digest repeats across passes;
//   * every case of one app@procs in a pass has the same digest (so the
//     conservative and optimistic schedules agree on parallel_host);
//   * at the default seed, the digest matches golden.json;
//   * traced passes: the five pipeline calls cover >= 95% of the
//     prediction's wall time.
#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "apps/registry.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace stgsim;

namespace {

PredictCase make_case(const std::string& app, int procs, int calibrate,
                      int workers, harness::Schedule schedule) {
  PredictCase c;
  c.app = app;
  c.procs = procs;
  c.calibrate_procs = calibrate;
  c.workers = workers;
  c.schedule = schedule;
  return c;
}

std::string key_of(const PredictCase& c) {
  return c.app + "@" + std::to_string(c.procs);
}

/// Digests recorded at kDefaultSeed, keyed "app@procs".
std::map<std::string, std::string> load_golden(const Options& o) {
  std::map<std::string, std::string> out;
  if (o.golden_path.empty() || o.seed != kDefaultSeed) return out;
  std::ifstream is(o.golden_path);
  if (!is) throw std::runtime_error("cannot read " + o.golden_path);
  std::stringstream ss;
  ss << is.rdbuf();
  const json::Value doc = json::Value::parse(ss.str());
  if (static_cast<std::uint64_t>(doc.at("seed").as_int()) != kDefaultSeed) {
    throw std::runtime_error(o.golden_path + ": seed is not the default");
  }
  for (const auto& [k, v] : doc.at("digests").as_object()) {
    out[k] = v.as_string();
  }
  return out;
}

constexpr double kMb = 1024.0 * 1024.0;

/// Per-layer metrics of one case from its traced predictions.
void case_metrics(const PredictCase& c, const std::vector<Prediction>& ps,
                  Result* r) {
  const std::string L = c.label();
  std::vector<double> engine, prep, events, msgs, slices, eps, peak;
  std::vector<double> rounds, cross, imbalance;
  std::vector<double> rollbacks, anti, replayed, useful, checkpoints, gvt,
      log_peak;
  for (const Prediction& p : ps) {
    const harness::RunOutcome& out = p.outcome;
    const double ev = static_cast<double>(out.messages + out.slices);
    engine.push_back(out.sim_host_seconds);
    prep.push_back(p.run_s - out.sim_host_seconds);
    events.push_back(ev);
    msgs.push_back(static_cast<double>(out.messages));
    slices.push_back(static_cast<double>(out.slices));
    eps.push_back(out.sim_host_seconds > 0 ? ev / out.sim_host_seconds : 0.0);
    peak.push_back(static_cast<double>(out.peak_target_bytes) / kMb);
    const simk::ParallelStats& ps2 = out.parallel;
    if (c.workers >= 2 && c.schedule == harness::Schedule::kConservative) {
      rounds.push_back(static_cast<double>(ps2.rounds));
      cross.push_back(out.messages > 0
                          ? static_cast<double>(ps2.cross_messages()) /
                                static_cast<double>(out.messages)
                          : 0.0);
      double sum = 0.0, mx = 0.0;
      for (const VTime v : ps2.worker_busy_vtime) {
        sum += static_cast<double>(v);
        mx = std::max(mx, static_cast<double>(v));
      }
      const double n = static_cast<double>(ps2.worker_busy_vtime.size());
      imbalance.push_back(sum > 0 ? mx / (sum / n) : 0.0);
    }
    if (c.schedule == harness::Schedule::kOptimistic) {
      const double rep = static_cast<double>(ps2.replayed_events);
      rollbacks.push_back(static_cast<double>(ps2.rollbacks));
      anti.push_back(static_cast<double>(ps2.anti_messages));
      replayed.push_back(rep);
      useful.push_back(ev + rep > 0 ? ev / (ev + rep) : 0.0);
      checkpoints.push_back(static_cast<double>(ps2.checkpoints_taken));
      gvt.push_back(static_cast<double>(ps2.gvt_passes));
      log_peak.push_back(static_cast<double>(ps2.log_bytes_peak) / kMb);
    }
  }
  auto put = [&](const std::string& name, const std::vector<double>& v) {
    if (!v.empty()) r->metrics[name + "." + L] = median(v);
  };
  put("sim.engine_s", engine);
  put("harness.prep_s", prep);
  put("sim.events", events);
  put("smpi.messages", msgs);
  put("sim.slices", slices);
  put("sim.events_per_s", eps);
  put("sim.target_peak_mb", peak);
  put("sim.rounds", rounds);
  put("sim.cross_ratio", cross);
  put("sim.busy_imbalance", imbalance);
  put("sim.rollbacks", rollbacks);
  put("sim.anti_messages", anti);
  put("sim.replayed_events", replayed);
  put("sim.useful_ratio", useful);
  put("sim.checkpoints", checkpoints);
  put("sim.gvt_passes", gvt);
  put("sim.log_peak_mb", log_peak);
}

}  // namespace

std::vector<PredictCase> am_scale_cases(const Options& o) {
  const auto cons = harness::Schedule::kConservative;
  if (o.smoke) {
    return {make_case("sweep3d", 16, 4, 0, cons),
            make_case("tomcatv", 64, 4, 0, cons),
            make_case("nas_sp", 16, 4, 0, cons),
            make_case("sample", 16, 4, 0, cons)};
  }
  return {make_case("sweep3d", 4096, 16, 0, cons),
          make_case("tomcatv", 16384, 16, 0, cons),
          make_case("nas_sp", 4096, 16, 0, cons),
          make_case("sample", 4096, 16, 0, cons)};
}

std::vector<PredictCase> parallel_host_cases(const Options& o) {
  const auto cons = harness::Schedule::kConservative;
  const auto opt = harness::Schedule::kOptimistic;
  const int w = std::min(4, o.nproc);
  const int tomcatv_procs = o.smoke ? 64 : 16384;
  const int sweep3d_procs = o.smoke ? 16 : 4096;
  const int calib = o.smoke ? 4 : 16;
  return {make_case("tomcatv", tomcatv_procs, calib, w, cons),
          make_case("tomcatv", tomcatv_procs, calib, w, opt),
          make_case("sweep3d", sweep3d_procs, calib, w, cons),
          make_case("sweep3d", sweep3d_procs, calib, w, opt)};
}

void setup_predictions(const Options& o,
                       const std::vector<PredictCase>& cases) {
  load_golden(o);
  for (const PredictCase& c : cases) apps::canonical_app_spec({c.app, {}});
}

void run_prediction_workload(const Options& o,
                             const std::vector<PredictCase>& cases,
                             Tracer* tracer, Result* r) {
  const std::map<std::string, std::string> golden = load_golden(o);
  PassLoop loop(o, tracer != nullptr);
  std::map<std::string, std::vector<double>> case_ms;  // untraced, by label
  std::map<std::string, std::string> first_digest;     // by label
  std::map<std::string, std::vector<Prediction>> traced;  // by label
  std::vector<double> coverage;
  std::int64_t op = 0;
  bool traced_pass = false;
  while (loop.next(&traced_pass)) {
    Tracer* tr = traced_pass ? tracer : nullptr;

    std::map<std::string, std::string> pass_digest;  // by app@procs
    std::map<std::string, double> walls;  // ms, by label
    const Clock::time_point pass_t0 = Clock::now();
    for (const PredictCase& c : cases) {
      Prediction p = predict(c, o.seed, tr, op++);
      const std::string L = c.label();
      std::string why;
      if (!p.ok) {
        why = L + ": run failed: " + p.diagnostic;
      } else {
        r->digests.emplace(key_of(c), p.digest);
        auto [it, fresh] = first_digest.emplace(L, p.digest);
        auto [pit, pfresh] = pass_digest.emplace(key_of(c), p.digest);
        auto git = golden.find(key_of(c));
        if (!fresh && it->second != p.digest) {
          why = L + ": digest " + p.digest +
                " differs from the first pass's " + it->second;
        } else if (!pfresh && pit->second != p.digest) {
          why = L + ": digest " + p.digest + " differs from " + pit->second +
                " of the same app@procs in this pass";
        } else if (git != golden.end() && git->second != p.digest) {
          why = L + ": digest " + p.digest + " differs from golden " +
                git->second;
        }
      }
      if (why.empty() && traced_pass) {
        const double parts =
            p.build_s + p.calibrate_s + p.resolve_s + p.compile_s + p.run_s;
        const double cov = p.wall_s > 0 ? parts / p.wall_s : 0.0;
        coverage.push_back(cov);
        if (cov < 0.95) {
          why = L + ": pipeline calls cover only " + std::to_string(cov) +
                " of the prediction";
        }
      }
      r->count(why.empty(), why);
      walls[L] = p.wall_s * 1e3;
      if (traced_pass) {
        // Keep what the metrics read; drop the per-rank vectors.
        p.outcome.per_rank.clear();
        p.outcome.per_rank_stats.clear();
        traced[L].push_back(std::move(p));
      }
    }
    loop.done(seconds_since(pass_t0));
    if (traced_pass) {
      // Outside the timed pass: the affinity and partition calls that
      // run_program makes inside harness.run for threaded comm runs.
      for (const PredictCase& c : cases) {
        if (c.workers >= 2 && c.schedule == harness::Schedule::kConservative) {
          probe_partition(c, o.seed, tr, op++);
        }
      }
    } else {
      for (const auto& [L, ms] : walls) case_ms[L].push_back(ms);
    }
  }

  if (tracer == nullptr) {
    // The cases differ several-fold in cost and each repeats only a few
    // times, so the operation statistics are taken over the per-case
    // medians: their geometric mean and the slowest case. In the geometric
    // mean every case weighs the same, so it follows the host's speed more
    // steadily than the middle case alone would.
    std::vector<double> case_medians;
    for (const auto& [L, v] : case_ms) {
      case_medians.push_back(median(v));
      r->details["predict_s." + L] = {median(v) / 1e3, "s"};
    }
    r->metrics["pass_s"] = median(loop.untraced_walls());
    r->metrics["op_typical_ms"] = geometric_mean(case_medians);
    r->metrics["op_tail_ms"] =
        *std::max_element(case_medians.begin(), case_medians.end());
    r->metrics["peak_rss_mb"] = loop.peak_rss_mb();
    return;
  }
  // Per-layer: span medians by case, then outcome counters.
  for (const char* span : {"predict", "apps.build", "campaign.calibrate",
                           "campaign.resolve", "core.compile", "harness.run",
                           "harness.affinity", "sim.partition"}) {
    for (const auto& [tag, v] : tracer->durations_by_tag(span)) {
      r->metrics[std::string(span) + "_s." + tag] = median(v);
    }
  }
  for (const PredictCase& c : cases) case_metrics(c, traced[c.label()], r);
  if (!coverage.empty()) {
    r->metrics["trace.coverage_min"] =
        *std::min_element(coverage.begin(), coverage.end());
  }
  r->metrics["trace.overhead_frac"] =
      median(loop.traced_walls()) / median(loop.untraced_walls()) - 1.0;
}

}  // namespace perfbench
