// validate_serve: a paper-validation campaign through an in-process
// serve::Service, driven with Service::handle_text as `stgsim serve` does.
//
// Each pass starts a fresh service on an empty cache:
//   phase 1 (cold): min(4, nproc) clients at once each send the >= 1024-rank
//     AM point as a run request, then the identical campaign. Timed until
//     every campaign has its result frame.
//   phase 2 (mixed): the same clients in a closed loop of run requests.
//     Each client first requests its share of the campaign's runs, then
//     cycles through ten requests: one new seed-varied small spec (executes
//     and stores), one hit on the >= 1024-rank point (a large frame), and
//     eight hits on small stored runs drawn from the campaign and the
//     client's own new specs. The fixed share of large hits keeps the p99
//     hit latency inside their group instead of on its edge.
//
// Checks, each counted against the request it concerns:
//   * every request ends in a result frame with an ok outcome;
//   * the concurrent clients' campaign reports are byte-identical;
//   * the campaign executed each unique run once;
//   * the campaign's AM error stays within the paper's 17% envelope;
//   * a warm hit's outcome bytes equal the cold result of the same spec,
//     and its run digest equals the campaign report's;
//   * requests for stored specs are cache hits.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "apps/sweep3d.hpp"
#include "campaign/scenario.hpp"
#include "harness/config_json.hpp"
#include "harness/digest.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace stgsim;

namespace {

/// The paper's validation envelope: AM within ~17% of measurement.
constexpr double kAmErrorEnvelopePct = 17.0;

json::Value spec_doc(const std::string& app, const std::string& mode,
                     int procs, json::Value options,
                     const std::string& machine, std::uint64_t seed,
                     int calibrate) {
  json::Value d = json::Value::object();
  d.set("app", app);
  d.set("mode", mode);
  d.set("procs", procs);
  d.set("options", std::move(options));
  d.set("machine", machine);
  d.set("seed", static_cast<double>(seed));
  if (mode == "am") d.set("calibrate", calibrate);
  return d;
}

json::Value options_of(
    std::initializer_list<std::pair<const char*, json::Value>> kv) {
  json::Value o = json::Value::object();
  for (const auto& [k, v] : kv) o.set(k, v);
  return o;
}

/// Sweep3D block sizes for a fixed `total`^3 grid on `procs` ranks (the
/// shape of Fig. 4).
json::Value sweep3d_options(int procs, int total, int kb) {
  int npe_i = 1, npe_j = 1;
  apps::sweep3d_grid_for(procs, &npe_i, &npe_j);
  return options_of({{"it", (total + npe_i - 1) / npe_i},
                     {"jt", (total + npe_j - 1) / npe_j},
                     {"kt", total},
                     {"kb", kb},
                     {"mm", 6},
                     {"mmi", 3},
                     {"steps", 1}});
}

struct Inputs {
  json::Value scenario;
  std::vector<json::Value> specs;  ///< the campaign's runs, scenario order
  json::Value big;                 ///< the >= 1024-rank AM point
  int clients = 1;
  int jobs = 1;
  int phase2_requests = 1000;
  std::uint64_t new_work_base = 0;
};

Inputs make_inputs(const Options& o) {
  Inputs in;
  in.clients = std::max(1, std::min(4, o.nproc));
  // Client threads times campaign job threads stays within nproc.
  in.jobs = std::max(1, std::min(4, o.nproc) / in.clients);
  in.phase2_requests = o.smoke ? 60 : 1000;
  in.new_work_base = 1000 + (o.seed % 100000) * 64;

  const std::uint64_t seed = o.seed;
  const std::vector<const char*> modes = {"measured", "de", "am"};
  auto triples = [&](const std::string& app, const std::vector<int>& procs,
                     auto options_for, const std::string& machine,
                     int calibrate) {
    for (const int p : procs) {
      for (const char* m : modes) {
        in.specs.push_back(
            spec_doc(app, m, p, options_for(p), machine, seed, calibrate));
      }
    }
  };
  if (o.smoke) {
    triples("sweep3d", {4}, [](int p) {
      return sweep3d_options(p, 24, 6);
    }, "ibm_sp", 4);
    triples("sample", {4}, [](int) {
      return options_of({{"iters", 4}});
    }, "origin2000", 4);
    in.big = spec_doc("sweep3d", "am", 64, options_of({}), "ibm_sp", seed, 4);
  } else {
    // Figs. 3-6 and 8 in shape, sized so a cold pass takes seconds.
    triples("tomcatv", {4, 16, 64}, [](int) {
      return options_of({{"n", 1024}, {"iters", 2}});
    }, "ibm_sp", 16);
    triples("sweep3d", {4, 16, 64}, [](int p) {
      return sweep3d_options(p, 48, 12);
    }, "ibm_sp", 16);
    triples("nas_sp", {4, 16, 64}, [](int) {
      return options_of({{"class", "A"}, {"steps", 1}});
    }, "ibm_sp", 16);
    triples("sample", {4, 8}, [](int) {
      return options_of({{"iters", 10}});
    }, "origin2000", 8);
    in.big =
        spec_doc("sweep3d", "am", 1024, options_of({}), "ibm_sp", seed, 16);
  }
  in.specs.push_back(in.big);

  json::Value runs = json::Value::array();
  for (const json::Value& s : in.specs) runs.push_back(s);
  in.scenario = json::Value::object();
  in.scenario.set("name", "perfbench-validation");
  in.scenario.set("runs", std::move(runs));
  return in;
}

std::string request_body(serve::RequestKind kind, int client,
                         const json::Value& payload) {
  serve::Request req;
  req.kind = kind;
  req.client = "client-" + std::to_string(client);
  req.payload = payload;
  return serve::request_to_json(req).dump();
}

/// A small DE run no earlier request used: it executes and stores.
json::Value new_spec(const Inputs& in, int client, int k, std::uint64_t seed,
                     Rng* rng) {
  const std::uint64_t work = in.new_work_base +
                             static_cast<std::uint64_t>(client) +
                             static_cast<std::uint64_t>(in.clients) * k;
  const int procs = rng->next_u64() % 2 == 0 ? 2 : 4;
  return spec_doc("sample", "de", procs,
                  options_of({{"iters", 2},
                              {"work", static_cast<std::int64_t>(work)}}),
                  "ibm_sp", seed, 0);
}

struct Reply {
  double seconds = 0.0;
  std::string frame;  ///< the terminal frame as the daemon would send it
};

/// The "source" of a run result frame ("cache_hit", ...), read from its
/// compact serialization; "error" when absent.
std::string source_of(const std::string& frame) {
  static const std::string key = "\"source\":\"";
  const std::size_t at = frame.rfind(key);
  if (at == std::string::npos) return "error";
  const std::size_t from = at + key.size();
  return frame.substr(from, frame.find('"', from) - from);
}

/// Sends one non-streaming request and closes `span` when the answer is
/// complete. The frame is serialized inside the timed window, as the HTTP
/// layer does before writing it out. Run requests tag the span with the
/// result's source.
Reply send(serve::Service& svc, const std::string& body, Span* span,
           bool tag_source) {
  Reply r;
  svc.handle_text(body, [&](const json::Value& f) { r.frame = f.dump(); });
  if (tag_source) span->set_tag(source_of(r.frame));
  r.seconds = span->end();
  return r;
}

/// State shared by the clients of one pass, for the byte checks.
struct Shared {
  std::mutex mu;
  std::map<std::string, std::string> cold_bytes;   // spec digest -> outcome
  std::map<std::string, std::string> report_runs;  // spec digest -> run digest
  /// Engine seconds of the campaign's runs by mode, from the first result
  /// seen for each.
  std::map<std::string, double> engine_by_mode;
};

/// Checks a run request's frame. Returns "" when it is correct.
std::string check_run_frame(const json::Value& f, bool expect_hit,
                            Shared* sh) {
  if (f.at("event").as_string() != "result") {
    return "run request answered with " + f.dump();
  }
  const std::string& digest = f.at("digest").as_string();
  const std::string& source = f.at("source").as_string();
  const json::Value& outcome = f.at("outcome");
  if (outcome.at("status").as_string() != "ok") {
    return "run " + digest + " ended " + outcome.at("status").as_string();
  }
  // Concurrent requests for one stored spec share the first one's cache
  // load, so a stored spec may also come back as dedup_joined.
  if (expect_hit && source == "executed") {
    return "stored run " + digest + " answered as " + source;
  }
  const std::string bytes = outcome.dump();
  const harness::RunOutcome parsed = harness::outcome_from_json(outcome);
  const std::string run_digest = harness::run_digest_hex(parsed);
  std::lock_guard lk(sh->mu);
  auto [it, fresh] = sh->cold_bytes.emplace(digest, bytes);
  if (!fresh && it->second != bytes) {
    return "run " + digest + ": " + source +
           " outcome bytes differ from the first result";
  }
  auto rit = sh->report_runs.find(digest);
  if (rit == sh->report_runs.end()) return "";
  if (rit->second != run_digest) {
    return "run " + digest + ": run digest " + run_digest +
           " differs from the campaign report's " + rit->second;
  }
  if (fresh) {
    sh->engine_by_mode[f.at("spec").at("mode").as_string()] +=
        parsed.sim_host_seconds;
  }
  return "";
}

struct PassStats {
  double cold_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> hit_ms;
  std::vector<double> frame_bytes;  ///< hit frames
  double am_error_pct = 0.0;
  double executed_per_unique = 0.0;
  double calibrations_run = 0.0;
  double hit_ratio = 0.0;
  std::map<std::string, double> engine_by_mode;
};

/// A service on a fresh cache directory, removed again on destruction.
class ServiceOnCache {
 public:
  ServiceOnCache(const Options& o, const Inputs& in, int pass)
      : dir_(std::filesystem::path(o.out_dir) /
             ("serve-cache-" + std::to_string(::getpid()) + "-" +
              std::to_string(pass))) {
    std::filesystem::remove_all(dir_);
    serve::Service::Options so;
    so.cache_dir = dir_.string();
    so.jobs = in.jobs;
    so.max_active_requests = 0;      // the load is the benchmark's own;
    so.max_inflight_per_client = 0;  // admission is not measured here
    service_ = std::make_unique<serve::Service>(so);
  }
  ~ServiceOnCache() {
    service_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  ServiceOnCache(const ServiceOnCache&) = delete;
  ServiceOnCache& operator=(const ServiceOnCache&) = delete;

  serve::Service& service() { return *service_; }

 private:
  std::filesystem::path dir_;
  std::unique_ptr<serve::Service> service_;
};

PassStats run_pass(const Options& o, const Inputs& in, int pass,
                   Tracer* tracer, std::atomic<std::int64_t>* op,
                   PassLoop* loop, Result* r) {
  ServiceOnCache on_cache(o, in, pass);
  serve::Service* svc = &on_cache.service();

  PassStats ps;
  Shared sh;
  const int C = in.clients;
  const Clock::time_point pass_t0 = Clock::now();

  // ---- Phase 1: cold.
  std::vector<Reply> big(C), camp(C);
  {
    Span phase(tracer, "serve.phase1", -1, (*op)++);
    std::latch start(C + 1);
    std::vector<std::thread> pool;
    for (int c = 0; c < C; ++c) {
      pool.emplace_back([&, c] {
        const std::string big_body =
            request_body(serve::RequestKind::kRun, c, in.big);
        const std::string camp_body =
            request_body(serve::RequestKind::kCampaign, c, in.scenario);
        start.arrive_and_wait();
        {
          Span s(tracer, "serve.request", phase.id(), (*op)++, "", c);
          big[c] = send(*svc, big_body, &s, true);
        }
        Span s(tracer, "serve.campaign", phase.id(), (*op)++, "", c);
        camp[c] = send(*svc, camp_body, &s, false);
      });
    }
    start.arrive_and_wait();
    const Clock::time_point t0 = Clock::now();
    for (auto& t : pool) t.join();
    ps.cold_s = seconds_since(t0);
  }
  const campaign::Executor::Stats cold_stats = svc->executor().stats();

  // Phase-1 checks: campaign reports, dedup, accuracy, then the big runs.
  const json::Value f0 = json::Value::parse(camp[0].frame);
  const bool camp_ok = f0.at("event").as_string() == "result";
  std::string camp_why =
      camp_ok ? "" : "campaign request answered with " + camp[0].frame;
  if (camp_ok) {
    const json::Value& report = f0.at("report");
    std::set<std::string> unique;
    for (const json::Value& run : report.at("runs").as_array()) {
      unique.insert(run.at("digest").as_string());
      sh.report_runs[run.at("digest").as_string()] =
          run.at("run_digest").as_string();
      if (run.at("status").as_string() != "ok") {
        camp_why = "campaign run " + run.at("id").as_string() + " ended " +
                   run.at("status").as_string();
      }
    }
    ps.executed_per_unique = static_cast<double>(cold_stats.executed) /
                             static_cast<double>(unique.size());
    if (cold_stats.executed != unique.size()) {
      camp_why = "cold phase executed " +
                 std::to_string(cold_stats.executed) + " runs for " +
                 std::to_string(unique.size()) + " unique specs";
    }
    std::string worst;
    for (const json::Value& g : report.at("comparisons").as_array()) {
      for (const json::Value& e : g.at("predictions").as_array()) {
        if (e.at("mode").as_string() != "am" || !e.has("error_pct")) continue;
        const double err = std::fabs(e.at("error_pct").as_number());
        if (err > ps.am_error_pct) {
          ps.am_error_pct = err;
          worst = g.at("app").as_string() + "@" +
                  std::to_string(g.at("procs").as_int());
        }
      }
    }
    if (ps.am_error_pct > kAmErrorEnvelopePct) {
      camp_why = "AM error " + std::to_string(ps.am_error_pct) + "% on " +
                 worst + " is outside the " +
                 std::to_string(kAmErrorEnvelopePct) + "% envelope";
    }
  }
  const std::string report0 = camp_ok ? f0.at("report").dump() : "";
  for (int c = 0; c < C; ++c) {
    std::string why = camp_why;
    if (why.empty() && c > 0) {
      const json::Value f = json::Value::parse(camp[c].frame);
      if (f.at("event").as_string() != "result" ||
          f.at("report").dump() != report0) {
        why = "client " + std::to_string(c) +
              "'s campaign report differs from client 0's";
      }
    }
    r->count(why.empty(), why);
  }
  for (int c = 0; c < C; ++c) {
    const std::string why =
        check_run_frame(json::Value::parse(big[c].frame), false, &sh);
    r->count(why.empty(), why);
  }
  ps.calibrations_run = static_cast<double>(cold_stats.calibrations_run);

  // ---- Phase 2: mixed closed loop. The pass's peak RSS is this phase's:
  // in the cold phase it depends on which client thread's allocator arena
  // happened to run each large simulation.
  loop->restart_peak();
  {
    Span phase(tracer, "serve.phase2", -1, (*op)++);
    std::atomic<int> issued{0};
    std::mutex mu;  // guards ps.hit_ms, ps.frame_bytes and r
    std::vector<std::thread> pool;
    const int nspecs = static_cast<int>(in.specs.size());
    for (int c = 0; c < C; ++c) {
      pool.emplace_back([&, c] {
        Rng rng(o.seed * 7919 + static_cast<std::uint64_t>(c));
        std::vector<json::Value> own;  // this client's stored new specs
        int made = 0, sweep = c;
        for (int k = 0; issued.fetch_add(1) < in.phase2_requests; ++k) {
          json::Value payload;
          bool expect_hit = true;
          if (sweep < nspecs) {
            payload = in.specs[sweep];
            sweep += C;
          } else if (k % 10 == 0) {
            payload = new_spec(in, c, made++, o.seed, &rng);
            own.push_back(payload);
            expect_hit = false;
          } else if (k % 10 == 5) {
            payload = in.big;
          } else {
            // A small stored run: a campaign run other than the big one
            // (the last spec) or one of this client's new specs.
            const std::uint64_t pick =
                rng.next_u64() % static_cast<std::uint64_t>(nspecs - 1 +
                                                            own.size());
            payload = pick < static_cast<std::uint64_t>(nspecs - 1)
                          ? in.specs[pick]
                          : own[pick - (nspecs - 1)];
          }
          const std::string body =
              request_body(serve::RequestKind::kRun, c, payload);
          Span s(tracer, "serve.request", phase.id(), (*op)++, "", c);
          const Reply rep = send(*svc, body, &s, true);
          const std::string why = check_run_frame(
              json::Value::parse(rep.frame), expect_hit, &sh);
          std::lock_guard lk(mu);
          r->count(why.empty(), why);
          if (source_of(rep.frame) == "cache_hit") {
            ps.hit_ms.push_back(rep.seconds * 1e3);
            ps.frame_bytes.push_back(static_cast<double>(rep.frame.size()));
          }
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  ps.wall_s = seconds_since(pass_t0);

  const campaign::Executor::Stats st = svc->executor().stats();
  const double lookups =
      static_cast<double>(st.executed + st.cache_hits + st.dedup_joined);
  ps.hit_ratio = lookups > 0 ? static_cast<double>(st.cache_hits +
                                                   st.dedup_joined) /
                                   lookups
                             : 0.0;
  ps.engine_by_mode = sh.engine_by_mode;
  return ps;
}

}  // namespace

void setup_validate_serve(const Options& o) {
  const Inputs in = make_inputs(o);
  campaign::parse_scenario(in.scenario);
  ServiceOnCache on_cache(o, in, 0);
}

void run_validate_serve(const Options& o, Tracer* tracer, Result* r) {
  const Inputs in = make_inputs(o);
  PassLoop loop(o, tracer != nullptr);
  std::atomic<std::int64_t> op{0};
  std::vector<PassStats> untraced, traced;
  bool traced_pass = false;
  for (int pass = 0; loop.next(&traced_pass); ++pass) {
    PassStats ps =
        run_pass(o, in, pass, traced_pass ? tracer : nullptr, &op, &loop, r);
    std::cout << "cold phase: " << ps.cold_s << " s\n";
    loop.done(ps.wall_s);
    (traced_pass ? traced : untraced).push_back(std::move(ps));
  }

  auto collect = [](const std::vector<PassStats>& v, auto field) {
    std::vector<double> out;
    for (const PassStats& p : v) out.push_back(field(p));
    return out;
  };
  if (tracer == nullptr) {
    std::vector<double> hits;
    for (const PassStats& p : untraced) {
      hits.insert(hits.end(), p.hit_ms.begin(), p.hit_ms.end());
    }
    r->metrics["pass_s"] =
        median(collect(untraced, [](const PassStats& p) { return p.cold_s; }));
    r->metrics["op_typical_ms"] = median(hits);
    // Thousands of hits per pass, so p99 has well over ten samples beyond.
    r->metrics["op_tail_ms"] = percentile(hits, 0.99);
    r->metrics["peak_rss_mb"] = loop.peak_rss_mb();
    r->details["cold_campaign_s"] = {r->metrics["pass_s"], "s"};
    r->details["hit_request_p50_ms"] = {r->metrics["op_typical_ms"], "ms"};
    r->details["hit_request_p99_ms"] = {r->metrics["op_tail_ms"], "ms"};
    r->details["am_error_pct"] = {
        median(collect(untraced,
                       [](const PassStats& p) { return p.am_error_pct; })),
        "%"};
    return;
  }

  for (const auto& [tag, v] : tracer->durations_by_tag("serve.request")) {
    if (tag == "executed" || tag == "cache_hit" || tag == "dedup_joined") {
      r->metrics["serve.request_ms." + tag] = median(v) * 1e3;
    }
  }
  std::vector<double> frame_bytes;
  for (const PassStats& p : traced) {
    frame_bytes.insert(frame_bytes.end(), p.frame_bytes.begin(),
                       p.frame_bytes.end());
  }
  r->metrics["serve.frame_bytes"] = median(frame_bytes);
  r->metrics["campaign.hit_ratio"] =
      median(collect(traced, [](const PassStats& p) { return p.hit_ratio; }));
  r->metrics["campaign.executed_per_unique"] = median(collect(
      traced, [](const PassStats& p) { return p.executed_per_unique; }));
  r->metrics["campaign.calibrations_run"] = median(collect(
      traced, [](const PassStats& p) { return p.calibrations_run; }));
  r->metrics["campaign.am_error_pct"] = median(
      collect(traced, [](const PassStats& p) { return p.am_error_pct; }));
  for (const char* mode : {"measured", "de", "am"}) {
    r->metrics[std::string("sim.engine_s.") + mode] =
        median(collect(traced, [&](const PassStats& p) {
          auto it = p.engine_by_mode.find(mode);
          return it == p.engine_by_mode.end() ? 0.0 : it->second;
        }));
  }
  r->metrics["trace.overhead_frac"] =
      median(loop.traced_walls()) / median(loop.untraced_walls()) - 1.0;
}

}  // namespace perfbench
