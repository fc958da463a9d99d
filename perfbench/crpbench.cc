// crpbench — the CRProbe benchmark driver.
//
// Runs one workload through the repository's public entry points, times it,
// and writes a raw JSON document (--out) that perfbench/run.py checks against
// perfbench/expected.json and turns into the benchmark's metrics:
//
//   registry-cold  Campaign::run_all over all 12 registry targets with the
//                  exploit-plan epilogue, on an empty ArtifactStore per pass
//                  (--seed -> ASLR seed of the server and runtime funnels).
//   serve-warm     an in-process serve::Daemon (2 workers) whose private
//                  store is warmed in set-up; one Client per connection runs
//                  a closed SUBMIT -> WATCH -> FETCH loop over a seeded deck
//                  of the 12 targets x plan in {0, 1}.
//
// --trace 1 adds one traced pass after one untraced pass: the same work,
// decomposed into the public stage / step / client calls, each wrapped in
// an in-memory span named by target, step and candidate. The spans are
// written as a Chrome trace_event file (--trace-file) and every per-layer
// time is derived from them; per-layer counts are obs::Registry deltas over
// the untraced pass.
//
// Every store the driver uses is private and memory-only, so no artifact
// outlives the process.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/obs.h"
#include "os/abi.h"
#include "pipeline/campaign.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "util/rng.h"

namespace crp::bench {
namespace {

using Clock = std::chrono::steady_clock;

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Restart the kernel's peak-RSS tracking (VmHWM) so each pass reports its
/// own peak; false when the process may not (the peak then spans the run).
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return f.good();
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) out += strf("\\u%04x", c);
        else out.push_back(c);
    }
  }
  return out + "\"";
}

std::string jnum(double v) { return strf("%.9g", v); }

// --- spans -------------------------------------------------------------------

struct Span {
  std::string layer;   // per-layer metric family, e.g. "pipeline.verify"
  std::string target;  // registry id / program name ("" for client spans)
  std::string detail;  // step, candidate or job
  double t0 = 0, dur = 0;
  int tid = 0;
};

int thread_index() {
  static std::atomic<int> next{0};
  thread_local int id = ++next;
  return id;
}

class SpanLog {
 public:
  void arm(bool on) { armed_ = on; }

  class Scope {
   public:
    Scope(SpanLog& log, std::string layer, std::string target, std::string detail)
        : log_(log), t0_(now_s()) {
      if (!log_.armed_) return;
      span_.layer = std::move(layer);
      span_.target = std::move(target);
      span_.detail = std::move(detail);
    }
    ~Scope() {
      if (!log_.armed_) return;
      span_.t0 = t0_;
      span_.dur = now_s() - t0_;
      span_.tid = thread_index();
      std::lock_guard<std::mutex> lk(log_.mu_);
      log_.spans_.push_back(std::move(span_));
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    double t0_;
    Span span_;
  };

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

  /// Chrome trace_event JSON array, sorted by start time.
  bool write_chrome(const std::string& path, double origin) const {
    std::vector<Span> s = spans();
    std::sort(s.begin(), s.end(), [](const Span& a, const Span& b) { return a.t0 < b.t0; });
    std::ofstream f(path);
    f << "[";
    for (size_t i = 0; i < s.size(); ++i) {
      std::string name = s[i].target.empty() ? s[i].detail : s[i].target + "/" + s[i].detail;
      f << (i ? ",\n" : "\n")
        << strf("{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                "\"pid\": 1, \"tid\": %d, \"args\": {\"target\": %s, \"step\": %s}}",
                jstr(name).c_str(), jstr(s[i].layer).c_str(), (s[i].t0 - origin) * 1e6,
                s[i].dur * 1e6, s[i].tid, jstr(s[i].target).c_str(),
                jstr(s[i].detail).c_str());
    }
    f << "\n]\n";
    return f.good();
  }

 private:
  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

SpanLog g_spans;

// --- results -----------------------------------------------------------------

struct Pass {
  bool traced = false;
  double wall_s = 0, cpu_s = 0, peak_rss_mb = 0;
};

/// One target report, flattened for the oracle in run.py.
struct ReportRec {
  int pass = 0;
  std::string id;
  std::vector<std::pair<std::string, std::string>> verdicts;  // syscall class only
  std::string summary;
  int usable = 0;
  bool has_plan = false;
  std::string surface;
  bool completed = false, hijacked = false;
  u64 crashes = 0, unhandled = 0, leaked = 0;
  std::string error;
};

ReportRec flatten(int pass, const std::string& id,
                  const std::vector<analysis::Candidate>& cands) {
  ReportRec r;
  r.pass = pass;
  r.id = id;
  for (const analysis::Candidate& c : cands)
    if (c.cls == analysis::PrimitiveClass::kSyscall)
      r.verdicts.emplace_back(os::sys_name(c.syscall), analysis::verdict_name(c.verdict));
  return r;
}

void set_plan(ReportRec& r, const plan::ExploitPlan& p, const plan::ReplayOutcome& o) {
  r.has_plan = true;
  r.surface = plan::surface_name(p.surface);
  r.completed = o.completed;
  r.hijacked = o.hijacked;
  r.crashes = o.crashes;
  r.unhandled = o.unhandled;
  r.leaked = o.leaked.size();
  r.error = o.error;
}

ReportRec flatten(int pass, const pipeline::TargetReport& rep) {
  ReportRec r = flatten(pass, rep.id, rep.candidates);
  r.summary = rep.summary;
  r.usable = rep.usable;
  if (rep.has_plan) set_plan(r, rep.exploit_plan, rep.plan_replay);
  return r;
}

struct JobRec {
  std::string target;
  int plan = 0;
  double ms = 0;
  bool ok = false;
  std::string error;
};

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string trace_file;
};

/// Set-up repetitions per run (median reported): the set-up takes well under
/// a second, so one sample would be mostly noise.
constexpr int kSetupReps = 7;

struct Run {
  std::vector<double> setup_s;
  std::vector<Pass> passes;
  std::vector<ReportRec> reports;
  std::vector<JobRec> jobs;
  std::map<std::string, double> counters;  // registry deltas, untraced pass
  std::map<std::string, double> layers;    // per-layer metrics (--trace 1)
  std::vector<double> queue_ms, run_ms;    // daemon job latency split
};

// --- registry-delta counters ---------------------------------------------------

double hist_sum(const obs::Snapshot& d, const std::string& name) {
  const obs::SnapValue* v = d.find(name);
  return v != nullptr ? static_cast<double>(v->hist.sum) : 0.0;
}

std::map<std::string, double> read_counters(const obs::Snapshot& before,
                                            const obs::Snapshot& after) {
  obs::Snapshot d = obs::Registry::diff(before, after);
  std::map<std::string, double> c;
  auto num = [&](const std::string& n) { return static_cast<double>(d.num(n)); };
  c["vm.instr_retired"] = num("vm.instr_retired");
  c["taint.propagated"] = num("taint.propagated");
  double total = 0;
  for (size_t s = 0; s < static_cast<size_t>(os::Sys::kCount); ++s)
    total += num(strf("kernel.sys.%s.calls", os::sys_name(static_cast<os::Sys>(s))));
  c["os.syscalls"] = total;
  for (const char* s : {"nanosleep", "accept", "epoll_wait", "yield"})
    c[strf("os.sys.%s", s)] = num(strf("kernel.sys.%s.calls", s));
  c["os.sys.epoll_wait_efault"] = num("kernel.sys.epoll_wait.efault");
  c["exec.pool_tasks"] = num("analysis.pool.tasks");
  c["exec.steal_ms"] = hist_sum(d, "analysis.pool.steal_ns") / 1e6;
  c["pipeline.cache.hits"] = num("pipeline.cache.hits");
  c["pipeline.cache.misses"] = num("pipeline.cache.misses");
  c["pipeline.cache.stores"] = num("pipeline.cache.stores");
  c["analysis.classify.memo_hits"] = num("analysis.classify.memo_hits");
  c["symex.filter.explored"] = num("symex.filter.explored");
  c["symex.sat_queries"] = num("sat.queries");
  c["oracle.probes"] = num("oracle.scan.probes");
  c["oracle.crashes"] = num("oracle.scan.crashes");
  c["serve.rejected"] = num("crpd.admission.rejected_quota") +
                        num("crpd.admission.rejected_rate") +
                        num("crpd.admission.rejected_tenants");
  return c;
}

// --- set-up: materialize every input of the workload ---------------------------

/// Build each target's program / corpus (targets.build) and hash every
/// server image the way the scan cache keys it (isa.key_hash). Returns the
/// elapsed seconds.
double materialize(const std::vector<const pipeline::TargetSpec*>& specs,
                   const pipeline::Campaign& campaign) {
  double t0 = now_s();
  for (const pipeline::TargetSpec* s : specs) {
    switch (s->cls) {
      case pipeline::TargetClass::kLinuxServer:
      case pipeline::TargetClass::kManagedRuntime: {
        analysis::TargetProgram prog;
        {
          SpanLog::Scope sp(g_spans, "targets.build", s->id, "make_program");
          prog = s->make_program();
        }
        if (s->cls == pipeline::TargetClass::kLinuxServer) {
          SpanLog::Scope sp(g_spans, "isa.key_hash", s->id, "syscall_scan_key");
          (void)campaign.syscall_scan_key(prog);
        }
        break;
      }
      case pipeline::TargetClass::kBrowser: {
        SpanLog::Scope sp(g_spans, "targets.build", s->id, "browser");
        os::Kernel k;
        targets::BrowserSim::Options bo = pipeline::browser_options(*s);
        bo.defer_start = true;
        targets::BrowserSim b(k, bo);
        break;
      }
      case pipeline::TargetClass::kDllCorpus: {
        SpanLog::Scope sp(g_spans, "targets.build", s->id, "dll_blobs");
        (void)pipeline::Campaign::dll_blobs(*s);
        break;
      }
      case pipeline::TargetClass::kApiCorpus: {
        SpanLog::Scope sp(g_spans, "targets.build", s->id, "api_corpus");
        os::Kernel k;
        pipeline::Campaign::materialize_api_corpus(*s, k);
        break;
      }
    }
  }
  return now_s() - t0;
}

pipeline::ArtifactStore* fresh_store(std::unique_ptr<pipeline::ArtifactStore>& slot) {
  slot = std::make_unique<pipeline::ArtifactStore>();
  slot->set_enabled(true);
  slot->set_dir("");
  return slot.get();
}

// --- registry-cold ---------------------------------------------------------------

void registry_untraced_pass(const pipeline::CampaignOptions& copts,
                            const pipeline::TargetRegistry& reg, int pass, Run& run) {
  std::unique_ptr<pipeline::ArtifactStore> store;
  pipeline::Campaign campaign(copts, fresh_store(store));
  for (const pipeline::TargetReport& rep : campaign.run_all(reg))
    run.reports.push_back(flatten(pass, rep));
}

const char* step_layer(const std::string& step) {
  static const std::map<std::string, const char*> kLayers = {
      {"taint_trace", "pipeline.taint_trace"}, {"verify", "pipeline.verify"},
      {"browse", "pipeline.browse"},           {"seh_extract", "pipeline.seh_extract"},
      {"classify", "pipeline.filter_classify"}, {"xref_veh", "pipeline.coverage_xref"},
      {"api_fuzz", "pipeline.api_fuzz"},       {"call_sites", "pipeline.call_site_trace"},
      {"plan_synth", "plan.synth"},            {"plan_verify", "plan.replay"},
  };
  auto it = kLayers.find(step);
  return it != kLayers.end() ? it->second : "pipeline.step";
}

/// A server's funnel through its stages, with one VerifyStage::run per
/// candidate on the pool the cell's verify step would use, then the plan
/// epilogue. Bypasses the scan cache; the plan cache is used as the cell
/// uses it.
ReportRec traced_server(const pipeline::CampaignOptions& copts,
                        const pipeline::TargetSpec& spec, pipeline::ArtifactStore* store,
                        int pass) {
  analysis::TargetProgram prog = spec.make_program();
  analysis::SyscallScanResult trace;
  {
    SpanLog::Scope sp(g_spans, "pipeline.taint_trace", spec.id, "taint_trace");
    trace = pipeline::TaintTraceStage::run({&prog, copts.syscall});
  }
  std::vector<analysis::Candidate> cands;
  {
    SpanLog::Scope sp(g_spans, "pipeline.candidates", spec.id, "candidates");
    cands = pipeline::SyscallCandidateStage::run({&trace});
  }
  exec::ThreadPool pool(copts.jobs);
  std::vector<analysis::Candidate> verified = exec::parallel_map(
      pool, cands,
      [&](size_t i, const analysis::Candidate& c) {
        SpanLog::Scope sp(g_spans, "pipeline.verify", spec.id,
                          strf("verify/%s#%zu", os::sys_name(c.syscall), i));
        return pipeline::VerifyStage::run({&prog, copts.syscall, {c}, 1}).at(0);
      },
      "bench_verify");
  ReportRec r = flatten(pass, spec.id, verified);
  for (const analysis::Candidate& c : verified)
    r.usable += c.verdict == analysis::Verdict::kUsable ? 1 : 0;
  plan::SynthOptions so;
  so.window_pages = copts.plan_window_pages;
  so.region_pages = copts.plan_region_pages;
  pipeline::PlanSynthStage::Out synth;
  {
    SpanLog::Scope sp(g_spans, "plan.synth", spec.id, "plan_synth");
    synth = pipeline::PlanSynthStage::run({&spec, &verified, so, store});
  }
  plan::ReplayOutcome replay;
  {
    SpanLog::Scope sp(g_spans, "plan.replay", spec.id, "plan_verify");
    replay = pipeline::PlanVerifyStage::run({&spec, &synth.exploit_plan, {}});
  }
  set_plan(r, synth.exploit_plan, replay);
  return r;
}

void registry_traced_pass(const pipeline::CampaignOptions& copts,
                          const pipeline::TargetRegistry& reg, int pass, Run& run) {
  std::unique_ptr<pipeline::ArtifactStore> store;
  pipeline::Campaign campaign(copts, fresh_store(store));
  for (const pipeline::TargetSpec& spec : reg.all()) {
    if (spec.cls == pipeline::TargetClass::kLinuxServer) {
      run.reports.push_back(traced_server(copts, spec, campaign.store(), pass));
      continue;
    }
    std::unique_ptr<pipeline::TargetCell> cell = campaign.plan(spec);
    while (!cell->done()) {
      std::string step = cell->step_name(cell->next_step());
      SpanLog::Scope sp(g_spans, step_layer(step), spec.id, step);
      cell->run_step();
    }
    run.reports.push_back(flatten(pass, cell->report()));
  }
}

// --- serve-warm --------------------------------------------------------------------

struct ServeCtx {
  serve::Daemon* daemon = nullptr;
  std::vector<std::string> ids;
  std::map<std::pair<std::string, int>, std::string> expect;  // batch bytes
  int conns = 1;
  u64 seed = 1;
};

/// One closed-loop pass: every connection runs its own seeded permutation
/// of the (target, plan) deck, one job at a time.
void serve_pass(const ServeCtx& ctx, int pass, Run& run) {
  std::vector<std::vector<JobRec>> per(ctx.conns);
  std::vector<std::thread> threads;
  for (int c = 0; c < ctx.conns; ++c) {
    threads.emplace_back([&, c] {
      std::string tenant = strf("bench%d", c);
      std::vector<std::pair<std::string, int>> deck;
      for (const std::string& id : ctx.ids)
        for (int p = 0; p < 2; ++p) deck.emplace_back(id, p);
      Rng rng(ctx.seed * 1000003ull + static_cast<u64>(pass) * 131ull + static_cast<u64>(c));
      rng.shuffle(deck);

      serve::Client cl;
      std::string err;
      bool up = cl.connect(ctx.daemon->port(), &err) && cl.set_recv_timeout_ms(120'000);
      for (const auto& [target, plan] : deck) {
        JobRec j;
        j.target = target;
        j.plan = plan;
        if (!up) {
          j.error = "connect: " + err;
          per[c].push_back(j);
          continue;
        }
        double t0 = now_s();
        int code = 0;
        u64 id;
        {
          SpanLog::Scope sp(g_spans, "serve.submit", target, tenant + "/submit");
          id = cl.submit(tenant, target, {strf("plan=%d", plan)}, &code, &err);
        }
        std::string state, report;
        bool cached = false;
        if (id == 0) {
          j.error = strf("SUBMIT rejected (%d): %s", code, err.c_str());
        } else {
          bool watched;
          {
            SpanLog::Scope sp(g_spans, "serve.watch", target, tenant + "/watch");
            watched = cl.watch_until_done(id, &state, &cached, &err);
          }
          if (!watched) {
            j.error = "WATCH: " + err;
          } else if (state != "done") {
            j.error = "job finished " + state;
          } else {
            bool fetched;
            {
              SpanLog::Scope sp(g_spans, "serve.fetch", target, tenant + "/fetch");
              fetched = cl.fetch(id, &report, &err);
            }
            if (!fetched) j.error = "FETCH: " + err;
            else if (report != ctx.expect.at({target, plan}))
              j.error = "served report differs from the batch report";
            else j.ok = true;
          }
        }
        j.ms = (now_s() - t0) * 1e3;
        per[c].push_back(j);
        if (!cl.connected()) up = false;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (auto& v : per) run.jobs.insert(run.jobs.end(), v.begin(), v.end());
}

// --- per-layer metrics from spans ------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void derive_layers(const Pass& untraced, const Pass& traced, int workers, Run& run) {
  std::vector<Span> spans = g_spans.spans();
  std::map<std::string, double> sum;
  std::map<std::string, std::vector<double>> durs;
  std::map<std::string, std::pair<double, double>> verify_window;  // target -> [t0, t1]
  for (const Span& s : spans) {
    sum[s.layer] += s.dur;
    durs[s.layer].push_back(s.dur);
    if (s.layer != "pipeline.verify") continue;
    auto [it, fresh] = verify_window.try_emplace(s.target, s.t0, s.t0 + s.dur);
    if (!fresh) {
      it->second.first = std::min(it->second.first, s.t0);
      it->second.second = std::max(it->second.second, s.t0 + s.dur);
    }
  }
  std::map<std::string, double>& L = run.layers;
  const std::map<std::string, double>& C = run.counters;
  L["pipeline.taint_trace_s"] = sum["pipeline.taint_trace"];
  L["pipeline.verify_s"] = sum["pipeline.verify"];
  double crit = 0;
  for (const auto& [t, w] : verify_window) crit = std::max(crit, w.second - w.first);
  L["pipeline.verify_critical_s"] = crit;
  const std::vector<double>& vr = durs["pipeline.verify"];
  L["pipeline.verify_run_p50_s"] = quantile(vr, 0.5);
  L["pipeline.verify_run_max_s"] = vr.empty() ? 0.0 : *std::max_element(vr.begin(), vr.end());
  L["pipeline.verify_runs"] = static_cast<double>(vr.size());
  for (const char* l : {"browse", "seh_extract", "filter_classify", "coverage_xref",
                        "api_fuzz", "call_site_trace"})
    L[strf("pipeline.%s_s", l)] = sum[strf("pipeline.%s", l)];
  for (const char* l : {"hits", "misses", "stores"})
    L[strf("pipeline.cache.%s", l)] = C.at(strf("pipeline.cache.%s", l));
  double lookups = C.at("pipeline.cache.hits") + C.at("pipeline.cache.misses");
  L["pipeline.cache.hit_ratio"] = lookups > 0 ? C.at("pipeline.cache.hits") / lookups : 0.0;
  L["pipeline.job.queue_ms_p50"] = quantile(run.queue_ms, 0.5);
  L["pipeline.job.run_ms_p50"] = quantile(run.run_ms, 0.5);
  L["targets.build_s"] = sum["targets.build"];
  L["isa.key_hash_s"] = sum["isa.key_hash"];
  for (const char* c : {"vm.instr_retired", "taint.propagated", "os.syscalls", "os.sys.nanosleep",
                        "os.sys.accept", "os.sys.epoll_wait", "os.sys.epoll_wait_efault",
                        "os.sys.yield", "exec.pool_tasks", "exec.steal_ms", "symex.sat_queries",
                        "oracle.probes", "oracle.crashes", "serve.rejected"})
    L[c] = C.at(c);
  double instr = C.at("vm.instr_retired");
  double stage_s = 0;
  for (const auto& [layer, v] : sum)
    if (layer.rfind("pipeline.", 0) == 0 || layer.rfind("plan.", 0) == 0) stage_s += v;
  L["vm.ns_per_instr"] = instr > 0 ? stage_s * 1e9 / instr : 0.0;
  L["os.syscalls_per_kinstr"] = instr > 0 ? C.at("os.syscalls") * 1e3 / instr : 0.0;
  L["exec.utilization"] =
      untraced.wall_s > 0 ? untraced.cpu_s / (untraced.wall_s * workers) : 0.0;
  double classified = C.at("analysis.classify.memo_hits") + C.at("symex.filter.explored");
  L["analysis.classify_memo_hit_ratio"] =
      classified > 0 ? C.at("analysis.classify.memo_hits") / classified : 0.0;
  L["plan.synth_s"] = sum["plan.synth"];
  L["plan.replay_s"] = sum["plan.replay"];
  L["serve.submit_ms_p50"] = quantile(durs["serve.submit"], 0.5) * 1e3;
  L["serve.fetch_ms_p50"] = quantile(durs["serve.fetch"], 0.5) * 1e3;
  L["obs.trace_overhead_frac"] = untraced.wall_s > 0 ? traced.wall_s / untraced.wall_s - 1 : 0.0;
}

// --- output ---------------------------------------------------------------------------

bool write_raw(const Options& opt, int workers, const Run& run) {
  std::string o = "{\n";
  o += strf("\"workload\": %s,\n\"seed\": %llu,\n\"workers\": %d,\n\"trace\": %d,\n",
            jstr(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed), workers,
            opt.trace ? 1 : 0);
  o += "\"setup_s\": [";
  for (size_t i = 0; i < run.setup_s.size(); ++i) o += (i ? ", " : "") + jnum(run.setup_s[i]);
  o += "],\n\"passes\": [";
  for (size_t i = 0; i < run.passes.size(); ++i)
    o += strf("%s{\"traced\": %s, \"wall_s\": %s, \"cpu_s\": %s, \"peak_rss_mb\": %s}",
              i ? ", " : "", run.passes[i].traced ? "true" : "false",
              jnum(run.passes[i].wall_s).c_str(), jnum(run.passes[i].cpu_s).c_str(),
              jnum(run.passes[i].peak_rss_mb).c_str());
  o += "],\n\"reports\": [";
  for (size_t i = 0; i < run.reports.size(); ++i) {
    const ReportRec& r = run.reports[i];
    std::string v;
    for (size_t k = 0; k < r.verdicts.size(); ++k)
      v += strf("%s[%s, %s]", k ? ", " : "", jstr(r.verdicts[k].first).c_str(),
                jstr(r.verdicts[k].second).c_str());
    o += strf("%s\n{\"pass\": %d, \"id\": %s, \"verdicts\": [%s], \"summary\": %s, "
              "\"usable\": %d, \"has_plan\": %s",
              i ? "," : "", r.pass, jstr(r.id).c_str(), v.c_str(), jstr(r.summary).c_str(),
              r.usable, r.has_plan ? "true" : "false");
    if (r.has_plan)
      o += strf(", \"surface\": %s, \"completed\": %s, \"hijacked\": %s, \"crashes\": %llu, "
                "\"unhandled\": %llu, \"leaked\": %llu, \"error\": %s",
                jstr(r.surface).c_str(), r.completed ? "true" : "false",
                r.hijacked ? "true" : "false", static_cast<unsigned long long>(r.crashes),
                static_cast<unsigned long long>(r.unhandled),
                static_cast<unsigned long long>(r.leaked), jstr(r.error).c_str());
    o += "}";
  }
  o += "],\n\"jobs\": [";
  for (size_t i = 0; i < run.jobs.size(); ++i) {
    const JobRec& j = run.jobs[i];
    o += strf("%s\n{\"target\": %s, \"plan\": %d, \"ms\": %s, \"ok\": %s, \"error\": %s}",
              i ? "," : "", jstr(j.target).c_str(), j.plan, jnum(j.ms).c_str(),
              j.ok ? "true" : "false", jstr(j.error).c_str());
  }
  o += "],\n\"counters\": {";
  size_t k = 0;
  for (const auto& [n, v] : run.counters) o += strf("%s%s: %s", k++ ? ", " : "", jstr(n).c_str(), jnum(v).c_str());
  o += "},\n\"layers\": {";
  k = 0;
  for (const auto& [n, v] : run.layers) o += strf("%s%s: %s", k++ ? ", " : "", jstr(n).c_str(), jnum(v).c_str());
  o += "}\n}\n";
  std::ofstream f(opt.out);
  f << o;
  return f.good();
}

// --- main -------------------------------------------------------------------------------

int run_workload(const Options& opt) {
  const double origin = now_s();
  const int workers = exec::resolve_jobs(0);
  pipeline::TargetRegistry reg = pipeline::TargetRegistry::builtin();
  pipeline::CampaignOptions copts;
  copts.jobs = workers;

  if (opt.workload == "registry-cold") {
    copts.syscall.seed = opt.seed;
    copts.plan = true;
  } else if (opt.workload != "serve-warm") {
    std::fprintf(stderr, "crpbench: unknown workload \"%s\"\n", opt.workload.c_str());
    return 2;
  }

  Run run;
  pipeline::Campaign keyer(copts, nullptr);
  // Set-up: every workload first materializes the whole registry (so
  // targets.build and isa.key_hash are measured everywhere); repeated, with
  // spans recording the last repetition only.
  std::vector<const pipeline::TargetSpec*> all;
  for (const pipeline::TargetSpec& s : reg.all()) all.push_back(&s);
  int reps = opt.workload == "serve-warm" ? 1 : kSetupReps;
  for (int r = 0; r < reps; ++r) {
    g_spans.arm(opt.trace && r == reps - 1);
    run.setup_s.push_back(materialize(all, keyer));
  }
  g_spans.arm(false);

  // serve-warm set-up, continued: warm a private store with all 12 targets
  // and their plans (the batch reference reports), then start the daemon.
  std::unique_ptr<pipeline::ArtifactStore> warm_store;
  std::unique_ptr<serve::Daemon> daemon;
  ServeCtx sctx;
  if (opt.workload == "serve-warm") {
    double t0 = now_s();
    pipeline::CampaignOptions wopts = copts;
    wopts.plan = true;
    pipeline::Campaign warm(wopts, fresh_store(warm_store));
    for (pipeline::TargetReport& rep : warm.run_all(reg)) {
      run.reports.push_back(flatten(-1, rep));
      sctx.ids.push_back(rep.id);
      sctx.expect[{rep.id, 1}] = pipeline::render_report(rep, false);
      rep.has_plan = false;
      sctx.expect[{rep.id, 0}] = pipeline::render_report(rep, false);
    }
    serve::DaemonOptions dopts;
    dopts.workers = 2;
    dopts.store = warm_store.get();
    dopts.defaults = copts;
    // Admission limits far above anything one connection per core can
    // reach: each connection has one job in flight, and a 429 would count
    // as a failed operation however fast a later build serves.
    dopts.tenant_max_active = 1u << 20;
    dopts.admission_window_max = ~0ull;
    daemon = std::make_unique<serve::Daemon>(dopts);
    if (!daemon->start()) {
      std::fprintf(stderr, "crpbench: daemon failed to bind\n");
      return 1;
    }
    sctx.daemon = daemon.get();
    sctx.conns = std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
    sctx.seed = opt.seed;
    run.setup_s[0] += now_s() - t0;
  }

  auto one_pass = [&](bool traced, int pass) {
    g_spans.arm(traced);
    reset_peak_rss();
    double w0 = now_s(), c0 = cpu_s();
    if (opt.workload == "registry-cold") {
      if (traced) registry_traced_pass(copts, reg, pass, run);
      else registry_untraced_pass(copts, reg, pass, run);
    } else {
      serve_pass(sctx, pass, run);
    }
    Pass p;
    p.traced = traced;
    p.wall_s = now_s() - w0;
    p.cpu_s = cpu_s() - c0;
    p.peak_rss_mb = peak_rss_mb();
    g_spans.arm(false);
    run.passes.push_back(p);
    return p;
  };

  obs::Snapshot before = obs::Registry::global().snapshot();
  if (!opt.trace) {
    // Passes until the measured time is closest to --seconds: another pass
    // starts while less than half a pass would overshoot. serve-warm also
    // needs >= 100 jobs, so its p90 has 10 samples above it.
    double t0 = now_s();
    int pass = 0;
    for (;;) {
      Pass p = one_pass(false, pass++);
      double elapsed = now_s() - t0;
      if (elapsed + p.wall_s / 2 >= opt.seconds && !(daemon && run.jobs.size() < 100)) break;
    }
    run.counters = read_counters(before, obs::Registry::global().snapshot());
  } else {
    Pass untraced = one_pass(false, 0);
    run.counters = read_counters(before, obs::Registry::global().snapshot());
    obs::Snapshot mid = obs::Registry::global().snapshot();
    Pass traced = one_pass(true, 1);
    // oracle.crashes must cover every probe the process made.
    run.counters["oracle.crashes"] +=
        read_counters(mid, obs::Registry::global().snapshot())["oracle.crashes"];
    if (daemon) {
      for (const pipeline::JobResult& r : daemon->queue().list()) {
        run.queue_ms.push_back(static_cast<double>(r.queue_ns) / 1e6);
        run.run_ms.push_back(static_cast<double>(r.run_ns) / 1e6);
      }
    }
    derive_layers(untraced, traced, workers, run);
    if (!opt.trace_file.empty() && !g_spans.write_chrome(opt.trace_file, origin)) {
      std::fprintf(stderr, "crpbench: cannot write %s\n", opt.trace_file.c_str());
      return 1;
    }
  }
  if (daemon) daemon->stop();

  if (!write_raw(opt, workers, run)) {
    std::fprintf(stderr, "crpbench: cannot write %s\n", opt.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace crp::bench

int main(int argc, char** argv) {
  crp::bench::Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "crpbench: %s needs a value\n", a.c_str());
      return 2;
    }
    std::string v = argv[++i];
    if (a == "--workload") opt.workload = v;
    else if (a == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::atof(v.c_str());
    else if (a == "--trace") opt.trace = v == "1";
    else if (a == "--out") opt.out = v;
    else if (a == "--trace-file") opt.trace_file = v;
    else {
      std::fprintf(stderr, "crpbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (opt.workload.empty() || opt.out.empty()) {
    std::fprintf(stderr,
                 "usage: crpbench --workload W --out RAW.json [--seed N] [--seconds S]\n"
                 "                [--trace 0|1] [--trace-file T.json]\n");
    return 2;
  }
  return crp::bench::run_workload(opt);
}
