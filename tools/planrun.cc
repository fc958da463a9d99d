// planrun — registry-wide exploit-plan synthesis + replay verification.
//
// Runs every registered discovery subject through its funnel with the
// exploit-plan epilogue enabled (CampaignOptions::plan): each target's
// verified evidence is synthesized into an ExploitPlan and the plan is
// replayed against a fresh instance of the target. Prints one row per
// target (surface, synthesis cache state, replay summary) and enforces the
// paper's contract over the whole sweep:
//
//   * every plan replays to completion (empty plans complete trivially);
//   * zero probe crashes and zero unhandled guest exceptions anywhere;
//   * obs::audit_ledger() stays green over the recorded probe events,
//     cross-checked against the oracle.scan.* counters.
//
// Exit status 0 iff all of the above hold. With --out DIR the encoded
// plans are written as <id>.plan files (CI uploads them as artifacts);
// a warm run (CRP_CACHE_DIR set) reports plan-cache hits.
//
// Usage: planrun [--targets substr] [--jobs J] [--out DIR]
//                [--window PAGES] [--region PAGES] [--list]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/ledger.h"
#include "obs/obs.h"
#include "pipeline/campaign.h"
#include "pipeline/registry.h"
#include "plan/plan.h"
#include "util/common.h"

namespace crp {
namespace {

namespace fs = std::filesystem;

struct Options {
  std::string targets;  // substring filter on registry ids
  std::string out_dir;  // write <id>.plan files here ("" = don't)
  int jobs = 0;
  u64 window_pages = 1024;
  u64 region_pages = 16;
  bool list = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: planrun [--targets substr] [--jobs J] [--out DIR]\n"
               "               [--window PAGES] [--region PAGES] [--list]\n"
               "  --jobs J is capped at the shared pool's size (CRP_JOBS or the core count)\n");
}

std::string plan_file_name(const std::string& id) {
  std::string name = id;
  for (char& c : name)
    if (c == '/') c = '_';
  return name + ".plan";
}

int run(const Options& opt) {
  pipeline::TargetRegistry reg = pipeline::TargetRegistry::builtin();
  pipeline::TargetRegistry picked;
  for (const pipeline::TargetSpec& s : reg.all())
    if (opt.targets.empty() || s.id.find(opt.targets) != std::string::npos)
      picked.add(s);
  if (opt.list) {
    for (const auto& s : picked.all()) std::printf("%s\n", s.id.c_str());
    return 0;
  }
  if (picked.all().empty()) {
    std::fprintf(stderr, "planrun: no registry target matches \"%s\"\n",
                 opt.targets.c_str());
    return 2;
  }

  pipeline::CampaignOptions copts;
  copts.jobs = exec::shared_width(opt.jobs, "planrun");
  copts.plan = true;
  copts.plan_window_pages = opt.window_pages;
  copts.plan_region_pages = opt.region_pages;
  pipeline::Campaign campaign(copts);

  if (!opt.out_dir.empty()) fs::create_directories(opt.out_dir);

  std::printf("%-26s %-14s %-8s %s\n", "target", "surface", "cache",
              "replay");
  int failures = 0;
  size_t cache_hits = 0;
  u64 crashes = 0, unhandled = 0;
  // One task graph over the picked targets (DESIGN.md §10); reports come
  // back in registration order.
  for (const pipeline::TargetReport& rep : campaign.run_all(picked)) {
    const plan::ExploitPlan& p = rep.exploit_plan;
    const plan::ReplayOutcome& r = rep.plan_replay;
    bool ok = r.completed && r.crashes == 0 && r.unhandled == 0;
    failures += ok ? 0 : 1;
    cache_hits += rep.plan_cache_hit ? 1 : 0;
    crashes += r.crashes;
    unhandled += r.unhandled;
    std::printf("%-26s %-14s %-8s %s\n", rep.id.c_str(),
                plan::surface_name(p.surface),
                rep.plan_cache_hit ? "hit" : "miss", r.summary().c_str());
    if (!opt.out_dir.empty()) {
      fs::path path = fs::path(opt.out_dir) / plan_file_name(rep.id);
      std::ofstream f(path, std::ios::binary);
      f << plan::encode_plan(p);
      if (!f.good()) {
        std::fprintf(stderr, "planrun: cannot write %s\n", path.c_str());
        return 2;
      }
    }
  }

  obs::LedgerAudit audit =
      obs::audit_ledger(obs::Ledger::global(), &obs::Registry::global());
  std::printf("\nplan-cache hits: %zu/%zu\n", cache_hits, picked.all().size());
  std::printf("probe crashes: %llu  unhandled exceptions: %llu\n",
              static_cast<unsigned long long>(crashes),
              static_cast<unsigned long long>(unhandled));
  std::printf("%s\n", audit.summary().c_str());

  if (failures > 0) {
    std::fprintf(stderr, "planrun: %d target(s) failed replay\n", failures);
    return 1;
  }
  if (!audit.ok() || !audit.zero_crash()) return 1;
  return 0;
}

}  // namespace
}  // namespace crp

int main(int argc, char** argv) {
  crp::Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        crp::usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--targets") opt.targets = next();
    else if (a == "--jobs") opt.jobs = std::atoi(next());
    else if (a == "--out") opt.out_dir = next();
    else if (a == "--window") opt.window_pages = std::strtoull(next(), nullptr, 0);
    else if (a == "--region") opt.region_pages = std::strtoull(next(), nullptr, 0);
    else if (a == "--list") opt.list = true;
    else {
      crp::usage();
      return 2;
    }
  }
  return crp::run(opt);
}
