#include "pipeline/campaign.h"

#include <optional>
#include <stdexcept>

#include "analysis/signal_scanner.h"
#include "analysis/veh_scanner.h"
#include "exec/thread_pool.h"
#include "obs/journal.h"
#include "obs/obs.h"
#include "obs/prof.h"
#include "pipeline/job_queue.h"
#include "util/rng.h"

namespace crp::pipeline {

targets::BrowserSim::Options browser_options(const TargetSpec& spec) {
  targets::BrowserSim::Options o;
  o.kind = spec.browser_kind;
  o.seed = spec.seed;
  o.filler_dlls = spec.filler_dlls;
  return o;
}

std::string render_report(const TargetReport& rep, bool cache_tag) {
  std::string out =
      strf("--- %-24s [%s]\n", rep.id.c_str(), target_class_name(rep.cls));
  out += strf("    %s%s\n", rep.summary.c_str(),
              cache_tag && rep.cache_hit ? " [cached]" : "");
  for (const analysis::Candidate& c : rep.candidates) {
    if (c.verdict == analysis::Verdict::kUsable ||
        c.cls != analysis::PrimitiveClass::kSyscall)
      out += strf("    * %s\n", c.describe().c_str());
  }
  if (rep.has_plan) {
    out += strf("    plan: %s%s%s\n",
                plan::surface_name(rep.exploit_plan.surface),
                rep.exploit_plan.symex_confirmed ? " [symex]" : "",
                cache_tag && rep.plan_cache_hit ? " [cached]" : "");
    out += strf("    replay: %s\n", rep.plan_replay.summary().c_str());
  }
  out += "\n";
  return out;
}

Campaign::Campaign(CampaignOptions opts, ArtifactStore* store)
    : opts_(opts), store_(store != nullptr ? store : &ArtifactStore::global()) {}

namespace {

ArtifactKey syscall_scan_key_for(const analysis::TargetProgram& prog,
                                 const CampaignOptions& opts) {
  Hasher in;
  in.str(prog.name)
      .u64v(static_cast<u64>(prog.personality))
      .u64v(prog.port)
      .u64v(prog.images.size());
  for (const auto& img : prog.images) {
    std::vector<u8> bytes = isa::write_image(*img);
    in.u64v(bytes.size()).bytes(bytes.data(), bytes.size());
  }
  u64 cfg = Hasher()
                .u64v(opts.syscall.discover_budget)
                .u64v(opts.syscall.verify_budget)
                .u64v(opts.syscall.check_service_liveness ? 1 : 0)
                .u64v(opts.syscall.seed)
                .digest();
  return ArtifactKey{TaintTraceStage::kId, in.digest(), cfg};
}

// The Linux-syscall funnel (TaintTrace -> SyscallCandidate -> Verify) as
// explicit stepped state, shared by the blocking scan_program path and the
// ServerCell job steps so the two cannot drift apart. Holds the store's
// single-writer lease between the lookup and the publish — concurrent
// scans of an identical target compute once, the rest are handed the
// finished artifact. The destructor releases an abandoned lease (a step
// threw, or the job was cancelled between steps).
struct SyscallFunnel {
  const CampaignOptions& opts;
  ArtifactStore* st;  // nullptr: caching off
  const analysis::TargetProgram* prog = nullptr;
  ArtifactKey key;
  bool leased = false;
  bool parked = false;  // lease released by park(); re-acquire on resume()
  std::vector<analysis::Candidate> cands;
  ServerScan scan;

  SyscallFunnel(const CampaignOptions& o, ArtifactStore* s) : opts(o), st(s) {}
  ~SyscallFunnel() {
    if (leased && st != nullptr) st->abort_claim(key);
  }

  void trace() {
    scan.name = prog->name;
    if (st != nullptr) {
      key = syscall_scan_key_for(*prog, opts);
      std::string doc;
      Acquire a = st->acquire(key, &doc);
      if (a == Acquire::kHit && decode_syscall_scan(doc, &scan.result)) {
        scan.cache_hit = true;
        return;
      }
      // A hit that fails to decode recomputes without the lease; the
      // publish below replaces the stored blob.
      leased = a == Acquire::kOwner;
    }
    scan.result = TaintTraceStage::run({prog, opts.syscall});
  }

  // Park/resume protocol (JobQueue preemption): a parked job may wait in
  // the queue indefinitely while other jobs for the same key block inside
  // acquire() — so the lease is released on park and re-taken on the next
  // step. If another job published the artifact in between, resume turns
  // into a cache hit and the remaining compute steps are skipped.
  void park() {
    if (leased && st != nullptr) {
      st->abort_claim(key);
      leased = false;
      parked = true;
    }
  }

  void resume() {
    if (!parked) return;
    parked = false;
    std::string doc;
    Acquire a = st->acquire(key, &doc);
    if (a == Acquire::kHit && decode_syscall_scan(doc, &scan.result)) {
      scan.cache_hit = true;
      return;
    }
    leased = a == Acquire::kOwner;
  }

  void candidates() {
    if (scan.cache_hit) return;
    cands = SyscallCandidateStage::run({&scan.result});
  }

  void verify() {
    if (scan.cache_hit) return;
    scan.result.candidates =
        VerifyStage::run({prog, opts.syscall, std::move(cands), opts.jobs});
    if (st != nullptr) {
      std::string doc = encode_syscall_scan(scan.result);
      if (leased) {
        st->finish(key, doc);
        leased = false;
      } else {
        st->store(key, doc);
      }
    }
  }
};

}  // namespace

ArtifactKey Campaign::syscall_scan_key(const analysis::TargetProgram& prog) const {
  return syscall_scan_key_for(prog, opts_);
}

ServerScan Campaign::scan_program(const analysis::TargetProgram& prog) {
  obs::ScopedProfTarget prof_target(prog.name);
  obs::ScopedJournalSubject subject(
      obs::journal_subject().empty() ? prog.name : obs::journal_subject());
  SyscallFunnel funnel(opts_, store());
  funnel.prog = &prog;
  funnel.trace();
  funnel.candidates();
  funnel.verify();
  return std::move(funnel.scan);
}

ServerScan Campaign::scan_target(const TargetSpec& spec) {
  CRP_CHECK(spec.make_program != nullptr);
  analysis::TargetProgram prog = spec.make_program();
  return scan_program(prog);
}

std::vector<ServerScan> Campaign::scan_targets(
    const std::vector<const TargetSpec*>& specs) {
  // Materialize programs up front (image generation is deterministic and
  // cheap); then shard whole scans across the shared pool. Each scan's
  // verification batch nests on the same workers, so a long verify phase
  // (Cherokee's) spreads over the threads the shorter scans free up.
  std::vector<analysis::TargetProgram> progs;
  progs.reserve(specs.size());
  for (const TargetSpec* s : specs) {
    CRP_CHECK(s != nullptr && s->make_program != nullptr);
    progs.push_back(s->make_program());
  }
  return exec::parallel_map(
      exec::ThreadPool::shared(), progs,
      [&](size_t, const analysis::TargetProgram& p) {
        obs::set_journal_subject(p.name);
        return scan_program(p);
      },
      "scan_target", opts_.jobs);
}

SehCorpus Campaign::extract(const std::vector<std::vector<u8>>& blobs) {
  return SehExtractStage::run({&blobs, opts_.jobs});
}

ClassifyOutcome Campaign::classify(const SehCorpus& corpus) {
  return FilterClassifyStage::run({&corpus, opts_.classify, opts_.jobs, store()});
}

std::vector<analysis::ModuleSehStats> Campaign::xref(
    const SehCorpus& corpus, const ClassifyOutcome& cls,
    const trace::Tracer* tracer, const os::Process* proc) {
  return CoverageXrefStage::run({&corpus.ex, &cls.filters, tracer, proc});
}

std::vector<std::vector<u8>> Campaign::dll_blobs(const TargetSpec& spec) {
  CRP_CHECK(spec.dll_specs != nullptr);
  std::vector<std::vector<u8>> blobs;
  for (const targets::DllSpec& s : spec.dll_specs())
    blobs.push_back(isa::write_image(*targets::generate_dll(s, spec.seed).image));
  return blobs;
}

std::vector<std::vector<u8>> Campaign::image_blobs(
    const std::vector<targets::GeneratedDll>& dlls) {
  std::vector<std::vector<u8>> blobs;
  blobs.reserve(dlls.size());
  for (const auto& d : dlls) blobs.push_back(isa::write_image(*d.image));
  return blobs;
}

void Campaign::materialize_api_corpus(const TargetSpec& spec, os::Kernel& kernel) {
  kernel.winapi().generate_population(spec.api.seed, spec.api.total,
                                      spec.api.ptr_fraction,
                                      spec.api.resistant_fraction);
}

ApiFuzzStage::Out Campaign::fuzz_apis(os::Kernel& kernel) {
  return ApiFuzzStage::run({&kernel, opts_.api_probes_per_arg, opts_.jobs, store()});
}

std::vector<analysis::ApiSiteInfo> Campaign::call_sites(
    const trace::Tracer& tracer, const std::set<u32>& crash_resistant,
    const os::Kernel& kernel, const os::Process& proc,
    const std::string& needle) {
  return CallSiteTraceStage::run({&tracer, &crash_resistant, &kernel, &proc, needle});
}

// --- target cells --------------------------------------------------------------

void TargetCell::run_step() {
  CRP_CHECK(next_ < steps_.size());
  obs::ScopedProfTarget prof_target(spec_.id);
  obs::ScopedJournalSubject subject(spec_.id);
  if (opts_.plan && next_ >= plan_step_base_) {
    // Shared epilogue: every class's funnel ends with plan_synth +
    // plan_verify when the campaign asked for plans.
    if (next_ == plan_step_base_) plan_synth_step();
    else plan_verify_step();
  } else {
    do_step(next_);
  }
  ++next_;
  if (next_ == steps_.size()) {
    report_.id = spec_.id;
    report_.cls = spec_.cls;
  }
}

namespace {

class ServerCell final : public TargetCell {
 public:
  ServerCell(const CampaignOptions& o, ArtifactStore* s, TargetSpec spec)
      : TargetCell(o, s, std::move(spec),
                   {"taint_trace", "candidates", "verify", "finalize"}) {}

  void on_park() override {
    if (funnel_) funnel_->park();
  }

 private:
  void do_step(size_t i) override {
    switch (i) {
      case 0: {
        CRP_CHECK(spec_.make_program != nullptr);
        prog_ = spec_.make_program();
        funnel_.emplace(opts_, store_);
        funnel_->prog = &prog_;
        obs::ScopedProfTarget prof(prog_.name);
        funnel_->trace();
        break;
      }
      case 1: {
        obs::ScopedProfTarget prof(prog_.name);
        funnel_->resume();
        funnel_->candidates();
        break;
      }
      case 2: {
        obs::ScopedProfTarget prof(prog_.name);
        funnel_->resume();
        funnel_->verify();
        break;
      }
      case 3: {
        ServerScan& scan = funnel_->scan;
        report_.candidates = scan.result.candidates;
        report_.cache_hit = scan.cache_hit;
        int fps = 0;
        for (const auto& c : report_.candidates) {
          report_.usable += c.verdict == analysis::Verdict::kUsable ? 1 : 0;
          fps += c.verdict == analysis::Verdict::kFalsePositive ? 1 : 0;
        }
        report_.summary = strf(
            "%zu syscalls observed, %zu candidates, %d usable, %d false-positive",
            scan.result.observed.size(), report_.candidates.size(),
            report_.usable, fps);
        funnel_.reset();
        break;
      }
    }
  }

  analysis::TargetProgram prog_;
  std::optional<SyscallFunnel> funnel_;
};

class RuntimeCell final : public TargetCell {
 public:
  RuntimeCell(const CampaignOptions& o, ArtifactStore* s, TargetSpec spec)
      : TargetCell(o, s, std::move(spec), {"boot", "signal_scan", "finalize"}) {}

 private:
  void do_step(size_t i) override {
    switch (i) {
      case 0: {
        CRP_CHECK(spec_.make_program != nullptr);
        prog_ = spec_.make_program();
        kernel_ = std::make_unique<os::Kernel>();
        pid_ = prog_.instantiate(*kernel_, opts_.syscall.seed);
        kernel_->run(2'000'000);  // let startup install its signal handlers
        break;
      }
      case 1: {
        StageScope scope("signal_scan", prog_.name);
        handlers_ =
            analysis::SignalScanner::scan(kernel_->proc(pid_), opts_.classify);
        break;
      }
      case 2: {
        report_.candidates =
            analysis::SignalScanner::candidates(handlers_, prog_.name);
        for (const auto& h : handlers_)
          report_.usable +=
              h.verdict == analysis::FilterVerdict::kAcceptsAv ? 1 : 0;
        report_.summary =
            strf("%zu installed signal handlers, %d recovering (pc-editing)",
                 handlers_.size(), report_.usable);
        kernel_.reset();
        break;
      }
    }
  }

  analysis::TargetProgram prog_;
  std::unique_ptr<os::Kernel> kernel_;
  int pid_ = 0;
  std::vector<analysis::SignalHandlerInfo> handlers_;
};

class BrowserCell final : public TargetCell {
 public:
  BrowserCell(const CampaignOptions& o, ArtifactStore* s, TargetSpec spec)
      : TargetCell(o, s, std::move(spec),
                   {"browse", "seh_extract", "classify", "xref_veh", "finalize"}) {}

 private:
  void do_step(size_t i) override {
    switch (i) {
      case 0: {
        kernel_ = std::make_unique<os::Kernel>();
        targets::BrowserSim::Options bopts = browser_options(spec_);
        // Attach the tracer before startup so runtime VEH registrations
        // are observed (the §VII-A harvesting pass).
        bopts.defer_start = true;
        browser_ = std::make_unique<targets::BrowserSim>(*kernel_, bopts);
        tracer_ = std::make_unique<trace::Tracer>(*kernel_, browser_->proc());
        browser_->start();
        browser_->crawl();
        for (u64 site = 0; site < opts_.browse_pages; ++site)
          browser_->visit_page(site);
        browser_->pump(opts_.browse_budget);
        break;
      }
      case 1: {
        blobs_ = Campaign::image_blobs(browser_->dlls());
        corpus_ = SehExtractStage::run({&blobs_, opts_.jobs});
        break;
      }
      case 2: {
        cls_ = FilterClassifyStage::run(
            {&corpus_, opts_.classify, opts_.jobs, store_});
        break;
      }
      case 3: {
        std::vector<analysis::ModuleSehStats> stats = CoverageXrefStage::run(
            {&corpus_.ex, &cls_.filters, tracer_.get(), &browser_->proc()});
        report_.cache_hit = cls_.cache_hit;
        report_.candidates = analysis::CoverageXref::candidates(
            corpus_.ex, cls_.filters, tracer_.get(), &browser_->proc(),
            spec_.id);
        on_path_ = report_.candidates.size();

        veh_ = analysis::VehScanner::scan(*tracer_, browser_->proc(),
                                          opts_.classify);
        for (const auto& h : veh_)
          veh_usable_ +=
              h.verdict == analysis::FilterVerdict::kAcceptsAv ? 1 : 0;
        std::vector<analysis::Candidate> veh_cands =
            analysis::VehScanner::candidates(veh_, spec_.id);
        report_.candidates.insert(report_.candidates.end(), veh_cands.begin(),
                                  veh_cands.end());
        (void)stats;
        break;
      }
      case 4: {
        report_.usable = static_cast<int>(on_path_) + veh_usable_;
        report_.summary = strf(
            "%zu DLLs, %zu handlers, %zu unique filters, %zu guarded sites on "
            "path, %zu VEH (%d recovering)",
            browser_->dlls().size(), corpus_.ex.handlers().size(),
            corpus_.ex.unique_filters().size(), on_path_, veh_.size(),
            veh_usable_);
        tracer_.reset();
        browser_.reset();
        kernel_.reset();
        break;
      }
    }
  }

  std::unique_ptr<os::Kernel> kernel_;
  std::unique_ptr<targets::BrowserSim> browser_;
  std::unique_ptr<trace::Tracer> tracer_;
  std::vector<std::vector<u8>> blobs_;
  SehCorpus corpus_;
  ClassifyOutcome cls_;
  std::vector<analysis::VehHandlerInfo> veh_;
  size_t on_path_ = 0;
  int veh_usable_ = 0;
};

class DllCorpusCell final : public TargetCell {
 public:
  DllCorpusCell(const CampaignOptions& o, ArtifactStore* s, TargetSpec spec)
      : TargetCell(o, s, std::move(spec),
                   {"generate", "seh_extract", "classify", "finalize"}) {}

 private:
  void do_step(size_t i) override {
    switch (i) {
      case 0: blobs_ = Campaign::dll_blobs(spec_); break;
      case 1: corpus_ = SehExtractStage::run({&blobs_, opts_.jobs}); break;
      case 2:
        cls_ = FilterClassifyStage::run(
            {&corpus_, opts_.classify, opts_.jobs, store_});
        break;
      case 3: {
        size_t av = 0;
        for (const auto& f : cls_.filters) {
          if (f.offset == isa::kFilterCatchAll) continue;
          av += f.verdict == analysis::FilterVerdict::kAcceptsAv ? 1 : 0;
        }
        report_.cache_hit = cls_.cache_hit;
        report_.usable = static_cast<int>(av);
        report_.summary =
            strf("%zu DLLs, %zu unique filters, %zu AV-capable after SB",
                 corpus_.ex.images().size(), corpus_.ex.unique_filters().size(),
                 av);
        break;
      }
    }
  }

  std::vector<std::vector<u8>> blobs_;
  SehCorpus corpus_;
  ClassifyOutcome cls_;
};

class ApiCorpusCell final : public TargetCell {
 public:
  ApiCorpusCell(const CampaignOptions& o, ArtifactStore* s, TargetSpec spec)
      : TargetCell(o, s, std::move(spec),
                   {"api_fuzz", "browse", "call_sites", "finalize"}) {}

 private:
  void do_step(size_t i) override {
    switch (i) {
      case 0: {
        kernel_ = std::make_unique<os::Kernel>();
        Campaign::materialize_api_corpus(spec_, *kernel_);
        fuzz_ = ApiFuzzStage::run(
            {kernel_.get(), opts_.api_probes_per_arg, opts_.jobs, store_});
        break;
      }
      case 1: {
        // The historical §V-B browsing workload: a ~6% uniform stub sample
        // of the pointer-arg population, 120 page visits on the IE analog
        // (seed 0xF0) — the rate that puts ~25 crash-resistant APIs on the
        // execution path.
        Rng rng(0xFA77);
        std::vector<u32> stub_ids;
        for (const auto& [id, s] : kernel_->winapi().all()) {
          if (id < os::kApiPopulationBase || !s.has_pointer_arg()) continue;
          if (rng.chance(0.0625)) stub_ids.push_back(id);
        }
        targets::BrowserSim::Options bopts;
        bopts.kind = targets::BrowserSim::Kind::kIE;
        bopts.seed = 0xF0;
        bopts.api_stub_ids = stub_ids;
        browser_ = std::make_unique<targets::BrowserSim>(*kernel_, bopts);
        tracer_ = std::make_unique<trace::Tracer>(*kernel_, browser_->proc());
        tracer_->set_record_mem_accesses(true);
        browser_->crawl();
        for (u64 site = 0; site < 120; ++site) browser_->visit_page(site);
        browser_->pump(2'000'000'000);
        break;
      }
      case 2: {
        sites_ = CallSiteTraceStage::run({tracer_.get(),
                                          &fuzz_.result.crash_resistant,
                                          kernel_.get(), &browser_->proc(),
                                          "jscript9"});
        for (const auto& s : sites_) {
          if (s.api_id < os::kApiPopulationBase) continue;
          on_path_.insert(s.api_id);
          if (s.exclusion == analysis::ExclusionReason::kNone)
            controllable_.insert(s.api_id);
        }
        break;
      }
      case 3: {
        report_.cache_hit = fuzz_.cache_hit;
        report_.candidates =
            analysis::ApiCallSiteTracer::candidates(sites_, spec_.id);
        report_.usable = static_cast<int>(controllable_.size());
        report_.summary = strf(
            "%u APIs -> %u with pointer args -> %zu crash-resistant -> %zu on "
            "path -> %zu controllable",
            fuzz_.result.total_apis, fuzz_.result.with_pointer_args,
            fuzz_.result.crash_resistant.size(), on_path_.size(),
            controllable_.size());
        tracer_.reset();
        browser_.reset();
        kernel_.reset();
        break;
      }
    }
  }

  std::unique_ptr<os::Kernel> kernel_;
  std::unique_ptr<targets::BrowserSim> browser_;
  std::unique_ptr<trace::Tracer> tracer_;
  ApiFuzzStage::Out fuzz_;
  std::vector<analysis::ApiSiteInfo> sites_;
  std::set<u32> on_path_, controllable_;
};

}  // namespace

std::unique_ptr<TargetCell> plan_target(const CampaignOptions& opts,
                                        ArtifactStore* store,
                                        const TargetSpec& spec) {
  switch (spec.cls) {
    case TargetClass::kLinuxServer:
      return std::make_unique<ServerCell>(opts, store, spec);
    case TargetClass::kManagedRuntime:
      return std::make_unique<RuntimeCell>(opts, store, spec);
    case TargetClass::kBrowser:
      return std::make_unique<BrowserCell>(opts, store, spec);
    case TargetClass::kDllCorpus:
      return std::make_unique<DllCorpusCell>(opts, store, spec);
    case TargetClass::kApiCorpus:
      return std::make_unique<ApiCorpusCell>(opts, store, spec);
  }
  CRP_PANIC("unknown target class");
}

std::unique_ptr<TargetCell> Campaign::plan(const TargetSpec& spec) const {
  return plan_target(opts_, store(), spec);
}

namespace {

/// One job on an inline JobQueue, driven on the calling thread.
JobResult run_inline(const CampaignOptions& opts, ArtifactStore* store,
                     const TargetSpec& spec) {
  JobQueue q(JobQueueOptions{/*workers=*/0, store});
  JobSpec js;
  js.target = spec;
  js.opts = opts;
  return q.wait(q.submit(std::move(js)));
}

}  // namespace

TargetReport Campaign::run_target(const TargetSpec& spec) {
  JobResult r = run_inline(opts_, store_, spec);
  if (r.state == JobState::kFailed) throw std::runtime_error(r.error);
  return std::move(r.report);
}

std::vector<TargetReport> Campaign::run_all(const TargetRegistry& reg) {
  const std::vector<TargetSpec>& all = reg.all();
  obs::Registry::global()
      .gauge("pipeline.campaign.targets_total")
      .set(static_cast<i64>(all.size()));
  // One task graph on the shared pool. Every Linux server funnel is a task
  // of its own; its verify step's per-candidate batch nests on the same
  // workers. Every other target runs in one task, one after another in
  // registration order: their browser and DLL corpora are the memory
  // peaks, so at most one is resident at a time while the server funnels
  // (small) overlap it.
  std::vector<std::vector<size_t>> lanes(1);
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].cls == TargetClass::kLinuxServer) lanes.push_back({i});
    else lanes[0].push_back(i);
  }
  if (lanes[0].empty()) lanes.erase(lanes.begin());
  std::vector<JobResult> results(all.size());
  exec::ThreadPool::shared().for_each_index(
      lanes.size(),
      [&](u64 l) {
        const std::vector<size_t>& lane = lanes[static_cast<size_t>(l)];
        std::string subject = all[lane.front()].id;
        if (lane.size() > 1) subject += " .. " + all[lane.back()].id;
        obs::set_journal_subject(subject);
        for (size_t i : lane) results[i] = run_inline(opts_, store_, all[i]);
      },
      "run_target", opts_.jobs);
  // Reports (and the first failure) in registration order.
  std::vector<TargetReport> out;
  out.reserve(all.size());
  for (JobResult& r : results) {
    if (r.state == JobState::kFailed) throw std::runtime_error(r.error);
    out.push_back(std::move(r.report));
  }
  return out;
}

}  // namespace crp::pipeline
