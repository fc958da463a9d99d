#include "pipeline/stages.h"

#include <chrono>

#include "exec/thread_pool.h"
#include "obs/journal.h"
#include "obs/ledger.h"
#include "obs/obs.h"
#include "os/abi.h"

namespace crp::pipeline {

namespace {

u64 wall_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

/// Hash the fields of a ClassifyOptions (the filter_classify config key).
u64 classify_config_hash(const analysis::ClassifyOptions& o) {
  return Hasher()
      .u64v(o.max_paths)
      .u64v(o.max_steps)
      .u64v(o.solver_conflicts)
      .u64v(o.continue_execution_counts ? 1 : 0)
      .digest();
}

/// Content hash of the fuzzable API surface: every spec's identity and
/// pointer metadata (never the host `impl` closure — behavior observable by
/// the fuzzer is fully determined by these fields).
u64 api_surface_hash(const os::Kernel& kernel) {
  Hasher h;
  for (const auto& [id, spec] : kernel.winapi().all()) {
    h.u64v(id).str(spec.name);
    for (os::ArgKind k : spec.args) h.u64v(static_cast<u64>(k));
    for (u32 sz : spec.ptr_sizes) h.u64v(sz);
    h.u64v(static_cast<u64>(spec.behavior)).u64v(spec.error_ret);
  }
  return h.digest();
}

}  // namespace

u64 corpus_content_hash(const std::vector<std::vector<u8>>& blobs) {
  Hasher h;
  for (const auto& b : blobs) h.u64v(b.size()).bytes(b.data(), b.size());
  return h.digest();
}

StageScope::StageScope(const char* stage_id, const std::string& subject)
    : id_(stage_id), t0_ns_(wall_ns()),
      subject_(obs::journal_subject().empty() ? subject : obs::journal_subject()),
      prof_stage_(stage_id) {
  obs::Registry::global().counter(strf("pipeline.stage.%s.runs", id_)).inc();
}

StageScope::~StageScope() {
  u64 dt = wall_ns() - t0_ns_;
  obs::Registry::global().histogram(strf("pipeline.stage.%s.ns", id_)).record(dt);
  obs::Journal::global().span(strf("stage:%s", id_), "pipeline", t0_ns_ / 1000,
                              dt / 1000, 0, {}, 0, obs::journal_subject());
}

TaintTraceStage::Out TaintTraceStage::run(const In& in) {
  StageScope scope(kId, in.target->name);
  analysis::SyscallScanner scanner(*in.target, in.opts);
  return scanner.discover();
}

SyscallCandidateStage::Out SyscallCandidateStage::run(const In& in) {
  StageScope scope(kId);
  Out out;
  const auto& efault_set = os::efault_capable_syscalls();
  for (const analysis::Candidate& c : in.trace->candidates) {
    if (c.pointer_arg <= 0) continue;
    bool capable = false;
    for (os::Sys s : efault_set) capable |= s == c.syscall;
    if (!capable) continue;
    out.push_back(c);
  }
  return out;
}

namespace {

/// Flight-recorder view of a verify verdict. kCrashes means the candidate
/// was DISQUALIFIED because probing through it kills the target — recorded
/// as a verify-stage crash event (expected; the zero-crash invariant only
/// binds the probing stages). Everything tested and surviving is kSurvive;
/// untested candidates read as kTimeout.
obs::ProbeOutcome verdict_outcome(analysis::Verdict v) {
  switch (v) {
    case analysis::Verdict::kCrashes: return obs::ProbeOutcome::kCrash;
    case analysis::Verdict::kUsable:
    case analysis::Verdict::kNotControllable:
    case analysis::Verdict::kFalsePositive: return obs::ProbeOutcome::kSurvive;
    case analysis::Verdict::kUntested: return obs::ProbeOutcome::kTimeout;
  }
  return obs::ProbeOutcome::kTimeout;
}

}  // namespace

VerifyStage::Out VerifyStage::run(const In& in) {
  StageScope scope(kId, in.target->name);
  Out out = exec::parallel_map(
      exec::ThreadPool::shared(), in.candidates,
      [&](size_t, const analysis::Candidate& c) {
        obs::set_journal_subject(
            strf("%s %s", obs::journal_subject().c_str(), os::sys_name(c.syscall)));
        analysis::Candidate v = c;
        analysis::SyscallScanner scanner(*in.target, in.opts);
        scanner.verify(v);
        return v;
      },
      "verify", in.jobs);
  // Emit the per-candidate flight-recorder events from the caller thread,
  // after the merge: parallel_map returns candidates in input order at any
  // job count, so the ledger stays deterministic too.
  obs::Ledger& led = obs::Ledger::global();
  u32 target_id = led.intern(in.target->name);
  for (const analysis::Candidate& v : out) {
    std::string prim =
        v.api_name.empty() ? std::string(os::sys_name(v.syscall)) : v.api_name;
    led.record(obs::LedgerStage::kVerify, verdict_outcome(v.verdict), led.intern(prim),
               target_id, v.pointer_home.value_or(0), 0);
  }
  return out;
}

SehExtractStage::Out SehExtractStage::run(const In& in) {
  StageScope scope(kId);
  Out out;
  out.content_hash = corpus_content_hash(*in.blobs);
  CRP_CHECK(out.ex.add_images_bytes(*in.blobs, in.jobs));
  return out;
}

FilterClassifyStage::Out FilterClassifyStage::run(const In& in) {
  StageScope scope(kId);
  ArtifactKey key{kId, in.corpus->content_hash, classify_config_hash(in.opts)};
  std::string doc;
  Out out;
  if (in.store != nullptr && in.store->lookup(key, &doc) &&
      decode_classify(doc, &out)) {
    out.cache_hit = true;
    return out;
  }
  analysis::FilterClassifier fc(in.opts);
  out.filters = fc.classify_all(in.corpus->ex, in.jobs);
  out.filters_executed = fc.filters_executed();
  out.sat_queries = fc.sat_queries();
  out.memo_hits = fc.memo_hits();
  if (in.store != nullptr) in.store->store(key, encode_classify(out));
  return out;
}

CoverageXrefStage::Out CoverageXrefStage::run(const In& in) {
  StageScope scope(kId);
  return analysis::CoverageXref::compute(*in.ex, *in.filters, in.tracer, in.proc);
}

ApiFuzzStage::Out ApiFuzzStage::run(const In& in) {
  StageScope scope(kId);
  ArtifactKey key{kId, api_surface_hash(*in.kernel),
                  Hasher().u64v(static_cast<u64>(in.probes_per_arg)).digest()};
  std::string doc;
  Out out;
  if (in.store != nullptr && in.store->lookup(key, &doc) &&
      decode_api_fuzz(doc, &out.result)) {
    out.cache_hit = true;
    return out;
  }
  analysis::ApiFuzzer fuzzer(in.probes_per_arg);
  out.result = fuzzer.fuzz_all(*in.kernel, in.jobs);
  if (in.store != nullptr) in.store->store(key, encode_api_fuzz(out.result));
  return out;
}

CallSiteTraceStage::Out CallSiteTraceStage::run(const In& in) {
  StageScope scope(kId);
  return analysis::ApiCallSiteTracer::analyze(*in.tracer, *in.crash_resistant,
                                              *in.kernel, *in.proc,
                                              in.script_module_needle);
}

std::string ReportStage::table1(
    const std::vector<std::string>& servers,
    const std::map<std::string, analysis::SyscallScanResult>& results) {
  StageScope scope(kId);
  return analysis::render_table1(servers, results);
}

std::string ReportStage::table2(const std::vector<analysis::ModuleSehStats>& stats) {
  StageScope scope(kId);
  return analysis::render_table2(stats);
}

std::string ReportStage::table3(const std::vector<analysis::ModuleSehStats>& x64,
                                const std::vector<analysis::ModuleSehStats>& x32) {
  StageScope scope(kId);
  return analysis::render_table3(x64, x32);
}

std::string ReportStage::api_funnel(const analysis::ApiFunnel& funnel) {
  StageScope scope(kId);
  return analysis::render_api_funnel(funnel);
}

std::string ReportStage::candidates(const std::vector<analysis::Candidate>& cands) {
  StageScope scope(kId);
  return analysis::render_candidates(cands);
}

}  // namespace crp::pipeline
