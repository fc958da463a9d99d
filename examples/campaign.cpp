// Whole-corpus campaign: run EVERY registered discovery subject through the
// class-appropriate funnel in one invocation — the end-to-end entry point
// the staged pipeline layer exists for.
//
//   linux-server     taint trace -> syscall candidates -> verify
//   managed-runtime  run -> signal-handler scan (ucontext-editing SIGSEGV)
//   browser          browse under trace -> SEH extract -> classify -> xref
//                    (+ VEH harvest for runtime-registered handlers)
//   dll-corpus       SEH extract -> classify (static only)
//   api-corpus       invalid-pointer fuzz -> traced call-site reduction
//
// Build & run:  ./build/examples/campaign
// Repeated runs with CRP_CACHE_DIR set are answered from the
// content-addressed ArtifactStore ([cached] below); CRP_CACHE=0 bypasses.
// CRP_PLAN=1 appends the exploit-plan epilogue to every funnel: synthesize
// an ExploitPlan from the verified evidence, replay it against a fresh
// target instance, and print the plan/replay lines per target.

#include <cstdio>
#include <cstdlib>

#include "obs/ledger.h"
#include "obs/obs.h"
#include "obs/serve.h"
#include "pipeline/campaign.h"

int main() {
  using namespace crp;

  printf("CRProbe campaign — every registered target, one pipeline\n");
  printf("=========================================================\n\n");

  // CRP_OBS_SERVE=port exposes live progress (watch with tools/crptop).
  obs::serve::maybe_start_from_env();

  pipeline::TargetRegistry reg = pipeline::TargetRegistry::builtin();
  pipeline::CampaignOptions copts;
  if (const char* p = std::getenv("CRP_PLAN"); p != nullptr && *p == '1')
    copts.plan = true;
  pipeline::Campaign campaign(copts);

  // The whole registry as one task graph on the shared exec pool (DESIGN.md
  // §10); reports come back in registration order.
  int total_primitives = 0;
  for (const pipeline::TargetReport& rep : campaign.run_all(reg)) {
    printf("%s", pipeline::render_report(rep).c_str());
    total_primitives += rep.usable;
  }

  const pipeline::ArtifactStore& store = pipeline::ArtifactStore::global();
  printf("=========================================================\n");
  printf("%zu targets, %d crash-resistant primitives / recovery sites\n",
         reg.all().size(), total_primitives);
  printf("artifact cache: %llu hits, %llu misses, %llu stores\n",
         static_cast<unsigned long long>(store.hits()),
         static_cast<unsigned long long>(store.misses()),
         static_cast<unsigned long long>(store.stores()));

  // With a flight-recorder sink requested, machine-check the ledger before
  // exit: the zero-crash invariant per primitive plus the ledger/counter
  // cross-check. A FAIL here is a real bug, so it fails the process (CI
  // asserts on both the exit code and the PASS line).
  if (const char* p = std::getenv("CRP_LEDGER"); p != nullptr && *p != '\0') {
    obs::LedgerAudit audit =
        obs::audit_ledger(obs::Ledger::global(), &obs::Registry::global());
    printf("%s\n", audit.summary().c_str());
    if (!audit.ok()) return 1;
  }
  return 0;
}
