#include "analysis/syscall_scanner.h"

#include <memory>
#include <unordered_map>

#include "obs/prof.h"
#include "taint/taint.h"
#include "util/log.h"

namespace crp::analysis {

namespace {

/// Per-process taint engines, created lazily as worker processes appear.
class TaintFarm : public os::KernelObserver {
 public:
  explicit TaintFarm(os::Kernel& k) : k_(k) { k_.add_observer(this); }
  ~TaintFarm() override { k_.remove_observer(this); }

  void on_process_created(os::Process& p) override { attach(p); }

  void attach(os::Process& p) {
    if (!stopped_ && !engines_.contains(p.pid()))
      engines_.emplace(p.pid(), std::make_unique<taint::TaintEngine>(k_, p));
  }

  /// Stop tracking for the rest of the run: every engine stops propagating
  /// (interpreter and translated traces alike) and processes created from
  /// now on get none. Taint is shadow state only, so guest execution is
  /// unchanged.
  void stop() {
    stopped_ = true;
    for (auto& [pid, eng] : engines_) eng->set_enabled(false);
  }

  taint::TaintEngine* engine(int pid) {
    auto it = engines_.find(pid);
    return it == engines_.end() ? nullptr : it->second.get();
  }

 private:
  os::Kernel& k_;
  std::unordered_map<int, std::unique_ptr<taint::TaintEngine>> engines_;
  bool stopped_ = false;
};

/// Discovery observer: records EFAULT-capable syscalls and taint on their
/// pointer arguments.
class DiscoverHook : public os::KernelObserver {
 public:
  DiscoverHook(os::Kernel& k, TaintFarm& farm, const std::string& target_name)
      : k_(k), farm_(farm), target_(target_name) {
    k_.add_observer(this);
  }
  ~DiscoverHook() override { k_.remove_observer(this); }

  void on_syscall_enter(os::Process& p, os::Thread& t, os::Sys nr, u64* args) override {
    (void)t;
    ++traced_;
    const auto& efault_set = os::efault_capable_syscalls();
    bool capable = false;
    for (os::Sys s : efault_set) capable |= s == nr;
    if (!capable) return;
    observed_.insert(nr);

    taint::TaintEngine* eng = farm_.engine(p.pid());
    for (int slot : os::pointer_args(nr)) {
      gva_t ptr = args[slot - 1 + 0];
      if (ptr == 0) continue;  // optional pointers (accept addr_out)
      auto key = std::make_pair(nr, slot);
      auto it = found_.find(key);
      taint::Mask mask =
          eng != nullptr ? eng->reg_taint(static_cast<isa::Reg>(slot)) : 0;
      std::optional<gva_t> home =
          eng != nullptr ? eng->reg_provenance(static_cast<isa::Reg>(slot)) : std::nullopt;
      bool ctrl_home = false;
      if (home.has_value()) {
        // Attacker-controllable home: writable, mapped, and not a stack slot
        // (short-lived stack values mirror the paper's §V-B exclusion).
        const auto& machine = p.machine();
        const auto* placement = machine.layout().find(*home);
        bool on_stack =
            placement != nullptr && placement->kind == mem::RegionKind::kStack;
        ctrl_home = !on_stack &&
                    (machine.mem().perms_of(*home) & mem::kPermW) != 0;
      }
      if (it == found_.end()) {
        Candidate c;
        c.cls = PrimitiveClass::kSyscall;
        c.target = target_;
        c.syscall = nr;
        c.pointer_arg = slot;
        c.taint_mask = mask;
        c.pointer_home = home;
        c.controllable_home = ctrl_home;
        found_.emplace(key, c);
      } else {
        it->second.taint_mask |= mask;
        if (!it->second.pointer_home.has_value()) {
          it->second.pointer_home = home;
          it->second.controllable_home = ctrl_home;
        }
      }
    }
  }

  std::vector<Candidate> candidates() const {
    std::vector<Candidate> out;
    for (const auto& [_, c] : found_) out.push_back(c);
    return out;
  }
  const std::set<os::Sys>& observed() const { return observed_; }
  u64 traced() const { return traced_; }

 private:
  os::Kernel& k_;
  TaintFarm& farm_;
  std::string target_;
  std::map<std::pair<os::Sys, int>, Candidate> found_;
  std::set<os::Sys> observed_;
  u64 traced_ = 0;
};

/// Verification observer: corrupts the pointer argument (and its memory
/// home) of the candidate syscall, once. Provenance matters only up to
/// that moment, so firing also stops the run's taint tracking.
///
/// Addresses recorded during discovery belong to a different ASLR
/// instantiation, so the hook re-derives the pointer's provenance *live*
/// from this run's taint engines and fires only at a call site matching the
/// candidate's controllability profile (a heap/global-resident pointer for
/// controllable candidates; any site otherwise).
class CorruptHook : public os::KernelObserver {
 public:
  CorruptHook(os::Kernel& k, TaintFarm& farm, const Candidate& cand, gva_t poison)
      : k_(k), farm_(farm), cand_(cand), poison_(poison) {
    k_.add_observer(this);
  }
  ~CorruptHook() override { k_.remove_observer(this); }

  void on_syscall_enter(os::Process& p, os::Thread& t, os::Sys nr, u64* args) override {
    if (fired_ || nr != cand_.syscall) return;
    int slot = cand_.pointer_arg;
    if (args[slot - 1] == 0) return;

    taint::TaintEngine* eng = farm_.engine(p.pid());
    std::optional<gva_t> live_home =
        eng != nullptr ? eng->reg_provenance(static_cast<isa::Reg>(slot)) : std::nullopt;
    bool live_ctrl = false;
    if (live_home.has_value()) {
      const auto* placement = p.machine().layout().find(*live_home);
      bool on_stack = placement != nullptr && placement->kind == mem::RegionKind::kStack;
      live_ctrl =
          !on_stack && (p.machine().mem().perms_of(*live_home) & mem::kPermW) != 0;
    }
    bool live_taint =
        eng != nullptr && eng->reg_taint(static_cast<isa::Reg>(slot)) != 0;
    if ((cand_.controllable_home || cand_.taint_mask != 0) && !live_ctrl && !live_taint)
      return;  // wait for a call site the attacker could actually steer

    fired_ = true;
    // Corrupt the register argument (what the kernel will use now)...
    args[slot - 1] = poison_;
    t.cpu.regs[static_cast<size_t>(slot)] = poison_;
    // ...and the live memory home, so the program's own later loads of the
    // same pointer observe the corruption (out-of-fragment dereferences
    // crash honestly).
    if (live_home.has_value()) p.machine().mem().poke_u64(*live_home, poison_);
    farm_.stop();
  }

  void on_syscall_exit(os::Process& p, os::Thread& t, os::Sys nr, const u64* args,
                       i64 ret) override {
    (void)p;
    (void)t;
    (void)args;
    if (fired_ && !result_seen_ && nr == cand_.syscall) {
      result_seen_ = true;
      efault_returned_ = ret == -os::kEFAULT;
    }
  }

  bool fired() const { return fired_; }
  bool efault_returned() const { return efault_returned_; }

 private:
  os::Kernel& k_;
  TaintFarm& farm_;
  const Candidate& cand_;
  gva_t poison_;
  bool fired_ = false;
  bool result_seen_ = false;
  bool efault_returned_ = false;
};

/// An address guaranteed unmapped in every run: high in the user range,
/// far from any ASLR slide window.
constexpr gva_t kPoison = 0x0000'6f00'dead'0000ull;

}  // namespace

SyscallScanner::SyscallScanner(const TargetProgram& target, SyscallScanOptions opts)
    : target_(target), opts_(opts) {}

SyscallScanResult SyscallScanner::discover() {
  // The whole discovery run executes under byte-granular taint tracking;
  // tag its virtual-time samples so the heat table separates taint-traced
  // interpretation from plain execution.
  obs::ScopedProfFlags prof_flags(obs::kProfTaint);
  os::Kernel k;
  TaintFarm farm(k);
  DiscoverHook hook(k, farm, target_.name);
  int pid = target_.instantiate(k, opts_.seed);
  farm.attach(k.proc(pid));
  if (target_.workload) target_.workload(k, pid);
  k.run(opts_.discover_budget);

  SyscallScanResult res;
  res.candidates = hook.candidates();
  res.observed = hook.observed();
  res.syscalls_traced = hook.traced();
  res.instructions = k.total_instret();
  return res;
}

void SyscallScanner::verify(Candidate& cand) {
  os::Kernel k;
  TaintFarm farm(k);
  CorruptHook hook(k, farm, cand, kPoison);
  int pid = target_.instantiate(k, opts_.seed + 7);
  farm.attach(k.proc(pid));
  if (target_.workload) target_.workload(k, pid);
  k.run(opts_.verify_budget);

  if (!hook.fired()) {
    cand.verdict = Verdict::kUntested;
    cand.note = "candidate syscall not reached during verification run";
    return;
  }

  // Did anything crash?
  bool crashed = false;
  for (int p : k.pids()) {
    const os::Process* proc = k.find_proc(p);
    if (proc != nullptr && proc->exit_info().crashed) crashed = true;
  }
  if (crashed) {
    cand.verdict = Verdict::kCrashes;
    cand.note = "pointer corruption crashed the process";
    return;
  }

  if (cand.taint_mask == 0 && !cand.controllable_home) {
    cand.verdict = Verdict::kNotControllable;
    cand.note = hook.efault_returned()
                    ? "survives EFAULT but the attacker cannot steer the pointer"
                    : "pointer not attacker-steerable";
    return;
  }

  if (opts_.check_service_liveness && target_.service_alive &&
      !target_.service_alive(k, pid)) {
    cand.verdict = Verdict::kFalsePositive;
    cand.note = "process survives but stops serving new connections";
    return;
  }

  cand.verdict = Verdict::kUsable;
  cand.note = hook.efault_returned() ? "EFAULT observed; service healthy"
                                     : "survives; service healthy";
}

}  // namespace crp::analysis
