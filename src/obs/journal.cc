#include "obs/journal.h"

#include <algorithm>
#include <vector>

#include "obs/obs.h"

namespace crp::obs {

namespace {
thread_local u32 t_journal_lane = 0;
thread_local std::string t_journal_subject;
}  // namespace

u32 journal_thread_lane() { return t_journal_lane; }
void set_journal_thread_lane(u32 lane) { t_journal_lane = lane; }

const std::string& journal_subject() { return t_journal_subject; }
void set_journal_subject(std::string subject) { t_journal_subject = std::move(subject); }

void Journal::span(const std::string& name, const std::string& cat, u64 ts_us, u64 dur_us,
                   u32 tid, const std::string& arg_name, i64 arg,
                   const std::string& subject) {
  emit({name, cat, 'X', ts_us, dur_us, tid, arg_name, arg, subject});
}

void Journal::instant(const std::string& name, const std::string& cat, u64 ts_us, u32 tid,
                      const std::string& arg_name, i64 arg) {
  emit({name, cat, 'i', ts_us, 0, tid, arg_name, arg, {}});
}

void Journal::emit(TraceEvent ev) {
  if (!detail::recording()) return;
  if (ev.tid == 0) ev.tid = t_journal_lane;
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() >= capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
  ring_.push_back(std::move(ev));
}

size_t Journal::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

u64 Journal::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void Journal::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  dropped_ = 0;
}

std::vector<TraceEvent> Journal::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<TraceEvent>(ring_.begin(), ring_.end());
}

namespace {
std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}
}  // namespace

std::string Journal::chrome_trace_json() const {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    events.assign(ring_.begin(), ring_.end());
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.ts_us < b.ts_us; });
  std::string out = "[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out += ",";
    first = false;
    out += strf("\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"ts\":%llu,\"pid\":1,"
                "\"tid\":%u",
                escape(e.name).c_str(), escape(e.cat).c_str(), e.phase,
                static_cast<unsigned long long>(e.ts_us), e.tid);
    if (e.phase == 'X') out += strf(",\"dur\":%llu", static_cast<unsigned long long>(e.dur_us));
    if (e.phase == 'i') out += ",\"s\":\"g\"";
    if (!e.arg_name.empty() || !e.subject.empty()) {
      out += ",\"args\":{";
      if (!e.arg_name.empty())
        out += strf("\"%s\":%lld", escape(e.arg_name).c_str(),
                    static_cast<long long>(e.arg));
      if (!e.subject.empty())
        out += strf("%s\"subject\":\"%s\"", e.arg_name.empty() ? "" : ",",
                    escape(e.subject).c_str());
      out += "}";
    }
    out += "}";
  }
  out += "\n]";
  return out;
}

Journal& Journal::global() {
  static Journal* g = new Journal();
  return *g;
}

}  // namespace crp::obs
