#include "trace.hpp"

#include <cstdio>

namespace perfbench {

namespace {

std::atomic<int> g_next_tid{1};
thread_local int t_tid = 0;
thread_local std::vector<uint64_t> t_open;  // ids of this thread's open spans

int thread_id() {
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1);
  return t_tid;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::finish(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(record));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string Tracer::chrome_json() const {
  const std::vector<SpanRecord> all = spans();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char num[160];
  for (size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& r = all[i];
    std::snprintf(num, sizeof num,
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu",
                  r.tid, r.start_us, r.dur_us,
                  static_cast<unsigned long long>(r.id),
                  static_cast<unsigned long long>(r.parent));
    out += "{\"name\":\"" + json_escape(r.name) + "\",\"cat\":\"" +
           json_escape(r.layer) + num;
    if (!r.label.empty())
      out += ",\"program\":\"" + json_escape(r.label) + "\"";
    for (const auto& [key, value] : r.args) {
      std::snprintf(num, sizeof num, ",\"%s\":%.17g", json_escape(key).c_str(),
                    value);
      out += num;
    }
    out += i + 1 < all.size() ? "}},\n" : "}}\n";
  }
  return out + "]}\n";
}

Span::Span(Tracer& tracer, const char* layer, const char* name)
    : tracer_(tracer), active_(tracer.enabled()) {
  if (!active_) return;
  record_.name = name;
  record_.layer = layer;
  record_.id = tracer_.next_id_.fetch_add(1);
  record_.parent = t_open.empty() ? 0 : t_open.back();
  record_.tid = thread_id();
  t_open.push_back(record_.id);
  record_.start_us = tracer_.now_us();
}

void Span::end() {
  if (!active_) return;
  active_ = false;
  record_.dur_us = tracer_.now_us() - record_.start_us;
  if (!t_open.empty() && t_open.back() == record_.id) t_open.pop_back();
  tracer_.finish(std::move(record_));
}

Span::~Span() { end(); }

}  // namespace perfbench
