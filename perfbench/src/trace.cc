#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

// The spans open on this thread, innermost last, tagged with their tracer
// so two tracers never adopt each other's spans as parents.
thread_local std::vector<std::pair<const Tracer*, int64_t>> open_spans;

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    if (!(hi > lo)) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the children's intervals, clipped to ours.
    double covered = 0.0;
    double run_lo = 0.0, run_hi = 0.0;
    bool in_run = false;
    for (const auto& [kid_lo_raw, kid_hi_raw] : kids) {
      const double kid_lo = std::max(kid_lo_raw, lo);
      const double kid_hi = std::min(kid_hi_raw, hi);
      if (!(kid_hi > kid_lo)) continue;
      if (in_run && kid_lo <= run_hi) {
        run_hi = std::max(run_hi, kid_hi);
        continue;
      }
      if (in_run) covered += run_hi - run_lo;
      run_lo = kid_lo;
      run_hi = kid_hi;
      in_run = true;
    }
    if (in_run) covered += run_hi - run_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int64_t Tracer::Begin(const std::string& name, uint64_t query) {
  int64_t parent = -1;
  for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it) {
    if (it->first == this) {
      parent = it->second;
      break;
    }
  }
  Span span;
  span.name = name;
  span.parent = parent;
  span.query = query;
  int64_t index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [slot, inserted] = thread_ids_.emplace(
        std::this_thread::get_id(), static_cast<uint32_t>(thread_ids_.size()));
    (void)inserted;
    span.thread = slot->second;
    span.start = Now();
    index = static_cast<int64_t>(spans_.size());
    spans_.push_back(std::move(span));
  }
  open_spans.emplace_back(this, index);
  return index;
}

void Tracer::End(int64_t index) {
  const double now = Now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(index)].end = now;
  }
  for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it) {
    if (it->first == this && it->second == index) {
      open_spans.erase(std::next(it).base());
      break;
    }
  }
}

double Tracer::Duration(int64_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_[static_cast<size_t>(index)].Duration();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string Tracer::ChromeJson() const {
  const std::vector<Span> all = spans();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (i > 0) out.push_back(',');
    out += "{\"name\":";
    AppendJsonString(s.name, &out);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%lld,"
                  "\"query\":%llu}}",
                  s.thread, s.start * 1e6, std::max(0.0, s.Duration()) * 1e6,
                  i, static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.query));
    out += buf;
  }
  out += "]}\n";
  return out;
}

std::map<std::string, double> Tracer::SelfSecondsByName() const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = SelfTimes(all);
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < all.size(); ++i) by_name[all[i].name] += self[i];
  return by_name;
}

}  // namespace perfbench
