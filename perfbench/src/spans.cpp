#include "spans.hpp"

#include <cstdio>
#include <stdexcept>

#include "obs/obs.hpp"

namespace perfbench {

namespace {

void add_timers(const fdks::obs::TraceNode& node,
                std::map<std::string, double>& out) {
  for (const auto& c : node.children) {
    out["timer:" + c.name] += c.seconds;
    add_timers(c, out);
  }
}

// obs counters plus every obs timer's total seconds (as "timer:<name>").
std::map<std::string, double> counters_now() {
  fdks::obs::Snapshot snap = fdks::obs::snapshot();
  add_timers(snap.root, snap.counters);
  return std::move(snap.counters);
}

// Length of the union of [a, b) intervals.
double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, lo = 0.0, hi = -1.0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (!open || a > hi) {
      if (open) total += hi - lo;
      lo = a;
      hi = b;
      open = true;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (open) total += hi - lo;
  return total;
}

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

Tracer& tracer() {
  static Tracer t;
  return t;
}

void Tracer::start() {
  if (on_) return;
  fdks::obs::set_enabled(true);
  fdks::obs::reset();
  epoch_ = Clock::now();
  on_ = true;
}

void Tracer::stop() { fdks::obs::set_enabled(false); }

int Tracer::open(const std::string& name, bool counters, long long request) {
  Span s;
  s.name = name;
  s.parent = current();
  s.request = request;
  const int id = static_cast<int>(spans_.size());
  base_.emplace_back();
  if (counters) base_.back() = counters_now();
  s.t0 = at(Clock::now());
  spans_.push_back(std::move(s));
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (stack_.empty() || stack_.back() != id)
    throw std::logic_error("perfbench: spans must close in LIFO order");
  stack_.pop_back();
  Span& s = spans_[static_cast<size_t>(id)];
  s.t1 = at(Clock::now());
  auto& base = base_[static_cast<size_t>(id)];
  if (base) {
    for (const auto& [k, v] : counters_now()) {
      const auto it = base->find(k);
      const double d = v - (it == base->end() ? 0.0 : it->second);
      if (d != 0.0) s.delta[k] = d;
    }
    base.reset();
  }
}

void Tracer::add_async(const std::string& name, Clock::time_point t0,
                       Clock::time_point t1, long long request) {
  Span s;
  s.name = name;
  s.t0 = at(t0);
  s.t1 = at(t1);
  s.parent = current();
  s.request = request;
  s.async = true;
  spans_.push_back(std::move(s));
  base_.emplace_back();
}

std::vector<double> Tracer::self_times() const {
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_)
    if (!s.async && s.parent >= 0)
      kids[static_cast<size_t>(s.parent)].emplace_back(s.t0, s.t1);
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].t1 - spans_[i].t0 - union_length(kids[i]);
  return self;
}

double Tracer::coverage(int root) const {
  const std::vector<double> self = self_times();
  const Span& r = spans_[static_cast<size_t>(root)];
  double covered = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].async || static_cast<int>(i) == root) continue;
    int p = spans_[i].parent;
    while (p >= 0 && p != root) p = spans_[static_cast<size_t>(p)].parent;
    if (p == root) covered += self[i];
  }
  const double wall = r.t1 - r.t0;
  return wall > 0.0 ? covered / wall : 0.0;
}

double Tracer::delta_sum(const std::string& span_name,
                         const std::string& counter) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name != span_name) continue;
    const auto it = s.delta.find(counter);
    if (it != s.delta.end()) total += it->second;
  }
  return total;
}

std::vector<double> Tracer::durations(const std::string& span_name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == span_name) out.push_back(s.t1 - s.t0);
  return out;
}

std::string Tracer::to_json() const {
  const std::vector<double> self = self_times();
  std::string out = "[";
  char buf[160];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i) out += ",\n";
    out += "{\"id\":" + std::to_string(i) + ",\"name\":\"";
    append_escaped(out, s.name);
    std::snprintf(buf, sizeof buf,
                  "\",\"start\":%.9f,\"end\":%.9f,\"self\":%.9f,"
                  "\"parent\":%d,\"request\":%lld,\"async\":%s",
                  s.t0, s.t1, self[i], s.parent, s.request,
                  s.async ? "true" : "false");
    out += buf;
    if (!s.delta.empty()) {
      out += ",\"counters\":{";
      bool first = true;
      for (const auto& [k, v] : s.delta) {
        if (!first) out += ",";
        first = false;
        out += "\"";
        append_escaped(out, k);
        std::snprintf(buf, sizeof buf, "\":%.17g", v);
        out += buf;
      }
      out += "}";
    }
    out += "}";
  }
  out += "]";
  return out;
}

}  // namespace perfbench
