#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <thread>
#include <utility>

#include "util/error.hpp"
#include "util/json.hpp"

namespace perfbench {

std::uint32_t Tracer::thread_index() {
  // Caller holds mu_.
  const auto h = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const auto [it, inserted] =
      tids_.emplace(h, static_cast<std::uint32_t>(tids_.size() + 1));
  return it->second;
}

std::uint64_t Tracer::reserve_id() {
  if (!enabled_) return 0;
  const std::lock_guard lock(mu_);
  return next_id_++;
}

void Tracer::record_reserved(std::uint64_t id, std::string name,
                             std::string layer, Clock::time_point start,
                             Clock::time_point end, std::uint64_t parent,
                             std::uint64_t request) {
  if (!enabled_) return;
  Span s{std::move(name), std::move(layer), us(start), us(end), id, parent,
         request, 0};
  const std::lock_guard lock(mu_);
  s.tid = thread_index();
  spans_.push_back(std::move(s));
}

std::uint64_t Tracer::record_us(std::string name, std::string layer,
                                double start_us, double end_us,
                                std::uint64_t parent, std::uint64_t request) {
  if (!enabled_) return 0;
  const std::lock_guard lock(mu_);
  const std::uint64_t id = next_id_++;
  spans_.push_back(Span{std::move(name), std::move(layer), start_us, end_us,
                        id, parent, request, thread_index()});
  return id;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  const auto all = spans();
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const auto& s : all) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_us, s.end_us);
  }
  std::map<std::string, double> self;
  for (const auto& s : all) {
    double covered = 0.0;
    if (const auto it = children.find(s.id); it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      double lo = s.start_us, hi = s.start_us;  // current merged run
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_us);
        b = std::min(b, s.end_us);
        if (b <= a) continue;
        if (a > hi) {
          covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      covered += hi - lo;
    }
    self[s.layer] += std::max(0.0, (s.end_us - s.start_us) - covered) / 1e3;
  }
  return self;
}

void Tracer::write_chrome(const std::string& path) const {
  auto events = lsm::util::Json::array();
  for (const auto& s : spans()) {
    auto e = lsm::util::Json::object();
    e["name"] = s.name;
    e["cat"] = s.layer;
    e["ph"] = "X";
    e["ts"] = s.start_us;
    e["dur"] = std::max(0.0, s.end_us - s.start_us);
    e["pid"] = 1;
    e["tid"] = s.tid;
    auto args = lsm::util::Json::object();
    args["id"] = s.id;
    args["parent"] = s.parent;
    args["request"] = s.request;
    e["args"] = std::move(args);
    events.push_back(std::move(e));
  }
  auto doc = lsm::util::Json::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  std::ofstream out(path);
  out << doc.dump() << "\n";
  if (!out) throw lsm::util::Error("cannot write trace file " + path);
}

}  // namespace perfbench
