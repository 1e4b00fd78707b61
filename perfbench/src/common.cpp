#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace perfbench {

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  auto m = lsm::util::Json::object();
  m["value"] = value;
  m["unit"] = unit;
  metrics[name] = std::move(m);
}

void Result::tail_metric(const std::string& name,
                         const std::vector<double>& ms) {
  tail_metric(name, tail(ms));
}

void Result::tail_metric(const std::string& name, const Tail& t) {
  metric(name, t.value, "ms");
  auto d = lsm::util::Json::object();
  d["percentile"] = t.pct;
  d["samples"] = t.n;
  d["beyond"] = t.beyond;
  details[name] = std::move(d);
}

void Result::counter(const std::string& name, std::uint64_t value) {
  exact[name] = value;
}

void Result::fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
}

namespace {

// A "Vm...:  <n> kB" field of /proc/<pid>/status, in MiB.
double status_mib(int pid, const std::string& field) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      std::istringstream fields(line.substr(field.size()));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  throw lsm::util::Error("no " + field + " in " + path);
}

}  // namespace

double peak_rss_mib(int pid) { return status_mib(pid, "VmHWM:"); }

double rss_mib(int pid) { return status_mib(pid, "VmRSS:"); }

double rel_diff(double a, double b) {
  return std::abs(a - b) / std::max(std::abs(b), 1e-300);
}

void make_dirs(const std::string& path) {
  std::filesystem::create_directories(path);
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
