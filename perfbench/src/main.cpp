// lsmbench: runs one benchmark workload and prints its result as one JSON
// line (the last line of stdout). perfbench/run.py builds this binary,
// adds the host fingerprint and the exact-counter comparison, and prints
// the benchmark's final result line.
//
//   lsmbench --workload=paper-tables|serve-mix|large-n-sim --seed=N
//            --seconds=S --trace=0|1 --workdir=DIR
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <thread>

#include "common.hpp"
#include "util/cli.hpp"

namespace {

using namespace perfbench;

void clean_workdir(const std::string& dir) {
  // Everything but the trace file goes: caches, sockets, artifacts.
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.path().filename() != "trace.json") remove_tree(e.path().string());
  }
  std::filesystem::remove(dir, ec);  // only succeeds when nothing is left
}

}  // namespace

int main(int argc, char** argv) {
  const lsm::util::Args args(argc, argv);
  Options opt;
  opt.workload = args.get("workload", std::string());
  opt.seed = static_cast<std::uint64_t>(args.get("seed", 1L));
  opt.seconds = args.get("seconds", 10.0);
  opt.trace = args.get("trace", 0L) != 0;
  opt.workdir = args.get("workdir", std::string());
  opt.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  if (opt.workdir.empty() || opt.seconds <= 0.0) {
    std::cerr << "lsmbench: --workdir and a positive --seconds are required\n";
    return 2;
  }

  Result res;
  Tracer tracer(opt.trace);
  int rc = 0;
  try {
    make_dirs(opt.workdir);
    Reach reach;
    if (opt.workload == "paper-tables") {
      reach = run_paper_tables(opt, tracer, res);
    } else if (opt.workload == "serve-mix") {
      reach = run_serve_mix(opt, tracer, res);
    } else if (opt.workload == "large-n-sim") {
      reach = run_large_n_sim(opt, tracer, res);
    } else {
      std::cerr << "lsmbench: unknown workload '" << opt.workload << "'\n";
      return 2;
    }
    if (opt.trace) run_probes(opt, reach, tracer, res);
  } catch (const std::exception& e) {
    res.fail(std::string("exception: ") + e.what());
    rc = 1;
  }
  if (opt.trace) {
    make_dirs(opt.workdir);
    const std::string path = opt.workdir + "/trace.json";
    tracer.write_chrome(path);
    res.details["trace_file"] = path;
    res.details["spans"] = tracer.spans().size();
  }

  clean_workdir(opt.workdir);

  auto out = lsm::util::Json::object();
  out["correct"] = res.correct && rc == 0;
  out["attempted"] = res.attempted;
  out["failed"] = res.failed;
  out["metrics"] = res.metrics;
  out["exact"] = res.exact;
  out["details"] = res.details;
  auto errors = lsm::util::Json::array();
  for (const auto& e : res.errors) errors.push_back(e);
  out["errors"] = std::move(errors);
  std::cout << out.dump() << std::endl;
  return res.correct && rc == 0 ? 0 : 1;
}
