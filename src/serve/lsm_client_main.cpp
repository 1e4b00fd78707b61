// lsm_serve_client: one-shot client for the lsm_serve daemon, used by
// scripts/check.sh and handy for manual poking.
//
//   ./lsm_serve_client --socket=PATH sweep --id=r1 --model=simple
//       --lambdas=0.5,0.7,0.9 [--<param>=value] [--tail-limit=N]
//       [--no-warm] [--max-evals=N] [--max-seconds=S]
//   ./lsm_serve_client --socket=PATH estimate --id=r1 --model=... --lambdas=0.9
//   ./lsm_serve_client --socket=PATH status | cancel --target=r1 | shutdown
//   ./lsm_serve_client --socket=PATH raw --line='{"verb":"status"}'
//
// Every response line is echoed to stdout. Exit 0 when the request ends
// in "done" (or a single-line verb answered), 1 on error/rejected/
// timeout, 2 when the sweep finished but some points failed. --lambda is
// reserved (a likely typo for --lambdas) and rejected before connecting.
#include <iostream>
#include <sstream>

#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "util/cli.hpp"
#include "util/failure.hpp"
#include "util/json.hpp"

namespace {

const char* kUsage =
    "usage: lsm_serve_client --socket=PATH "
    "<sweep|estimate|status|cancel|shutdown|raw> [flags]\n";

/// Flags consumed by the client itself; everything else is forwarded to
/// the daemon as a model parameter.
bool own_flag(const std::string& key) {
  return key == "socket" || key == "id" || key == "model" ||
         key == "lambdas" || key == "tail-limit" || key == "warm" ||
         key == "no-warm" || key == "max-evals" || key == "max-seconds" ||
         key == "target" || key == "line" || key == "timeout" ||
         key == "help";
}

std::vector<double> parse_lambdas(const std::string& csv) {
  std::vector<double> out;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(std::stod(tok));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const lsm::util::Args args(argc, argv);
  if (args.flag("help") || args.positional().empty()) {
    std::cout << kUsage;
    return args.flag("help") ? 0 : 1;
  }
  const std::string verb = args.positional().front();
  const std::string socket =
      args.get("socket", std::string("/tmp/lsm-serve.sock"));
  const double timeout = args.get("timeout", 60.0);
  if (args.has("lambda")) {
    std::cerr << "lsm_serve_client: --lambda is not a model parameter; "
                 "use --lambdas\n";
    return 1;
  }

  try {
    auto client = lsm::serve::Client::connect(socket, timeout);

    if (verb == "raw") {
      client.send_raw(args.get("line", std::string()) + "\n");
      const auto line = client.read_line(timeout);
      std::cout << line.dump() << "\n";
      return line.contains("type") &&
                     line.at("type").as_string() == "error"
                 ? 1
                 : 0;
    }

    auto req = lsm::util::Json::object();
    req["verb"] = verb;
    const std::string id = args.get("id", std::string("cli"));
    req["id"] = id;

    if (verb == "sweep" || verb == "estimate") {
      req["model"] = args.get("model", std::string());
      auto grid = lsm::util::Json::array();
      for (const double l :
           parse_lambdas(args.get("lambdas", std::string()))) {
        grid.push_back(l);
      }
      req["lambdas"] = std::move(grid);
      if (args.has("tail-limit")) {
        req["tail_limit"] = args.get("tail-limit", 0L);
      }
      if (args.flag("no-warm")) req["warm"] = false;
      if (args.has("max-evals") || args.has("max-seconds")) {
        auto budget = lsm::util::Json::object();
        if (args.has("max-evals")) {
          budget["max_rhs_evals"] = args.get("max-evals", 0L);
        }
        if (args.has("max-seconds")) {
          budget["max_wall_seconds"] = args.get("max-seconds", 0.0);
        }
        req["budget"] = std::move(budget);
      }
      auto params = lsm::util::Json::object();
      for (const auto& key : args.keys()) {
        if (own_flag(key)) continue;
        const std::string text = args.get(key, std::string());
        // Numeric-looking values go over the wire as numbers; anything
        // else (service distribution specs like "hyperexp:...") as text.
        try {
          std::size_t used = 0;
          const double v = std::stod(text, &used);
          if (used == text.size()) {
            params[key] = v;
            continue;
          }
        } catch (const std::exception&) {
        }
        params[key] = text;
      }
      if (params.size() > 0) req["params"] = std::move(params);

      client.send(req);
      const auto lines = client.collect(id, timeout);
      for (const auto& line : lines) std::cout << line.dump() << "\n";
      const auto& last = lines.back();
      if (last.at("type").as_string() != "done") return 1;
      return last.at("failed").as_int() > 0 ? 2 : 0;
    }

    if (verb == "cancel") req["target"] = args.get("target", std::string());
    if (verb != "status" && verb != "cancel" && verb != "shutdown") {
      std::cerr << kUsage;
      return 1;
    }
    client.send(req);
    const auto line = client.read_line(timeout);
    std::cout << line.dump() << "\n";
    return line.contains("type") && line.at("type").as_string() == "error"
               ? 1
               : 0;
  } catch (const std::exception& e) {
    std::cerr << "lsm_serve_client: " << e.what() << "\n";
    return 1;
  }
}
