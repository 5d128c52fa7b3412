// servebench: the native half of the serving benchmark (run.py drives it).
//
//   servebench inputs --kind grid|smallworld ... --dir D   graph + categories
//   servebench load   --port P --plan F --out F ...        open-loop generator
//   servebench stub   --delay-ms D                         fixed-delay server
//   servebench check  --graph F --categories F ...         answer oracle
//   servebench trace  --graph F --categories F ...         traced replay
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "servebench/common.h"

namespace servebench {

Plan ReadPlan(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  Plan plan;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      auto pos = line.find("conns=");
      if (pos != std::string::npos) plan.conns = std::stoi(line.substr(pos + 6));
      continue;
    }
    std::istringstream ls(line);
    PlanOp op;
    if (!(ls >> op.due_us >> op.conn >> op.kind >> op.idx)) {
      throw std::runtime_error("bad plan line: " + line);
    }
    std::getline(ls >> std::ws, op.line);
    if (op.conn < 0 || op.conn >= plan.conns) {
      throw std::runtime_error("plan connection out of range: " + line);
    }
    plan.ops.push_back(std::move(op));
  }
  return plan;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

}  // namespace servebench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: servebench inputs|load|stub|check|trace ...\n");
    return 1;
  }
  const std::string cmd = argv[1];
  try {
    const servebench::Flags flags =
        kosr::cli::ParseArgs(std::vector<std::string>(argv + 1, argv + argc));
    if (cmd == "inputs") return servebench::CmdInputs(flags);
    if (cmd == "load") return servebench::CmdLoad(flags);
    if (cmd == "stub") return servebench::CmdStub(flags);
    if (cmd == "check") return servebench::CmdCheck(flags);
    if (cmd == "trace") return servebench::CmdTrace(flags);
    std::fprintf(stderr, "servebench: unknown subcommand %s\n", cmd.c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench %s: %s\n", cmd.c_str(), e.what());
    return 2;
  }
}
