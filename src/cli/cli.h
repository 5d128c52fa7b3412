#ifndef KOSR_CLI_CLI_H_
#define KOSR_CLI_CLI_H_

#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace kosr::cli {

/// Parsed command line: one subcommand plus --key value flags.
struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  std::optional<std::string> Get(const std::string& key) const;
  std::string GetOr(const std::string& key, const std::string& fallback) const;
  /// Returns the flag parsed as int64, or throws std::invalid_argument with
  /// a helpful message if absent/malformed.
  long long GetInt(const std::string& key) const;
  long long GetIntOr(const std::string& key, long long fallback) const;
};

/// Parses ["subcommand", "--key", "value", ...]. Flags must be --key value
/// pairs; bare "--key" with no value or unknown syntax throws
/// std::invalid_argument.
Args ParseArgs(const std::vector<std::string>& argv);

/// Parses a comma-separated category sequence, e.g. "3,1,4".
std::vector<uint32_t> ParseSequence(const std::string& text);

/// Runs a CLI invocation, writing human-readable output to `out` and (for
/// the `serve` subcommand) reading protocol requests from `in`.
/// Returns a process exit code (0 success, 1 usage error, 2 runtime error).
///
/// Subcommands:
///   generate     synthesize a graph + categories to files
///   stats        print graph/category statistics
///   build-index  build hub-label indexes and persist them (plain disk
///                store layout and/or a bulk snapshot for
///                `serve --indexes`)
///   query        answer a KOSR query (optionally from a prebuilt store)
///   serve        long-lived query service speaking the newline protocol
///                of src/service/protocol.h over in/out
///   help         usage text
int RunCli(const std::vector<std::string>& argv, std::istream& in,
           std::ostream& out);

/// Convenience overload: `serve` reads from std::cin.
int RunCli(const std::vector<std::string>& argv, std::ostream& out);

}  // namespace kosr::cli

#endif  // KOSR_CLI_CLI_H_
