// Command-line front-end of the compiler, factored as a library function so
// tests can drive it in-process.
//
// Commands:
//   compile --spec <spec.json> --out <dir> [--tech <file.techlib>]
//       Full pipeline; writes report.json, front.txt and, per selected
//       design, <module>.v / <module>.def according to the spec.
//   explore --wstore <n> --precision <name> [--sparsity <f>] [--supply <v>]
//           [--seed <n>] [--population <n>] [--generations <n>]
//       DSE only; prints the Pareto front summary to stdout.
//   precisions
//       List supported precision names.
//   techlib
//       Print the default TSMC28-like technology file.
#pragma once

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "cost/eval_config.h"
#include "util/json.h"

namespace sega {

class CostCache;

/// Dependency-injection points for an embedding host — the `sega_dcim
/// serve` daemon (serve/server.h), which keeps the technology and warm
/// evaluation caches resident across requests.  Default-constructed hooks
/// leave every command's behavior identical to plain run_cli; set hooks
/// only redirect *where* evaluation state lives, never what any command
/// outputs — daemon and in-process runs are byte-identical by construction
/// because they execute the same code path.
struct CliHooks {
  /// Resident technology.  When set, commands use it instead of loading
  /// the default, and --tech is rejected — a per-request technology would
  /// not match the host's shared caches.
  const Technology* tech = nullptr;

  /// Shared warm evaluation cache for an evaluation config; may return null
  /// (the command then builds its own — which is also how a bad artifact
  /// path surfaces its diagnostic).  The host keys its registry by the
  /// resolved config (EvalConfig::identity): configs resolving to different
  /// models must never alias, their memo fingerprints differ.
  std::function<CostCache*(const EvalConfig&)> cache_for;

  /// Streaming sink for completed sweep cells (SweepSpec::progress) — the
  /// daemon forwards each record as a progress line to the client.
  std::function<void(const Json&)> sweep_progress;
};

/// Run the CLI.  Returns a process exit code; all output goes to the given
/// streams (stdout/stderr in the real binary).
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

/// run_cli with host hooks — the daemon's dispatch path.
int run_cli_hooked(const std::vector<std::string>& args, std::ostream& out,
                   std::ostream& err, const CliHooks& hooks);

}  // namespace sega
