// Front-end plumbing shared by the saged command-line tools (saged_cli,
// saged_serve): flag parsing, observability sinks, run-manifest flushing,
// and the builders that turn parsed flags into a SagedConfig /
// DetectionOptions through the shared registry in core/config_flags.h.
// Header-only so the tools stay single-translation-unit.

#ifndef SAGED_TOOLS_CLI_COMMON_H_
#define SAGED_TOOLS_CLI_COMMON_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/run_manifest.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "core/config_flags.h"

namespace saged::cli {

/// Tiny flag parser: --name value pairs after the subcommand.
struct Args {
  std::vector<std::pair<std::string, std::string>> flags;
  std::vector<std::string> positional;

  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    for (const auto& [k, v] : flags) {
      if (k == name) return v;
    }
    return fallback;
  }
  std::vector<std::string> GetAll(const std::string& name) const {
    std::vector<std::string> out;
    for (const auto& [k, v] : flags) {
      if (k == name) out.push_back(v);
    }
    return out;
  }
};

/// saged_serve's pin-all-models switch. It is no registry knob, but like
/// the registry's presence flags it takes no value on a command line.
inline constexpr char kWarmFlag[] = "warm";

/// Parses argv[start..) into flags and positionals. Presence flags (the
/// registry's --stream, saged_serve's --warm) need no value; `--name=value`
/// works for all.
inline Result<Args> ParseArgs(int argc, char** argv, int start) {
  Args args;
  for (int i = start; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      size_t eq = a.find('=');
      if (eq != std::string::npos) {
        args.flags.emplace_back(a.substr(2, eq - 2), a.substr(eq + 1));
        continue;
      }
      std::string name = a.substr(2);
      if (core::IsSagedPresenceFlag(name) || name == kWarmFlag) {
        args.flags.emplace_back(name, "1");
        continue;
      }
      if (i + 1 >= argc) {
        return Status::InvalidArgument("flag " + a + " needs a value");
      }
      args.flags.emplace_back(name, argv[++i]);
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

inline int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// The argv the process was started with, space-joined (recorded in the
/// run manifest). Set once in main via SetCommandLine.
inline std::string& CommandLine() {
  static std::string* line = new std::string;
  return *line;
}

inline void SetCommandLine(int argc, char** argv) {
  std::string& line = CommandLine();
  for (int i = 0; i < argc; ++i) {
    if (i) line += ' ';
    line += argv[i];
  }
}

/// Observability sinks requested on the command line. Construct before the
/// instrumented work runs (switches telemetry / trace capture on), flush
/// after.
struct Observability {
  std::string telemetry_path;  // --telemetry-out
  std::string trace_path;      // --trace-out
  std::string runs_dir;        // --runs-dir; empty = ledger disabled
};

inline Observability ObsFromArgs(const Args& args) {
  Observability obs;
  obs.telemetry_path = args.Get("telemetry-out");
  obs.trace_path = args.Get("trace-out");
  obs.runs_dir = args.Get("runs-dir", "runs");
  if (obs.runs_dir == "none") obs.runs_dir.clear();
  if (!obs.telemetry_path.empty() || !obs.trace_path.empty()) {
    telemetry::SetEnabled(true);
  }
  if (!obs.trace_path.empty()) telemetry::SetTraceEventsEnabled(true);
  return obs;
}

inline std::string HexHash(uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Writes the requested telemetry / trace dumps and appends the run
/// manifest to the ledger. Returns the command's exit code.
inline int FlushObservability(const Observability& obs, RunManifest manifest) {
  if (!obs.telemetry_path.empty()) {
    auto& registry = telemetry::TelemetryRegistry::Get();
    if (auto s = registry.DumpJsonToFile(obs.telemetry_path); !s.ok()) {
      return Fail(s);
    }
    std::printf("wrote telemetry to %s\n", obs.telemetry_path.c_str());
    manifest.extra["telemetry_out"] = obs.telemetry_path;
  }
  if (!obs.trace_path.empty()) {
    if (auto s = telemetry::WriteChromeTrace(obs.trace_path); !s.ok()) {
      return Fail(s);
    }
    std::printf("wrote Chrome trace to %s\n", obs.trace_path.c_str());
    manifest.extra["trace_out"] = obs.trace_path;
  }
  if (!obs.runs_dir.empty()) {
    manifest.command_line = CommandLine();
    manifest.peak_rss_bytes = telemetry::PeakRssBytes();
    if (auto s = AppendRunManifest(obs.runs_dir, manifest); !s.ok()) {
      return Fail(s);
    }
  }
  return 0;
}

/// Builds the run's SagedConfig from whichever registered config knobs the
/// command line carries, then validates the result once.
inline Result<core::SagedConfig> ConfigFromArgs(const Args& args) {
  core::SagedConfig config;
  for (const auto& [name, value] : args.flags) {
    if (!core::IsSagedConfigFlag(name)) continue;  // command-specific flag
    SAGED_RETURN_NOT_OK(core::ApplySagedFlag(name, value, &config));
  }
  SAGED_RETURN_NOT_OK(config.Validate());
  return config;
}

/// Builds the request's DetectionOptions from the registered detection
/// flags (--stream / --block-rows / --chunk-bytes). Range checking happens
/// in DetectionRequest::Validate().
inline Result<core::DetectionOptions> DetectionOptionsFromArgs(
    const Args& args) {
  core::DetectionOptions options;
  for (const auto& [name, value] : args.flags) {
    if (!core::IsSagedDetectionFlag(name)) continue;
    SAGED_RETURN_NOT_OK(core::ApplySagedDetectionFlag(name, value, &options));
  }
  return options;
}

}  // namespace saged::cli

#endif  // SAGED_TOOLS_CLI_COMMON_H_
