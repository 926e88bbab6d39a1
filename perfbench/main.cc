// incdb_perfbench: runs one workload of the incdb benchmark and prints,
// one JSON object per line, the provenance block, the full report, and
// last the result line
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// whose metrics are the end-to-end ones (--trace 0) or the per-layer ones
// (--trace 1). Usage (normally through perfbench/run.py):
//
//   incdb_perfbench --workload paper_dense --seed 1 --seconds 10 --trace 0
//                   --work-dir DIR [--git-sha SHA] [--src-digest HEX]

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common.h"
#include "simd/simd.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += Quote(m.name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + Quote(m.unit) + "}";
  }
  return out + "}";
}

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "incdb_perfbench: %s\nusage: incdb_perfbench --workload "
               "paper_dense|census_reopen|ingest_recent --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--git-sha SHA] [--src-digest HEX]\n",
               why.c_str());
  std::exit(2);
}

int Main(int argc, char** argv) {
  Options options;
  std::string git_sha = "unknown", src_digest = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--src-digest") {
      src_digest = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (options.work_dir.empty()) Usage("--work-dir is required");
  if (!(options.seconds > 0.0 && options.seconds <= 60.0)) Usage("--seconds must be in (0, 60]");
  std::filesystem::create_directories(options.work_dir);

  RunOutput out;
  if (options.workload == "paper_dense") {
    out = RunPaperDense(options);
  } else if (options.workload == "census_reopen") {
    out = RunCensusReopen(options);
  } else if (options.workload == "ingest_recent") {
    out = RunIngestRecent(options);
  } else {
    Usage("unknown workload '" + options.workload + "'");
  }

  std::string provenance =
      "{\"provenance\": {\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"compiler\": " + Quote(PERFBENCH_COMPILER) +
      ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) + ", \"simd\": " +
      Quote(std::string(incdb::simd::LevelToString(incdb::simd::ActiveLevel()))) +
      ", \"git_sha\": " + Quote(git_sha) + ", \"src_digest\": " + Quote(src_digest) +
      ", \"workload\": " + Quote(options.workload) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"seconds\": " + Number(options.seconds) +
      ", \"trace\": " + (options.trace ? "1" : "0") + "}}";
  std::printf("%s\n", provenance.c_str());

  std::string report = "{\"report\": {";
  for (size_t i = 0; i < out.info.size(); ++i) {
    report += (i ? ", " : "") + Quote(out.info[i].first) + ": " + Quote(out.info[i].second);
  }
  report += ", \"failed_frac\": " +
            Number(out.attempted ? static_cast<double>(out.failed) / out.attempted : 0.0);
  report += ", \"errors\": [";
  for (size_t i = 0; i < out.errors.size(); ++i) report += (i ? ", " : "") + Quote(out.errors[i]);
  report += "], \"end_to_end\": " + Metrics(out.e2e) +
            ", \"per_layer\": " + Metrics(out.layers) +
            ", \"ungated\": " + Metrics(out.ungated) + "}}";
  std::printf("%s\n", report.c_str());

  const std::vector<Metric>& metrics = options.trace ? out.layers : out.e2e;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              out.correct ? "true" : "false", out.attempted, out.failed,
              Metrics(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
