// perfbench: runs one workload of the end-to-end benchmark.
//
//   perfbench --workload <store_query|transect_sweep>
//             --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> --record <file> [--spans <file>]
//
// Writes the raw run record (samples, counters, gates) to --record and,
// traced, every span to --spans. Exits 1 when a correctness gate fails
// or the workload cannot run, 2 on bad arguments. perfbench/run.py
// builds this binary and turns the record into metrics.

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "harness.h"

namespace {

int Usage(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--record") {
      args.record_path = value;
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes one value");
  if (args.work_dir.empty() || args.record_path.empty()) {
    return Usage("--work-dir and --record are required");
  }
  if (!(args.seconds > 0.0)) return Usage("--seconds must be positive");
  if (args.trace && args.spans_path.empty()) {
    return Usage("--trace 1 needs --spans");
  }
  void (*run)(const perfbench::Args&, perfbench::Record*,
              perfbench::Tracer*) = nullptr;
  if (args.workload == "store_query") {
    run = perfbench::RunStoreQuery;
  } else if (args.workload == "transect_sweep") {
    run = perfbench::RunTransectSweep;
  } else {
    return Usage("unknown workload '" + args.workload + "'");
  }
  std::filesystem::create_directories(args.work_dir);

  perfbench::Record record;
  perfbench::Tracer tracer(args.trace);
  bool correct = true;
  std::string error;
  try {
    run(args, &record, &tracer);
  } catch (const perfbench::GateFailure& failure) {
    correct = false;
    error = failure.what();
    std::cerr << "perfbench: " << args.workload << ": " << error << "\n";
  }
  if (args.trace) {
    record.Set("trace.span_cost_ns", perfbench::SpanCostNs());
  }
  segdiff::Status written =
      record.Write(args.record_path, args, correct, error);
  if (written.ok() && args.trace) written = tracer.WriteJsonl(args.spans_path);
  if (!written.ok()) {
    std::cerr << "perfbench: " << written.ToString() << "\n";
    return 1;
  }
  return correct ? 0 : 1;
}
