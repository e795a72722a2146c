//===- perfbench/src/main.cpp - sgpu-perfbench entry point ----------------===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Usage (perfbench/run.py builds this and passes the paths):
///
///   sgpu-perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
///                  --served=PATH --work-dir=DIR
///   sgpu-perfbench --self-test --served=PATH --work-dir=DIR
///
/// A workload run prints one JSON object as its last stdout line:
/// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

const char *argValue(const char *Arg, const char *Name) {
  size_t N = std::strlen(Name);
  return std::strncmp(Arg, Name, N) == 0 && Arg[N] == '=' ? Arg + N + 1
                                                          : nullptr;
}

std::string jsonNumber(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

int main(int argc, char **argv) {
  RunParams RP;
  std::string WorkloadName;
  bool Trace = false, SelfTest = false;
  for (int I = 1; I < argc; ++I) {
    const char *A = argv[I];
    if (const char *V = argValue(A, "--workload"))
      WorkloadName = V;
    else if (const char *V = argValue(A, "--seed"))
      RP.Seed = std::strtoull(V, nullptr, 10);
    else if (const char *V = argValue(A, "--seconds"))
      RP.Seconds = std::atof(V);
    else if (const char *V = argValue(A, "--trace"))
      Trace = std::strcmp(V, "0") != 0;
    else if (const char *V = argValue(A, "--served"))
      RP.DaemonBinary = V;
    else if (const char *V = argValue(A, "--work-dir"))
      RP.WorkDir = V;
    else if (std::strcmp(A, "--self-test") == 0)
      SelfTest = true;
    else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", A);
      return 2;
    }
  }
  if (RP.DaemonBinary.empty() || RP.WorkDir.empty()) {
    std::fprintf(stderr, "error: --served and --work-dir are required\n");
    return 2;
  }
  if (SelfTest) {
    int Failures = runSelfTest(RP);
    std::printf("self-test: %d failed expectation(s)\n", Failures);
    return Failures ? 1 : 0;
  }
  std::optional<Workload> W = parseWorkload(WorkloadName);
  if (!W || RP.Seconds <= 0) {
    std::fprintf(stderr, "error: bad --workload or --seconds\n");
    return 2;
  }
  RP.W = *W;

  RunResult Out = Trace ? runTracedWorkload(RP)
                  : RP.W == Workload::ServedGraphGen ? runServedWorkload(RP)
                                                     : runTableWorkload(RP);
  for (const std::string &E : Out.CheckErrors)
    std::fprintf(stderr, "check failed: %s\n", E.c_str());

  std::string Line = "{\"correct\": ";
  Line += Out.CheckErrors.empty() ? "true" : "false";
  Line += ", \"attempted\": " + std::to_string(Out.Attempted);
  Line += ", \"failed\": " + std::to_string(Out.Failed);
  Line += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, M] : Out.Metrics) {
    Line += First ? "" : ", ";
    First = false;
    Line += "\"" + Name + "\": {\"value\": " + jsonNumber(M.Value) +
            ", \"unit\": \"" + M.Unit + "\"}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  return 0;
}
