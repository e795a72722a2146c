//===- perfbench/src/TableWorkload.cpp - In-process Table I compiles ------===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `table1` and `table1-cycle`: repeated cold passes of compileForGpu
/// over the Table I programs, then the service phases on the same
/// programs, then the output checks.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>

namespace perfbench {

namespace {

/// A per-program median needs at least this many samples.
constexpr int kMinPasses = 3;

/// Table I hits rebuild, flatten and hash the benchmark and return large
/// reports (~3k requests/s over two connections), so the warm passes are
/// shorter than served-graphgen's; 1024 samples leave ten beyond p99.
constexpr int kWarmPassesPerCycle = 4;
constexpr int kWarmRequestsPerPass = 1024;

} // namespace

void reportQualityMetrics(const std::vector<double> &II,
                          const std::vector<double> &Cycles, double BufferBytes,
                          RunResult &Out) {
  Out.set("ii_geomean_cycles", geomean(II), "cycles");
  Out.set("kernel_cycles_geomean", geomean(Cycles), "cycles");
  Out.set("buffer_mb", BufferBytes / (1024.0 * 1024.0), "MiB");
}

RunResult runTableWorkload(const RunParams &RP) {
  RunResult Out;
  Corpus C = buildCorpus(RP.W, RP.Seed);
  const size_t N = C.Programs.size();
  std::vector<StreamGraph> Graphs;
  for (const Program &P : C.Programs)
    Graphs.push_back(buildProgramGraph(P));

  // Timed: the daemon's cold passes, then measurement cycles, each
  // ending with one whole in-process pass over every program, for at
  // least kMinPasses passes and --seconds.
  std::vector<std::vector<double>> Seconds(N);
  std::vector<std::optional<CompileReport>> Reports(N);
  ServiceParams SP;
  SP.DaemonBinary = RP.DaemonBinary;
  SP.WorkDir = RP.WorkDir;
  SP.MinCycles = kMinPasses;
  SP.CycleSeconds = RP.Seconds;
  SP.WarmPassesPerCycle = kWarmPassesPerCycle;
  SP.WarmRequestsPerPass = kWarmRequestsPerPass;
  SP.BetweenCycles = [&](int Pass) {
    auto PassT0 = Clock::now();
    for (size_t I = 0; I < N; ++I) {
      auto T0 = Clock::now();
      Reports[I] = sgpu::compileForGpu(Graphs[I], C.Programs[I].Options);
      double S = secondsSince(T0);
      ++Out.Attempted;
      if (!Reports[I]) {
        ++Out.Failed;
        std::fprintf(stderr, "failed: %s does not compile\n",
                     C.Programs[I].Label.c_str());
        continue;
      }
      Seconds[I].push_back(S);
    }
    std::fprintf(stderr, "compile pass %d: %.3f s\n", Pass,
                 secondsSince(PassT0));
  };
  ServiceResult S = runServicePhases(C, SP, RP.Seed, Out);
  Out.set("peak_rss_mb", peakRssMb(), "MiB");

  double CompileS = 0.0, Buffer = 0.0;
  std::vector<double> II, Cycles;
  for (size_t I = 0; I < N; ++I) {
    CompileS += median(Seconds[I]);
    if (!Reports[I])
      continue;
    II.push_back(Reports[I]->SchedStats.FinalII);
    Cycles.push_back(Reports[I]->GpuCyclesPerBaseIteration);
    Buffer += static_cast<double>(Reports[I]->BufferBytes);
  }
  Out.set("compile_s", CompileS, "s");
  reportQualityMetrics(II, Cycles, Buffer, Out);
  reportServiceMetrics(S, Out);

  // Checks: the in-process schedules, then the daemon's, which must
  // equal them (a compile result is a function of its cache key alone).
  for (size_t I = 0; I < N; ++I) {
    const Program &P = C.Programs[I];
    if (!Reports[I])
      continue;
    if (auto Err = checkSchedule(Graphs[I], P, *Reports[I], RP.Seed))
      Out.fail(P.Label + ": " + *Err);
    if (S.Reports[I].empty())
      continue;
    std::optional<ReportSummary> Sum = summarizeReport(S.Reports[I]);
    if (!Sum || !sameReported(Sum->FinalII, Reports[I]->SchedStats.FinalII) ||
        !sameReported(Sum->KernelCycles, Reports[I]->GpuCyclesPerBaseIteration))
      Out.fail(P.Label + ": daemon result differs from the in-process one");
    else if (auto Err = checkReportedSchedule(Graphs[I], P, *Reports[I],
                                              S.Reports[I], RP.Seed))
      Out.fail(P.Label + " (daemon): " + *Err);
  }
  return Out;
}

} // namespace perfbench
