//===- perfbench/src/ServedWorkload.cpp - GraphGen traffic, sgpu-served ---===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `served-graphgen`: the GraphGen draw sent as `.str` source to a real
/// daemon (cold phase, warm hits, restarts served from disk), then the
/// checks: every served schedule rebuilt and checked, and a seeded
/// sample recompiled in-process from GraphGen's buildGraph.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Rng.h"

#include <algorithm>

namespace perfbench {

namespace {

/// Programs of the in-process cross-check sample.
constexpr int kCrossCheckSample = 3;

/// Restarts (disk passes) at least, whatever --seconds says. The cycles
/// run for half of --seconds.
constexpr int kMinCycles = 5;

} // namespace

RunResult runServedWorkload(const RunParams &RP) {
  RunResult Out;
  Corpus C = buildCorpus(RP.W, RP.Seed);

  ServiceParams SP;
  SP.DaemonBinary = RP.DaemonBinary;
  SP.WorkDir = RP.WorkDir;
  SP.CycleSeconds = RP.Seconds / 2;
  SP.MinCycles = kMinCycles;
  ServiceResult S = runServicePhases(C, SP, RP.Seed, Out);

  // Quality over the distinct keys: the programs whose request missed.
  std::vector<int> Leaders;
  std::vector<double> II, Cycles;
  double Buffer = 0.0;
  for (int I = 0; I < static_cast<int>(C.Programs.size()); ++I) {
    if (S.Reports[I].empty())
      continue;
    std::optional<ReportSummary> Sum = summarizeReport(S.Reports[I]);
    if (!Sum) {
      Out.fail(C.Programs[I].Label + ": unreadable report");
      continue;
    }
    Leaders.push_back(I);
    II.push_back(Sum->FinalII);
    Cycles.push_back(Sum->KernelCycles);
    Buffer += Sum->BufferBytes;
  }
  Out.set("compile_s", S.ColdWallS, "s");
  reportQualityMetrics(II, Cycles, Buffer, Out);
  Out.set("peak_rss_mb", S.DaemonPeakRssMb, "MiB");
  reportServiceMetrics(S, Out);

  // Every served schedule, rebuilt over the locally selected execution
  // configuration (the delays) of the parsed program.
  for (int I : Leaders) {
    const Program &P = C.Programs[I];
    StreamGraph G = buildProgramGraph(P);
    std::optional<CompileReport> Local =
        compileByModule(G, P.Options, nullptr, /*ConfigOnly=*/true);
    if (!Local)
      Out.fail(P.Label + ": no execution configuration in-process");
    else if (auto Err =
                 checkReportedSchedule(G, P, *Local, S.Reports[I], RP.Seed))
      Out.fail(P.Label + " (daemon): " + *Err);
  }

  // A seeded sample compiled in-process from GraphGen's buildGraph (not
  // the DSL print + parse path the daemon took) must reproduce the
  // daemon's II and kernel cycles and pass the checks itself.
  sgpu::Rng R(RP.Seed ^ 0x3c6ef372fe94f82bull);
  std::vector<int> Sample = Leaders;
  shuffleInPlace(Sample, R);
  Sample.resize(std::min<size_t>(Sample.size(), kCrossCheckSample));
  for (int I : Sample) {
    const Program &P = C.Programs[I];
    StreamGraph G = sgpu::testing::buildGraph(P.Spec);
    std::optional<CompileReport> Local = sgpu::compileForGpu(G, P.Options);
    std::optional<ReportSummary> Sum = summarizeReport(S.Reports[I]);
    if (!Local) {
      Out.fail(P.Label + ": buildGraph graph does not compile in-process");
      continue;
    }
    if (!sameReported(Sum->FinalII, Local->SchedStats.FinalII) ||
        !sameReported(Sum->KernelCycles, Local->GpuCyclesPerBaseIteration))
      Out.fail(P.Label + ": daemon II/cycles " + std::to_string(Sum->FinalII) +
               "/" + std::to_string(Sum->KernelCycles) + " differ from " +
               std::to_string(Local->SchedStats.FinalII) + "/" +
               std::to_string(Local->GpuCyclesPerBaseIteration) +
               " in-process");
    if (auto Err = checkSchedule(G, P, *Local, RP.Seed))
      Out.fail(P.Label + " (in-process): " + *Err);
  }
  return Out;
}

} // namespace perfbench
