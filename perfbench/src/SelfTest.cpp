//===- perfbench/src/SelfTest.cpp - The checks must be able to fail -------===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `--self-test`: feeds the benchmark's checks clean inputs, which they
/// must accept, and corrupted ones, which they must reject — schedules
/// broken with testing::injectScheduleBug, a report whose II was
/// lowered, and a daemon cache entry tampered with on disk between the
/// cold phase and the restart.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/ReportWriter.h"
#include "service/ScheduleCache.h"
#include "testing/Oracles.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

using namespace sgpu;

namespace {

/// Lowers the report's accepted II ("final_ii") tenfold or more by
/// deleting its leading digit; false when there is none.
bool tamperFinalII(std::string &Text) {
  size_t At = Text.find("final_ii");
  size_t D = At == std::string::npos ? At : Text.find_first_of("123456789", At);
  if (D == std::string::npos)
    return false;
  Text.erase(D, 1);
  return true;
}

} // namespace

int runSelfTest(const RunParams &RP) {
  int Failures = 0;
  auto Expect = [&](bool Ok, const std::string &What) {
    std::printf("%s %s\n", Ok ? "ok  " : "FAIL", What.c_str());
    Failures += Ok ? 0 : 1;
  };

  // Table I programs on both machines and a GraphGen program.
  std::vector<Program> Programs;
  for (const Program &P : buildCorpus(Workload::Table1, RP.Seed).Programs)
    if (P.Label == "FFT/gpu" || P.Label == "FMRadio/hybrid")
      Programs.push_back(P);
  Corpus Served = buildCorpus(Workload::ServedGraphGen, RP.Seed);
  for (const Program &P : Served.Programs)
    if (P.Label == "gg5")
      Programs.push_back(P);

  for (const Program &P : Programs) {
    StreamGraph G = buildProgramGraph(P);
    std::optional<CompileReport> R = compileForGpu(G, P.Options);
    Expect(R.has_value(), P.Label + " compiles");
    if (!R)
      continue;
    std::optional<std::string> Clean = checkSchedule(G, P, *R, RP.Seed);
    Expect(!Clean, P.Label + " clean schedule accepted" +
                       (Clean ? ": " + *Clean : std::string()));
    for (testing::ScheduleBugKind K :
         {testing::ScheduleBugKind::SwapSlots,
          testing::ScheduleBugKind::ExceedII,
          testing::ScheduleBugKind::DoubleAssign,
          testing::ScheduleBugKind::BadSm,
          testing::ScheduleBugKind::DropInstance}) {
      CompileReport Bad = *R;
      if (!testing::injectScheduleBug(Bad.Schedule, K))
        continue;
      std::optional<std::string> Err = checkSchedule(G, P, Bad, RP.Seed);
      Expect(Err.has_value(), P.Label + " " +
                                  testing::scheduleBugKindName(K) +
                                  " rejected" + (Err ? ": " + *Err : ""));
    }
    // The report-based check: the clean report passes, a lowered II not.
    std::string Report = reportToJson(G, *R);
    Expect(!checkReportedSchedule(G, P, *R, Report, RP.Seed),
           P.Label + " clean report accepted");
    if (tamperFinalII(Report))
      Expect(checkReportedSchedule(G, P, *R, Report, RP.Seed).has_value(),
             P.Label + " report with a lowered II rejected");
  }

  // A daemon cache entry tampered with on disk must be caught when the
  // restarted daemon serves it.
  Corpus Small;
  Small.Programs = {Served.Programs[8], Served.Programs[10]};
  Small.ColdGroups.push_back({});
  for (int I = 0; I < 2; ++I)
    Small.ColdGroups[0].push_back(Request{
        I, RequestRole::Original,
        makeRequestLine(Small.Programs[I], "t" + std::to_string(I),
                        Small.Programs[I].Source)});
  for (bool Tamper : {false, true}) {
    ServiceParams SP;
    SP.DaemonBinary = RP.DaemonBinary;
    SP.WorkDir = RP.WorkDir;
    SP.WarmRequestsPerPass = 20;
    SP.WarmPassesPerCycle = 1;
    bool Tampered = false;
    if (Tamper)
      SP.BeforeRestart = [&](const std::string &Dir, const ServiceResult &S) {
        service::ScheduleCache Cache({1, Dir});
        std::string Path = Cache.entryPath(S.Keys[0]);
        std::stringstream Buf;
        Buf << std::ifstream(Path).rdbuf();
        std::string Text = Buf.str();
        Tampered = tamperFinalII(Text);
        std::ofstream(Path, std::ios::trunc) << Text;
      };
    RunResult Out;
    runServicePhases(Small, SP, RP.Seed, Out);
    if (!Tamper)
      Expect(Out.CheckErrors.empty() && Out.Failed == 0,
             "untampered daemon cache accepted");
    else
      Expect(Tampered && !Out.CheckErrors.empty(),
             "tampered daemon cache entry rejected" +
                 (Out.CheckErrors.empty() ? std::string()
                                          : ": " + Out.CheckErrors.front()));
  }
  return Failures;
}

} // namespace perfbench
