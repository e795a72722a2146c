//===- perfbench/src/Traced.cpp - The per-layer traced run ----------------===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `--trace 1` run of every workload. It does the workload's work
/// again, but calls each module's public entry points itself and times
/// each call from outside, reading the counters the Metrics registry and
/// ScheduleResult already expose as deltas:
///
///  1. the compile pipeline, module by module (compileByModule), over
///     every distinct program;
///  2. the cold phase through an in-process service::Service with the
///     daemon's two workers and two client threads, with trace spans on,
///     for queue waits and coalescing;
///  3. the service layers one call at a time: cache inserts into the
///     memory and disk tiers, a seeded replay of warm hits (parse,
///     flatten, hash, lookup, response), and reads back from disk.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "codegen/schema/KernelSchema.h"
#include "codegen/schema/SchemaSelect.h"
#include "benchmarks/Registry.h"
#include "core/ScheduleVerifier.h"
#include "parser/Parser.h"
#include "profile/ConfigSelection.h"
#include "profile/Profiler.h"
#include "sdf/SteadyState.h"
#include "service/GraphHash.h"
#include "service/Protocol.h"
#include "service/ScheduleCache.h"
#include "service/Service.h"
#include "support/Metrics.h"
#include "support/Rng.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

namespace perfbench {

using namespace sgpu;

namespace {

/// Hit requests of the single-threaded warm replay.
constexpr int kReplayRequests = 2000;

/// Times one call into \p Acc (seconds).
template <typename Fn> auto timed(double &Acc, Fn &&F) {
  auto T0 = Clock::now();
  if constexpr (std::is_void_v<decltype(F())>) {
    F();
    Acc += secondsSince(T0);
  } else {
    auto R = F();
    Acc += secondsSince(T0);
    return R;
  }
}

} // namespace

std::optional<CompileReport> compileByModule(const StreamGraph &G,
                                             const CompileOptions &O,
                                             LayerTimes *L, bool ConfigOnly) {
  LayerTimes Scratch;
  if (!L)
    L = &Scratch;
  std::optional<SteadyState> SS = SteadyState::compute(G);
  if (!SS)
    return std::nullopt;
  const LayoutKind Layout = layoutFor(O.Strat);
  std::unique_ptr<TimingModel> Model =
      createTimingModel(O.Timing, O.Arch, O.WarpSched);

  ProfileTable PT = timed(L->ProfileSweepS, [&] {
    return profileGraph(O.Arch, G, Layout, O.Sched.NumWorkers,
                        /*NumFirings=*/0, Model.get());
  });
  std::optional<ExecutionConfig> Config =
      timed(L->ProfileSelectS, [&] { return selectExecutionConfig(*SS, PT); });
  if (!Config)
    return std::nullopt;

  CompileReport R;
  R.Strat = O.Strat;
  R.Layout = Layout;
  R.Timing = O.Timing;
  R.WarpSched = O.WarpSched;
  R.Machine = O.Machine;
  R.RequestedSchema = O.Schema;
  R.GSS = computeGpuSteadyState(SS->repetitions(), Config->Threads);
  SchedulerOptions SO = O.Sched;
  SO.Pmax = std::min(SO.Pmax, O.Arch.NumSMs);
  const MachineModel *Machine = nullptr;
  if (O.Machine == MachineMode::Hybrid) {
    R.MachineDesc =
        MachineModel::hybrid(O.Arch, SO.Pmax, O.Cpu, O.Coarsening);
    computeCpuDelays(*Config, G, O.Cpu, O.Arch);
    SO.Pmax = R.MachineDesc.totalProcs();
    Machine = &R.MachineDesc;
  }
  R.Config = std::move(*Config);
  R.Schema.Edges.assign(G.numEdges(), EdgeSchema::GlobalChannel);
  R.Schema.QueueCapTokens.assign(G.numEdges(), 0);
  R.Schedule.Pmax = SO.Pmax;
  if (ConfigOnly)
    return R;

  double SearchWall = 0.0;
  std::optional<ScheduleResult> SR = timed(SearchWall, [&] {
    return scheduleSwp(G, *SS, R.Config, R.GSS, SO, Machine);
  });
  if (!SR)
    return std::nullopt;
  L->SearchS += SearchWall - SR->SolverSeconds;
  L->BnbS += SR->SolverSeconds;
  L->IiCandidates += SR->IIAttempts;
  L->Nodes += SR->SolverNodes;
  L->Pivots += SR->SolverPivots;
  L->Accepted += SR->UsedIlp ? 1 : 0;
  L->RelaxationPct.push_back(SR->RelaxationPercent);
  if (auto Err = timed(L->VerifyS, [&] {
        return verifySchedule(G, *SS, R.Config, R.GSS, SR->Schedule, Machine);
      }))
    L->VerifyErrors.push_back(*Err);

  R.Coarsening = O.Coarsening;
  if (Machine && !SR->Schedule.ClassCoarsening.empty())
    R.Coarsening = static_cast<int>(std::max<int64_t>(
        1, *std::min_element(SR->Schedule.ClassCoarsening.begin(),
                             SR->Schedule.ClassCoarsening.end())));

  auto Simulate = [&](const SchemaAssignment *Schema) {
    return timed(L->KernelSimS, [&] {
      ++L->KernelSims;
      return Model->simulateKernel(
          buildSwpKernelDesc(O.Arch, G, R.Config, SR->Schedule, Layout,
                             R.Coarsening, Schema, Machine));
    });
  };
  if (O.Schema != SchemaMode::Global) {
    SchemaAssignment Warp = timed(L->SchemaSelectS, [&] {
      return selectSchemaAssignment(O.Arch, G, *SS, R.Config, R.GSS,
                                    SR->Schedule, SchemaKind::WarpSpecialized,
                                    R.Coarsening, Machine);
    });
    if (O.Schema == SchemaMode::Warp ||
        (Warp.numQueueEdges() > 0 &&
         Simulate(&Warp).TotalCycles < Simulate(nullptr).TotalCycles))
      R.Schema = std::move(Warp);
  }
  L->QueueEdges += R.Schema.numQueueEdges();
  R.KernelSim = Simulate(&R.Schema);
  R.GpuCyclesPerBaseIteration =
      R.KernelSim.TotalCycles / (static_cast<double>(R.GSS.Multiplier) *
                                 static_cast<double>(R.Coarsening));
  R.SchedStats = *SR;
  R.Schedule = std::move(SR->Schedule);

  std::string Source = timed(L->EmitS, [&] {
    CudaEmitOptions EO;
    EO.Layout = Layout;
    EO.Coarsening = R.Coarsening;
    return createKernelSchema(R.Schema.Kind)
        ->emit(G, *SS, R.Config, R.GSS, R.Schedule, R.Schema, EO);
  });
  L->SourceKb += static_cast<double>(Source.size()) / 1024.0;
  return R;
}

RunResult runTracedWorkload(const RunParams &RP) {
  namespace fs = std::filesystem;
  RunResult Out;
  Corpus C = buildCorpus(RP.W, RP.Seed);
  const int N = static_cast<int>(C.Programs.size());
  MetricsRegistry &Reg = MetricsRegistry::global();

  // 1. The compile pipeline, module by module.
  LayerTimes L;
  MetricsRegistry::Snapshot Before = Reg.snapshot();
  std::vector<std::optional<CompileReport>> Local(N);
  std::vector<StreamGraph> Graphs;
  double PipelineS = 0.0;
  for (int I = 0; I < N; ++I) {
    Graphs.push_back(buildProgramGraph(C.Programs[I]));
    Local[I] = timed(PipelineS, [&] {
      return compileByModule(Graphs[I], C.Programs[I].Options, &L,
                             /*ConfigOnly=*/false);
    });
    ++Out.Attempted;
    if (!Local[I]) {
      ++Out.Failed;
      std::fprintf(stderr, "failed: %s does not compile by module\n",
                   C.Programs[I].Label.c_str());
    }
  }
  MetricsRegistry::Snapshot After = Reg.snapshot();
  auto Delta = [&](const char *Name) {
    return static_cast<double>(After.Counters[Name] - Before.Counters[Name]);
  };
  std::fprintf(stderr, "traced: module pipeline %.3f s over %d programs\n",
               PipelineS, N);

  // 2. The cold phase through an in-process Service, spans on.
  const std::string TraceCache = RP.WorkDir + "/traced-cache";
  std::error_code Ec;
  fs::remove_all(TraceCache, Ec);
  std::vector<std::string> Reports(N), Keys(N);
  std::vector<const Request *> AllRequests;
  int64_t CoalescedBefore = metricCounter("service.coalesced").value();
  traceReset();
  traceSetEnabled(true);
  {
    service::ServiceOptions SO;
    SO.Cache.Dir = TraceCache;
    SO.Workers = 2;
    service::Service Svc(SO);
    for (const std::vector<Request> &Group : C.ColdGroups) {
      std::vector<Response> Resps(Group.size());
      std::atomic<int> Next{0};
      auto Client = [&] {
        for (int I; (I = Next.fetch_add(1)) < static_cast<int>(Group.size());)
          Resps[I] = parseResponse(Svc.handleLine(Group[I].Line));
      };
      std::thread A(Client), B(Client);
      A.join();
      B.join();
      for (size_t I = 0; I < Group.size(); ++I) {
        ++Out.Attempted;
        AllRequests.push_back(&Group[I]);
        const int P = Group[I].Program;
        if (!Resps[I].Ok) {
          ++Out.Failed;
          std::fprintf(stderr, "failed: %s: %s\n", C.Programs[P].Label.c_str(),
                       Resps[I].Error.c_str());
          continue;
        }
        Keys[P] = Resps[I].Key;
        if (!Resps[I].Hit && !Resps[I].Coalesced)
          Reports[P] = Resps[I].Report;
      }
    }
  }
  traceSetEnabled(false);
  double QueueWaitS = 0.0;
  {
    std::vector<TraceEvent> Events = traceSnapshot();
    std::map<std::string, double> HandleStart; // key arg -> first handle
    for (const TraceEvent &E : Events)
      if (E.Name == "service.handle")
        for (const auto &[K, V] : E.Args)
          if (K == "key" && (!HandleStart.count(V) ||
                             E.StartMicros < HandleStart[V]))
            HandleStart[V] = E.StartMicros;
    for (const TraceEvent &E : Events)
      if (E.Name == "service.solve")
        for (const auto &[K, V] : E.Args)
          if (K == "key" && HandleStart.count(V))
            QueueWaitS += 1e-6 * (E.StartMicros - HandleStart[V]);
  }
  traceReset();
  double Coalesced = static_cast<double>(
      metricCounter("service.coalesced").value() - CoalescedBefore);

  // 3. The service layers, one call at a time.
  double InsertS = 0.0, DiskWriteS = 0.0, DiskReadS = 0.0, LookupS = 0.0;
  double ParseS = 0.0, FlattenS = 0.0, HashS = 0.0, ResponseBytes = 0.0;
  const std::string DiskDir = RP.WorkDir + "/traced-disk";
  fs::remove_all(DiskDir, Ec);
  service::ScheduleCache Mem({});
  service::ScheduleCache Disk({/*MaxBytes=*/1, DiskDir});
  for (int I = 0; I < N; ++I)
    if (!Reports[I].empty()) {
      timed(InsertS, [&] { Mem.insert(Keys[I], Reports[I]); });
      timed(DiskWriteS, [&] { Disk.insert(Keys[I], Reports[I]); });
    }
  Rng R(RP.Seed ^ 0x510e527fade682d1ull);
  for (int Q = 0; Q < kReplayRequests && !AllRequests.empty(); ++Q) {
    const Request &Req = *AllRequests[static_cast<size_t>(
        R.nextInt(static_cast<int64_t>(AllRequests.size())))];
    std::optional<service::CompileRequest> CR =
        service::parseCompileRequest(Req.Line, nullptr);
    ++Out.Attempted;
    if (!CR) {
      ++Out.Failed;
      continue;
    }
    StreamPtr Root;
    if (CR->Benchmark.empty())
      Root = timed(ParseS, [&] { return parseStreamProgram(CR->Source); });
    else
      Root = bench::findBenchmark(CR->Benchmark)->Build();
    StreamGraph G = timed(FlattenS, [&] { return flatten(*Root); });
    std::string Key =
        timed(HashS, [&] { return service::graphHash(G, CR->Options); });
    std::optional<std::string> Hit =
        timed(LookupS, [&] { return Mem.lookup(Key); });
    if (!Hit || Key != Keys[Req.Program]) {
      ++Out.Failed;
      continue;
    }
    ResponseBytes += static_cast<double>(
        service::makeOkResponse(*CR, Key, true, false, 0.0, *Hit).size());
  }
  Disk.dropMemory();
  for (int I = 0; I < N; ++I)
    if (!Reports[I].empty() &&
        timed(DiskReadS, [&] { return Disk.lookup(Keys[I]); }) != Reports[I])
      Out.fail(C.Programs[I].Label + ": disk tier returned another report");
  fs::remove_all(DiskDir, Ec);
  fs::remove_all(TraceCache, Ec);

  // Checks: the module-by-module pipeline must reproduce compileForGpu
  // (the service's reports) and pass the schedule checks.
  for (const std::string &E : L.VerifyErrors)
    Out.fail("verifier: " + E);
  for (int I = 0; I < N; ++I) {
    const Program &P = C.Programs[I];
    if (!Local[I] || Reports[I].empty())
      continue;
    std::optional<ReportSummary> Sum = summarizeReport(Reports[I]);
    if (!Sum || !sameReported(Sum->FinalII, Local[I]->SchedStats.FinalII) ||
        !sameReported(Sum->KernelCycles, Local[I]->GpuCyclesPerBaseIteration))
      Out.fail(P.Label + ": module pipeline differs from compileForGpu");
    if (auto Err = checkSchedule(Graphs[I], P, *Local[I], RP.Seed))
      Out.fail(P.Label + ": " + *Err);
  }

  const double Replayed = std::max(1.0, double(kReplayRequests));
  Out.set("profile.sweep_s", L.ProfileSweepS, "s");
  Out.set("profile.cells", Delta("profile.cells"), "count");
  Out.set("profile.select_s", L.ProfileSelectS, "s");
  Out.set("gpusim.kernel_sim_s", L.KernelSimS, "s");
  Out.set("gpusim.kernel_sims", double(L.KernelSims), "count");
  Out.set("core.search_s", L.SearchS, "s");
  Out.set("core.ii_candidates", double(L.IiCandidates), "count");
  double RelaxSum = 0.0;
  for (double X : L.RelaxationPct)
    RelaxSum += X;
  Out.set("core.relaxation_pct",
          RelaxSum / std::max<double>(1.0, double(L.RelaxationPct.size())),
          "%");
  Out.set("core.verify_s", L.VerifyS, "s");
  Out.set("ilp.bnb_s", L.BnbS, "s");
  Out.set("ilp.budget_cuts", Delta("bnb.budget_cuts"), "count");
  Out.set("ilp.nodes", double(L.Nodes), "count");
  Out.set("ilp.pivots", double(L.Pivots), "count");
  Out.set("ilp.incumbents", Delta("bnb.incumbents"), "count");
  Out.set("ilp.accepted", double(L.Accepted), "count");
  Out.set("ilp.models_formulated", Delta("ilp.models"), "count");
  Out.set("ilp.models_solved", Delta("bnb.solves"), "count");
  Out.set("codegen.schema_select_s", L.SchemaSelectS, "s");
  Out.set("codegen.queue_edges", double(L.QueueEdges), "count");
  Out.set("codegen.emit_s", L.EmitS, "s");
  Out.set("codegen.source_kb", L.SourceKb, "kB");
  Out.set("parser.parse_s", ParseS, "s");
  Out.set("ir.flatten_s", FlattenS, "s");
  Out.set("service.hash_s", HashS, "s");
  Out.set("service.response_kb", ResponseBytes / 1024.0 / Replayed, "kB");
  Out.set("service.cache_lookup_s", LookupS, "s");
  Out.set("service.disk_read_s", DiskReadS, "s");
  Out.set("service.cache_insert_s", InsertS, "s");
  Out.set("service.disk_write_s", DiskWriteS, "s");
  Out.set("service.queue_wait_s", QueueWaitS, "s");
  Out.set("service.coalesced", Coalesced, "count");
  return Out;
}

} // namespace perfbench
