//===- perfbench/src/Checks.cpp - Output checks ---------------------------===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The checks every workload runs, outside its timed region, on every
/// schedule it compiled or was served. The delay arithmetic is done here
/// from ExecutionConfig, not delegated to the compiler's own verifier.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "benchmarks/Registry.h"
#include "gpusim/FunctionalSim.h"
#include "sdf/SteadyState.h"
#include "support/Json.h"

#include <algorithm>
#include <map>
#include <set>

namespace perfbench {

using namespace sgpu;

namespace {

/// GPU iterations of each functional run.
constexpr int64_t kFunctionalIterations = 2;

/// Relative slack for comparing sums of double delays against the II.
constexpr double kEps = 1e-9;

bool isCpuProc(const CompileReport &R, int Proc) {
  return R.Machine == MachineMode::Hybrid && R.MachineDesc.isCpu(Proc);
}

double instanceDelay(const CompileReport &R, int Node, int Proc) {
  return isCpuProc(R, Proc) ? R.Config.CpuDelay[Node] : R.Config.Delay[Node];
}

std::string fmt(double V) { return std::to_string(V); }

} // namespace

std::vector<Scalar> programInput(const StreamGraph &G, const Program &P,
                                 int64_t Tokens, uint64_t Seed) {
  if (!P.Benchmark.empty())
    return bench::makeBenchmarkInput(*bench::findBenchmark(P.Benchmark),
                                     Tokens, Seed);
  TokenType Ty = TokenType::Int;
  if (G.entryNode() >= 0) {
    const GraphNode &N = G.node(G.entryNode());
    Ty = N.isFilter() ? N.TheFilter->inputType() : N.Ty;
  }
  Rng R(Seed ^ 0x5bf0363546316325ull);
  return testing::randomInput(R, Ty, Tokens);
}

std::optional<std::string> checkSchedule(const StreamGraph &G,
                                         const Program &P,
                                         const CompileReport &R,
                                         uint64_t Seed) {
  const SwpSchedule &S = R.Schedule;
  const int Procs = S.Pmax;

  // Shape: every instance (v, k < Instances[v]) exactly once, on a real
  // processor, inside the II (paper constraint (4)). The functional run
  // below presumes a well-formed schedule.
  std::set<std::pair<int, int64_t>> Seen;
  for (const ScheduledInstance &SI : S.Instances) {
    if (SI.Node < 0 || SI.Node >= static_cast<int>(G.numNodes()) ||
        SI.K < 0 || SI.K >= R.GSS.Instances[SI.Node])
      return "instance (" + std::to_string(SI.Node) + "," +
             std::to_string(SI.K) + ") is not in the steady state";
    if (!Seen.insert({SI.Node, SI.K}).second)
      return "instance of " + G.node(SI.Node).Name + " scheduled twice";
    if (SI.Sm < 0 || SI.Sm >= Procs)
      return "instance of " + G.node(SI.Node).Name + " on processor " +
             std::to_string(SI.Sm) + " of " + std::to_string(Procs);
    double End = SI.O + instanceDelay(R, SI.Node, SI.Sm);
    if (SI.O < 0.0 || End > S.II * (1.0 + kEps))
      return "instance of " + G.node(SI.Node).Name + " runs [" +
             fmt(SI.O) + ", " + fmt(End) + ") outside II " + fmt(S.II);
  }
  int64_t Expected = 0;
  for (int64_t N : R.GSS.Instances)
    Expected += N;
  if (static_cast<int64_t>(Seen.size()) != Expected)
    return std::to_string(Seen.size()) + " of " + std::to_string(Expected) +
           " instances scheduled";

  // Paper constraint (1): each processor's summed delays fit the II.
  std::vector<double> Load(Procs, 0.0);
  for (const ScheduledInstance &SI : S.Instances)
    Load[SI.Sm] += instanceDelay(R, SI.Node, SI.Sm);
  for (int Proc = 0; Proc < Procs; ++Proc)
    if (Load[Proc] > S.II * (1.0 + kEps))
      return "processor " + std::to_string(Proc) + " carries " +
             fmt(Load[Proc]) + " cycles > II " + fmt(S.II);

  // The II against the benchmark's own bound: no instance can be split,
  // and the work cannot beat a perfect spread over every processor. An
  // instance costs at least its cheapest class's delay.
  double Total = 0.0, Largest = 0.0;
  for (int V = 0; V < static_cast<int>(G.numNodes()); ++V) {
    double D = R.Config.Delay[V];
    if (R.Machine == MachineMode::Hybrid)
      D = std::min(D, R.Config.CpuDelay[V]);
    Total += D * static_cast<double>(R.GSS.Instances[V]);
    if (R.GSS.Instances[V] > 0)
      Largest = std::max(Largest, D);
  }
  double Bound = std::max(Total / Procs, Largest);
  if (S.II < Bound * (1.0 - kEps))
    return "II " + fmt(S.II) + " below the lower bound " + fmt(Bound);

  // Functional equivalence with the sequential interpreter.
  std::optional<SteadyState> SS = SteadyState::compute(G);
  if (!SS)
    return std::string("graph is rate-inconsistent");
  const SchemaAssignment *Schema =
      R.Schema.Kind == SchemaKind::WarpSpecialized ? &R.Schema : nullptr;
  SwpFunctionalSim Sim(G, *SS, R.Config, R.GSS, S, Schema);
  std::vector<Scalar> Input = programInput(
      G, P, Sim.inputTokensNeeded(kFunctionalIterations), Seed);
  if (std::optional<std::string> Err = checkScheduleAgainstReference(
          G, *SS, R.Config, R.GSS, S, Input, kFunctionalIterations, Schema))
    return "functional run differs from the interpreter: " + *Err;
  return std::nullopt;
}

std::optional<ReportSummary> summarizeReport(const std::string &ReportJson) {
  std::optional<JsonValue> Doc = JsonValue::parse(ReportJson, nullptr);
  if (!Doc || !Doc->isObject())
    return std::nullopt;
  const JsonValue *Sched = Doc->find("scheduling");
  const JsonValue *M = Doc->find("metrics");
  if (!Sched || !M)
    return std::nullopt;
  const JsonValue *II = Sched->find("final_ii");
  const JsonValue *Cyc = M->find("gpu_cycles_per_base_iter");
  const JsonValue *Buf = M->find("buffer_bytes");
  if (!II || !Cyc || !Buf)
    return std::nullopt;
  return ReportSummary{II->asNumber(), Cyc->asNumber(), Buf->asNumber()};
}

std::optional<std::string> checkReportedSchedule(const StreamGraph &G,
                                                 const Program &P,
                                                 const CompileReport &Local,
                                                 const std::string &ReportJson,
                                                 uint64_t Seed) {
  std::optional<JsonValue> Doc = JsonValue::parse(ReportJson, nullptr);
  std::optional<ReportSummary> Sum = summarizeReport(ReportJson);
  if (!Doc || !Sum)
    return std::string("report is not a compile report");

  // The delays come from the local configuration, so the daemon must
  // have selected the same one.
  const JsonValue *Cfg = Doc->find("execution_config");
  const JsonValue *Threads = Cfg ? Cfg->find("per_node_threads") : nullptr;
  const JsonValue *Regs = Cfg ? Cfg->find("reg_limit") : nullptr;
  if (!Threads || !Regs || !Threads->isArray() ||
      Threads->elements().size() != Local.Config.Threads.size() ||
      static_cast<int>(Regs->asNumber()) != Local.Config.RegLimit)
    return std::string("reported execution config differs in shape");
  for (size_t V = 0; V < Local.Config.Threads.size(); ++V)
    if (static_cast<int64_t>(Threads->elements()[V].asNumber()) !=
        Local.Config.Threads[V])
      return "reported threads of node " + std::to_string(V) +
             " differ from the in-process selection";

  std::map<std::string, int> NodeByName;
  for (const GraphNode &N : G.nodes())
    NodeByName[N.Name] = N.Id;
  CompileReport R = Local;
  R.Schedule.II = Sum->FinalII;
  R.Schedule.Instances.clear();
  const JsonValue *Insts = Doc->find("instances");
  if (!Insts || !Insts->isArray())
    return std::string("report has no instances");
  for (const JsonValue &I : Insts->elements()) {
    const JsonValue *Node = I.find("node");
    const JsonValue *K = I.find("k"), *Sm = I.find("sm");
    const JsonValue *O = I.find("o"), *F = I.find("f");
    if (!Node || !K || !Sm || !O || !F)
      return std::string("report instance lacks a field");
    auto It = NodeByName.find(Node->asString());
    if (It == NodeByName.end())
      return "report names unknown node " + Node->asString();
    R.Schedule.Instances.push_back(
        ScheduledInstance{It->second, static_cast<int64_t>(K->asNumber()),
                          static_cast<int>(Sm->asNumber()), O->asNumber(),
                          static_cast<int64_t>(F->asNumber())});
  }
  return checkSchedule(G, P, R, Seed);
}

} // namespace perfbench
