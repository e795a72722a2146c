//===- perfbench/src/Bench.h - sgpu-perfbench declarations ------*- C++ -*-===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared declarations of `sgpu-perfbench`: the program sets
/// of the three workloads, the output checks, the `sgpu-served` client
/// and the measured phases. perfbench/README.md describes what each
/// workload and metric is for.
///
//===----------------------------------------------------------------------===//

#ifndef SGPU_PERFBENCH_BENCH_H
#define SGPU_PERFBENCH_BENCH_H

#include "core/Compiler.h"
#include "ir/StreamGraph.h"
#include "support/Rng.h"
#include "testing/GraphGen.h"

#include <chrono>
#include <csignal>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using sgpu::CompileOptions;
using sgpu::CompileReport;
using sgpu::StreamGraph;

//===----------------------------------------------------------------------===//
// Statistics and process helpers (Stats.cpp)
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start);

/// Seeded Fisher-Yates shuffle.
template <typename T> void shuffleInPlace(std::vector<T> &V, sgpu::Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[static_cast<size_t>(R.nextInt(int64_t(I)))]);
}

/// Median (mean of the middle pair for even sizes); 0 for no samples.
double median(std::vector<double> V);

/// Nearest-rank percentile \p P in [0, 100]; 0 for no samples.
double percentile(std::vector<double> V, double P);

/// Geometric mean of positive values; 0 when empty.
double geomean(const std::vector<double> &V);

/// VmHWM (peak resident set) of process \p Pid in MiB, from
/// /proc/<pid>/status; 0 pid means this process. Negative when unreadable.
double peakRssMb(int Pid = 0);

/// Geometric mean over the non-empty groups of each group's median. The
/// programs' latencies form clusters, and a median over programs jumped
/// between two of them from run to run (GraphGen misses: 0.37 ms against
/// 0.53 ms); a geometric mean moves with every program.
double geomeanOfMedians(const std::vector<std::vector<double>> &Groups);

/// Whether two report numbers agree: JsonWriter prints %.10g, so a
/// number read back from a report matches its source to ~1e-10.
bool sameReported(double A, double B);

/// One named metric of the final JSON line.
struct Metric {
  double Value = 0.0;
  std::string Unit;
};

/// What a workload run reports: operation counts, the correctness
/// verdict with its reasons, and the metrics.
struct RunResult {
  int64_t Attempted = 0;
  int64_t Failed = 0;
  std::vector<std::string> CheckErrors;
  std::map<std::string, Metric> Metrics;

  void set(const std::string &Name, double Value, const char *Unit) {
    Metrics[Name] = Metric{Value, Unit};
  }
  void fail(const std::string &Why) { CheckErrors.push_back(Why); }
};

//===----------------------------------------------------------------------===//
// Workload program sets (Corpus.cpp)
//===----------------------------------------------------------------------===//

enum class Workload { Table1, Table1Cycle, ServedGraphGen };

std::optional<Workload> parseWorkload(const std::string &Name);

/// Where a served-graphgen request sits in the cold phase.
enum class RequestRole { Original, Variant, Copy };

/// One distinct compile unit of a workload.
struct Program {
  std::string Label;       ///< "DES/gpu", "gg20", "gg20x2", ...
  std::string Benchmark;   ///< Table I registry name, or empty.
  sgpu::testing::GraphSpec Spec; ///< GraphGen programs: the spec.
  std::string Source;      ///< GraphGen programs: printed `.str` text.
  CompileOptions Options;  ///< In-process options (worker count set).
  std::string OptionsJson; ///< The same options as a protocol object.
};

/// One request of the service phases.
struct Request {
  int Program = -1;        ///< Index into Corpus::Programs.
  RequestRole Role = RequestRole::Original;
  std::string Line;        ///< The protocol frame, without newline.
};

/// Everything a workload sends and compiles.
struct Corpus {
  std::vector<Program> Programs;
  /// Cold-phase request groups, sent in order with a barrier between
  /// groups: table workloads have one group, served-graphgen three
  /// (originals, rate-scaled variants, reformatted/renamed copies). The
  /// order is the registry's or the draw's, whatever the seed, so that
  /// every run compiles the same sequence.
  std::vector<std::vector<Request>> ColdGroups;
};

/// Builds the workload's programs and request stream for \p Seed.
Corpus buildCorpus(Workload W, uint64_t Seed);

/// The flattened graph of a program as the in-process workloads build
/// it: the registry for Table I, the DSL parser for GraphGen
/// sources (the path the daemon takes). Aborts on a parse failure,
/// which buildCorpus already excludes.
StreamGraph buildProgramGraph(const Program &P);

/// A request line for \p P with \p Id and program text \p Source
/// (ignored for Table I programs).
std::string makeRequestLine(const Program &P, const std::string &Id,
                            const std::string &Source);

//===----------------------------------------------------------------------===//
// The compile pipeline called module by module (Traced.cpp)
//===----------------------------------------------------------------------===//

/// Wall time and work counted at each module boundary of
/// compileByModule, summed over calls.
struct LayerTimes {
  double ProfileSweepS = 0.0, ProfileSelectS = 0.0;
  double KernelSimS = 0.0;
  int64_t KernelSims = 0;
  double SearchS = 0.0, BnbS = 0.0, VerifyS = 0.0;
  int64_t IiCandidates = 0, Nodes = 0, Pivots = 0, Accepted = 0;
  std::vector<double> RelaxationPct;
  double SchemaSelectS = 0.0, EmitS = 0.0, SourceKb = 0.0;
  int64_t QueueEdges = 0;
  std::vector<std::string> VerifyErrors;
};

/// The SWP path of compileForGpu, one public module entry point per
/// step, each call timed into \p L (may be null): steady state, profile
/// sweep, configuration selection, II search, verifier, schema
/// selection, kernel timing and CUDA emission. With \p ConfigOnly it
/// stops after the execution configuration (Config, GSS, machine).
/// Fills the report fields the checks and metrics read; BufferBytes is
/// left 0.
std::optional<CompileReport> compileByModule(const StreamGraph &G,
                                             const CompileOptions &O,
                                             LayerTimes *L, bool ConfigOnly);

//===----------------------------------------------------------------------===//
// Output checks (Checks.cpp)
//===----------------------------------------------------------------------===//

/// Deterministic program input of \p Tokens tokens for \p G.
std::vector<sgpu::Scalar> programInput(const StreamGraph &G,
                                       const Program &P, int64_t Tokens,
                                       uint64_t Seed);

/// Checks one compiled SWP schedule: the functional run equals the
/// sequential interpreter on seeded input (with the schema assignment
/// when a warp-specialized one was chosen); every processor's summed
/// instance delays fit the II (paper constraint (1), CPU delays on CPU
/// processors); and the II is at least max(total delay / processors,
/// largest delay). Returns the first violation.
std::optional<std::string> checkSchedule(const StreamGraph &G,
                                         const Program &P,
                                         const CompileReport &R,
                                         uint64_t Seed);

/// Fields of a daemon report that the served checks compare.
struct ReportSummary {
  double FinalII = 0.0;
  double KernelCycles = 0.0;
  double BufferBytes = 0.0;
};

/// Parses the summary out of a report JSON document.
std::optional<ReportSummary> summarizeReport(const std::string &ReportJson);

/// Rebuilds the daemon's schedule from \p ReportJson over the in-process
/// graph and execution configuration of \p Local (an in-process compile
/// of the same program), then runs checkSchedule on it. This checks the
/// schedule the daemon actually returned, not the local one.
std::optional<std::string> checkReportedSchedule(const StreamGraph &G,
                                                 const Program &P,
                                                 const CompileReport &Local,
                                                 const std::string &ReportJson,
                                                 uint64_t Seed);


//===----------------------------------------------------------------------===//
// The sgpu-served client (Client.cpp)
//===----------------------------------------------------------------------===//

/// A running `sgpu-served` process on a Unix socket.
class Daemon {
public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Spawns the daemon with 2 workers and \p CacheDir; returns false and
  /// fills \p Err when it cannot be started.
  bool start(const std::string &Binary, const std::string &Socket,
             const std::string &CacheDir, std::string *Err);
  /// Sends \p Signal and waits for the process to end.
  void stop(int Signal = SIGTERM);
  int pid() const { return Pid; }
  const std::string &socket() const { return Socket; }
  Clock::time_point startedAt() const { return Started; }

private:
  int Pid = -1;
  std::string Socket;
  Clock::time_point Started;
};

/// One protocol connection. It waits for a response by retrying a
/// non-blocking recv and yielding for the first few milliseconds, then
/// blocks: the wake-up of a sleeping client thread varies with the
/// host's idle state and would be counted in every sub-millisecond
/// latency, while a client polling through a long compile would take a
/// core from the daemon's workers and connection threads.
class Connection {
public:
  Connection() = default;
  ~Connection();
  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;

  /// Connects, retrying until \p Deadline while the socket is not up.
  bool connectTo(const std::string &Socket, Clock::time_point Deadline);
  /// Sends \p Line and reads one response line; false on I/O failure.
  bool roundTrip(const std::string &Line, std::string *Response);

private:
  int Fd = -1;
  std::string Buf;
};

/// Parsed fields of one ok/error response.
struct Response {
  bool Ok = false;
  bool Hit = false;
  bool Coalesced = false;
  std::string Key;
  std::string Report; ///< The "report" member, verbatim.
  std::string Error;
};

Response parseResponse(const std::string &Line);

/// The service phases every workload runs against a real daemon: cold
/// passes (misses filling both cache tiers, a fresh daemon and cache
/// each), then measurement cycles of a restart on the populated cache,
/// one pass served from disk and warm passes of memory hits. Latencies
/// are summarised per request first (hits by their mean, misses and disk
/// hits by their median) and then across requests (misses and disk hits
/// by the geometric mean, hits by the median), so that the result does
/// not jump between the latency clusters of programs of very different
/// size.
struct ServiceResult {
  double ColdWallS = 0.0;  ///< Median cold-pass wall time.
  double MissP50Ms = 0.0;
  double HitP50Ms = 0.0, HitP99Ms = 0.0, HitRps = 0.0;
  double DiskP50Ms = 0.0;
  /// Median over the setup probes (a few per cycle) of the time from
  /// spawning a daemon on the populated cache to its first answer.
  double SetupS = 0.0;
  /// Largest VmHWM over every daemon of the run: the cold ones, which
  /// compile, and the restarted ones, which each serve one cycle.
  double DaemonPeakRssMb = 0.0;
  /// The last cold pass's miss report of every distinct program (by
  /// Programs index); empty when its request failed or hit another
  /// program's key.
  std::vector<std::string> Reports;
  std::vector<std::string> Keys;
};

struct ServiceParams {
  std::string DaemonBinary;
  std::string WorkDir;
  /// Measurement cycles run at least MinCycles times and for at least
  /// CycleSeconds.
  int MinCycles = 1;
  double CycleSeconds = 0.0;
  int WarmPassesPerCycle = 5;
  int WarmRequestsPerPass = 2000;
  /// Runs between the cold passes and the first restart, with the cache
  /// directory; the self-test tampers with an entry here.
  std::function<void(const std::string &CacheDir, const ServiceResult &)>
      BeforeRestart;
  /// Runs at the end of every measurement cycle, daemon stopped; the
  /// table workloads time one in-process compile pass here.
  std::function<void(int Cycle)> BetweenCycles;
};

ServiceResult runServicePhases(const Corpus &C, const ServiceParams &SP,
                               uint64_t Seed, RunResult &Out);

//===----------------------------------------------------------------------===//
// Workloads (TableWorkload.cpp, ServedWorkload.cpp, Traced.cpp)
//===----------------------------------------------------------------------===//

struct RunParams {
  Workload W = Workload::Table1;
  uint64_t Seed = 1;
  double Seconds = 20.0;   ///< --seconds: how long the cycles run.
  std::string DaemonBinary;
  std::string WorkDir;
};

/// Reports ii_geomean_cycles, kernel_cycles_geomean and buffer_mb.
void reportQualityMetrics(const std::vector<double> &II,
                          const std::vector<double> &Cycles,
                          double BufferBytes, RunResult &Out);

/// Reports every service metric of \p S into \p Out.
void reportServiceMetrics(const ServiceResult &S, RunResult &Out);

RunResult runTableWorkload(const RunParams &RP);
RunResult runServedWorkload(const RunParams &RP);
RunResult runTracedWorkload(const RunParams &RP);

/// Self-test (SelfTest.cpp): every check must accept clean schedules and
/// reject corrupted ones. Returns the number of failed expectations.
int runSelfTest(const RunParams &RP);

} // namespace perfbench

#endif // SGPU_PERFBENCH_BENCH_H
