//===- perfbench/src/Client.cpp - sgpu-served client and phases -----------===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <memory>
#include <map>
#include <numeric>
#include <sched.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char **environ;

namespace perfbench {

namespace {

/// Client connections (and daemon compile workers) of every workload.
constexpr int kConnections = 2;

/// How long a daemon may take to accept its first connection.
constexpr double kConnectTimeoutS = 20.0;

/// How long a client polls for a response before it blocks in recv. It
/// covers every hit and the misses of small programs (Table I hits reach
/// about 3 ms at p99); a long compile's client sleeps and frees its core.
constexpr auto kPollWindow = std::chrono::milliseconds(5);

/// Cold passes: a miss median needs more than one sample per program.
/// A served-graphgen pass takes about 14 s, almost all of it B&B budget
/// cuts.
constexpr int kColdPasses = 3;

/// setup_s samples per measurement cycle: a daemon started on the
/// populated cache, timed from spawn to its first answer, then stopped.
/// One start takes a few milliseconds, so a single one is mostly noise.
constexpr int kSetupProbesPerCycle = 5;

} // namespace

//===----------------------------------------------------------------------===//
// Daemon process
//===----------------------------------------------------------------------===//

Daemon::~Daemon() { stop(); }

bool Daemon::start(const std::string &Binary, const std::string &Sock,
                   const std::string &CacheDir, std::string *Err) {
  Socket = Sock;
  ::unlink(Socket.c_str());
  std::vector<std::string> Args = {Binary, "--unix=" + Socket,
                                   "--cache-dir=" + CacheDir,
                                   "--jobs=" + std::to_string(kConnections)};
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);

  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_addopen(&Actions, STDOUT_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  Started = Clock::now();
  pid_t Child = -1;
  int Rc = posix_spawn(&Child, Binary.c_str(), &Actions, nullptr,
                       Argv.data(), environ);
  posix_spawn_file_actions_destroy(&Actions);
  if (Rc != 0) {
    *Err = "cannot spawn " + Binary + ": " + std::strerror(Rc);
    return false;
  }
  Pid = Child;
  return true;
}

void Daemon::stop(int Signal) {
  if (Pid <= 0)
    return;
  ::kill(Pid, Signal);
  int Status = 0;
  while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  Pid = -1;
  ::unlink(Socket.c_str());
}

//===----------------------------------------------------------------------===//
// Connection
//===----------------------------------------------------------------------===//

Connection::~Connection() {
  if (Fd >= 0)
    ::close(Fd);
}

bool Connection::connectTo(const std::string &Socket,
                           Clock::time_point Deadline) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Socket.size() >= sizeof(Addr.sun_path))
    return false;
  std::memcpy(Addr.sun_path, Socket.c_str(), Socket.size() + 1);
  while (true) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0)
      return true;
    ::close(Fd);
    Fd = -1;
    if (Clock::now() > Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

bool Connection::roundTrip(const std::string &Line, std::string *Response) {
  std::string Frame = Line + "\n";
  for (size_t Sent = 0; Sent < Frame.size();) {
    ssize_t N = ::send(Fd, Frame.data() + Sent, Frame.size() - Sent,
                       MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Sent += static_cast<size_t>(N);
  }
  size_t Scanned = 0;
  auto PollUntil = Clock::now() + kPollWindow;
  while (true) {
    size_t Nl = Buf.find('\n', Scanned);
    if (Nl != std::string::npos) {
      Response->assign(Buf, 0, Nl);
      Buf.erase(0, Nl + 1);
      return true;
    }
    Scanned = Buf.size();
    char Chunk[65536];
    bool Poll = Clock::now() < PollUntil;
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), Poll ? MSG_DONTWAIT : 0);
    if (N < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (Poll)
        sched_yield();
      continue;
    }
    if (N <= 0)
      return false;
    Buf.append(Chunk, static_cast<size_t>(N));
  }
}

//===----------------------------------------------------------------------===//
// Responses
//===----------------------------------------------------------------------===//

namespace {

/// The string value of "\p Name":"..." inside \p Head, or "".
std::string headerField(std::string_view Head, const std::string &Name) {
  std::string Needle = "\"" + Name + "\":\"";
  size_t At = Head.find(Needle);
  if (At == std::string_view::npos)
    return "";
  At += Needle.size();
  size_t End = Head.find('"', At);
  return std::string(Head.substr(At, End - At));
}

} // namespace

Response parseResponse(const std::string &Line) {
  // makeOkResponse writes the envelope first and splices the report in
  // last, so the envelope fields are searched only before the report.
  Response R;
  const std::string ReportTag = ",\"report\":";
  size_t ReportAt = Line.find(ReportTag);
  std::string_view Head(Line.data(),
                        ReportAt == std::string::npos ? Line.size() : ReportAt);
  R.Ok = headerField(Head, "status") == "ok" && ReportAt != std::string::npos &&
         Line.size() > ReportAt + ReportTag.size() && Line.back() == '}';
  if (!R.Ok) {
    R.Error = Line.empty() ? "no response" : Line.substr(0, 300);
    return R;
  }
  R.Key = headerField(Head, "key");
  R.Hit = headerField(Head, "cache") == "hit";
  R.Coalesced = Head.find("\"coalesced\":true") != std::string_view::npos;
  size_t Begin = ReportAt + ReportTag.size();
  R.Report = Line.substr(Begin, Line.size() - 1 - Begin);
  return R;
}

//===----------------------------------------------------------------------===//
// Service phases
//===----------------------------------------------------------------------===//

namespace {

/// Sends requests 0..N-1 over the connections in a closed loop (each
/// connection sends its next request when the previous one returns) and
/// hands every response to \p OnResponse(Index, LatencyMs, Line) on the
/// connection's thread. Returns the wall time in seconds.
template <typename LineFn, typename ResponseFn>
double closedLoop(std::vector<Connection *> &Conns, int N, LineFn LineOf,
                  ResponseFn OnResponse) {
  std::atomic<int> Next{0};
  auto Start = Clock::now();
  auto Worker = [&](Connection *C) {
    std::string Resp;
    for (int I; (I = Next.fetch_add(1)) < N;) {
      const std::string &Line = LineOf(I);
      auto T0 = Clock::now();
      if (!C->roundTrip(Line, &Resp))
        Resp.clear();
      double Ms = 1e3 * secondsSince(T0);
      OnResponse(I, Ms, Resp);
    }
  };
  std::vector<std::thread> Threads;
  for (Connection *C : Conns)
    Threads.emplace_back(Worker, C);
  for (std::thread &T : Threads)
    T.join();
  return secondsSince(Start);
}

} // namespace

ServiceResult runServicePhases(const Corpus &C, const ServiceParams &SP,
                               uint64_t Seed, RunResult &Out) {
  namespace fs = std::filesystem;
  ServiceResult S;
  const int NumProgs = static_cast<int>(C.Programs.size());
  S.Reports.assign(NumProgs, "");
  S.Keys.assign(NumProgs, "");
  const std::string Sock = SP.WorkDir + "/svc.sock";
  const std::string CacheDir = SP.WorkDir + "/cache";
  std::error_code Ec;

  // A request that got no result (as opposed to a failed check).
  auto FailOp = [&](const std::string &Why) {
    ++Out.Failed;
    std::fprintf(stderr, "failed: %s\n", Why.c_str());
  };
  // Starts a daemon on CacheDir and opens \p NumConns client connections.
  auto Start = [&](Daemon &D, std::vector<std::unique_ptr<Connection>> &Own,
                   std::vector<Connection *> &Conns, int NumConns) {
    std::string Err;
    if (!D.start(SP.DaemonBinary, Sock, CacheDir, &Err)) {
      ++Out.Attempted;
      FailOp("daemon did not start: " + Err);
      return false;
    }
    auto Deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(
                                           kConnectTimeoutS));
    for (int I = 0; I < NumConns; ++I) {
      Own.push_back(std::make_unique<Connection>());
      if (!Own.back()->connectTo(D.socket(), Deadline)) {
        ++Out.Attempted;
        FailOp("daemon did not accept a connection");
        return false;
      }
      Conns.push_back(Own.back().get());
    }
    return true;
  };

  // Cold passes: a fresh daemon on an empty cache each, every group in
  // order with a barrier between groups, over one connection. With two,
  // two compiles, two polling clients and the daemon's connection
  // threads shared 4 cores, and the served miss median moved by 30 %
  // from run to run.
  Daemon D;
  std::vector<std::unique_ptr<Connection>> Own;
  std::vector<Connection *> Conns;
  std::vector<std::vector<double>> MissMs(NumProgs);
  std::vector<double> ColdWall;
  std::vector<const Request *> AllRequests;
  std::map<std::string, std::string> ReportByKey; // key -> miss report
  std::map<std::string, double> FirstII;          // key -> II, pass 0
  for (int ColdPass = 0; ColdPass < kColdPasses; ++ColdPass) {
    Own.clear();
    Conns.clear();
    D.stop();
    fs::remove_all(CacheDir, Ec);
    if (!Start(D, Own, Conns, 1))
      return S;
    S.Reports.assign(NumProgs, "");
    S.Keys.assign(NumProgs, "");
    AllRequests.clear();
    ReportByKey.clear();
    auto ColdStart = Clock::now();
    for (const std::vector<Request> &Group : C.ColdGroups) {
      std::vector<Response> Resps(Group.size());
      std::vector<double> Ms(Group.size());
      closedLoop(
          Conns, static_cast<int>(Group.size()),
          [&](int I) -> const std::string & { return Group[I].Line; },
          [&](int I, double L, const std::string &Line) {
            Resps[I] = parseResponse(Line);
            Ms[I] = L;
          });
      // Misses first, so every hit or coalesced follower of the group
      // has its key's miss report to compare against.
      for (int Round = 0; Round < 2; ++Round)
        for (size_t I = 0; I < Group.size(); ++I) {
          const Response &Resp = Resps[I];
          const Request &Q = Group[I];
          const std::string &Label = C.Programs[Q.Program].Label;
          bool Leader = Resp.Ok && !Resp.Hit && !Resp.Coalesced;
          if ((Round == 0) != Leader)
            continue;
          ++Out.Attempted;
          AllRequests.push_back(&Q);
          if (!Resp.Ok) {
            FailOp(Label + ": " + Resp.Error);
            continue;
          }
          if (Leader) {
            MissMs[Q.Program].push_back(Ms[I]);
            if (!ReportByKey.emplace(Resp.Key, Resp.Report).second)
              Out.fail("two misses for key " + Resp.Key);
            S.Reports[Q.Program] = Resp.Report;
            std::optional<ReportSummary> Sum = summarizeReport(Resp.Report);
            double II = Sum ? Sum->FinalII : -1.0;
            if (!FirstII.emplace(Resp.Key, II).second &&
                !sameReported(FirstII[Resp.Key], II))
              Out.fail(Label + ": II changed between cold passes");
          } else {
            auto It = ReportByKey.find(Resp.Key);
            if (It == ReportByKey.end() || It->second != Resp.Report)
              Out.fail(Label + ": hit differs from the miss report of its key");
          }
          if (Q.Role != RequestRole::Copy)
            S.Keys[Q.Program] = Resp.Key;
          else if (Resp.Key != S.Keys[Q.Program])
            Out.fail(Label + ": respelled copy changed the cache key");
        }
    }
    ColdWall.push_back(secondsSince(ColdStart));
    std::fprintf(stderr, "cold pass %d: %.3f s\n", ColdPass, ColdWall.back());
    S.DaemonPeakRssMb = std::max(S.DaemonPeakRssMb, peakRssMb(D.pid()));
  }
  S.ColdWallS = median(ColdWall);
  S.MissP50Ms = geomeanOfMedians(MissMs);
  for (const Request *Q : AllRequests)
    if (Q->Role == RequestRole::Variant &&
        S.Keys[Q->Program] == S.Keys[Q->Program - 1])
      Out.fail(C.Programs[Q->Program].Label +
               ": rate-scaled variant shares its original's key");

  Own.clear();
  Conns.clear();
  D.stop();
  if (SP.BeforeRestart)
    SP.BeforeRestart(CacheDir, S);

  // Measurement cycles, repeated for SP.CycleSeconds so that every
  // metric samples the whole run: a restart on the populated cache, one
  // pass served from disk, warm passes of memory hits, the setup_s
  // probes, then the caller's own work with the daemon stopped. Every
  // warm pass sends every cold request the same number of times in a
  // seeded order, so all passes have the same mix.
  const int NumReqs = static_cast<int>(AllRequests.size());
  std::vector<const Request *> DiskReqs;
  for (const Request *Q : AllRequests)
    if (!S.Reports[Q->Program].empty() && Q->Role != RequestRole::Copy)
      DiskReqs.push_back(Q);
  std::vector<int> Seq;
  for (int Round = 0;
       Round < std::max(1, SP.WarmRequestsPerPass / std::max(1, NumReqs));
       ++Round)
    for (int I = 0; I < NumReqs; ++I)
      Seq.push_back(I);
  sgpu::Rng Rand(Seed ^ 0x7f4a7c159e3779b9ull);
  std::vector<int> DiskOrder(DiskReqs.size());
  for (size_t I = 0; I < DiskOrder.size(); ++I)
    DiskOrder[I] = static_cast<int>(I);
  std::vector<std::vector<double>> DiskMs(DiskReqs.size()), HitMs(NumReqs);
  std::vector<double> P99, Rps, SetupS;
  std::atomic<int64_t> BadDisk{0}, BadHits{0}, NotOk{0};
  auto Check = [&](const std::string &Line, const Request &Q) {
    Response Resp = parseResponse(Line);
    if (!Resp.Ok) {
      NotOk.fetch_add(1);
      return false;
    }
    auto It = ReportByKey.find(Resp.Key);
    return Resp.Hit && Resp.Key == S.Keys[Q.Program] &&
           It != ReportByKey.end() && Resp.Report == It->second;
  };
  auto CycleStart = Clock::now();
  for (int Cycle = 0; !DiskReqs.empty() && (Cycle < SP.MinCycles ||
                                            secondsSince(CycleStart) <
                                                SP.CycleSeconds);
       ++Cycle) {
    Daemon RD;
    std::vector<std::unique_ptr<Connection>> ROwn;
    std::vector<Connection *> RConns;
    if (!Start(RD, ROwn, RConns, kConnections))
      break;
    // The first requests after a restart pay the new process's warm-up;
    // a new order each cycle spreads that over the programs.
    shuffleInPlace(DiskOrder, Rand);
    closedLoop(
        RConns, static_cast<int>(DiskOrder.size()),
        [&](int I) -> const std::string & {
          return DiskReqs[DiskOrder[I]]->Line;
        },
        [&](int I, double L, const std::string &Line) {
          DiskMs[DiskOrder[I]].push_back(L);
          if (!Check(Line, *DiskReqs[DiskOrder[I]]))
            BadDisk.fetch_add(1);
        });
    Out.Attempted += static_cast<int64_t>(DiskOrder.size());

    for (int Pass = 0; Pass < SP.WarmPassesPerCycle; ++Pass) {
      shuffleInPlace(Seq, Rand);
      std::vector<double> Ms(Seq.size());
      double Wall = closedLoop(
          RConns, static_cast<int>(Seq.size()),
          [&](int I) -> const std::string & {
            return AllRequests[Seq[I]]->Line;
          },
          [&](int I, double L, const std::string &Line) {
            Ms[I] = L;
            if (!Check(Line, *AllRequests[Seq[I]]))
              BadHits.fetch_add(1);
          });
      Out.Attempted += static_cast<int64_t>(Seq.size());
      for (size_t I = 0; I < Seq.size(); ++I)
        HitMs[Seq[I]].push_back(Ms[I]);
      P99.push_back(percentile(Ms, 99.0));
      Rps.push_back(static_cast<double>(Seq.size()) / Wall);
    }
    S.DaemonPeakRssMb = std::max(S.DaemonPeakRssMb, peakRssMb(RD.pid()));
    ROwn.clear();
    RConns.clear();
    RD.stop();

    // Each probe sends the same request (the first distinct program's),
    // so that every setup_s sample does the same work.
    for (int Probe = 0; Probe < kSetupProbesPerCycle; ++Probe) {
      Daemon PD;
      std::vector<std::unique_ptr<Connection>> POwn;
      std::vector<Connection *> PConns;
      if (!Start(PD, POwn, PConns, kConnections))
        break;
      std::string Line;
      ++Out.Attempted;
      if (!PConns[0]->roundTrip(DiskReqs[0]->Line, &Line))
        Line.clear();
      SetupS.push_back(secondsSince(PD.startedAt()));
      if (!Check(Line, *DiskReqs[0]))
        BadDisk.fetch_add(1);
      // It wrote nothing, and SIGTERM waits up to 100 ms for the
      // daemon's stop-flag poll.
      PD.stop(SIGKILL);
    }
    if (SP.BetweenCycles)
      SP.BetweenCycles(Cycle);
  }
  S.DiskP50Ms = geomeanOfMedians(DiskMs);
  // Per request the mean, not the median: two closed-loop clients drift
  // between overlapping and alternating in the daemon, which splits each
  // request's latencies into two modes whose median flips between runs
  // while the mean (and hits/s) holds.
  std::vector<double> HitMeans;
  for (const std::vector<double> &V : HitMs)
    if (!V.empty())
      HitMeans.push_back(std::accumulate(V.begin(), V.end(), 0.0) /
                         static_cast<double>(V.size()));
  S.HitP50Ms = median(HitMeans);
  S.HitP99Ms = median(P99);
  S.HitRps = median(Rps);
  S.SetupS = median(SetupS);
  std::fprintf(stderr,
               "measured %zu warm passes of %zu hits, %zu restarts, %zu "
               "setup probes; hit p50 %.4f ms, disk p50 %.4f ms, setup "
               "%.4f ms\n",
               Rps.size(), Seq.size(), DiskMs.empty() ? 0 : DiskMs[0].size(),
               SetupS.size(), S.HitP50Ms, S.DiskP50Ms, 1e3 * S.SetupS);
  if (NotOk.load()) {
    Out.Failed += NotOk.load();
    std::fprintf(stderr, "failed: %lld requests not answered ok\n",
                 static_cast<long long>(NotOk.load()));
  }
  if (BadHits.load() || BadDisk.load())
    Out.fail(std::to_string(BadHits.load() + BadDisk.load()) +
             " hits (" + std::to_string(BadDisk.load()) +
             " from disk after a restart) were not the miss report of "
             "their key");
  fs::remove_all(CacheDir, Ec);
  return S;
}

void reportServiceMetrics(const ServiceResult &S, RunResult &Out) {
  Out.set("miss_p50_ms", S.MissP50Ms, "ms");
  Out.set("hit_p50_ms", S.HitP50Ms, "ms");
  Out.set("hit_p99_ms", S.HitP99Ms, "ms");
  Out.set("hit_rps", S.HitRps, "1/s");
  Out.set("disk_hit_p50_ms", S.DiskP50Ms, "ms");
  Out.set("setup_s", S.SetupS, "s");
}

} // namespace perfbench
