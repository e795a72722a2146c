//===- perfbench/src/Corpus.cpp - Workload program sets -------------------===//
//
// Part of the streamit-gpu-swp project, reproducing "Software Pipelined
// Execution of Stream Programs on GPUs" (CGO 2009).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "benchmarks/Registry.h"
#include "parser/Parser.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "testing/DslPrinter.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

using namespace sgpu;

namespace {

/// The served-graphgen draw: GraphGen seeds [1, kGraphGenSeeds], the
/// same prefix `sgpu-bench-load` starts from. It is fixed rather than
/// drawn from the run seed so that the quality metrics (II, kernel
/// cycles, buffers) and the compile time compare across runs; the run
/// seed orders and respells the requests instead.
constexpr uint64_t kGraphGenSeeds = 24;

/// Rate factor of the near-duplicate variants (same topology, new key);
/// OracleOptions::RateScaleC uses the same factor.
constexpr int64_t kVariantRateScale = 2;

/// Renames every filter ("filter F3 (" -> "filter S<salt>_3 ("). Node
/// names are not part of the cache key, so the copy keeps the key.
std::string renameFilters(const std::string &Src, uint64_t Salt) {
  const std::string Kw = "filter ";
  std::string Out;
  size_t Pos = 0;
  for (size_t At; (At = Src.find(Kw, Pos)) != std::string::npos;) {
    Out.append(Src, Pos, At + Kw.size() - Pos);
    size_t End = At + Kw.size();
    while (End < Src.size() &&
           (std::isalnum(static_cast<unsigned char>(Src[End])) ||
            Src[End] == '_'))
      ++End;
    Out += "S" + std::to_string(Salt) + "_" +
           Src.substr(At + Kw.size(), End - At - Kw.size());
    Pos = End;
  }
  Out.append(Src, Pos, std::string::npos);
  return Out;
}

/// Re-indents with tabs, doubles the line breaks and prepends a
/// comment: a textually different spelling of the same program.
std::string reformat(const std::string &Src, uint64_t Salt) {
  std::string Out = "// copy " + std::to_string(Salt) + "\n";
  bool LineStart = true;
  for (size_t I = 0; I < Src.size(); ++I) {
    if (LineStart && Src.compare(I, 2, "  ") == 0) {
      Out += '\t';
      ++I;
      continue;
    }
    LineStart = Src[I] == '\n';
    Out += Src[I];
    if (LineStart)
      Out += '\n';
  }
  return Out;
}

Program tableProgram(const bench::BenchmarkSpec &B, Workload W,
                     MachineMode M) {
  Program P;
  P.Benchmark = B.Name;
  if (W == Workload::Table1) {
    P.Label = B.Name + "/" + machineModeName(M);
    P.Options.Machine = M;
    P.Options.Sched.NumWorkers = 1;
    P.OptionsJson = std::string("{\"machine\":\"") + machineModeName(M) +
                    "\"}";
  } else {
    P.Label = B.Name + "/cycle";
    P.Options.Timing = TimingModelKind::Cycle;
    P.Options.Schema = SchemaMode::Auto;
    P.Options.Sched.NumWorkers = 2;
    P.OptionsJson = "{\"timing_model\":\"cycle\",\"schema\":\"auto\"}";
  }
  return P;
}

Program graphGenProgram(const testing::GraphSpec &Spec,
                        const std::string &Label) {
  Program P;
  P.Label = Label;
  P.Spec = Spec;
  testing::DslPrintResult Printed =
      testing::printStreamDsl(*testing::buildStream(Spec));
  if (!Printed.Ok) {
    std::fprintf(stderr, "error: %s does not print: %s\n", Label.c_str(),
                 Printed.Error.c_str());
    std::exit(2);
  }
  P.Source = Printed.Text;
  // The daemon solves single-worker with no II window; the in-process
  // compiles of these programs match it.
  P.Options.Sched.NumWorkers = 1;
  P.Options.Sched.IIWindow = 1;
  return P;
}

} // namespace

std::optional<Workload> parseWorkload(const std::string &Name) {
  if (Name == "table1")
    return Workload::Table1;
  if (Name == "table1-cycle")
    return Workload::Table1Cycle;
  if (Name == "served-graphgen")
    return Workload::ServedGraphGen;
  return std::nullopt;
}

std::string makeRequestLine(const Program &P, const std::string &Id,
                            const std::string &Source) {
  std::string Line = "{\"id\":\"" + Id + "\",";
  if (!P.Benchmark.empty())
    Line += "\"benchmark\":\"" + P.Benchmark + "\"";
  else
    Line += "\"source\":\"" + JsonWriter::escape(Source) + "\"";
  if (!P.OptionsJson.empty())
    Line += ",\"options\":" + P.OptionsJson;
  return Line + "}";
}

Corpus buildCorpus(Workload W, uint64_t Seed) {
  Corpus C;
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull);
  auto RequestFor = [&](int Prog, RequestRole Role, const std::string &Id,
                        const std::string &Source) {
    return Request{Prog, Role, makeRequestLine(C.Programs[Prog], Id, Source)};
  };

  if (W != Workload::ServedGraphGen) {
    std::vector<Request> Group;
    for (const bench::BenchmarkSpec &B : bench::allBenchmarks()) {
      C.Programs.push_back(tableProgram(B, W, MachineMode::Gpu));
      if (W == Workload::Table1)
        C.Programs.push_back(tableProgram(B, W, MachineMode::Hybrid));
    }
    for (int I = 0; I < static_cast<int>(C.Programs.size()); ++I)
      Group.push_back(RequestFor(I, RequestRole::Original,
                                 "c" + std::to_string(I), ""));
    C.ColdGroups.push_back(std::move(Group));
    return C;
  }

  std::vector<Request> Originals, Variants, Copies;
  for (uint64_t S = 1; S <= kGraphGenSeeds; ++S) {
    testing::GraphSpec Spec = testing::generateGraphSpec(S);
    int Orig = static_cast<int>(C.Programs.size());
    C.Programs.push_back(graphGenProgram(Spec, "gg" + std::to_string(S)));
    C.Programs.push_back(graphGenProgram(
        testing::scaleSpecRates(Spec, kVariantRateScale),
        "gg" + std::to_string(S) + "x" + std::to_string(kVariantRateScale)));
    const std::string Tag = std::to_string(S);
    Originals.push_back(RequestFor(Orig, RequestRole::Original, "o" + Tag,
                                   C.Programs[Orig].Source));
    Variants.push_back(RequestFor(Orig + 1, RequestRole::Variant, "v" + Tag,
                                  C.Programs[Orig + 1].Source));
    // A reformatted copy, a renamed one, or both: same key as Orig.
    uint64_t Salt = R.next() % 100000;
    std::string Text = C.Programs[Orig].Source;
    int64_t Kind = R.nextInt(3);
    if (Kind != 1)
      Text = renameFilters(Text, Salt);
    if (Kind != 0)
      Text = reformat(Text, Salt);
    Copies.push_back(RequestFor(Orig, RequestRole::Copy, "r" + Tag, Text));
  }
  C.ColdGroups = {std::move(Originals), std::move(Variants),
                  std::move(Copies)};
  return C;
}

StreamGraph buildProgramGraph(const Program &P) {
  if (!P.Benchmark.empty())
    return flatten(*bench::findBenchmark(P.Benchmark)->Build());
  ParseDiagnostic Diag;
  StreamPtr Parsed = parseStreamProgram(P.Source, &Diag);
  if (!Parsed) {
    std::fprintf(stderr, "error: %s does not parse: %s\n", P.Label.c_str(),
                 Diag.str().c_str());
    std::exit(2);
  }
  return flatten(*Parsed);
}

} // namespace perfbench
