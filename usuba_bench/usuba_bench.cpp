//===- usuba_bench.cpp - The repository benchmark -------------------------===//
//
// Part of the usuba-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One workload per process, load from one thread, every output checked
/// against the bundled reference ciphers (src/ciphers/Ref*.h).
///
/// Usage: usuba_bench --workload W --seed S [--seconds T] [--trace FILE]
///                    [--smoke] [--self-test]
///
/// Workloads (README.md says why each exists):
///  * ctr_mslice    — bulk CTR, aes128/hslice, chacha20/rectangle/serpent
///                    vslice: the generic byte<->register codec path;
///  * ctr_bitslice  — bulk CTR, des/present bitslice: the runCtrBatch
///                    fast path, kernel-dominated, long JIT set-up;
///  * ecb_roundtrip — ECB encrypt then decrypt of caller data, aes128,
///                    rectangle, serpent: both kernels, no counters;
///  * service_mix   — CipherService, des/bitslice/sse, 32 sessions on one
///                    key, 90% 64 B / 10% 4 KiB requests, in three phases:
///                    open-loop Poisson at 2k and 20k rps, then a closed
///                    loop of 32 callers.
///
/// Every metric prints as one "name value unit" line; header lines start
/// with '#'. The end-to-end metrics (setup_s, cpb, lat_p50_us, lat_p90_us,
/// peak_rss_mb) are defined for every workload. With --trace the run
/// measures the workload twice, untraced then traced, prints the
/// per-layer metrics of the traced half plus trace_overhead, and writes
/// the spans it recorded around each public call as Chrome-trace JSON
/// with the Telemetry snapshot alongside.
///
//===----------------------------------------------------------------------===//

#include "ciphers/RefAes.h"
#include "ciphers/RefChacha20.h"
#include "ciphers/RefDes.h"
#include "ciphers/RefPresent.h"
#include "ciphers/RefRectangle.h"
#include "ciphers/RefSerpent.h"
#include "ciphers/UsubaCipher.h"
#include "runtime/Layout.h"
#include "service/CipherService.h"
#include "support/Telemetry.h"
#include "types/Arch.h"
#include "types/Type.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/resource.h>

using namespace usuba;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

[[noreturn]] void fatal(const std::string &Message) {
  std::fprintf(stderr, "usuba_bench: %s\n", Message.c_str());
  std::exit(1);
}

//===----------------------------------------------------------------------===//
// Inputs and statistics
//===----------------------------------------------------------------------===//

/// Every key, nonce, data byte, request size and arrival gap of a run
/// comes from here, so one seed always yields the same inputs.
class Rng {
public:
  explicit Rng(uint64_t Seed) : Engine(Seed) {}
  uint64_t next() { return Engine(); }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  size_t below(size_t N) { return static_cast<size_t>(next() % N); }
  double exponential(double Rate) { return -std::log1p(-unit()) / Rate; }
  void fill(uint8_t *Out, size_t N) {
    for (size_t I = 0; I < N; I += 8) {
      const uint64_t V = next();
      std::memcpy(Out + I, &V, std::min<size_t>(8, N - I));
    }
  }
  std::vector<uint8_t> bytes(size_t N) {
    std::vector<uint8_t> Out(N);
    fill(Out.data(), N);
    return Out;
  }

private:
  std::mt19937_64 Engine;
};

/// Exact quantile with linear interpolation between order statistics.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

double geomean(const std::vector<double> &V) {
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return V.empty() ? 0 : std::exp(LogSum / static_cast<double>(V.size()));
}

double mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / static_cast<double>(V.size());
}

/// Each run is cut into windows, each measured on the next CPU the
/// process may use (see CpuRotation), and the end-to-end figures are
/// those of the quietest window (the minimum over windows). On a shared
/// virtual machine the speed of one virtual CPU depends on what the host
/// runs beside it: at one moment the four CPUs of the reference host
/// differed by 1.7x, for seconds to minutes at a time. A run's median
/// moves with the CPU it happened to land on; its quietest window
/// measures the code.
constexpr size_t MaxWindows = 32;

size_t windowsFor(double Seconds, double WindowSeconds) {
  return static_cast<size_t>(std::clamp<long>(
      std::lround(Seconds / WindowSeconds), 2, long{MaxWindows}));
}

double quietest(const std::vector<double> &PerWindow) {
  return *std::min_element(PerWindow.begin(), PerWindow.end());
}

/// Pins the calling thread to one allowed CPU per window, round robin;
/// restores the original affinity when destroyed. Best effort: where
/// affinity cannot be set the thread stays where the scheduler put it,
/// and the windows still take the quietest moment.
class CpuRotation {
public:
  CpuRotation() {
    CPU_ZERO(&Original);
    if (sched_getaffinity(0, sizeof(Original), &Original) != 0)
      return;
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Original))
        Cpus.push_back(C);
  }
  ~CpuRotation() {
    if (!Cpus.empty())
      sched_setaffinity(0, sizeof(Original), &Original);
  }
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  void enter(size_t Window) {
    if (Cpus.empty())
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[Window % Cpus.size()], &One);
    sched_setaffinity(0, sizeof(One), &One);
  }

private:
  cpu_set_t Original;
  std::vector<int> Cpus;
};

/// Fixed-memory latency histogram with 1/1024 relative resolution: exact
/// below 1024 ns, 1024 sub-buckets per octave above, clamped at 2^34 ns.
/// support/Histogram.h keeps 32 sub-buckets per octave, too coarse for a
/// metric gated at a few percent; and unlike a sample vector its memory
/// does not grow with the request rate, so neither does peak_rss_mb.
class FineHistogram {
public:
  void record(uint64_t Ns) {
    ++Counts[index(Ns)];
    ++Total;
  }
  void merge(const FineHistogram &Other) {
    for (size_t I = 0; I < NumBuckets; ++I)
      Counts[I] += Other.Counts[I];
    Total += Other.Total;
  }
  void clear() {
    std::fill(Counts.begin(), Counts.end(), 0);
    Total = 0;
  }
  /// Value at quantile \p Q in microseconds (bucket midpoint); 0 when
  /// empty.
  double quantileUs(double Q) const {
    if (!Total)
      return 0;
    const uint64_t Rank = static_cast<uint64_t>(Q * double(Total - 1));
    uint64_t Seen = 0;
    for (size_t I = 0; I < NumBuckets; ++I) {
      Seen += Counts[I];
      if (Seen > Rank)
        return midpoint(I) / 1e3;
    }
    return midpoint(NumBuckets - 1) / 1e3;
  }

private:
  static constexpr unsigned SubBits = 10, MaxBits = 34;
  static constexpr size_t NumBuckets = size_t{MaxBits - SubBits + 1}
                                       << SubBits;

  static size_t index(uint64_t V) {
    V = std::min<uint64_t>(V, (uint64_t{1} << MaxBits) - 1);
    if (V < (uint64_t{1} << SubBits))
      return static_cast<size_t>(V);
    const unsigned Shift = 63 - static_cast<unsigned>(__builtin_clzll(V)) -
                           SubBits;
    return (size_t{Shift + 1} << SubBits) +
           static_cast<size_t>((V >> Shift) & ((1u << SubBits) - 1));
  }
  static double midpoint(size_t I) {
    if (I < (size_t{1} << SubBits))
      return double(I);
    const unsigned Shift = static_cast<unsigned>(I >> SubBits) - 1;
    const uint64_t Low = ((uint64_t{1} << SubBits) + (I & ((1u << SubBits) -
                                                           1)))
                         << Shift;
    return double(Low) + double(uint64_t{1} << Shift) / 2;
  }

  std::vector<uint32_t> Counts = std::vector<uint32_t>(NumBuckets);
  uint64_t Total = 0;
};

void printMetric(const std::string &Name, double Value, const char *Unit) {
  std::printf("%s %.10g %s\n", Name.c_str(), Value, Unit);
}

uint64_t load64be(const uint8_t *B) {
  uint64_t V = 0;
  for (unsigned I = 0; I < 8; ++I)
    V = (V << 8) | B[I];
  return V;
}

void store64be(uint64_t V, uint8_t *B) {
  for (unsigned I = 0; I < 8; ++I)
    B[I] = static_cast<uint8_t>(V >> (8 * (7 - I)));
}

uint32_t load32le(const uint8_t *B) {
  return uint32_t{B[0]} | uint32_t{B[1]} << 8 | uint32_t{B[2]} << 16 |
         uint32_t{B[3]} << 24;
}

void store32le(uint32_t V, uint8_t *B) {
  for (unsigned I = 0; I < 4; ++I)
    B[I] = static_cast<uint8_t>(V >> (8 * I));
}

//===----------------------------------------------------------------------===//
// Tracing: spans around each public call, kept in memory
//===----------------------------------------------------------------------===//

class Tracer {
public:
  struct Span {
    const char *Name;
    const char *Cipher; ///< nullptr when the span is not per cipher
    uint64_t StartNs, EndNs;
    int64_t Parent; ///< index into the span list, -1 for a root
    uint64_t ReqId;
  };

  bool On = false;

  /// Records a span; returns its index (the parent handle of children),
  /// or -1 while tracing is off.
  int64_t add(const char *Name, const char *Cipher, uint64_t StartNs,
              uint64_t EndNs, int64_t Parent = -1, uint64_t ReqId = 0) {
    if (!On)
      return -1;
    Spans.push_back({Name, Cipher, StartNs, EndNs, Parent, ReqId});
    return static_cast<int64_t>(Spans.size() - 1);
  }
  /// Opens a span whose end is set by close().
  int64_t open(const char *Name) { return add(Name, nullptr, nowNs(), 0); }
  void close(int64_t Index) {
    if (Index >= 0)
      Spans[static_cast<size_t>(Index)].EndNs = nowNs();
  }

  /// Chrome-trace JSON ("traceEvents") with the Telemetry snapshot of the
  /// same process under "telemetry".
  bool write(const std::string &Path) const {
    FILE *Out = std::fopen(Path.c_str(), "w");
    if (!Out)
      return false;
    const uint64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
    std::fprintf(Out, "{\"traceEvents\": [");
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(Out,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %lld, \"request\": %llu",
                   I ? "," : "", S.Name, double(S.StartNs - Origin) / 1e3,
                   double(S.EndNs - S.StartNs) / 1e3, I,
                   static_cast<long long>(S.Parent),
                   static_cast<unsigned long long>(S.ReqId));
      if (S.Cipher)
        std::fprintf(Out, ", \"cipher\": \"%s\"", S.Cipher);
      std::fprintf(Out, "}}");
    }
    std::fprintf(Out, "\n],\n\"telemetry\": %s}\n",
                 Telemetry::instance().snapshotJson().c_str());
    return std::fclose(Out) == 0;
  }

private:
  std::vector<Span> Spans;
};

//===----------------------------------------------------------------------===//
// Reference ciphers and output checking
//===----------------------------------------------------------------------===//

/// The portable reference implementation of one keyed cipher, speaking
/// the byte formats of UsubaCipher (block layouts and the counter-block
/// format of UsubaCipher::ctrXor).
class Reference {
public:
  Reference(CipherId Id, const uint8_t *Key) : Id(Id) {
    switch (Id) {
    case CipherId::Rectangle: {
      uint16_t Rows[5];
      for (unsigned R = 0; R < 5; ++R)
        Rows[R] = static_cast<uint16_t>(Key[2 * R] | Key[2 * R + 1] << 8);
      rectangleKeySchedule80(Rows, RectKeys);
      break;
    }
    case CipherId::Des:
      desKeySchedule(load64be(Key), DesKeys);
      break;
    case CipherId::Aes128:
      aes128KeySchedule(Key, AesKeys);
      break;
    case CipherId::Chacha20:
      std::memcpy(ChachaKey, Key, 32);
      break;
    case CipherId::Serpent:
      serpentKeySchedule(Key, SerpentKeys);
      break;
    case CipherId::Present:
      presentKeySchedule80(Key, PresentKeys);
      break;
    }
  }

  unsigned blockBytes() const {
    switch (Id) {
    case CipherId::Aes128:
    case CipherId::Serpent:
      return 16;
    case CipherId::Chacha20:
      return 64;
    default:
      return 8;
    }
  }

  /// One block of the forward (encryption) direction.
  void encrypt(const uint8_t *In, uint8_t *Out) const {
    switch (Id) {
    case CipherId::Rectangle: {
      uint16_t State[4];
      for (unsigned R = 0; R < 4; ++R)
        State[R] = static_cast<uint16_t>(In[2 * R] | In[2 * R + 1] << 8);
      rectangleEncrypt(State, RectKeys);
      for (unsigned R = 0; R < 4; ++R) {
        Out[2 * R] = static_cast<uint8_t>(State[R]);
        Out[2 * R + 1] = static_cast<uint8_t>(State[R] >> 8);
      }
      return;
    }
    case CipherId::Des:
      store64be(desEncryptBlock(load64be(In), DesKeys), Out);
      return;
    case CipherId::Aes128:
      std::memcpy(Out, In, 16);
      aesEncryptBlock(Out, AesKeys);
      return;
    case CipherId::Serpent: {
      uint32_t State[4];
      for (unsigned W = 0; W < 4; ++W)
        State[W] = load32le(In + 4 * W);
      serpentEncrypt(State, SerpentKeys);
      for (unsigned W = 0; W < 4; ++W)
        store32le(State[W], Out + 4 * W);
      return;
    }
    case CipherId::Present:
      store64be(presentEncryptBlock(load64be(In), PresentKeys), Out);
      return;
    case CipherId::Chacha20:
      fatal("chacha20 has no block encryption");
    }
  }

  /// Keystream blocks [Counter, Counter + Blocks) of a CTR stream.
  void keystream(const uint8_t *Nonce, uint64_t Counter, size_t Blocks,
                 uint8_t *Out) const {
    const unsigned Bb = blockBytes();
    for (size_t B = 0; B < Blocks; ++B) {
      uint8_t *Ks = Out + B * Bb;
      uint8_t Block[16] = {};
      if (Id == CipherId::Chacha20) {
        uint32_t State[16], Words[16];
        chacha20InitState(State, ChachaKey,
                          static_cast<uint32_t>(Counter + B), Nonce);
        chacha20Block(State, Words);
        for (unsigned W = 0; W < 16; ++W)
          store32le(Words[W], Ks + 4 * W);
      } else if (Bb == 8) {
        store64be(load64be(Nonce) + Counter + B, Block);
        encrypt(Block, Ks);
      } else {
        std::memcpy(Block, Nonce, 12);
        const uint32_t Ctr = static_cast<uint32_t>(Counter + B);
        for (unsigned I = 0; I < 4; ++I)
          Block[12 + I] = static_cast<uint8_t>(Ctr >> (8 * (3 - I)));
        encrypt(Block, Ks);
      }
    }
  }

private:
  CipherId Id;
  uint16_t RectKeys[RectangleRoundKeys][4] = {};
  uint64_t DesKeys[16] = {};
  uint8_t AesKeys[11][16] = {};
  uint8_t ChachaKey[32] = {};
  uint32_t SerpentKeys[SerpentRoundKeys][4] = {};
  uint64_t PresentKeys[32] = {};
};

/// Operations attempted and failed. An operation fails on any output
/// mismatch, exception, request that never finished, or when it ran on
/// the simulator instead of native code.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool SelfTest = false; ///< corrupt the first compared byte
  bool Corrupted = false;

  /// Compares \p Got against \p Want. Under --self-test the first byte
  /// ever compared is flipped first, so the run must report a failure.
  bool same(uint8_t *Got, const uint8_t *Want, size_t N) {
    if (SelfTest && !Corrupted && N) {
      Got[0] ^= 1;
      Corrupted = true;
    }
    return std::memcmp(Got, Want, N) == 0;
  }
  void record(bool Ok) {
    ++Attempted;
    if (!Ok)
      ++Failed;
  }
};

//===----------------------------------------------------------------------===//
// Set-up and per-layer probes
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  std::string TracePath;
  bool Smoke = false;
  bool SelfTest = false;
};

/// Bulk calls are 4 MiB, twice the per-core L2 of the reference host, so
/// the working set streams through memory as a large message would.
size_t callBytes(const Options &O) { return O.Smoke ? 64 << 10 : 4 << 20; }
/// Bytes of each bulk call compared against the reference.
constexpr size_t CheckWindow = 4096;

CipherConfig benchConfig(CipherId Id, SlicingMode Slicing,
                         const Arch &Target) {
  CipherConfig C;
  C.Id = Id;
  C.Slicing = Slicing;
  C.Target = &Target;
  C.Threads = 1;
  // Every set-up compiles from scratch, as a fresh process would.
  C.UseKernelCache = false;
  return C;
}

UsubaCipher compileOrDie(const CipherConfig &C) {
  CipherResult R = UsubaCipher::compile(C);
  if (!R)
    fatal(std::string("compile ") + cipherName(C.Id) + ": " + R.errorText());
  return std::move(R).take();
}

/// Cycles per byte of \p Fn, which processes \p Bytes: the fastest of 8
/// repetitions rotated over the CPUs, like the windows of a measurement.
template <typename FnT> double cyclesPerByte(FnT &&Fn, double Bytes) {
  CpuRotation Cpus;
  std::vector<double> Reps;
  for (unsigned R = 0; R < 8; ++R) {
    Cpus.enter(R);
    Fn(); // warm this CPU's caches
    const uint64_t C0 = telemetryCycles();
    Fn();
    Reps.push_back(double(telemetryCycles() - C0) / Bytes);
  }
  return quietest(Reps);
}

/// The kernel layer alone: rawKernelCall, no transposition.
double kernelCpb(UsubaCipher &C, size_t TargetBytes) {
  const size_t PerCall = size_t{C.blocksPerCall()} * C.blockBytes();
  const size_t Calls = std::max<size_t>(16, TargetBytes / PerCall);
  return cyclesPerByte(
      [&] {
        for (size_t I = 0; I < Calls; ++I)
          C.rawKernelCall();
      },
      double(Calls * PerCall));
}

/// The transposition layer alone: SliceLayout::packDense of the per-block
/// parameter and unpackDense of the outputs, on the kernel's own layout,
/// parameter lengths and interleave factor.
double transposeCpb(const UsubaCipher &C, size_t TargetBytes, Rng &R) {
  const CompiledKernel &K = C.kernel();
  const SliceLayout Layout(K.Prog.Direction, K.Prog.MBits, *K.Prog.Target);
  const unsigned InLen = K.ParamTypes[0].flattenedLength();
  unsigned OutLen = 0;
  for (const Type &T : K.ReturnTypes)
    OutLen += T.flattenedLength();
  const unsigned Slices = Layout.slices(), W = Layout.widthWords();
  const unsigned Interleave = K.Prog.InterleaveFactor;
  const uint64_t Mask =
      K.Prog.MBits >= 64 ? ~uint64_t{0} : (uint64_t{1} << K.Prog.MBits) - 1;
  std::vector<uint64_t> InAtoms(size_t{Slices} * InLen),
      OutAtoms(size_t{Slices} * OutLen), DenseIn(size_t{InLen} * W),
      DenseOut(size_t{OutLen} * W);
  for (uint64_t &A : InAtoms)
    A = R.next() & Mask;
  for (uint64_t &D : DenseOut)
    D = R.next();
  const size_t PerBatch = size_t{C.blocksPerCall()} * C.blockBytes();
  const size_t Batches = std::max<size_t>(16, TargetBytes / PerBatch);
  return cyclesPerByte(
      [&] {
        for (size_t B = 0; B < Batches; ++B)
          for (unsigned T = 0; T < Interleave; ++T) {
            Layout.packDense(InAtoms.data(), InLen, DenseIn.data());
            Layout.unpackDense(DenseOut.data(), OutLen, OutAtoms.data());
          }
      },
      double(Batches * PerBatch));
}

/// Per-layer split of one cipher's end-to-end cost (c/B).
struct LayerSplit {
  double Total = 0, Kernel = 0, Transpose = 0;
  uint64_t Gates = 0, Depth = 0;
};

/// The library's own counters and compile spans, read before and after
/// a stretch of the run.
struct TelemetryMark {
  uint64_t Batches = 0, FastBatches = 0, UsubacNs = 0, JitNs = 0;
  static TelemetryMark now() {
    Telemetry &T = Telemetry::instance();
    return {T.counter("runner.batches"), T.counter("runner.ctr_fast_batches"),
            T.spanStat("usubac.compile").TotalNs,
            T.spanStat("jit.compile").TotalNs};
  }
  TelemetryMark operator-(const TelemetryMark &Earlier) const {
    return {Batches - Earlier.Batches, FastBatches - Earlier.FastBatches,
            UsubacNs - Earlier.UsubacNs, JitNs - Earlier.JitNs};
  }
};

/// The per-layer metrics of the cipher path, which every workload has.
/// Per-cipher c/B figures are averaged arithmetically so that kernel +
/// transpose + driver adds up to total. The generic transposition counts
/// only for the batches that take it: the CTR fast path transposes its
/// own way, and that cost stays in driver_cpb.
void printCipherLayers(const std::vector<LayerSplit> &Splits,
                       const TelemetryMark &Setups, size_t SetupReps,
                       const TelemetryMark &Traced, double TraceOverheadPct) {
  std::vector<double> Total, Kernel, Transpose;
  uint64_t Gates = 0, Depth = 0;
  for (const LayerSplit &S : Splits) {
    Total.push_back(S.Total);
    Kernel.push_back(S.Kernel);
    Transpose.push_back(S.Transpose);
    Gates += S.Gates;
    Depth += S.Depth;
  }
  const double FastFrac =
      Traced.Batches ? double(Traced.FastBatches) / double(Traced.Batches)
                     : 0.0;
  const double OnPath = (1 - FastFrac) * mean(Transpose);
  printMetric("ciphers.total_cpb", mean(Total), "c/B");
  printMetric("runtime.kernel_cpb", mean(Kernel), "c/B");
  printMetric("runtime.transpose_cpb", OnPath, "c/B");
  printMetric("ciphers.driver_cpb", mean(Total) - mean(Kernel) - OnPath,
              "c/B");
  printMetric("circuits.kernel_gates", double(Gates), "count");
  printMetric("core.kernel_depth", double(Depth), "count");
  printMetric("runtime.ctr_fast_frac", FastFrac, "ratio");
  printMetric("core.usubac_ms", double(Setups.UsubacNs) / 1e6 / SetupReps,
              "ms");
  printMetric("cbackend.jit_ms", double(Setups.JitNs) / 1e6 / SetupReps, "ms");
  printMetric("trace_overhead", TraceOverheadPct, "%");
}

//===----------------------------------------------------------------------===//
// Service phases
//===----------------------------------------------------------------------===//

/// The four request stages CipherService records (see CipherService.h).
constexpr const char *StageNames[4] = {"queue_wait", "coalesce_wait",
                                       "kernel", "callback"};

Histogram &stageHistogram(unsigned I) {
  return Telemetry::instance().histogramRef(std::string("service.") +
                                            StageNames[I] + "_ns");
}

/// One service phase. Its histograms are allocated once, so the memory
/// the benchmark itself uses does not depend on how fast the service is.
/// Empty on the bulk workloads, which never reach CipherService.
struct PhaseResult {
  const char *Name = "";
  bool OpenLoop = true;
  /// Latency per window (open loop: by due time) and over the phase.
  std::vector<FineHistogram> WindowLat = std::vector<FineHistogram>(MaxWindows);
  FineHistogram Lat, Late, Submit;
  size_t Windows = 0;
  /// Closed loop: bytes completed per window.
  std::vector<uint64_t> WindowBytes = std::vector<uint64_t>(MaxWindows);
  uint64_t CompletedInWindow = 0, Cycles = 0;
  double Seconds = 0;
  ServiceStats Before, After;
  Histogram::Snapshot Stages[4];

  void reset(size_t NumWindows) {
    for (FineHistogram &H : WindowLat)
      H.clear();
    Lat.clear();
    Late.clear();
    Submit.clear();
    std::fill(WindowBytes.begin(), WindowBytes.end(), 0);
    Windows = NumWindows;
    CompletedInWindow = Cycles = 0;
  }
  /// Latency quantile \p Q of the quietest window.
  double quietestLatUs(double Q) const {
    std::vector<double> V;
    for (size_t W = 0; W < Windows; ++W)
      V.push_back(WindowLat[W].quantileUs(Q));
    return quietest(V);
  }
  /// Wall cycles per byte of the quietest closed-loop window.
  double quietestCpb() const {
    std::vector<double> V;
    for (size_t W = 0; W < Windows; ++W)
      V.push_back(double(Cycles) / double(Windows) /
                  double(std::max<uint64_t>(1, WindowBytes[W])));
    return quietest(V);
  }
  double fillRatio() const {
    const uint64_t Slots = After.CoalescedSlots - Before.CoalescedSlots;
    return Slots ? double(After.CoalescedBlocks - Before.CoalescedBlocks) /
                       double(Slots)
                 : 0.0;
  }
  double deadlineFlushFrac() const {
    const uint64_t Batches = After.CoalescedBatches - Before.CoalescedBatches;
    return Batches ? double(After.DeadlineFlushes - Before.DeadlineFlushes) /
                         double(Batches)
                   : 0.0;
  }
};

/// The service and load-generator layers, per phase, over whole phases.
void printServiceLayers(const PhaseResult (&Phases)[3]) {
  for (const PhaseResult &P : Phases) {
    const std::string Sfx = std::string(".") + P.Name;
    for (unsigned I = 0; I < 4; ++I)
      printMetric(std::string("service.") + StageNames[I] + "_p50_us" + Sfx,
                  double(P.Stages[I].percentile(0.5)) / 1e3, "us");
    printMetric("service.fill_ratio" + Sfx, P.fillRatio(), "ratio");
    printMetric("service.deadline_flush_frac" + Sfx, P.deadlineFlushFrac(),
                "ratio");
    printMetric("loadgen.submit_us_p90" + Sfx, P.Submit.quantileUs(0.9),
                "us");
    if (P.OpenLoop) {
      printMetric("loadgen.late_us_p99" + Sfx, P.Late.quantileUs(0.99), "us");
      printMetric("lat_p50_us" + Sfx, P.Lat.quantileUs(0.5), "us");
      printMetric("lat_p90_us" + Sfx, P.Lat.quantileUs(0.9), "us");
    }
    printMetric("lat_p99_us" + Sfx, P.Lat.quantileUs(0.99), "us");
    printMetric("lat_p999_us" + Sfx, P.Lat.quantileUs(0.999), "us");
  }
  const PhaseResult &Sat = Phases[2];
  printMetric("sat_rps",
              Sat.Seconds > 0 ? double(Sat.CompletedInWindow) / Sat.Seconds
                              : 0.0,
              "req/s");
}

//===----------------------------------------------------------------------===//
// Bulk workloads: ctr_mslice, ctr_bitslice, ecb_roundtrip
//===----------------------------------------------------------------------===//

struct BulkCipher {
  CipherId Id;
  SlicingMode Slicing;
  std::vector<uint8_t> Key, Nonce;
  std::optional<UsubaCipher> Cipher;
  std::optional<Reference> Ref;
  /// CTR: Data is encrypted in place. ECB: Data -> Mid -> Out.
  std::vector<uint8_t> Data, Mid, Out, Plain, Want;
  uint64_t Counter = 0;
  /// One entry per timed call of the current measurement.
  struct Call {
    size_t Window;
    double Cpb, Us;
  };
  std::vector<Call> Calls;
};

class BulkWorkload {
public:
  BulkWorkload(const Options &O, bool Ecb,
               std::vector<std::pair<CipherId, SlicingMode>> Specs)
      : O(O), Ecb(Ecb), R(O.Seed) {
    for (auto [Id, Slicing] : Specs) {
      BulkCipher &B = Ciphers.emplace_back();
      B.Id = Id;
      B.Slicing = Slicing;
    }
  }

  /// Compiles every cipher, installs keys and runs one warm-up call of
  /// each operation (first-batch self-checks, lazy inverse kernels).
  /// Returns the wall seconds it took.
  double setup() {
    const uint64_t T0 = nowNs();
    for (BulkCipher &B : Ciphers) {
      B.Cipher.reset();
      B.Cipher.emplace(
          compileOrDie(benchConfig(B.Id, B.Slicing, archAuto())));
      UsubaCipher &C = *B.Cipher;
      if (B.Key.empty()) {
        B.Key = R.bytes(C.keyBytes());
        B.Nonce = R.bytes(12);
        B.Ref.emplace(B.Id, B.Key.data());
        B.Data = R.bytes(callBytes(O));
        if (Ecb) {
          B.Mid.resize(B.Data.size());
          B.Out.resize(B.Data.size());
        }
      }
      C.setKey(B.Key.data(), B.Key.size());
      std::vector<uint8_t> Warm(size_t{2} * C.blocksPerCall() *
                                C.blockBytes());
      if (Ecb) {
        const size_t N = Warm.size() / C.blockBytes();
        C.ecbEncrypt(Warm.data(), Warm.data(), N);
        C.ecbDecrypt(Warm.data(), Warm.data(), N);
      } else {
        C.ctrXor(Warm.data(), Warm.size(), B.Nonce.data(), 0);
      }
    }
    return double(nowNs() - T0) / 1e9;
  }

  /// Rounds of interleaved calls, one per cipher, for \p Seconds; every
  /// round belongs to one window.
  void measure(double Seconds, Outcome &Out, Tracer &T) {
    for (BulkCipher &B : Ciphers)
      B.Calls.clear();
    Windows = windowsFor(Seconds, 0.4);
    const int64_t Phase = T.open(Ecb ? "bulk.ecb" : "bulk.ctr");
    CpuRotation Cpus;
    const uint64_t Start = nowNs();
    for (size_t W = 0; W < Windows; ++W) {
      Cpus.enter(W);
      const uint64_t End =
          Start + static_cast<uint64_t>(Seconds * 1e9 * double(W + 1) /
                                        double(Windows));
      do {
        for (BulkCipher &B : Ciphers) {
          if (Ecb)
            ecbCall(B, W, Out, T, Phase);
          else
            ctrCall(B, W, Out, T, Phase);
        }
      } while (nowNs() < End);
    }
    T.close(Phase);
  }

  /// The end-to-end figures of the last measure(): the geometric mean
  /// over ciphers of each one's median (p90) call in its quietest window.
  double cpb() const { return overCiphers(&BulkCipher::Call::Cpb, 0.5); }
  double latP50Us() const { return overCiphers(&BulkCipher::Call::Us, 0.5); }
  double latP90Us() const { return overCiphers(&BulkCipher::Call::Us, 0.9); }

  /// Per-cipher layer split of the last measure(). ECB runs two kernels
  /// and two transpositions per block; both count as the forward one,
  /// since rawKernelCall reaches only the forward kernel.
  std::vector<LayerSplit> layers() {
    std::vector<LayerSplit> Splits;
    const double Passes = Ecb ? 2.0 : 1.0;
    for (BulkCipher &B : Ciphers) {
      LayerSplit S;
      S.Total = quietestWindow(B, &BulkCipher::Call::Cpb, 0.5);
      S.Kernel = Passes * kernelCpb(*B.Cipher, callBytes(O));
      S.Transpose = Passes * transposeCpb(*B.Cipher, callBytes(O), R);
      const CipherStats Stats = B.Cipher->stats();
      S.Gates = Stats.KernelGates;
      S.Depth = Stats.KernelDepth;
      std::printf("# layers %s/%s total %.4f kernel %.4f transpose %.4f "
                  "c/B gates %llu depth %llu\n",
                  cipherName(B.Id), slicingName(B.Slicing), S.Total,
                  S.Kernel, S.Transpose,
                  static_cast<unsigned long long>(S.Gates),
                  static_cast<unsigned long long>(S.Depth));
      Splits.push_back(S);
    }
    return Splits;
  }

  /// This workload bypasses CipherService: its layers did no work.
  void printServiceLayers() const {
    PhaseResult Idle[3];
    Idle[0].Name = "low";
    Idle[1].Name = "high";
    Idle[2].Name = "sat";
    Idle[2].OpenLoop = false;
    ::printServiceLayers(Idle);
  }

  void printHeader() const {
    for (const BulkCipher &B : Ciphers)
      std::printf("# cipher %s/%s arch %s engine %s\n", cipherName(B.Id),
                  slicingName(B.Slicing), B.Cipher->config().Target->Name,
                  B.Cipher->isNative() ? "native" : "sim");
  }

private:
  using CallField = double BulkCipher::Call::*;

  /// Quantile \p Q of \p Field over \p B's calls in each window; the
  /// quietest window's.
  double quietestWindow(const BulkCipher &B, CallField Field,
                        double Q) const {
    std::vector<double> ByWindow;
    for (size_t W = 0; W < Windows; ++W) {
      std::vector<double> V;
      for (const BulkCipher::Call &C : B.Calls)
        if (C.Window == W)
          V.push_back(C.*Field);
      ByWindow.push_back(quantile(V, Q));
    }
    return quietest(ByWindow);
  }

  double overCiphers(CallField Field, double Q) const {
    std::vector<double> ByCipher;
    for (const BulkCipher &B : Ciphers)
      ByCipher.push_back(quietestWindow(B, Field, Q));
    return geomean(ByCipher);
  }

  /// A block-aligned window of \p Window bytes at a seeded offset.
  size_t checkOffset(size_t Len, size_t Window, unsigned Bb) {
    return R.below((Len - Window) / Bb + 1) * Bb;
  }

  void record(BulkCipher &B, size_t W, Tracer &T, int64_t Phase,
              const char *Name, uint64_t C0, uint64_t T0) {
    const uint64_t C1 = telemetryCycles(), T1 = nowNs();
    B.Calls.push_back({W, double(C1 - C0) / double(B.Data.size()),
                       double(T1 - T0) / 1e3});
    T.add(Name, cipherName(B.Id), T0, T1, Phase);
  }

  void ctrCall(BulkCipher &B, size_t W, Outcome &Out, Tracer &T,
               int64_t Phase) {
    UsubaCipher &C = *B.Cipher;
    const unsigned Bb = C.blockBytes();
    const size_t Len = B.Data.size();
    const size_t Window = std::min(CheckWindow, Len);
    const size_t Off = checkOffset(Len, Window, Bb);
    B.Plain.assign(B.Data.begin() + Off, B.Data.begin() + Off + Window);

    const uint64_t C0 = telemetryCycles(), T0 = nowNs();
    C.ctrXor(B.Data.data(), Len, B.Nonce.data(), B.Counter);
    record(B, W, T, Phase, "UsubaCipher::ctrXor", C0, T0);

    B.Want.resize(Window);
    B.Ref->keystream(B.Nonce.data(), B.Counter + Off / Bb, Window / Bb,
                     B.Want.data());
    for (size_t I = 0; I < Window; ++I)
      B.Want[I] ^= B.Plain[I];
    Out.record(C.isNative() && Out.same(&B.Data[Off], B.Want.data(), Window));
    B.Counter += (Len + Bb - 1) / Bb;
  }

  void ecbCall(BulkCipher &B, size_t W, Outcome &Out, Tracer &T,
               int64_t Phase) {
    UsubaCipher &C = *B.Cipher;
    const unsigned Bb = C.blockBytes();
    const size_t Len = B.Data.size(), Blocks = Len / Bb;
    const size_t Window = std::min(CheckWindow, Len);
    const size_t Off = checkOffset(Len, Window, Bb);
    R.fill(&B.Data[Off], Window); // fresh plaintext where the check looks

    const uint64_t C0 = telemetryCycles(), T0 = nowNs();
    C.ecbEncrypt(B.Data.data(), B.Mid.data(), Blocks);
    C.ecbDecrypt(B.Mid.data(), B.Out.data(), Blocks);
    record(B, W, T, Phase, "UsubaCipher::ecbEncrypt+ecbDecrypt", C0, T0);

    B.Want.resize(Window);
    for (size_t I = 0; I < Window; I += Bb)
      B.Ref->encrypt(&B.Data[Off + I], &B.Want[I]);
    const bool EncOk = Out.same(&B.Mid[Off], B.Want.data(), Window);
    const bool DecOk = Out.same(B.Out.data(), B.Data.data(), Len);
    Out.record(C.isNative() && EncOk && DecOk);
  }

  const Options &O;
  const bool Ecb;
  Rng R;
  std::vector<BulkCipher> Ciphers;
  size_t Windows = 0;
};

//===----------------------------------------------------------------------===//
// service_mix: CipherService under open- and closed-loop load
//===----------------------------------------------------------------------===//

constexpr unsigned ServiceSessions = 32;
constexpr size_t SmallRequest = 64, LargeRequest = 4096;
/// Every 64th request is checked, on 64 bytes at a seeded offset.
constexpr uint64_t CheckEvery = 64;
constexpr size_t RequestCheck = 64;
/// Checks held per phase until the phase ends (fixed memory; checks
/// beyond it are skipped, which no run of under a minute reaches).
constexpr size_t MaxChecks = 1 << 16;

/// One request in flight. Slots live in a fixed array: the completion
/// callback holds a pointer to its slot.
struct Slot {
  std::vector<uint8_t> Buf = std::vector<uint8_t>(LargeRequest);
  size_t Len = 0;
  unsigned Session = 0;
  uint64_t Counter = 0, ReqId = 0;
  uint64_t DueNs = 0, SubmitNs = 0, SubmitEndNs = 0;
  size_t Window = 0; ///< open loop: the window of the due time
  uint64_t DoneNs = 0; ///< written by the callback before Done
  std::atomic<bool> Done{false};
  bool Busy = false;
  std::future<void> Fut;
  bool Checked = false;
  size_t CheckOff = 0;
  uint8_t Plain[RequestCheck] = {};
};

/// A completed checked request, compared after its phase so that the
/// reference cipher never runs on the generator's clock.
struct PendingCheck {
  unsigned Session = 0;
  uint64_t Counter = 0; ///< of the first checked block
  uint8_t Plain[RequestCheck] = {}, Got[RequestCheck] = {};
};

class ServiceWorkload {
public:
  explicit ServiceWorkload(const Options &O)
      : R(O.Seed), Slots(new Slot[MaxInFlight]), Checks(MaxChecks) {
    // DES/bitslice on sse: 128-block batches, so batch fill is visible.
    Config = benchConfig(CipherId::Des, SlicingMode::Bitslice, archSSE());
    Key = R.bytes(8);
    Ref.emplace(CipherId::Des, Key.data());
    for (unsigned S = 0; S < ServiceSessions; ++S)
      Nonces.push_back(R.bytes(8));
    for (size_t I = 0; I < MaxInFlight; ++I)
      R.fill(Slots[I].Buf.data(), LargeRequest);
    Phases[0].Name = "low";
    Phases[1].Name = "high";
    Phases[2].Name = "sat";
    Phases[2].OpenLoop = false;
  }

  /// A fresh service with every session open and both request paths
  /// (coalesced and direct) warmed. Returns the wall seconds it took.
  double setup() {
    const uint64_t T0 = nowNs();
    Svc.reset();
    Svc = std::make_unique<CipherService>();
    Sids.clear();
    for (unsigned S = 0; S < ServiceSessions; ++S) {
      SessionResult Res = Svc->openSession(Config, Key.data(), Key.size());
      if (!Res)
        fatal("openSession: " + Res.errorText());
      Sids.push_back(Res.id());
    }
    NextCounter.assign(ServiceSessions, 0);
    std::vector<uint8_t> Warm(LargeRequest);
    for (size_t Len : {LargeRequest, SmallRequest}) {
      std::future<void> F = Svc->submitCtrXor(
          Sids[0], Warm.data(), Len, Nonces[0].data(), NextCounter[0]);
      Svc->flush();
      F.get();
      NextCounter[0] += Len / 8;
    }
    return double(nowNs() - T0) / 1e9;
  }

  /// low, high and sat, splitting \p Seconds 2:2:6: the latency of the
  /// open-loop phases is steady within a second, while the saturated
  /// phase needs many windows (see windowsFor).
  void measure(double Seconds, Outcome &Out, Tracer &T) {
    openLoop(Phases[0], 2000, 0.2 * Seconds, Out, T);
    openLoop(Phases[1], 20000, 0.2 * Seconds, Out, T);
    closedLoop(Phases[2], 0.6 * Seconds, Out, T);
  }

  /// The end-to-end figures: the saturated service's wall cycles per
  /// payload byte, and latency as the geometric mean of the low and high
  /// phases; each from its phase's quietest window.
  double cpb() const { return Phases[2].quietestCpb(); }
  double latP50Us() const {
    return geomean(
        {Phases[0].quietestLatUs(0.5), Phases[1].quietestLatUs(0.5)});
  }
  double latP90Us() const {
    return geomean(
        {Phases[0].quietestLatUs(0.9), Phases[1].quietestLatUs(0.9)});
  }

  /// Total is the saturated service's cost per byte; kernel and
  /// transpose come from a directly compiled cipher of the same
  /// configuration.
  std::vector<LayerSplit> layers() {
    UsubaCipher C = compileOrDie(Config);
    C.setKey(Key.data(), Key.size());
    LayerSplit S;
    S.Total = cpb();
    S.Kernel = kernelCpb(C, 1 << 20);
    S.Transpose = transposeCpb(C, 1 << 20, R);
    S.Gates = C.stats().KernelGates;
    S.Depth = C.stats().KernelDepth;
    return {S};
  }

  void printServiceLayers() const { ::printServiceLayers(Phases); }

  void printHeader() const {
    std::printf("# cipher des/bitslice arch %s sessions %u\n",
                Config.Target->Name, ServiceSessions);
  }

private:
  static constexpr size_t MaxInFlight = 1024;

  /// Windows of 0.4 s, or 0.2 s in the saturated phase, whose requests
  /// complete every few microseconds.
  void beginPhase(PhaseResult &P, double Seconds) {
    P.reset(windowsFor(Seconds, P.OpenLoop ? 0.4 : 0.2));
    P.Before = Svc->stats();
    for (unsigned I = 0; I < 4; ++I)
      P.Stages[I] = stageHistogram(I).snapshot();
    InFlight.clear();
    Free.clear();
    for (size_t I = MaxInFlight; I-- > 0;)
      Free.push_back(&Slots[I]);
    NumChecks = 0;
  }

  /// Waits for every request still in flight, closes the phase's books
  /// and compares the checked outputs.
  void endPhase(PhaseResult &P, Outcome &Out, Tracer &T, int64_t Span) {
    Svc->flush();
    for (size_t I = 0; I < MaxInFlight; ++I) {
      Slot &S = Slots[I];
      if (!S.Busy)
        continue;
      if (S.Fut.wait_for(std::chrono::seconds(5)) ==
              std::future_status::ready &&
          S.Done.load(std::memory_order_acquire)) {
        finish(S, P, Out, T, Span);
      } else {
        S.Busy = false;
        Out.record(false); // never finished
      }
    }
    for (size_t W = 0; W < P.Windows; ++W)
      P.Lat.merge(P.WindowLat[W]);
    for (unsigned I = 0; I < 4; ++I) {
      Histogram::Snapshot Now = stageHistogram(I).snapshot();
      Now.subtract(P.Stages[I]);
      P.Stages[I] = Now;
    }
    P.After = Svc->stats();
    uint8_t Want[RequestCheck];
    for (size_t I = 0; I < NumChecks; ++I) {
      PendingCheck &C = Checks[I];
      Ref->keystream(Nonces[C.Session].data(), C.Counter, RequestCheck / 8,
                     Want);
      for (size_t J = 0; J < RequestCheck; ++J)
        Want[J] ^= C.Plain[J];
      Out.record(Out.same(C.Got, Want, RequestCheck));
    }
  }

  /// Fills \p S with the next request of session \p Session.
  void prepare(Slot &S, unsigned Session) {
    S.Len = R.unit() < 0.1 ? LargeRequest : SmallRequest;
    S.Session = Session;
    S.Counter = NextCounter[Session];
    NextCounter[Session] += (S.Len + 7) / 8;
    S.ReqId = NextReqId++;
    S.Checked = S.ReqId % CheckEvery == 0;
    if (S.Checked) {
      S.CheckOff = R.below((S.Len - RequestCheck) / 8 + 1) * 8;
      std::memcpy(S.Plain, &S.Buf[S.CheckOff], RequestCheck);
    }
  }

  /// Returns false when the service refused the request.
  bool submit(Slot &S, Outcome &Out) {
    S.Done.store(false, std::memory_order_relaxed);
    S.SubmitNs = nowNs();
    try {
      Slot *P = &S;
      S.Fut = Svc->submitCtrXor(Sids[S.Session], S.Buf.data(), S.Len,
                                Nonces[S.Session].data(), S.Counter, [P] {
                                  P->DoneNs = nowNs();
                                  P->Done.store(true,
                                                std::memory_order_release);
                                });
    } catch (...) {
      S.SubmitEndNs = nowNs();
      Out.record(false);
      return false;
    }
    S.SubmitEndNs = nowNs();
    S.Busy = true;
    return true;
  }

  /// Retires a completed request: latency from its due time (open loop)
  /// or its submit time (closed loop). Checked requests are recorded
  /// when they are compared.
  void finish(Slot &S, PhaseResult &P, Outcome &Out, Tracer &T,
              int64_t Span) {
    S.Busy = false;
    bool Ok = true;
    try {
      S.Fut.get();
    } catch (...) {
      Ok = false;
    }
    const uint64_t From = P.OpenLoop ? S.DueNs : S.SubmitNs;
    P.WindowLat[S.Window].record(S.DoneNs - From);
    if (S.Checked) { // traced like they are checked: every 64th request
      const int64_t Req =
          T.add("loadgen.request", nullptr, From, S.DoneNs, Span, S.ReqId);
      T.add("CipherService::submitCtrXor", nullptr, S.SubmitNs,
            S.SubmitEndNs, Req, S.ReqId);
    }
    if (Ok && S.Checked && NumChecks < MaxChecks) {
      PendingCheck &C = Checks[NumChecks++];
      C.Session = S.Session;
      C.Counter = S.Counter + S.CheckOff / 8;
      std::memcpy(C.Plain, S.Plain, RequestCheck);
      std::memcpy(C.Got, &S.Buf[S.CheckOff], RequestCheck);
    } else {
      Out.record(Ok);
    }
  }

  /// Retires every completed open-loop request.
  void reap(PhaseResult &P, Outcome &Out, Tracer &T, int64_t Span) {
    for (size_t I = 0; I < InFlight.size();) {
      Slot *S = InFlight[I];
      if (!S->Done.load(std::memory_order_acquire)) {
        ++I;
        continue;
      }
      finish(*S, P, Out, T, Span);
      Free.push_back(S);
      InFlight[I] = InFlight.back();
      InFlight.pop_back();
    }
  }

  /// Poisson arrivals at \p Rps over uniformly chosen sessions, each
  /// timed from when it was due.
  void openLoop(PhaseResult &P, double Rps, double Seconds, Outcome &Out,
                Tracer &T) {
    beginPhase(P, Seconds);
    const int64_t Span = T.open(P.Name);
    const uint64_t Start = nowNs();
    const uint64_t Length = static_cast<uint64_t>(Seconds * 1e9);
    CpuRotation Cpus;
    size_t Window = SIZE_MAX;
    double Due = double(Start);
    while (true) {
      Due += R.exponential(Rps) * 1e9;
      const uint64_t DueNs = static_cast<uint64_t>(Due);
      if (DueNs >= Start + Length)
        break;
      if (const size_t W = (DueNs - Start) * P.Windows / Length; W != Window)
        Cpus.enter(Window = W);
      // Sleep while far from the due time, then spin to it.
      for (uint64_t Now = nowNs(); Now < DueNs || Free.empty();
           Now = nowNs()) {
        reap(P, Out, T, Span);
        if (DueNs > Now + 200000)
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(DueNs - Now - 100000));
      }
      Slot &S = *Free.back();
      Free.pop_back();
      prepare(S, static_cast<unsigned>(R.below(ServiceSessions)));
      S.DueNs = DueNs;
      S.Window = Window;
      if (submit(S, Out))
        InFlight.push_back(&S);
      else
        Free.push_back(&S);
      P.Late.record(S.SubmitNs - DueNs);
      P.Submit.record(S.SubmitEndNs - S.SubmitNs);
    }
    P.Seconds = double(nowNs() - Start) / 1e9;
    endPhase(P, Out, T, Span);
    T.close(Span);
  }

  /// One caller per session, each with one request in flight; windows
  /// by completion time.
  void closedLoop(PhaseResult &P, double Seconds, Outcome &Out, Tracer &T) {
    beginPhase(P, Seconds);
    const int64_t Span = T.open(P.Name);
    const uint64_t Start = nowNs();
    const uint64_t Length = static_cast<uint64_t>(Seconds * 1e9);
    CpuRotation Cpus;
    size_t Window = SIZE_MAX;
    const uint64_t C0 = telemetryCycles();
    for (uint64_t Now = Start; Now < Start + Length; Now = nowNs()) {
      const size_t W = (Now - Start) * P.Windows / Length;
      if (W != Window)
        Cpus.enter(Window = W);
      for (unsigned Caller = 0; Caller < ServiceSessions; ++Caller) {
        Slot &S = Slots[Caller];
        if (S.Busy) {
          if (!S.Done.load(std::memory_order_acquire))
            continue;
          finish(S, P, Out, T, Span);
          ++P.CompletedInWindow;
          P.WindowBytes[W] += S.Len;
        }
        prepare(S, Caller);
        S.Window = W;
        submit(S, Out);
        P.Submit.record(S.SubmitEndNs - S.SubmitNs);
      }
    }
    P.Cycles = telemetryCycles() - C0;
    P.Seconds = double(nowNs() - Start) / 1e9;
    endPhase(P, Out, T, Span);
    T.close(Span);
  }

  Rng R;
  /// Declared before Svc: the service's completion callbacks write into
  /// the slots, so the slots must outlive it.
  std::unique_ptr<Slot[]> Slots;
  CipherConfig Config;
  std::vector<uint8_t> Key;
  std::optional<Reference> Ref;
  std::vector<std::vector<uint8_t>> Nonces;
  std::unique_ptr<CipherService> Svc;
  std::vector<SessionId> Sids;
  std::vector<uint64_t> NextCounter;
  uint64_t NextReqId = 0;
  std::vector<Slot *> InFlight, Free;
  std::vector<PendingCheck> Checks;
  size_t NumChecks = 0;
  PhaseResult Phases[3];
};

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

std::string firstLineOf(const std::string &Command) {
  FILE *P = popen(Command.c_str(), "r");
  if (!P)
    return "unknown";
  char Line[256] = {};
  const bool Got = std::fgets(Line, sizeof(Line), P) != nullptr;
  pclose(P);
  std::string S = Got ? Line : "";
  while (!S.empty() && (S.back() == '\n' || S.back() == '\r'))
    S.pop_back();
  return S.empty() ? "unknown" : S;
}

/// What two compared runs must share: host, arch, the JIT's host
/// compiler and the source revision.
void printRunHeader(const Options &O) {
  const char *Cc = std::getenv("USUBA_CC");
  if (!Cc)
    Cc = std::getenv("CC");
  const std::string Compiler = Cc ? Cc : "cc";
  std::printf("# workload %s\n# seed %llu\n# seconds %g\n# host_threads %u\n"
              "# arch_best %s\n# jit_cc %s %s\n# git %s\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, std::max(1u, std::thread::hardware_concurrency()),
              archBest().Name, Compiler.c_str(),
              firstLineOf("'" + Compiler + "' -dumpfullversion 2>/dev/null")
                  .c_str(),
              firstLineOf("git describe --always --dirty 2>/dev/null").c_str());
}

double peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return double(Usage.ru_maxrss) / 1024.0; // KiB on Linux
}

template <typename WorkloadT> void run(const Options &O, WorkloadT &W) {
  Outcome Out;
  Out.SelfTest = O.SelfTest;
  Tracer T;
  const bool Traced = !O.TracePath.empty();
  // Telemetry is on only while the set-ups compile (for the compiler and
  // JIT spans) and during the traced half.
  Telemetry::instance().setEnabled(Traced);
  // setup_s is the median of three set-ups, or of two once they have
  // taken over 8 s (which keeps every workload's run near half a minute);
  // one under --smoke.
  const TelemetryMark Start = TelemetryMark::now();
  std::vector<double> Setups;
  double SetupSeconds = 0;
  while (Setups.size() < (O.Smoke ? 1u : 3u) &&
         !(Setups.size() >= 2 && SetupSeconds > 8)) {
    Setups.push_back(W.setup());
    SetupSeconds += Setups.back();
  }
  const TelemetryMark SetupDelta = TelemetryMark::now() - Start;
  Telemetry::instance().setEnabled(false);
  W.printHeader();

  const double Seconds = Traced ? O.Seconds / 2 : O.Seconds;
  W.measure(Seconds, Out, T);
  const double UntracedCpb = W.cpb();
  printMetric("setup_s", median(Setups), "s");
  printMetric("cpb", UntracedCpb, "c/B");
  printMetric("lat_p50_us", W.latP50Us(), "us");
  printMetric("lat_p90_us", W.latP90Us(), "us");

  if (Traced) {
    T.On = true;
    Telemetry::instance().setEnabled(true);
    const TelemetryMark Before = TelemetryMark::now();
    W.measure(Seconds, Out, T);
    const TelemetryMark TracedDelta = TelemetryMark::now() - Before;
    const double OverheadPct = 100.0 * (W.cpb() / UntracedCpb - 1.0);
    printCipherLayers(W.layers(), SetupDelta, Setups.size(), TracedDelta,
                      OverheadPct);
    W.printServiceLayers();
    Telemetry::instance().setEnabled(false);
    if (!T.write(O.TracePath))
      fatal("cannot write " + O.TracePath);
  }

  printMetric("peak_rss_mb", peakRssMb(), "MiB");
  printMetric("attempted", double(Out.Attempted), "count");
  printMetric("failed", double(Out.Failed), "count");
  printMetric("error_rate",
              Out.Attempted ? double(Out.Failed) / double(Out.Attempted) : 1.0,
              "ratio");
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    const bool HasValue = I + 1 < Argc;
    if (A == "--workload" && HasValue)
      O.Workload = Argv[++I];
    else if (A == "--seed" && HasValue)
      O.Seed = std::strtoull(Argv[++I], nullptr, 10);
    else if (A == "--seconds" && HasValue)
      O.Seconds = std::strtod(Argv[++I], nullptr);
    else if (A == "--trace" && HasValue)
      O.TracePath = Argv[++I];
    else if (A == "--smoke")
      O.Smoke = true;
    else if (A == "--self-test")
      O.SelfTest = true;
    else
      fatal("usage: usuba_bench --workload W --seed S [--seconds T] "
            "[--trace FILE] [--smoke] [--self-test]");
  }
  if (!(O.Seconds > 0))
    fatal("--seconds must be positive");

  using Spec = std::pair<CipherId, SlicingMode>;
  const Spec Aes{CipherId::Aes128, SlicingMode::Hslice},
      Chacha{CipherId::Chacha20, SlicingMode::Vslice},
      Rect{CipherId::Rectangle, SlicingMode::Vslice},
      Serpent{CipherId::Serpent, SlicingMode::Vslice},
      Des{CipherId::Des, SlicingMode::Bitslice},
      Present{CipherId::Present, SlicingMode::Bitslice};
  std::optional<BulkWorkload> Bulk;
  if (O.Workload == "ctr_mslice")
    Bulk.emplace(O, /*Ecb=*/false, std::vector{Aes, Chacha, Rect, Serpent});
  else if (O.Workload == "ctr_bitslice")
    Bulk.emplace(O, /*Ecb=*/false, std::vector{Des, Present});
  else if (O.Workload == "ecb_roundtrip")
    Bulk.emplace(O, /*Ecb=*/true, std::vector{Aes, Rect, Serpent});
  else if (O.Workload != "service_mix")
    fatal("unknown workload '" + O.Workload + "'");

  printRunHeader(O);
  if (Bulk) {
    run(O, *Bulk);
  } else {
    ServiceWorkload W(O);
    run(O, W);
  }
  return 0;
}
