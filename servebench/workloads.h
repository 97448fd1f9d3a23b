// The benchmark's workloads. Each generates its inputs from the seed,
// builds what serving needs in Setup() (timed as setup_s), and hands the
// driver one round of ServingEngine::RunContinuous requests at a time.
//
// A round is a closed loop: its requests arrive a fixed number per
// iteration, the engine caps the batch, and a request waits for a free slot
// before it starts. The driver runs rounds until the measuring time is up.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/constrained_decoder.h"
#include "engine/mock_llm.h"
#include "engine/serving_engine.h"
#include "json/json.h"
#include "trace.h"

namespace servebench {

// Vocabulary of the synthetic tokenizer every workload uses.
constexpr std::int32_t kVocabSize = 32000;
// Every workload compresses the simulated forward pass by this factor. At
// 0.2 a cfg_decode step's forward pass (about 2.9 ms on a 4-vCPU Xeon VM)
// is about twice its mask phase, so the overlap hides mask work unless a
// change slows it past the forward pass. At 0.1 the two were about equal,
// and TPOT then followed every swing of a shared host's CPU speed.
constexpr double kTimeScale = 0.2;
// Mask-phase threads, the calling thread included. With the simulated GPU
// thread that makes three busy threads on four cores. At four, two busy
// processes beside the benchmark raised cfg_decode's TPOT by 16%; at two,
// by under 1%.
constexpr std::int32_t kMaskThreads = 2;

// Compile-service and registry counters summed over the services a
// workload's set-ups ran (one per set-up).
struct RuntimeCounts {
  std::int64_t services = 0;
  std::int64_t submitted = 0;
  std::int64_t registry_hits = 0;
  std::int64_t coalesced = 0;
  std::int64_t evictions = 0;
  std::int64_t disk_mmap_hits = 0;
  double compile_seconds = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the tokenizer, mock model and grammars. With a tracer, compile
  // submits carry latency callbacks parented to `span`.
  virtual void Setup(Tracer* tracer, std::uint32_t span) = 0;
  virtual const xgr::engine::MockLlm& Llm() const = 0;
  virtual xgr::engine::EngineOptions Options() const = 0;
  virtual std::int32_t MaxBatch() const = 0;
  // The requests of round `round`. With a tracer, decoders are wrapped in
  // TracedDecoder, parented to `round_span`.
  virtual std::vector<xgr::engine::ContinuousRequest> NextRound(
      std::int64_t round, Tracer* tracer, std::uint32_t round_span) = 0;
  // A fresh, unwrapped decoder over the grammar of `request`, for replay.
  virtual std::shared_ptr<xgr::baselines::ConstrainedDecoder> FreshDecoder(
      const xgr::engine::ContinuousRequest& request) = 0;
  // Counters of every set-up run so far.
  virtual const RuntimeCounts& SetupRuntime() const = 0;
  // Times the public stage functions (lowering, PDA compile, mask-cache
  // build) on each distinct grammar of the workload, and artifact loads
  // from its disk tier if it has one.
  virtual void StagePass(Tracer* tracer, std::uint32_t span) = 0;
  // Workload parameters, recorded in every result.
  virtual xgr::json::Object Params() const = 0;
};

// `work_dir` is an empty scratch directory the workload may create files in.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed,
                                       const std::string& work_dir);

// Names accepted by MakeWorkload.
const std::vector<std::string>& WorkloadNames();

}  // namespace servebench
