// In-memory span recorder and the decoder wrapper the traced run installs.
//
// The traced run measures layers from outside the library: every request's
// decoder is wrapped in a TracedDecoder, compile latency is taken from
// CompileService::Submit callbacks, and side passes time the public stage
// functions. Spans are appended to per-thread buffers (no lock on the hot
// path) and written out once, when the run ends. The untraced run creates no
// Tracer, so none of this code runs there.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "baselines/constrained_decoder.h"

namespace servebench {

enum class SpanKind : std::uint8_t {
  kSetup,          // one set-up repetition
  kPass,           // the traced serving pass
  kRound,          // one ServingEngine::RunContinuous call
  kFill,           // ConstrainedDecoder::FillNextTokenBitmask
  kAccept,         // ConstrainedDecoder::AcceptToken
  kVerify,         // ConstrainedDecoder::VerifyDraft
  kCommit,         // ConstrainedDecoder::CommitDraft
  kJfProbe,        // ConstrainedDecoder::FindJumpForwardString
  kRollback,       // ConstrainedDecoder::RollbackTokens
  kReset,          // ConstrainedDecoder::Reset
  kCompileBuild,   // Submit -> callback, full build
  kCompileDisk,    // Submit -> callback, resolved from the disk tier
  kSidePass,       // the stage side pass
  kSideLower,      // side pass: grammar lowering
  kSidePda,        // side pass: pda::CompiledGrammar::Compile
  kSideCache,      // side pass: cache::AdaptiveTokenMaskCache::Build
  kSideLoad,       // side pass: artifact::LoadFlatArtifactFile
  kSideSample,     // side pass: engine::DenseSampler::Sample, one row
  kSideLogits,     // side pass: engine::MockLlm::ComputeLogitsDense, one row
  kCount,
};

const char* SpanName(SpanKind kind);

struct Span {
  std::int64_t start_ns = 0;  // since the tracer's epoch
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;   // 0 = root
  std::int32_t request = -1;  // -1 = not tied to one request
  std::uint16_t thread = 0;
  SpanKind kind = SpanKind::kCount;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::int64_t NowNs() const;
  // Appends a span [start_ns, now) on the calling thread's buffer and
  // returns its id. Thread-safe; the hot path takes no lock.
  std::uint32_t Record(SpanKind kind, std::int64_t start_ns,
                       std::int32_t request, std::uint32_t parent);
  // Reserves an id for a span recorded later with RecordWithId (a parent
  // whose children finish before it does).
  std::uint32_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void RecordWithId(std::uint32_t id, SpanKind kind, std::int64_t start_ns,
                    std::int32_t request, std::uint32_t parent);

  // Every span recorded so far, all threads merged. Call only while no
  // thread is recording.
  std::vector<Span> Collect() const;
  // Writes the spans as tab-separated lines (header first). Returns false on
  // an I/O error.
  bool Write(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::uint16_t thread = 0;
  };
  Buffer* Local();

  const std::uint64_t generation_;
  const std::int64_t epoch_ns_;
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mutex_
};

// Forwards every ConstrainedDecoder virtual to `inner`, recording a span
// around each call that does grammar work.
class TracedDecoder final : public xgr::baselines::ConstrainedDecoder {
 public:
  TracedDecoder(std::shared_ptr<xgr::baselines::ConstrainedDecoder> inner,
                Tracer* tracer, std::int32_t request, std::uint32_t parent)
      : inner_(std::move(inner)), tracer_(tracer), request_(request), parent_(parent) {}

  const std::string& Name() const override { return inner_->Name(); }
  void FillNextTokenBitmask(xgr::DynamicBitset* mask) override;
  bool AcceptToken(std::int32_t token_id) override;
  bool CanTerminate() override { return inner_->CanTerminate(); }
  void Reset() override;
  bool RollbackTokens(std::int32_t count) override;
  void VerifyDraft(const std::int32_t* draft, std::int32_t count,
                   xgr::baselines::DraftVerifyResult* result,
                   xgr::DynamicBitset* divergence_mask) override;
  bool CommitDraft(std::int32_t keep) override;
  bool SupportsPartialCommit() const override { return inner_->SupportsPartialCommit(); }
  std::size_t MaskBits() const override { return inner_->MaskBits(); }
  std::int32_t EosTokenId() const override { return inner_->EosTokenId(); }
  std::string FindJumpForwardString(std::int32_t max_length) override;
  double PreprocessSeconds() const override { return inner_->PreprocessSeconds(); }
  const xgr::cache::MaskGenStats* MaskStats() const override {
    return inner_->MaskStats();
  }
  const xgr::compose::TagDispatchStats* DispatchStats() const override {
    return inner_->DispatchStats();
  }

 private:
  std::shared_ptr<xgr::baselines::ConstrainedDecoder> inner_;
  Tracer* tracer_;
  std::int32_t request_;
  std::uint32_t parent_;
};

}  // namespace servebench
