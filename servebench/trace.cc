#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace servebench {

namespace {

std::int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Each Tracer gets a process-unique generation so a thread's cached buffer
// pointer is never reused across tracer lifetimes.
std::atomic<std::uint64_t> g_generation{0};

struct LocalCache {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local LocalCache t_local;

// Sized so a 10-second run on one thread never grows its buffer.
constexpr std::size_t kInitialSpans = 1u << 19;

}  // namespace

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSetup: return "setup";
    case SpanKind::kPass: return "pass";
    case SpanKind::kRound: return "round";
    case SpanKind::kFill: return "decoder.fill";
    case SpanKind::kAccept: return "decoder.accept";
    case SpanKind::kVerify: return "decoder.verify";
    case SpanKind::kCommit: return "decoder.commit";
    case SpanKind::kJfProbe: return "decoder.jf_probe";
    case SpanKind::kRollback: return "decoder.rollback";
    case SpanKind::kReset: return "decoder.reset";
    case SpanKind::kCompileBuild: return "compile.build";
    case SpanKind::kCompileDisk: return "compile.disk";
    case SpanKind::kSidePass: return "side";
    case SpanKind::kSideLower: return "side.grammar_lower";
    case SpanKind::kSidePda: return "side.pda_compile";
    case SpanKind::kSideCache: return "side.cache_build";
    case SpanKind::kSideLoad: return "side.artifact_load";
    case SpanKind::kSideSample: return "side.fused_sample";
    case SpanKind::kSideLogits: return "side.mock_logits";
    case SpanKind::kCount: break;
  }
  return "unknown";
}

Tracer::Tracer()
    : generation_(g_generation.fetch_add(1, std::memory_order_relaxed) + 1),
      epoch_ns_(SteadyNs()) {}

std::int64_t Tracer::NowNs() const { return SteadyNs() - epoch_ns_; }

Tracer::Buffer* Tracer::Local() {
  if (t_local.generation == generation_) {
    return static_cast<Buffer*>(t_local.buffer);
  }
  auto buffer = std::make_unique<Buffer>();
  buffer->spans.reserve(kInitialSpans);
  Buffer* raw = buffer.get();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    raw->thread = static_cast<std::uint16_t>(buffers_.size());
    buffers_.push_back(std::move(buffer));
  }
  t_local = {generation_, raw};
  return raw;
}

std::uint32_t Tracer::Record(SpanKind kind, std::int64_t start_ns,
                             std::int32_t request, std::uint32_t parent) {
  const std::uint32_t id = NewId();
  RecordWithId(id, kind, start_ns, request, parent);
  return id;
}

void Tracer::RecordWithId(std::uint32_t id, SpanKind kind, std::int64_t start_ns,
                          std::int32_t request, std::uint32_t parent) {
  const std::int64_t end_ns = NowNs();
  Buffer* buffer = Local();
  buffer->spans.push_back(
      Span{start_ns, end_ns, id, parent, request, buffer->thread, kind});
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  return all;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "id\tparent\tname\trequest\tthread\tstart_us\tend_us\n");
  for (const Span& span : Collect()) {
    std::fprintf(file, "%u\t%u\t%s\t%d\t%u\t%.3f\t%.3f\n", span.id, span.parent,
                 SpanName(span.kind), span.request,
                 static_cast<unsigned>(span.thread),
                 static_cast<double>(span.start_ns) / 1e3,
                 static_cast<double>(span.end_ns) / 1e3);
  }
  const bool ok = std::ferror(file) == 0;
  return std::fclose(file) == 0 && ok;
}

void TracedDecoder::FillNextTokenBitmask(xgr::DynamicBitset* mask) {
  const std::int64_t start = tracer_->NowNs();
  inner_->FillNextTokenBitmask(mask);
  tracer_->Record(SpanKind::kFill, start, request_, parent_);
}

bool TracedDecoder::AcceptToken(std::int32_t token_id) {
  const std::int64_t start = tracer_->NowNs();
  const bool ok = inner_->AcceptToken(token_id);
  tracer_->Record(SpanKind::kAccept, start, request_, parent_);
  return ok;
}

void TracedDecoder::Reset() {
  const std::int64_t start = tracer_->NowNs();
  inner_->Reset();
  tracer_->Record(SpanKind::kReset, start, request_, parent_);
}

bool TracedDecoder::RollbackTokens(std::int32_t count) {
  const std::int64_t start = tracer_->NowNs();
  const bool ok = inner_->RollbackTokens(count);
  tracer_->Record(SpanKind::kRollback, start, request_, parent_);
  return ok;
}

void TracedDecoder::VerifyDraft(const std::int32_t* draft, std::int32_t count,
                                xgr::baselines::DraftVerifyResult* result,
                                xgr::DynamicBitset* divergence_mask) {
  const std::int64_t start = tracer_->NowNs();
  inner_->VerifyDraft(draft, count, result, divergence_mask);
  tracer_->Record(SpanKind::kVerify, start, request_, parent_);
}

bool TracedDecoder::CommitDraft(std::int32_t keep) {
  const std::int64_t start = tracer_->NowNs();
  const bool ok = inner_->CommitDraft(keep);
  tracer_->Record(SpanKind::kCommit, start, request_, parent_);
  return ok;
}

std::string TracedDecoder::FindJumpForwardString(std::int32_t max_length) {
  const std::int64_t start = tracer_->NowNs();
  std::string forced = inner_->FindJumpForwardString(max_length);
  tracer_->Record(SpanKind::kJfProbe, start, request_, parent_);
  return forced;
}

}  // namespace servebench
