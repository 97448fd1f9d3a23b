#include "workloads.h"

#include <cctype>
#include <filesystem>
#include <functional>
#include <utility>

#include "artifact/artifact_reader.h"
#include "baselines/tag_dispatch_decoder.h"
#include "baselines/xgrammar_decoder.h"
#include "cache/adaptive_cache.h"
#include "compose/tag_dispatch.h"
#include "datasets/workloads.h"
#include "grammar/grammar.h"
#include "grammar/structural_tag.h"
#include "pda/compiled_grammar.h"
#include "runtime/compile_service.h"
#include "support/rng.h"
#include "tokenizer/synthetic_vocab.h"

namespace servebench {

namespace {

namespace fs = std::filesystem;
using xgr::Rng;
using xgr::baselines::ConstrainedDecoder;
using xgr::engine::ContinuousRequest;
using xgr::engine::EngineOptions;
using xgr::runtime::CompileJob;
using xgr::runtime::CompilePriority;
using xgr::runtime::CompileService;
using xgr::runtime::CompileTicket;
using xgr::runtime::GrammarKind;

// Requests per round: large against the batch cap, so the fill and drain at
// a round's ends are a small share of it, and enough that a round's p95 has
// about ten samples beyond it.
constexpr std::int64_t kRoundRequests = 192;
// Seed of the tool set, which defines agent_spec rather than its traffic.
// The run's seed drives the traffic.
constexpr std::uint64_t kCatalogSeed = 2024;

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::shared_ptr<const xgr::tokenizer::TokenizerInfo> BuildTokenizer() {
  return std::make_shared<xgr::tokenizer::TokenizerInfo>(
      xgr::tokenizer::BuildSyntheticVocab({.size = kVocabSize, .seed = 2024}));
}

// Prompt length of one request, uniform with a mean of 139 tokens (the
// paper's average input). Varying it spreads prefill cost, so TTFT has no
// gaps a percentile could fall into.
std::int32_t PromptTokens(Rng* rng) {
  return static_cast<std::int32_t>(rng->NextInRange(32, 246));
}

EngineOptions BaseOptions() {
  EngineOptions options;
  options.schedule = xgr::engine::GrammarSchedule::kOverlap;
  options.dense_logits = true;
  options.time_scale = kTimeScale;
  options.max_new_tokens = 256;
  options.mask_threads = kMaskThreads;
  return options;
}

xgr::json::Object EngineParams(const EngineOptions& options, std::int32_t max_batch) {
  xgr::json::Object p;
  p["vocab"] = kVocabSize;
  p["time_scale"] = options.time_scale;
  p["model_profile"] = options.profile.name;
  p["schedule"] = "overlap";
  p["dense_logits"] = options.dense_logits;
  p["mask_threads"] = options.mask_threads;
  p["max_new_tokens"] = options.max_new_tokens;
  p["max_batch"] = max_batch;
  p["round_requests"] = kRoundRequests;
  p["arrivals_per_iteration"] = 2;
  p["jump_forward"] = options.jump_forward;
  p["speculation"] = options.speculation.enabled;
  if (options.speculation.enabled) {
    p["draft_tokens"] = options.speculation.draft_tokens;
    p["draft_noise"] = options.speculation.draft_noise;
  }
  return p;
}

void AddCounts(CompileService& service, RuntimeCounts* total) {
  const xgr::runtime::CompileServiceStats stats = service.Stats();
  const xgr::runtime::GrammarRegistryStats registry = service.Registry().Stats();
  total->services += 1;
  total->submitted += stats.submitted;
  total->registry_hits += stats.registry_hits;
  total->coalesced += stats.coalesced;
  total->compile_seconds += stats.compile_seconds;
  total->evictions += registry.evictions;
  total->disk_mmap_hits += registry.disk_mmap_hits;
}

// Submits a compile job. With a tracer, records Submit -> callback as a
// span: a disk-tier load when the job's artifact file already exists, else a
// full build (set-ups submit each key once, to a fresh service).
CompileTicket SubmitTraced(CompileService* service, CompileJob job, CompilePriority priority,
                           Tracer* tracer, std::uint32_t parent) {
  if (tracer == nullptr) return service->Submit(std::move(job), priority);
  const bool on_disk = service->Registry().HasDiskTier() &&
                       fs::exists(service->Registry().DiskPath(xgr::runtime::CompileJobKey(job)));
  const std::int64_t start = tracer->NowNs();
  return service->Submit(std::move(job), priority,
                         [tracer, parent, start, on_disk](const xgr::runtime::Artifact&) {
                           tracer->Record(on_disk ? SpanKind::kCompileDisk
                                                  : SpanKind::kCompileBuild,
                                          start, -1, parent);
                         });
}

// Vocabulary of the generated prose and string values.
const std::vector<std::string>& Words() {
  static const std::vector<std::string> words = {
      "the", "user", "asked", "for", "a", "report", "on", "recent", "weather",
      "and", "I", "should", "check", "which", "tool", "fits", "best", "before",
      "answering", "data", "looks", "complete", "but", "one", "field", "is",
      "missing", "so", "call", "service", "with", "city", "name", "then",
      "summarize", "results", "in", "plain", "language", "every", "step",
      "matters", "here", "because", "numbers", "like", "seven", "or", "forty",
      "can", "change", "plan", "quickly", "let", "me", "think", "about", "it",
      "carefully", "now"};
  return words;
}

const std::string& Word(Rng* rng) { return Words()[rng->NextBounded(Words().size())]; }

// A JSON-schema field and the value a conforming answer gives it.
struct Field {
  xgr::json::Value schema;
  xgr::json::Value value;
};

// A string, integer, boolean, enum or string-array field.
Field MakeField(Rng* rng) {
  xgr::json::Object schema;
  switch (rng->NextBounded(5)) {
    case 0: {
      schema["type"] = "string";
      std::string text = Word(rng);
      for (int w = static_cast<int>(rng->NextInRange(1, 5)); w > 0; --w) text += " " + Word(rng);
      return {xgr::json::Value(std::move(schema)), xgr::json::Value(std::move(text))};
    }
    case 1:
      schema["type"] = "integer";
      return {xgr::json::Value(std::move(schema)),
              xgr::json::Value(static_cast<std::int64_t>(rng->NextBounded(100000)))};
    case 2:
      schema["type"] = "boolean";
      return {xgr::json::Value(std::move(schema)), xgr::json::Value(rng->NextBool(0.5))};
    case 3: {
      xgr::json::Array values;
      for (int v = static_cast<int>(rng->NextInRange(3, 5)); v > 0; --v) {
        values.push_back(Word(rng) + "_" + std::to_string(v));
      }
      xgr::json::Value pick = values[rng->NextBounded(values.size())];
      schema["enum"] = std::move(values);
      return {xgr::json::Value(std::move(schema)), std::move(pick)};
    }
    default: {
      xgr::json::Object items;
      items["type"] = "string";
      schema["type"] = "array";
      schema["items"] = std::move(items);
      xgr::json::Array value;
      for (int v = static_cast<int>(rng->NextInRange(1, 4)); v > 0; --v) value.push_back(Word(rng));
      return {xgr::json::Value(std::move(schema)), xgr::json::Value(std::move(value))};
    }
  }
}

// An object of two to four fields, all required and no others allowed.
Field MakeObject(Rng* rng) {
  static const std::vector<std::string> names = {
      "name", "city", "query", "limit", "unit", "id", "tags", "lang", "mode", "date",
      "owner", "status", "notes", "count", "region", "level"};
  xgr::json::Object properties;
  xgr::json::Object value;
  xgr::json::Array required;
  const int count = static_cast<int>(rng->NextInRange(2, 4));
  for (int f = 0; f < count; ++f) {
    const std::string name = names[rng->NextBounded(names.size())] + "_" + std::to_string(f);
    Field field = MakeField(rng);
    properties[name] = std::move(field.schema);
    value[name] = std::move(field.value);
    required.push_back(name);
  }
  xgr::json::Object schema;
  schema["type"] = "object";
  schema["properties"] = std::move(properties);
  schema["required"] = std::move(required);
  schema["additionalProperties"] = false;
  return {xgr::json::Value(std::move(schema)), xgr::json::Value(std::move(value))};
}

// Runs one grammar through the stages a CompileService build runs, timing
// each as a span.
void TimeStages(const std::function<xgr::grammar::Grammar()>& lower,
                const std::shared_ptr<const xgr::tokenizer::TokenizerInfo>& tokenizer,
                Tracer* tracer, std::uint32_t parent) {
  std::int64_t start = tracer->NowNs();
  xgr::grammar::Grammar grammar = lower();
  tracer->Record(SpanKind::kSideLower, start, -1, parent);
  start = tracer->NowNs();
  auto pda = xgr::pda::CompiledGrammar::Compile(grammar);
  tracer->Record(SpanKind::kSidePda, start, -1, parent);
  start = tracer->NowNs();
  auto cache = xgr::cache::AdaptiveTokenMaskCache::Build(pda, tokenizer);
  tracer->Record(SpanKind::kSideCache, start, -1, parent);
}

std::shared_ptr<ConstrainedDecoder> MaybeTraced(std::shared_ptr<ConstrainedDecoder> decoder,
                                                Tracer* tracer, std::int32_t request,
                                                std::uint32_t parent) {
  if (tracer == nullptr) return decoder;
  return std::make_shared<TracedDecoder>(std::move(decoder), tracer, request, parent);
}

// --- cfg_decode ---------------------------------------------------------------
//
// Python-DSL programs under the builtin CFG, compiled cold in every set-up.
// Mask fills for context-dependent tokens are the heaviest decode cost here.
// The overlap hides them behind the forward pass, so fill speed shows in
// engine.mask_phase_ms_per_step, and in TPOT once the mask phase outgrows
// the forward pass. No compile, registry, compose or speculation on the
// decode path.
class CfgDecode final : public Workload {
 public:
  explicit CfgDecode(std::uint64_t seed) : seed_(seed) {}

  void Setup(Tracer* tracer, std::uint32_t span) override {
    llm_.reset();
    artifact_.reset();
    tokenizer_.reset();
    tokenizer_ = BuildTokenizer();
    llm_ = std::make_unique<xgr::engine::MockLlm>(
        tokenizer_, xgr::engine::MockLlm::Options{.seed = Mix(seed_, 11)});
    CompileService service(tokenizer_);
    CompileJob job;
    job.kind = GrammarKind::kEbnf;
    job.source = xgr::grammar::PythonDslGrammarEbnf();
    artifact_ =
        SubmitTraced(&service, std::move(job), CompilePriority::kInteractive, tracer, span).Get();
    AddCounts(service, &counts_);
  }

  const xgr::engine::MockLlm& Llm() const override { return *llm_; }
  EngineOptions Options() const override { return BaseOptions(); }
  std::int32_t MaxBatch() const override { return 32; }

  std::vector<ContinuousRequest> NextRound(std::int64_t round, Tracer* tracer,
                                           std::uint32_t round_span) override {
    const std::uint64_t round_seed = Mix(seed_, static_cast<std::uint64_t>(round));
    std::vector<std::string> programs = xgr::datasets::GeneratePythonPrograms(
        static_cast<int>(kRoundRequests), round_seed, kMaxStatements);
    Rng rng(Mix(round_seed, 1));
    std::vector<ContinuousRequest> requests(programs.size());
    for (std::size_t i = 0; i < programs.size(); ++i) {
      ContinuousRequest& r = requests[i];
      r.request.decoder = MaybeTraced(std::make_shared<xgr::baselines::XGrammarDecoder>(artifact_),
                                      tracer, static_cast<std::int32_t>(i), round_span);
      r.request.target_text = std::move(programs[i]);
      r.request.seed = Mix(round_seed, i);
      r.request.prompt_tokens = PromptTokens(&rng);
      r.arrival_step = static_cast<std::int64_t>(i) / 2;
    }
    return requests;
  }

  std::shared_ptr<ConstrainedDecoder> FreshDecoder(const ContinuousRequest&) override {
    return std::make_shared<xgr::baselines::XGrammarDecoder>(artifact_);
  }

  const RuntimeCounts& SetupRuntime() const override { return counts_; }

  void StagePass(Tracer* tracer, std::uint32_t span) override {
    TimeStages([] { return xgr::grammar::BuiltinPythonDslGrammar(); }, tokenizer_, tracer, span);
  }

  xgr::json::Object Params() const override {
    xgr::json::Object p = EngineParams(Options(), MaxBatch());
    p["grammar"] = "builtin Python-DSL CFG";
    p["max_statements"] = kMaxStatements;
    return p;
  }

 private:
  // Programs run from a few dozen tokens to past max_new_tokens, so requests
  // finish at scattered steps instead of in lockstep bursts of admissions.
  static constexpr int kMaxStatements = 24;

  std::uint64_t seed_;
  std::shared_ptr<const xgr::tokenizer::TokenizerInfo> tokenizer_;
  std::unique_ptr<xgr::engine::MockLlm> llm_;
  xgr::runtime::Artifact artifact_;
  RuntimeCounts counts_;
};

// --- agent_spec ---------------------------------------------------------------
//
// Agentic transcripts: free-text reasoning, then one tool call, over a
// 32-tool tag-dispatch plan built in set-up, with speculative drafts and
// jump-forward. The matcher runs verify/commit/rollback and jump-forward
// probes instead of one fill and one accept per token; compose dispatch and
// the fused sampling kernel run on every step. Compile is warm.
//
// The set-up's CompileService keeps an XGR3 disk tier for the run. The first
// set-up compiles every tool and writes it there; every later one is a
// process restart that maps the tools back from disk.
class AgentSpec final : public Workload {
 public:
  AgentSpec(std::uint64_t seed, const std::string& work_dir)
      : seed_(seed), disk_dir_(work_dir + "/xgr3") {
    Rng rng(Mix(kCatalogSeed, 3));
    for (int t = 0; t < kTools; ++t) tools_.push_back(MakeTool(t, &rng));
    config_.triggers = {"<function="};
    for (const Tool& tool : tools_) config_.tags.push_back(tool.tag);
  }

  void Setup(Tracer* tracer, std::uint32_t span) override {
    llm_.reset();
    plan_.reset();
    service_.reset();
    tokenizer_.reset();
    tokenizer_ = BuildTokenizer();
    llm_ = std::make_unique<xgr::engine::MockLlm>(
        tokenizer_, xgr::engine::MockLlm::Options{.seed = Mix(seed_, 11)});
    xgr::runtime::CompileServiceOptions options;
    options.registry.disk_dir = disk_dir_;
    service_ = std::make_unique<CompileService>(tokenizer_, options);
    // The same prefetch jobs the plan build submits, so its own submits
    // join these and the traced run sees every build's latency.
    std::vector<CompileTicket> tickets;
    for (const Tool& tool : tools_) {
      CompileJob job;
      job.kind = GrammarKind::kTagSegment;
      job.source = xgr::grammar::EncodeTagSegmentSource(tool.tag);
      tickets.push_back(SubmitTraced(service_.get(), std::move(job), CompilePriority::kPrefetch,
                                     tracer, span));
    }
    plan_ = xgr::compose::TagDispatchPlan::Build(config_, service_.get());
    AddCounts(*service_, &counts_);
  }

  const xgr::engine::MockLlm& Llm() const override { return *llm_; }

  EngineOptions Options() const override {
    EngineOptions options = BaseOptions();
    options.jump_forward = true;
    options.speculation.enabled = true;
    options.speculation.draft_tokens = 6;
    options.speculation.draft_noise = 0.1;
    options.speculation.seed = Mix(seed_, 7);
    return options;
  }
  std::int32_t MaxBatch() const override { return 16; }

  std::vector<ContinuousRequest> NextRound(std::int64_t round, Tracer* tracer,
                                           std::uint32_t round_span) override {
    const std::uint64_t round_seed = Mix(seed_, static_cast<std::uint64_t>(round));
    Rng rng(round_seed);
    std::vector<ContinuousRequest> requests(static_cast<std::size_t>(kRoundRequests));
    for (std::size_t i = 0; i < requests.size(); ++i) {
      ContinuousRequest& r = requests[i];
      r.request.decoder =
          MaybeTraced(std::make_shared<xgr::baselines::TagDispatchDecoder>(plan_), tracer,
                      static_cast<std::int32_t>(i), round_span);
      r.request.target_text = Transcript(&rng);
      r.request.seed = Mix(round_seed, i);
      r.request.prompt_tokens = PromptTokens(&rng);
      r.arrival_step = static_cast<std::int64_t>(i) / 2;
    }
    return requests;
  }

  std::shared_ptr<ConstrainedDecoder> FreshDecoder(const ContinuousRequest&) override {
    return std::make_shared<xgr::baselines::TagDispatchDecoder>(plan_);
  }

  const RuntimeCounts& SetupRuntime() const override { return counts_; }

  void StagePass(Tracer* tracer, std::uint32_t span) override {
    for (const Tool& tool : tools_) {
      TimeStages([&] { return xgr::grammar::BuildTagSegmentGrammar(tool.tag); }, tokenizer_,
                 tracer, span);
    }
    // Every tool artifact in the disk tier, mapped and fully validated the
    // way the registry's disk tier loads it.
    for (const auto& entry : fs::directory_iterator(disk_dir_)) {
      if (!entry.is_regular_file() || entry.path().extension() == ".tmp") continue;
      const std::int64_t start = tracer->NowNs();
      auto artifact = xgr::artifact::LoadFlatArtifactFile(entry.path().string(), tokenizer_);
      tracer->Record(SpanKind::kSideLoad, start, -1, span);
    }
  }

  xgr::json::Object Params() const override {
    xgr::json::Object p = EngineParams(Options(), MaxBatch());
    p["grammar"] = "tag-dispatch plan, structural tags";
    p["tools"] = kTools;
    p["setup_disk_tier"] = "first set-up compiles, later set-ups map from disk";
    return p;
  }

 private:
  static constexpr int kTools = 32;

  // A tool: its structural tag and the call body transcripts pass it.
  struct Tool {
    xgr::grammar::StructuralTag tag;
    std::string call;
  };

  static Tool MakeTool(int index, Rng* rng) {
    Field args = MakeObject(rng);
    Tool tool;
    tool.tag.begin = "<function=tool_" + std::to_string(index) + ">";
    tool.tag.schema_text = args.schema.Dump();
    tool.tag.end = "</function>";
    tool.call = args.value.Dump();
    return tool;
  }

  static std::string Sentence(Rng* rng) {
    std::string s;
    const int words = static_cast<int>(rng->NextInRange(6, 14));
    for (int w = 0; w < words; ++w) {
      std::string word = Word(rng);
      if (w == 0) word[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(word[0])));
      s += (w == 0 ? "" : " ") + word;
    }
    return s + ". ";
  }

  std::string Transcript(Rng* rng) const {
    std::string text;
    const int sentences = static_cast<int>(rng->NextInRange(2, 5));
    for (int s = 0; s < sentences; ++s) text += Sentence(rng);
    const Tool& tool = tools_[rng->NextBounded(tools_.size())];
    text += tool.tag.begin + tool.call + tool.tag.end;
    return text + " Done.";
  }

  std::uint64_t seed_;
  std::string disk_dir_;
  std::vector<Tool> tools_;
  xgr::compose::TagDispatchConfig config_;
  std::shared_ptr<const xgr::tokenizer::TokenizerInfo> tokenizer_;
  std::unique_ptr<xgr::engine::MockLlm> llm_;
  std::unique_ptr<CompileService> service_;
  std::shared_ptr<const xgr::compose::TagDispatchPlan> plan_;
  RuntimeCounts counts_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"cfg_decode", "agent_spec"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed,
                                       const std::string& work_dir) {
  if (name == "cfg_decode") return std::make_unique<CfgDecode>(seed);
  if (name == "agent_spec") return std::make_unique<AgentSpec>(seed, work_dir);
  return nullptr;
}

}  // namespace servebench
