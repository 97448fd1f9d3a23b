// Serving benchmark driver. Runs one named workload through
// engine::ServingEngine::RunContinuous for a fixed time with a simulated
// forward pass and real grammar work, checks every output, and prints the
// end-to-end metrics (--trace 0) or the per-layer ledger (--trace 1), one
// "name value unit" line each, then one JSON object as the last line.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
//              [--git-sha SHA] [--source-digest HEX]
//
// The traced run first serves untraced for half the time (the baseline for
// trace.overhead_share and the source of engine.allocs_per_token), then
// serves again with every decoder wrapped, and finally times the stage
// functions and the sampling kernel in side passes. Spans go to
// DIR/trace_<workload>.tsv and the full result, with its provenance block,
// to DIR/result_<workload>_seed<N>_trace<T>.json.
#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "engine/sampler.h"
#include "engine/serving_engine.h"
#include "json/json.h"
#include "support/alloc_hook.h"
#include "support/simd_kernels.h"
#include "support/timer.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace servebench;  // NOLINT
using xgr::engine::ContinuousRequest;
using xgr::engine::ContinuousRequestResult;
using xgr::engine::ContinuousResult;
using xgr::json::Object;
using xgr::json::Value;

// Set-up is repeated and its median reported, so one slow repetition on a
// shared host does not move setup_s.
constexpr int kSetupRepeats = 5;
// Rows the traced side pass samples with the fused kernel.
constexpr std::size_t kSampleRows = 2048;
// Failure messages kept for the result file.
constexpr std::size_t kMaxFailureNotes = 8;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && args->seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      return false;
    }
  }
  const auto& names = WorkloadNames();
  return argc % 2 == 1 && have_seed && have_seconds && have_trace && !args->out_dir.empty() &&
         std::find(names.begin(), names.end(), args->workload) != names.end();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    model.erase(0, model.find_first_not_of(' '));
    return model;
  }
#endif
  return "unknown";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// End-to-end figures of one round.
struct RoundStats {
  double ttft_p50 = 0.0;
  double ttft_p95 = 0.0;
  double tpot_p50 = 0.0;
  double tpot_p95 = 0.0;
  double tok_s = 0.0;
};

// Everything one serving pass measured, summed over its rounds.
struct PassTotals {
  std::int64_t rounds = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failure_notes;
  std::vector<double> ttft_ms;
  std::vector<double> tpot_ms;
  std::vector<double> admit_wait_steps;
  std::int64_t tokens = 0;
  std::int64_t rows = 0;  // request-iterations: one sampled row each
  std::int64_t decode_steps = 0;
  std::int64_t jf_tokens = 0;
  std::int64_t drafted = 0;
  std::int64_t draft_committed = 0;
  std::int64_t allocs = 0;
  double wall_s = 0.0;  // RunContinuous wall time
  std::vector<RoundStats> per_round;
  double gpu_ms = 0.0;
  double mask_ms = 0.0;
  double exposed_ms = 0.0;
  xgr::engine::MaskGenAggregate mask;
  xgr::engine::TagDispatchAggregate dispatch;

  double Throughput() const { return Ratio(static_cast<double>(tokens), wall_s); }
};

// Median over rounds of one per-round figure.
double RoundMedian(const PassTotals& t, double RoundStats::*field) {
  std::vector<double> values;
  for (const RoundStats& r : t.per_round) values.push_back(r.*field);
  return Percentile(std::move(values), 0.5);
}

// Returns "" when the request's output is right: it equals the target (or a
// prefix of it when capped by max_new_tokens), and a fresh decoder over the
// same grammar accepts every token.
std::string CheckRequest(const ContinuousRequest& request, const ContinuousRequestResult& record,
                         Workload* workload, std::int32_t max_new_tokens) {
  if (record.status != xgr::StatusCode::kOk || record.grammar_failed) {
    return "request failed: " + record.error;
  }
  const xgr::engine::RequestResult& out = record.result;
  const xgr::tokenizer::TokenizerInfo& tokenizer = workload->Llm().Tokenizer();
  std::string joined;
  for (std::int32_t token : out.token_ids) joined += tokenizer.TokenBytes(token);
  if (joined != out.output_text) return "output text differs from its tokens";
  const std::string& target = request.request.target_text;
  if (out.finished_by_eos) {
    if (out.output_text != target) return "output differs from target";
  } else {
    if (static_cast<std::int32_t>(out.token_ids.size()) < max_new_tokens) {
      return "stopped before EOS and before max_new_tokens";
    }
    if (out.output_text.size() > target.size() ||
        target.compare(0, out.output_text.size(), out.output_text) != 0) {
      return "capped output is not a prefix of the target";
    }
  }
  auto decoder = workload->FreshDecoder(request);
  for (std::size_t k = 0; k < out.token_ids.size(); ++k) {
    if (!decoder->AcceptToken(out.token_ids[k])) {
      return "replay rejected token " + std::to_string(k);
    }
  }
  if (out.finished_by_eos && !decoder->CanTerminate()) return "replay cannot terminate";
  return "";
}

// Checks and folds one round, served in `round_s` wall seconds, into `totals`.
void Accumulate(const std::vector<ContinuousRequest>& requests, const ContinuousResult& result,
                Workload* workload, double round_s, PassTotals* totals) {
  const std::int32_t max_new_tokens = workload->Options().max_new_tokens;
  std::vector<double> ttft;
  std::vector<double> tpot;
  std::int64_t round_tokens = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ContinuousRequestResult& record = result.requests[i];
    ++totals->attempted;
    const std::string problem = CheckRequest(requests[i], record, workload, max_new_tokens);
    if (!problem.empty()) {
      ++totals->failed;
      if (totals->failure_notes.size() < kMaxFailureNotes) {
        totals->failure_notes.push_back("round " + std::to_string(totals->rounds) +
                                        " request " + std::to_string(i) + ": " + problem);
      }
    }
    const xgr::engine::RequestResult& out = record.result;
    const auto n = static_cast<std::int64_t>(out.token_ids.size());
    round_tokens += n;
    totals->jf_tokens += out.jump_forward_tokens;
    totals->drafted += out.drafted_tokens;
    totals->draft_committed += out.draft_committed_tokens;
    if (record.admitted_step >= 0) {
      totals->admit_wait_steps.push_back(
          static_cast<double>(record.admitted_step - requests[i].arrival_step));
      totals->rows += record.finish_step - record.admitted_step + 1;
    }
    if (record.first_token_step >= 0) {
      ttft.push_back(record.compile_wait_ms + record.ttft_ms);
      if (n >= 2) {
        tpot.push_back((record.completion_ms - record.ttft_ms) / static_cast<double>(n - 1));
      }
    }
  }
  totals->per_round.push_back({Percentile(ttft, 0.5), Percentile(ttft, 0.95),
                               Percentile(tpot, 0.5), Percentile(tpot, 0.95),
                               Ratio(static_cast<double>(round_tokens), round_s)});
  totals->ttft_ms.insert(totals->ttft_ms.end(), ttft.begin(), ttft.end());
  totals->tpot_ms.insert(totals->tpot_ms.end(), tpot.begin(), tpot.end());
  totals->tokens += round_tokens;
  totals->wall_s += round_s;
  totals->decode_steps += result.decode_steps;
  totals->gpu_ms += result.gpu_wall_ms;
  totals->mask_ms += result.mask_wall_ms;
  totals->exposed_ms += result.exposed_overhead_ms;
  const auto& m = result.mask_gen;
  totals->mask.masks_generated += m.masks_generated;
  totals->mask.ctx_tokens_checked += m.ctx_tokens_checked;
  totals->mask.ctx_bytes_checked += m.ctx_bytes_checked;
  totals->mask.ctx_tokens_pruned += m.ctx_tokens_pruned;
  const auto& d = result.tag_dispatch;
  totals->dispatch.decoders += d.decoders;
  totals->dispatch.dispatches += d.dispatches;
  totals->dispatch.free_tokens += d.free_tokens;
  totals->dispatch.tag_tokens += d.tag_tokens;
}

// Side pass: replays completed requests with a fresh decoder, and at each
// position times the mock model's dense logits row and the fused
// mask-apply + sample kernel on that row under the real mask.
void TimeSamplingRows(const std::vector<ContinuousRequest>& requests,
                      const ContinuousResult& result, Workload* workload, Tracer* tracer,
                      std::uint32_t span) {
  const xgr::engine::MockLlm& llm = workload->Llm();
  const auto vocab = static_cast<std::size_t>(llm.Tokenizer().VocabSize());
  xgr::DynamicBitset mask(vocab);
  std::vector<float> row(vocab);
  xgr::engine::SparseLogits scratch;
  xgr::engine::DenseSampler sampler;
  sampler.Prepare(vocab);
  xgr::Rng rng(1);
  std::size_t rows = 0;
  for (std::size_t i = 0; i < requests.size() && rows < kSampleRows; ++i) {
    const xgr::engine::RequestResult& out = result.requests[i].result;
    if (result.requests[i].status != xgr::StatusCode::kOk) continue;
    auto decoder = workload->FreshDecoder(requests[i]);
    auto script = llm.MakeScript(requests[i].request.target_text, requests[i].request.seed);
    for (std::int32_t token : out.token_ids) {
      decoder->FillNextTokenBitmask(&mask);
      std::int64_t start = tracer->NowNs();
      llm.ComputeLogitsDense(&script, &scratch, row.data());
      tracer->Record(SpanKind::kSideLogits, start, static_cast<std::int32_t>(i), span);
      start = tracer->NowNs();
      const std::int32_t sampled = sampler.Sample(row.data(), vocab, &mask, 0.0f, &rng);
      tracer->Record(SpanKind::kSideSample, start, static_cast<std::int32_t>(i), span);
      if (sampled < 0 || !decoder->AcceptToken(token)) break;
      llm.OnTokenSampled(&script, token);
      ++rows;
    }
  }
}

// Serves one round and folds it into `totals`.
void ServeRound(Workload* workload, xgr::engine::ServingEngine* engine, std::int64_t round,
                Tracer* tracer, std::uint32_t pass_span, PassTotals* totals) {
  const std::uint32_t round_span = tracer != nullptr ? tracer->NewId() : 0;
  const std::int64_t round_start = tracer != nullptr ? tracer->NowNs() : 0;
  std::vector<ContinuousRequest> requests = workload->NextRound(round, tracer, round_span);
  const std::int64_t allocs_before = xgr::support::AllocHookCount();
  xgr::Timer wall;
  ContinuousResult result = engine->RunContinuous(requests, workload->MaxBatch());
  const double round_s = wall.ElapsedSeconds();
  totals->allocs += xgr::support::AllocHookCount() - allocs_before;
  if (tracer != nullptr) {
    tracer->RecordWithId(round_span, SpanKind::kRound, round_start, -1, pass_span);
  }
  Accumulate(requests, result, workload, round_s, totals);
  if (tracer != nullptr && round == 0) {
    TimeSamplingRows(requests, result, workload, tracer, pass_span);
  }
  ++totals->rounds;
}

// Serves rounds until `seconds` have passed. One warm-up round first fills
// allocator arenas and lazy state; it is checked (counted in `warmup`) but
// not measured. With a tracer, decoders are wrapped and the first round also
// feeds the sampling side pass.
PassTotals RunPass(Workload* workload, xgr::engine::ServingEngine* engine, double seconds,
                   Tracer* tracer, std::uint32_t pass_span, PassTotals* warmup) {
  ServeRound(workload, engine, -1, nullptr, 0, warmup);
  PassTotals totals;
  xgr::Timer phase;
  for (std::int64_t round = 0; phase.ElapsedSeconds() < seconds; ++round) {
    ServeRound(workload, engine, round, tracer, pass_span, &totals);
  }
  return totals;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Per-kind span durations in microseconds.
using SpanDurations = std::map<SpanKind, std::vector<double>>;

SpanDurations DurationsByKind(const std::vector<Span>& spans) {
  SpanDurations out;
  for (const Span& span : spans) {
    out[span.kind].push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
  }
  return out;
}

std::vector<Metric> EndToEndMetrics(const std::vector<double>& setup_s, const PassTotals& t) {
  return {
      {"setup_s", Percentile(setup_s, 0.5), "s"},
      {"ttft_ms_p50", RoundMedian(t, &RoundStats::ttft_p50), "ms"},
      {"ttft_ms_p95", RoundMedian(t, &RoundStats::ttft_p95), "ms"},
      {"tpot_ms_p50", RoundMedian(t, &RoundStats::tpot_p50), "ms"},
      {"tpot_ms_p95", RoundMedian(t, &RoundStats::tpot_p95), "ms"},
      {"throughput_tok_s", RoundMedian(t, &RoundStats::tok_s), "tok/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

// The per-layer ledger of a traced run. `base` is the untraced pass, `t` the
// traced one; metrics with no samples are reported as 0 and listed in
// `unmeasured`.
std::vector<Metric> LayerMetrics(const PassTotals& base, const PassTotals& t,
                                 const SpanDurations& spans, const RuntimeCounts& rc,
                                 std::vector<std::string>* unmeasured) {
  std::vector<Metric> m;
  auto pct = [&](const std::string& name, SpanKind kind, double q, double scale,
                 const std::string& unit) {
    auto it = spans.find(kind);
    const bool sampled = it != spans.end() && !it->second.empty();
    if (!sampled) unmeasured->push_back(name);
    m.push_back({name, sampled ? Percentile(it->second, q) * scale : 0.0, unit});
    return m.back().value;
  };
  auto sum_ms = [&](SpanKind kind) {
    auto it = spans.find(kind);
    double total = 0.0;
    if (it != spans.end()) {
      for (double us : it->second) total += us;
    }
    return total / 1e3;
  };
  const auto steps = static_cast<double>(t.decode_steps);
  const auto rows = static_cast<double>(t.rows);
  const double services = static_cast<double>(std::max<std::int64_t>(rc.services, 1));

  pct("cache.fill_us_p50", SpanKind::kFill, 0.5, 1.0, "us");
  pct("cache.fill_us_p99", SpanKind::kFill, 0.99, 1.0, "us");
  m.push_back({"cache.ctx_tokens_checked_per_fill",
               Ratio(static_cast<double>(t.mask.ctx_tokens_checked),
                     static_cast<double>(t.mask.masks_generated)),
               "count"});
  m.push_back({"cache.ctx_bytes_checked_per_fill",
               Ratio(static_cast<double>(t.mask.ctx_bytes_checked),
                     static_cast<double>(t.mask.masks_generated)),
               "B"});
  m.push_back({"cache.ctx_pruned_share",
               Ratio(static_cast<double>(t.mask.ctx_tokens_pruned),
                     static_cast<double>(t.mask.ctx_tokens_checked)),
               "share"});
  m.push_back({"engine.mask_phase_ms_per_step", Ratio(t.mask_ms, steps), "ms"});
  m.push_back({"engine.exposed_grammar_ms_per_step", Ratio(t.exposed_ms, steps), "ms"});

  pct("matcher.accept_us_p50", SpanKind::kAccept, 0.5, 1.0, "us");
  const double sample_us =
      pct("support.fused_sample_us_per_row", SpanKind::kSideSample, 0.5, 1.0, "us");
  const double logits_us =
      pct("engine.mock_logits_us_per_row", SpanKind::kSideLogits, 0.5, 1.0, "us");
  // The engine's clock stops before each iteration's sampling and accept
  // loop, so step time here is wall time.
  const double step_ms = t.wall_s * 1e3;
  const double host_ms = step_ms - t.gpu_ms - t.exposed_ms;
  const double main_span_ms = sum_ms(SpanKind::kAccept) + sum_ms(SpanKind::kJfProbe) +
                              sum_ms(SpanKind::kRollback) + sum_ms(SpanKind::kReset);
  const double row_ms = rows * (sample_us + logits_us) / 1e3;
  m.push_back({"engine.host_ms_per_step", Ratio(host_ms, steps), "ms"});
  m.push_back({"engine.self_ms_per_step", Ratio(host_ms - main_span_ms - row_ms, steps), "ms"});

  pct("matcher.verify_us_p50", SpanKind::kVerify, 0.5, 1.0, "us");
  pct("matcher.commit_us_p50", SpanKind::kCommit, 0.5, 1.0, "us");
  m.push_back({"matcher.draft_commit_share",
               Ratio(static_cast<double>(t.draft_committed), static_cast<double>(t.drafted)),
               "share"});
  pct("matcher.jf_probe_us_p50", SpanKind::kJfProbe, 0.5, 1.0, "us");
  m.push_back({"matcher.jf_token_share",
               Ratio(static_cast<double>(t.jf_tokens), static_cast<double>(t.tokens)), "share"});
  m.push_back({"engine.tokens_per_step", Ratio(static_cast<double>(t.tokens), rows), "tok/step"});
  m.push_back({"compose.dispatches_per_request",
               Ratio(static_cast<double>(t.dispatch.dispatches),
                     static_cast<double>(t.dispatch.decoders)),
               "count"});
  m.push_back({"compose.free_token_share",
               Ratio(static_cast<double>(t.dispatch.free_tokens),
                     static_cast<double>(t.dispatch.free_tokens + t.dispatch.tag_tokens)),
               "share"});

  pct("runtime.compile_ms_p50", SpanKind::kCompileBuild, 0.5, 1e-3, "ms");
  pct("runtime.compile_ms_p95", SpanKind::kCompileBuild, 0.95, 1e-3, "ms");
  m.push_back({"runtime.compile_busy_s", rc.compile_seconds / services, "s"});
  pct("grammar.lower_ms", SpanKind::kSideLower, 0.5, 1e-3, "ms");
  pct("pda.compile_ms", SpanKind::kSidePda, 0.5, 1e-3, "ms");
  pct("cache.build_ms", SpanKind::kSideCache, 0.5, 1e-3, "ms");

  const auto submitted = static_cast<double>(rc.submitted);
  m.push_back({"runtime.registry_hit_share", Ratio(static_cast<double>(rc.registry_hits), submitted),
               "share"});
  m.push_back({"runtime.coalesced_share", Ratio(static_cast<double>(rc.coalesced), submitted),
               "share"});
  m.push_back({"runtime.evictions", static_cast<double>(rc.evictions) / services, "count"});
  m.push_back({"artifact.disk_mmap_hits", static_cast<double>(rc.disk_mmap_hits) / services,
               "count"});
  pct("artifact.load_ms_p50", SpanKind::kSideLoad, 0.5, 1e-3, "ms");
  m.push_back({"engine.admit_wait_steps_p50", Percentile(t.admit_wait_steps, 0.5), "steps"});

  m.push_back({"engine.gpu_ms_per_step", Ratio(t.gpu_ms, steps), "ms"});
  m.push_back({"engine.batch_size_mean", Ratio(rows, steps), "count"});
  m.push_back({"engine.allocs_per_token",
               Ratio(static_cast<double>(base.allocs), static_cast<double>(base.tokens)), "count"});

  m.push_back({"trace.coverage",
               Ratio(t.gpu_ms + t.exposed_ms + main_span_ms + row_ms, step_ms), "share"});
  m.push_back({"trace.overhead_share", 1.0 - Ratio(t.Throughput(), base.Throughput()), "share"});
  return m;
}

Object Provenance(const Args& args) {
  Object p;
  p["git_sha"] = args.git_sha;
  p["source_digest"] = args.source_digest;
  p["compiler"] = SERVEBENCH_COMPILER;
  p["flags"] = SERVEBENCH_FLAGS;
  p["cpu_model"] = CpuModel();
  p["nproc"] = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  p["simd"] = xgr::support::simd::ImplName(xgr::support::simd::BestImpl());
  p["vocab"] = kVocabSize;
  p["time_scale"] = kTimeScale;
  p["seed"] = static_cast<std::int64_t>(args.seed);
  p["workload"] = args.workload;
  p["seconds"] = args.seconds;
  p["trace"] = args.trace;
  return p;
}

Object PassSummary(const PassTotals& t) {
  Object o;
  o["rounds"] = t.rounds;
  o["attempted"] = t.attempted;
  o["failed"] = t.failed;
  o["failed_share"] = Ratio(static_cast<double>(t.failed), static_cast<double>(t.attempted));
  o["tokens"] = t.tokens;
  o["serving_wall_s"] = t.wall_s;
  o["decode_steps"] = t.decode_steps;
  o["gpu_ms_per_step"] = Ratio(t.gpu_ms, static_cast<double>(t.decode_steps));
  o["mask_ms_per_step"] = Ratio(t.mask_ms, static_cast<double>(t.decode_steps));
  o["exposed_ms_per_step"] = Ratio(t.exposed_ms, static_cast<double>(t.decode_steps));
  o["wall_ms_per_step"] = Ratio(t.wall_s * 1e3, static_cast<double>(t.decode_steps));
  xgr::json::Array round_tok_s;
  xgr::json::Array round_tpot_p50;
  xgr::json::Array round_tpot_p95;
  for (const RoundStats& r : t.per_round) {
    round_tok_s.push_back(r.tok_s);
    round_tpot_p50.push_back(r.tpot_p50);
    round_tpot_p95.push_back(r.tpot_p95);
  }
  o["round_tok_s"] = std::move(round_tok_s);
  o["round_tpot_ms_p50"] = std::move(round_tpot_p50);
  o["round_tpot_ms_p95"] = std::move(round_tpot_p95);
  o["ttft_samples"] = static_cast<std::int64_t>(t.ttft_ms.size());
  o["tpot_samples"] = static_cast<std::int64_t>(t.tpot_ms.size());
  // The same figures pooled over the whole pass instead of per round.
  o["pooled_ttft_ms_p50"] = Percentile(t.ttft_ms, 0.5);
  o["pooled_ttft_ms_p95"] = Percentile(t.ttft_ms, 0.95);
  o["pooled_tpot_ms_p50"] = Percentile(t.tpot_ms, 0.5);
  o["pooled_tpot_ms_p95"] = Percentile(t.tpot_ms, 0.95);
  o["pooled_throughput_tok_s"] = t.Throughput();
  xgr::json::Array notes;
  for (const std::string& note : t.failure_notes) notes.push_back(note);
  o["failures"] = std::move(notes);
  return o;
}

int Run(const Args& args) {
  std::filesystem::create_directories(args.out_dir);
  const std::string work_dir =
      args.out_dir + "/work_" + args.workload + "_" + std::to_string(getpid());
  std::filesystem::create_directories(work_dir);
  std::unique_ptr<Tracer> tracer = args.trace ? std::make_unique<Tracer>() : nullptr;
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed, work_dir);

  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const std::uint32_t span = tracer != nullptr ? tracer->NewId() : 0;
    const std::int64_t start = tracer != nullptr ? tracer->NowNs() : 0;
    xgr::Timer timer;
    workload->Setup(tracer.get(), span);
    setup_s.push_back(timer.ElapsedSeconds());
    if (tracer != nullptr) tracer->RecordWithId(span, SpanKind::kSetup, start, -1, 0);
  }

  xgr::engine::ServingEngine engine(workload->Options(), workload->Llm());
  // The traced run splits its time between the untraced and traced passes,
  // so both kinds of run take about as long.
  const double pass_seconds = args.trace ? args.seconds / 2.0 : args.seconds;
  PassTotals warmup;
  PassTotals base = RunPass(workload.get(), &engine, pass_seconds, nullptr, 0, &warmup);
  std::vector<Metric> metrics;
  std::vector<std::string> unmeasured;
  PassTotals traced;
  if (!args.trace) {
    metrics = EndToEndMetrics(setup_s, base);
  } else {
    const std::uint32_t pass_span = tracer->NewId();
    const std::int64_t start = tracer->NowNs();
    traced = RunPass(workload.get(), &engine, pass_seconds, tracer.get(), pass_span, &warmup);
    tracer->RecordWithId(pass_span, SpanKind::kPass, start, -1, 0);
    const std::uint32_t side_span = tracer->NewId();
    const std::int64_t side_start = tracer->NowNs();
    workload->StagePass(tracer.get(), side_span);
    tracer->RecordWithId(side_span, SpanKind::kSidePass, side_start, -1, 0);
    metrics = LayerMetrics(base, traced, DurationsByKind(tracer->Collect()),
                           workload->SetupRuntime(), &unmeasured);
    const std::string trace_path = args.out_dir + "/trace_" + args.workload + ".tsv";
    if (!tracer->Write(trace_path)) {
      std::fprintf(stderr, "servebench: cannot write %s\n", trace_path.c_str());
      return 2;
    }
  }
  std::filesystem::remove_all(work_dir);

  const std::int64_t attempted = warmup.attempted + base.attempted + traced.attempted;
  const std::int64_t failed = warmup.failed + base.failed + traced.failed;
  const bool correct = failed == 0 && attempted > 0;
  for (const PassTotals* t : {&warmup, &base, &traced}) {
    for (const std::string& note : t->failure_notes) {
      std::fprintf(stderr, "servebench: FAILED %s\n", note.c_str());
    }
  }

  Object metric_json;
  for (const Metric& metric : metrics) {
    std::printf("%-36s %14.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
    Object entry;
    entry["value"] = metric.value;
    entry["unit"] = metric.unit;
    metric_json[metric.name] = std::move(entry);
  }

  Object result;
  result["benchmark"] = "servebench";
  result["provenance"] = Provenance(args);
  result["params"] = workload->Params();
  result["metrics"] = metric_json;
  result["correct"] = correct;
  result["warmup"] = PassSummary(warmup);
  result["untraced_pass"] = PassSummary(base);
  if (args.trace) result["traced_pass"] = PassSummary(traced);
  xgr::json::Array unmeasured_json;
  for (const std::string& name : unmeasured) unmeasured_json.push_back(name);
  result["unmeasured"] = std::move(unmeasured_json);
  const std::string result_path = args.out_dir + "/result_" + args.workload + "_seed" +
                                  std::to_string(args.seed) + "_trace" +
                                  (args.trace ? "1" : "0") + ".json";
  std::ofstream file(result_path);
  file << Value(std::move(result)).Dump(2) << "\n";
  if (!file) {
    std::fprintf(stderr, "servebench: cannot write %s\n", result_path.c_str());
    return 2;
  }

  Object line;
  line["correct"] = correct;
  line["attempted"] = attempted;
  line["failed"] = failed;
  line["metrics"] = std::move(metric_json);
  std::printf("%s\n", Value(std::move(line)).Dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload cfg_decode|agent_spec --seed N "
                 "--seconds S --trace 0|1 --out-dir DIR [--git-sha SHA] "
                 "[--source-digest HEX]\n");
    return 2;
  }
  try {
    return Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 2;
  }
}
