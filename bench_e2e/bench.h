// The end-to-end benchmark's shared vocabulary: the per-layer metric
// table, the record one timed pass fills, the RAII wrapper every public
// library call goes through, and the workload interface.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "obs/trace.h"

namespace bench_e2e {

/// One slot per per-layer metric (the `per_layer` list of BENCHMARK.json,
/// in the same order).  Times are ms per pass, counts are per pass;
/// `trace.*` slots are filled from the span profile of a traced pass.
enum class Layer : std::size_t {
    ExploreFlowMs,
    ExploreSearchMs,
    ExploreCandidates,
    ExploreEvaluations,
    ExploreFullEvals,
    ExplorePruneRatio,
    ExploreMergeYield,
    ExploreIterations,
    TraceExploreEvaluate,
    TraceExploreBoundCheck,
    TraceExploreSelect,
    TraceExploreGenerate,
    TraceExploreLintPrefilter,
    FrontHv,
    EngineAnalyzeCalls,
    EngineTreeHitRatio,
    EngineModuleHitRatio,
    EngineDedupHits,
    EngineSubtreeMemoHitRatio,
    EngineGcCollections,
    EngineBatchLanes,
    EngineThreads,
    TraceEngineAnalyzeBatch,
    EngineFragmentReuseRatio,
    EngineFtreeMemoHits,
    TraceFtreeAssemble,
    TraceFtreeFindModules,
    TraceFtreeBuildFaultTree,
    FtreeDagNodes,
    TraceBddEvaluateModule,
    BddNodes,
    TraceTransformExpand,
    TraceTransformConnect,
    TraceTransformReduce,
    IoParseMs,
    IoParseMbPerS,
    ModelValidateMs,
    LintRunMs,
    CostTotalMs,
    AnalysisProbabilityMs,
    AnalysisCcfMs,
    AnalysisToleranceMs,
    AnalysisCutSets,
    AnalysisSimMs,
    AnalysisSimTrialsPerS,
    AnalysisSimEss,
    PassMsTail,
    FailedOpsRatio,
    TraceOverheadRatio,
    Count
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::Count);

struct MetricDef {
    const char* name;
    const char* unit;
};

/// Name and unit of every Layer slot, indexed by the enum.
extern const std::array<MetricDef, kLayerCount> kLayerMetrics;

/// What one timed pass measured: per-layer values plus the call ledger
/// that failed_ops_ratio is computed from.
struct PassRecord {
    std::array<double, kLayerCount> layer{};
    std::uint64_t calls = 0;  ///< public library calls attempted

    double& operator[](Layer l) { return layer[static_cast<std::size_t>(l)]; }
};

/// Wraps one public library call: a "bench" span around it (so the
/// traced run attributes the call's own time, children excluded) and its
/// wall time added to `slot` of the pass record.
class Call {
public:
    Call(PassRecord& rec, Layer slot, const char* span_name)
        : rec_(rec), slot_(slot), span_(span_name, "bench"),
          start_(std::chrono::steady_clock::now()) {
        ++rec_.calls;
    }
    ~Call() {
        const std::chrono::duration<double, std::milli> ms =
            std::chrono::steady_clock::now() - start_;
        rec_[slot_] += ms.count();
    }
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;

private:
    PassRecord& rec_;
    Layer slot_;
    asilkit::obs::ObsSpan span_;
    std::chrono::steady_clock::time_point start_;
};

/// Collects correctness-check outcomes outside the timed pass.
class Checker {
public:
    /// Records one check; a failure is reported on stderr (the first few
    /// of each run) and counted.
    void expect(bool ok, const std::string& what);
    [[nodiscard]] std::uint64_t failures() const noexcept { return failures_; }

private:
    std::uint64_t failures_ = 0;
};

class Workload {
public:
    Workload() = default;
    virtual ~Workload() = default;
    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;
    Workload(Workload&&) = delete;
    Workload& operator=(Workload&&) = delete;
    /// One timed pass: public library calls only, on inputs built in
    /// set-up.  Keeps what check() needs.
    virtual void pass(PassRecord& rec) = 0;
    /// Checks the outputs of the last pass (untimed).
    virtual void check(Checker& checker) = 0;
    /// Passes each set-up runs to warm caches before timing starts.  A
    /// workload whose passes differ widely in size runs several, so the
    /// set-up time does not hang on one draw.
    [[nodiscard]] virtual std::size_t warm_up_passes() const { return 1; }
};

/// Set-up: builds every input of the named workload from `seed`.
/// Returns null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name, std::uint32_t seed);

/// The workload names make_workload() accepts.
inline constexpr std::array<std::string_view, 3> kWorkloads = {"eco_sweep", "synthetic_search",
                                                               "analyze_corpus"};

}  // namespace bench_e2e
