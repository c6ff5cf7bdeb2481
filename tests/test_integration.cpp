// End-to-end integration tests: the complete paper pipeline on the
// EcoTwin case study, cross-module consistency, and failure injection.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "analysis/ccf.h"
#include "analysis/cutsets.h"
#include "analysis/probability.h"
#include "cost/cost_analysis.h"
#include "explore/driver.h"
#include "explore/mapping_opt.h"
#include "explore/pareto.h"
#include "io/model_json.h"
#include "model/blocks.h"
#include "model/validation.h"
#include "scenarios/ecotwin.h"
#include "scenarios/micro.h"
#include "scenarios/synthetic.h"
#include "transform/connect.h"
#include "transform/expand.h"
#include "transform/reduce.h"

namespace asilkit {
namespace {

TEST(Integration, EcotwinEveryIntermediateModelIsValid) {
    // Replay the exploration by hand and validate after every mutation.
    ArchitectureModel m = scenarios::ecotwin_lateral_control();
    validate_or_throw(m);
    for (const std::string& name : scenarios::ecotwin_decision_nodes()) {
        transform::expand(m, m.find_app_node(name));
        EXPECT_EQ(validate(m).error_count(), 0u) << "after expand(" << name << ")";
    }
    transform::reduce_all(m);
    EXPECT_EQ(validate(m).error_count(), 0u) << "after reduce_all";
    while (true) {
        const auto connectable = transform::find_connectable(m);
        if (connectable.empty()) break;
        transform::connect(m, connectable.front());
        transform::reduce_all(m);
        EXPECT_EQ(validate(m).error_count(), 0u) << "after connect";
    }
    explore::optimize_mapping(m);
    EXPECT_EQ(validate(m).error_count(), 0u) << "after mapping optimisation";
    EXPECT_TRUE(analysis::analyze_ccf(m).independent());
}

TEST(Integration, EcotwinDecompositionRemainsAsilD) {
    // Every intermediate and the final architecture still meets the
    // original ASIL D requirement through its redundant blocks (Eq. 4).
    const ArchitectureModel m = scenarios::ecotwin_lateral_control();
    explore::ExplorationOptions options;
    options.probability.approximate = true;
    const auto result =
        explore::run_exploration(m, scenarios::ecotwin_decision_nodes(), options);
    for (const RedundantBlock& block : find_redundant_blocks(result.final_model)) {
        ASSERT_TRUE(block.well_formed);
        EXPECT_EQ(block_asil(result.final_model, block), Asil::D);
    }
}

TEST(Integration, EcotwinSingleFaultInjectionOnFinalModel) {
    // Fail each decision-branch resource individually: the merged
    // two-branch block must mask every single fault.
    const ArchitectureModel base = scenarios::ecotwin_lateral_control();
    explore::ExplorationOptions options;
    options.probability.approximate = true;
    const auto result =
        explore::run_exploration(base, scenarios::ecotwin_decision_nodes(), options);
    const ArchitectureModel& final_model = result.final_model;

    for (const RedundantBlock& block : find_redundant_blocks(final_model)) {
        for (const Branch& branch : block.branches) {
            for (NodeId n : branch.nodes) {
                if (!final_model.app().node(n).asil.is_decomposed()) continue;
                for (ResourceId r : final_model.mapped_resources(n)) {
                    ArchitectureModel injected = final_model;
                    injected.resources().node(r).lambda_override = 1e9;  // ~failed
                    const double p =
                        analysis::analyze_failure_probability(injected).failure_probability;
                    EXPECT_LT(p, 0.5)
                        << "single fault in " << final_model.resources().node(r).name
                        << " must be masked";
                }
            }
        }
    }
}

TEST(Integration, EcotwinDoubleFaultAcrossBranchesIsFatal) {
    const ArchitectureModel base = scenarios::ecotwin_lateral_control();
    explore::ExplorationOptions options;
    options.probability.approximate = true;
    const auto result =
        explore::run_exploration(base, scenarios::ecotwin_decision_nodes(), options);
    ArchitectureModel injected = result.final_model;
    // One resource in each decision branch (after mapping optimisation the
    // replicas sit on shared per-branch ECUs; look them up via the nodes).
    const NodeId n1 = injected.find_app_node("world_model_1");
    const NodeId n2 = injected.find_app_node("world_model_2");
    ASSERT_TRUE(n1.valid());
    ASSERT_TRUE(n2.valid());
    ASSERT_FALSE(injected.mapped_resources(n1).empty());
    ASSERT_FALSE(injected.mapped_resources(n2).empty());
    const ResourceId b1 = injected.mapped_resources(n1).front();
    const ResourceId b2 = injected.mapped_resources(n2).front();
    ASSERT_NE(b1, b2);
    injected.resources().node(b1).lambda_override = 1e9;
    injected.resources().node(b2).lambda_override = 1e9;
    EXPECT_GT(analysis::analyze_failure_probability(injected).failure_probability, 0.5);
}

TEST(Integration, SerializationPreservesExplorationResults) {
    // Save/load mid-pipeline and verify the rest of the flow behaves
    // identically on the reloaded model.
    ArchitectureModel m = scenarios::chain_two_stages();
    transform::expand(m, m.find_app_node("n1"));
    transform::expand(m, m.find_app_node("n2"));
    const ArchitectureModel reloaded = io::model_from_json(io::to_json(m));

    ArchitectureModel original = m;
    ArchitectureModel copy = reloaded;
    transform::connect_all(original);
    transform::connect_all(copy);
    EXPECT_DOUBLE_EQ(analysis::analyze_failure_probability(original).failure_probability,
                     analysis::analyze_failure_probability(copy).failure_probability);
}

TEST(Integration, CutSetOrderMatchesBlockRedundancy) {
    // After a 2-way decomposition, no order-1 cut set may remain inside
    // the expanded region.
    ArchitectureModel m = scenarios::chain_1in_1out();
    transform::expand(m, m.find_app_node("n"));
    const auto ft = ftree::build_fault_tree(m);
    analysis::CutSetOptions options;
    options.max_order = 1;
    for (const auto& cs : analysis::minimal_cut_sets(ft.tree, options)) {
        const std::string& name = ft.tree.basic_event(cs.front()).name;
        EXPECT_EQ(name.find("n_1"), std::string::npos) << name;
        EXPECT_EQ(name.find("n_2"), std::string::npos) << name;
    }
}

TEST(Integration, ApproximationStaysAccurateAcrossWholeEcotwinFlow) {
    const ArchitectureModel base = scenarios::ecotwin_lateral_control();
    explore::ExplorationOptions approx;
    approx.probability.approximate = true;
    explore::ExplorationOptions exact;
    exact.probability.approximate = false;
    const auto ra = explore::run_exploration(base, scenarios::ecotwin_decision_nodes(), approx);
    const auto re = explore::run_exploration(base, scenarios::ecotwin_decision_nodes(), exact);
    ASSERT_EQ(ra.curve.points.size(), re.curve.points.size());
    for (std::size_t i = 0; i < ra.curve.points.size(); ++i) {
        const double pa = ra.curve.points[i].failure_probability;
        const double pe = re.curve.points[i].failure_probability;
        EXPECT_NEAR(pa, pe, 1e-3 * pe) << ra.curve.points[i].label;
        EXPECT_LE(ra.curve.points[i].ft_dag_nodes, re.curve.points[i].ft_dag_nodes);
    }
}

TEST(Integration, StrategiesTradeOffDifferently) {
    // BB and AC visit different architectures: with the exponential
    // metric, AC's C-branch hardware costs more than BB's two B branches.
    const ArchitectureModel m = scenarios::ecotwin_lateral_control();
    explore::ExplorationOptions bb;
    bb.probability.approximate = true;
    bb.strategy = DecompositionStrategy::BB;
    explore::ExplorationOptions ac = bb;
    ac.strategy = DecompositionStrategy::AC;
    const auto rb = explore::run_exploration(m, scenarios::ecotwin_decision_nodes(), bb);
    const auto rc = explore::run_exploration(m, scenarios::ecotwin_decision_nodes(), ac);
    EXPECT_NE(rb.curve.back().cost, rc.curve.back().cost);
    EXPECT_LT(rb.curve.back().cost, rc.curve.back().cost)
        << "B+B branches are cheaper than C+A under a x10-per-level metric";
}

TEST(Integration, SyntheticModelsSurviveRandomTransformSequences) {
    // Fuzz: expand random expandable nodes, connect/reduce where possible;
    // the model must stay structurally valid throughout.
    for (std::uint32_t seed = 1; seed <= 6; ++seed) {
        scenarios::SyntheticOptions synth;
        synth.seed = seed;
        ArchitectureModel m = scenarios::synthetic_model(synth);
        std::mt19937 rng(seed);
        int expansions = 0;
        for (int attempt = 0; attempt < 12; ++attempt) {
            const auto ids = m.app().node_ids();
            const NodeId n = ids[rng() % ids.size()];
            const AppNode& node = m.app().node(n);
            if ((node.kind != NodeKind::Functional && node.kind != NodeKind::Communication) ||
                node.asil.level == Asil::QM || m.app().in_degree(n) == 0 ||
                m.app().out_degree(n) == 0) {
                continue;
            }
            transform::ExpandOptions options;
            options.strategy = rng() % 2 ? DecompositionStrategy::BB : DecompositionStrategy::AC;
            // A generated name can repeat one an earlier expansion made:
            // expanding c0_2 makes c_post_c0_2_1 and the replica c0_2_1,
            // expanding c_post_c0_2_1 makes c_post_c0_2_1_1, and expanding
            // c0_2_1 would make c_post_c0_2_1_1 again.  Expand refuses
            // such a step and leaves the model as it was.
            const std::string before = io::to_json(m).dump();
            try {
                transform::expand(m, n, options);
            } catch (const TransformError& e) {
                EXPECT_NE(std::string(e.what()).find("' is already in use"), std::string::npos)
                    << e.what();
                EXPECT_EQ(io::to_json(m).dump(), before) << "seed " << seed;
                continue;
            }
            ++expansions;
            ASSERT_EQ(validate(m).error_count(), 0u) << "seed " << seed;
        }
        EXPECT_GT(expansions, 0) << "seed " << seed;
        transform::reduce_all(m);
        transform::connect_all(m);
        explore::optimize_mapping(m);
        ASSERT_EQ(validate(m).error_count(), 0u) << "seed " << seed;
        const double p = analysis::analyze_failure_probability(m).failure_probability;
        EXPECT_GT(p, 0.0);
        EXPECT_LT(p, 1.0);
    }
}

TEST(Integration, CostAndProbabilityAreConsistentAcrossApis) {
    // measure_point must agree with calling the analyses directly.
    const ArchitectureModel m = scenarios::ecotwin_lateral_control();
    const auto metric = cost::CostMetric::exponential_metric1();
    analysis::ProbabilityOptions prob;
    engine::EvalEngine engine;
    const auto point = explore::measure_point(m, "check", metric, prob, engine);
    EXPECT_DOUBLE_EQ(point.cost, cost::total_cost(m, metric));
    EXPECT_DOUBLE_EQ(point.failure_probability,
                     analysis::analyze_failure_probability(m, prob).failure_probability);
    EXPECT_EQ(point.app_nodes, m.app().node_count());
}

}  // namespace
}  // namespace asilkit
