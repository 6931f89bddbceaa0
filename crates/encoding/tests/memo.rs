//! The statement-embedding memo changes no encoding: over random planner
//! output, warm, cold and cloned encoders — and encoders shared across
//! threads — produce exactly the rows the unmemoised algorithm does.

use encoding::onehot;
use encoding::plan_encoder::{log_norm, plan_stats};
use encoding::tokenizer::{plan_sentences, tokenize_statement};
use encoding::{train_word2vec, EncodedPlan, EncoderConfig, PlanEncoder, W2vConfig};
use proptest::prelude::*;
use rand::SeedableRng;
use sparksim::plan::planner::PlannerOptions;
use sparksim::{ClusterConfig, Engine, PhysicalPlan, SimulatorConfig};
use workloads::imdb::{generate, ImdbConfig};

/// Candidate plans for a few random queries over a small IMDB instance.
fn planner_output(seed: u64, max_joins: usize) -> Vec<PhysicalPlan> {
    let data = generate(&ImdbConfig { title_rows: 200, seed });
    let scale = data.simulated_scale();
    let engine = Engine::with_options(
        data.catalog,
        PlannerOptions::scaled_to(scale),
        ClusterConfig::default(),
        SimulatorConfig { data_scale: scale, ..SimulatorConfig::default() },
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let queries = workloads::querygen::generate_queries(
        &data.graph,
        &workloads::querygen::QueryGenConfig { max_joins, ..Default::default() },
        4,
        &mut rng,
    );
    queries
        .iter()
        .flat_map(|sql| engine.plan_candidates(sql).unwrap_or_default())
        .collect()
}

fn encoder_for(plans: &[PhysicalPlan], max_nodes: usize) -> PlanEncoder {
    let corpus: Vec<Vec<String>> = plans.iter().flat_map(plan_sentences).collect();
    let w2v = train_word2vec(&corpus, &W2vConfig { dim: 8, epochs: 1, ..Default::default() });
    PlanEncoder::new(w2v, EncoderConfig { max_nodes, structure: true })
}

/// The encoding computed block by block with no memo: the semantic
/// block from the tokenizer and word2vec, the one-hot and structure
/// blocks from their reference functions.
fn reference_encode(encoder: &PlanEncoder, plan: &PhysicalPlan) -> EncodedPlan {
    let parents = plan.parents();
    let max_nodes = encoder.config().max_nodes;
    let node_features = (0..plan.len())
        .map(|id| {
            let node = plan.node(id);
            let mut row = encoder
                .word2vec()
                .embed_mean(&tokenize_statement(&plan.statement(id)));
            row.extend(onehot::encode_operator(node.op.name()));
            let mut block = plan.structure_row(id, &parents);
            block.resize(max_nodes.max(block.len()), 0.0);
            row.extend(&block[..max_nodes]);
            row.push(log_norm(node.est_rows, 12.0));
            row.push(log_norm(node.est_bytes, 15.0));
            row
        })
        .collect();
    EncodedPlan {
        node_features,
        children: (0..plan.len()).map(|id| plan.node(id).children.clone()).collect(),
        plan_stats: plan_stats(plan),
    }
}

/// `==` on f32 treats `0.0` and `-0.0` as equal and NaN as unequal;
/// compare the bits too.
fn assert_bit_identical(got: &EncodedPlan, want: &EncodedPlan) {
    assert_eq!(got, want);
    for (g, w) in got.node_features.iter().zip(&want.node_features) {
        assert_eq!(
            g.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            w.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Warm, cold and cloned encoders agree with the unmemoised encoding
    /// on every plan, including with a structure window narrower than
    /// the plans.
    #[test]
    fn memo_never_changes_an_encoding(
        seed in 0u64..1000,
        max_joins in 1usize..4,
        window in 0usize..2,
    ) {
        let plans = planner_output(seed, max_joins);
        prop_assert!(!plans.is_empty(), "planner produced nothing");
        let warm = encoder_for(&plans, [6, 48][window]);
        for plan in &plans {
            warm.encode(plan);
        }
        let clone = warm.clone();
        for plan in &plans {
            let want = reference_encode(&warm, plan);
            let cold = PlanEncoder::new(warm.word2vec().clone(), warm.config().clone());
            assert_bit_identical(&cold.encode(plan), &want);
            assert_bit_identical(&warm.encode(plan), &want);
            assert_bit_identical(&clone.encode(plan), &want);
        }
    }
}

#[test]
fn four_threads_through_clones_agree_with_one() {
    let plans = planner_output(11, 3);
    assert!(!plans.is_empty());
    let shared = encoder_for(&plans, 48);
    let single = PlanEncoder::new(shared.word2vec().clone(), shared.config().clone());
    let want: Vec<EncodedPlan> = plans.iter().map(|p| single.encode(p)).collect();
    let barrier = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let (encoder, plans, want, barrier) = (shared.clone(), &plans, &want, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    // Each thread walks the plans from its own offset, so
                    // the threads miss and insert on different statements
                    // at the same time.
                    for i in (0..plans.len()).map(|i| (i + t * plans.len() / 4) % plans.len()) {
                        assert_bit_identical(&encoder.encode(&plans[i]), &want[i]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("encoder thread panicked");
        }
    });
}
