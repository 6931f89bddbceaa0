//! End-to-end plan/sample encoding: the paper's Sec. IV-C.
//!
//! Each plan node becomes the concatenation of
//! * a **node-semantic embedding** — the mean word2vec vector of the
//!   node's execution-statement tokens,
//! * a **one-hot operator block** (Table II),
//! * a **structure embedding** — the signed degree row (children +1,
//!   parent −1) padded to `max_nodes`,
//! * two normalised per-node **statistics** (log-scaled estimated rows and
//!   bytes from the optimizer).
//!
//! A full training [`Sample`] adds the normalised resource vector (Eq. 1),
//! plan-level statistics, and the observed execution time.

use crate::memo::StatementMemo;
pub use crate::memo::MEMO_CAPACITY;
use crate::onehot;
use crate::tokenizer::tokenize_statement;
use crate::word2vec::Word2Vec;
use serde::{Deserialize, Serialize};
use sparksim::plan::physical::PhysicalOp;
use sparksim::resource::{ClusterConfig, ResourceConfig};
use sparksim::PhysicalPlan;
use std::sync::Arc;

/// Encoder dimensions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EncoderConfig {
    /// Structure-embedding width: plans longer than this have their
    /// structure rows truncated (semantic features keep working).
    pub max_nodes: usize,
    /// Include the structure block (disabled for the NE-LSTM ablation).
    pub structure: bool,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self { max_nodes: 48, structure: true }
    }
}

/// Number of per-node statistic features.
pub const NODE_STAT_FEATURES: usize = 2;
/// Number of plan-level statistic features.
pub const PLAN_STAT_FEATURES: usize = 8;

/// An encoded plan: per-node feature rows plus the child lists the
/// node-aware attention layer consumes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedPlan {
    /// `num_nodes` rows of `node_dim` features, in execution order.
    pub node_features: Vec<Vec<f32>>,
    /// Children ids per node (indices into `node_features`).
    pub children: Vec<Vec<usize>>,
    /// Plan-level statistics (see [`plan_stats`]).
    pub plan_stats: Vec<f32>,
}

impl EncodedPlan {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_features.len()
    }

    /// Structural validation of the child lists ([`analysis::dag`]):
    /// in-range, topologically ordered (children strictly precede
    /// parents, ruling out cycles), duplicate-free, single-parent, and a
    /// unique root that is the last node. Use
    /// [`PlanEncoder::validate`] to additionally cross-check the signed
    /// structure rows.
    pub fn validate(&self) -> Result<(), analysis::dag::DagError> {
        analysis::dag::validate_children(&self.children)
    }
}

/// One training record for the deep cost models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Encoded plan.
    pub plan: EncodedPlan,
    /// Normalised resource features (Eq. 1, Table I order).
    pub resources: Vec<f32>,
    /// Observed execution seconds (the label).
    pub seconds: f64,
}

/// Encodes plans into model inputs.
///
/// The encoder memoises each node statement's semantic block (see
/// [`MEMO_CAPACITY`]); clones share one memo, so client threads and
/// training encode through a common cache.
#[derive(Debug, Clone)]
pub struct PlanEncoder {
    w2v: Word2Vec,
    cfg: EncoderConfig,
    memo: Arc<StatementMemo>,
}

impl PlanEncoder {
    /// Creates an encoder from a trained word2vec model.
    pub fn new(w2v: Word2Vec, cfg: EncoderConfig) -> Self {
        Self { w2v, cfg, memo: Arc::new(StatementMemo::new()) }
    }

    /// The per-node feature width this encoder produces.
    pub fn node_dim(&self) -> usize {
        self.w2v.dim() + onehot::DIM + self.structure_width() + NODE_STAT_FEATURES
    }

    /// The configuration in use.
    pub fn config(&self) -> &EncoderConfig {
        &self.cfg
    }

    /// The underlying word2vec model.
    pub fn word2vec(&self) -> &Word2Vec {
        &self.w2v
    }

    /// Width of the structure block (0 when it is disabled).
    fn structure_width(&self) -> usize {
        if self.cfg.structure {
            self.cfg.max_nodes
        } else {
            0
        }
    }

    /// Encodes a physical plan.
    ///
    /// Each row is allocated once and its blocks are written in place.
    pub fn encode(&self, plan: &PhysicalPlan) -> EncodedPlan {
        let parents = plan.parents();
        let n = plan.len();
        let (dim, width) = (self.w2v.dim(), self.structure_width());
        let mut node_features = Vec::with_capacity(n);
        let mut children = Vec::with_capacity(n);
        for (id, parent) in parents.iter().enumerate() {
            let node = plan.node(id);
            let mut row = vec![0.0f32; self.node_dim()];
            let (semantic, rest) = row.split_at_mut(dim);
            let (one_hot, rest) = rest.split_at_mut(onehot::DIM);
            let (structure, stats) = rest.split_at_mut(width);
            // Semantic block: the mean word2vec vector of the statement.
            self.memo.embed_into(&plan.statement(id), semantic, |statement| {
                self.w2v.embed_mean(&tokenize_statement(statement))
            });
            // Operator one-hot block.
            if let Some(slot) =
                onehot::operator_index(node.op.name()).and_then(|i| one_hot.get_mut(i))
            {
                *slot = 1.0;
            }
            // Structure block (signed degrees, truncated to max_nodes).
            for &c in &node.children {
                if let Some(slot) = structure.get_mut(c) {
                    *slot = 1.0;
                }
            }
            if let Some(slot) = parent.and_then(|p| structure.get_mut(p)) {
                *slot = -1.0;
            }
            // Node statistics.
            let node_stats = [log_norm(node.est_rows, 12.0), log_norm(node.est_bytes, 15.0)];
            stats.iter_mut().zip(node_stats).for_each(|(slot, v)| *slot = v);
            node_features.push(row);
            children.push(node.children.clone());
        }
        let encoded = EncodedPlan {
            node_features,
            children,
            plan_stats: plan_stats(plan),
        };
        // Static DAG check: a malformed physical plan (or a bug in the
        // structure-row emission above) is an internal invariant
        // violation — fail loudly here, before the plan can reach the
        // model and mispredict silently.
        if let Err(e) = self.validate(&encoded) {
            panic!("plan encoding produced an invalid DAG: {e}");
        }
        encoded
    }

    /// Full static validation of an encoded plan: the child-list
    /// invariants of [`EncodedPlan::validate`] plus a cross-check that
    /// every `+1` child entry in the signed structure rows is mirrored
    /// by the child's `−1` parent entry (entries beyond the `max_nodes`
    /// truncation window are exempt, matching how they are emitted).
    /// The structure blocks are read in place.
    pub fn validate(&self, plan: &EncodedPlan) -> Result<(), analysis::dag::DagError> {
        if !self.cfg.structure {
            return plan.validate();
        }
        let offset = self.w2v.dim() + onehot::DIM;
        analysis::dag::validate_signed_rows(
            &plan.children,
            &plan.node_features,
            offset..offset + self.cfg.max_nodes,
        )
    }

    /// Encodes a full training sample.
    pub fn encode_sample(
        &self,
        plan: &PhysicalPlan,
        resources: &ResourceConfig,
        cluster: &ClusterConfig,
        seconds: f64,
    ) -> Sample {
        Sample {
            plan: self.encode(plan),
            resources: resources.feature_vector(cluster),
            seconds,
        }
    }
}

/// `log10(1 + x) / denom`, clamped to [0, 1] — the normalisation used for
/// cardinality-like features.
pub fn log_norm(x: f64, denom: f64) -> f32 {
    // PANIC-FREE: f64 division cannot panic (a zero denominator yields
    // ±inf or NaN, which the clamp and cast then bound or pass on).
    (((1.0 + x.max(0.0)).log10()) / denom).clamp(0.0, 1.0) as f32
}

/// Plan-level statistics: scan volume, estimated output, operator mix.
pub fn plan_stats(plan: &PhysicalPlan) -> Vec<f32> {
    let mut n_join_smj = 0usize;
    let mut n_join_bhj = 0usize;
    let mut n_exchange = 0usize;
    let mut n_sort = 0usize;
    for node in plan.nodes() {
        match &node.op {
            PhysicalOp::SortMergeJoin { .. } => n_join_smj += 1,
            PhysicalOp::BroadcastHashJoin { .. } | PhysicalOp::ShuffledHashJoin { .. } => {
                n_join_bhj += 1
            }
            PhysicalOp::Sort { .. } => n_sort += 1,
            op if op.is_exchange() => n_exchange += 1,
            _ => {}
        }
    }
    let root = plan.node(plan.root());
    vec![
        log_norm(plan.scan_bytes(), 15.0),
        log_norm(root.est_rows, 12.0),
        log_norm(root.est_bytes, 15.0),
        (plan.len() as f32 / 64.0).min(1.0),
        (n_join_smj as f32 / 8.0).min(1.0),
        (n_join_bhj as f32 / 8.0).min(1.0),
        (n_exchange as f32 / 12.0).min(1.0),
        (n_sort as f32 / 8.0).min(1.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word2vec::{train, W2vConfig};
    use sparksim::expr::{CmpOp, Expr};
    use sparksim::plan::physical::{AggMode, PhysicalOp, PhysicalPlan};
    use sparksim::plan::spec::AggSpec;
    use sparksim::schema::ColumnRef;
    use sparksim::sql::ast::AggFunc;
    use sparksim::types::Value;

    fn plan() -> PhysicalPlan {
        let mut p = PhysicalPlan::new();
        let scan = p.add(
            PhysicalOp::FileScan {
                binding: "t".into(),
                table: "title".into(),
                output: vec![ColumnRef::new("t", "id")],
                pushed_filter: Some(Expr::cmp(ColumnRef::new("t", "id"), CmpOp::Lt, Value::Int(7))),
            },
            vec![],
            100.0,
            800.0,
        );
        let agg = p.add(
            PhysicalOp::HashAggregate {
                mode: AggMode::Partial,
                group_by: vec![],
                aggs: vec![AggSpec { func: AggFunc::Count, arg: None }],
            },
            vec![scan],
            1.0,
            8.0,
        );
        let ex = p.add(PhysicalOp::ExchangeSingle, vec![agg], 1.0, 8.0);
        p.add(
            PhysicalOp::HashAggregate {
                mode: AggMode::Final,
                group_by: vec![],
                aggs: vec![AggSpec { func: AggFunc::Count, arg: None }],
            },
            vec![ex],
            1.0,
            8.0,
        );
        p
    }

    fn encoder() -> PlanEncoder {
        let corpus = crate::tokenizer::plan_sentences(&plan());
        let w2v = train(&corpus, &W2vConfig { dim: 8, epochs: 2, ..Default::default() });
        PlanEncoder::new(w2v, EncoderConfig { max_nodes: 16, structure: true })
    }

    #[test]
    fn node_rows_have_declared_dim() {
        let enc = encoder();
        let e = enc.encode(&plan());
        assert_eq!(e.num_nodes(), 4);
        for row in &e.node_features {
            assert_eq!(row.len(), enc.node_dim());
        }
        assert_eq!(e.plan_stats.len(), PLAN_STAT_FEATURES);
    }

    #[test]
    fn structure_block_encodes_tree() {
        let enc = encoder();
        let e = enc.encode(&plan());
        let w2v_dim = 8;
        let start = w2v_dim + onehot::DIM;
        // Node 0 (scan): parent is node 1 -> -1 at offset 1.
        assert_eq!(e.node_features[0][start + 1], -1.0);
        // Node 1: child 0 -> +1 at offset 0, parent 2 -> -1 at offset 2.
        assert_eq!(e.node_features[1][start], 1.0);
        assert_eq!(e.node_features[1][start + 2], -1.0);
    }

    #[test]
    fn structure_can_be_disabled() {
        let corpus = crate::tokenizer::plan_sentences(&plan());
        let w2v = train(&corpus, &W2vConfig { dim: 8, epochs: 2, ..Default::default() });
        let enc = PlanEncoder::new(w2v, EncoderConfig { max_nodes: 16, structure: false });
        assert_eq!(enc.node_dim(), 8 + onehot::DIM + NODE_STAT_FEATURES);
        let e = enc.encode(&plan());
        assert_eq!(e.node_features[0].len(), enc.node_dim());
    }

    #[test]
    fn children_lists_match_plan() {
        let enc = encoder();
        let e = enc.encode(&plan());
        assert_eq!(e.children[0], Vec::<usize>::new());
        assert_eq!(e.children[1], vec![0]);
        assert_eq!(e.children[3], vec![2]);
    }

    #[test]
    fn clones_share_one_statement_memo() {
        let enc = encoder();
        let clone = enc.clone();
        assert_eq!(clone.encode(&plan()), enc.encode(&plan()));
        assert!(Arc::ptr_eq(&enc.memo, &clone.memo));
        // Four nodes, four distinct statements.
        assert_eq!(enc.memo.len(), 4);
    }

    #[test]
    fn log_norm_behaviour() {
        assert_eq!(log_norm(0.0, 12.0), 0.0);
        assert!(log_norm(1e12, 12.0) >= 0.99);
        assert!(log_norm(1e30, 12.0) <= 1.0);
        assert!(log_norm(-5.0, 12.0) >= 0.0);
    }

    #[test]
    fn sample_includes_resources_and_label() {
        let enc = encoder();
        let cluster = ClusterConfig::default();
        let res = ResourceConfig::default_for(&cluster);
        let s = enc.encode_sample(&plan(), &res, &cluster, 12.5);
        assert_eq!(s.resources.len(), ResourceConfig::NUM_FEATURES);
        assert_eq!(s.seconds, 12.5);
    }
}
