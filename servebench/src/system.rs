//! Set-up: the system under test, built the way a deployment would build
//! it, with each step timed.
//!
//! The served model is the same in every run: data, collection, word2vec
//! and training use [`MODEL_SEED`], so a run measures one fixed
//! checkpoint. The workload seed only draws the traffic.

use crate::traffic::{Traffic, Workload};
use baselines::gpsj::{GpsjModel, GpsjParams};
use encoding::tokenizer::plan_sentences;
use encoding::word2vec::{train as train_word2vec, W2vConfig, Word2Vec};
use encoding::{EncoderConfig, PlanEncoder, Sample};
use raal::dataset::{collect, CollectionConfig};
use raal::serving::shard::{ShardConfig, ShardedServing};
use raal::serving::FallbackModel;
use raal::{train, CostModel, FrozenModel, ModelBundle, ModelConfig, TrainConfig};
use sparksim::plan::planner::PlannerOptions;
use sparksim::resource::{ClusterConfig, ResourceConfig, ResourceGrid};
use sparksim::{Engine, PhysicalPlan, SimulatorConfig};
use std::sync::Arc;
use std::time::Instant;
use workloads::querygen::QueryGenConfig;
use workloads::ImdbConfig;

/// Seed of everything that makes the served model.
const MODEL_SEED: u64 = 42;
/// Rows of the reduced IMDB `title` table (the repository's reduced scale).
const TITLE_ROWS: usize = 2_000;
/// Queries collected for training data (the reduced IMDB collection).
const COLLECT_QUERIES: usize = 120;
/// Every `HOLDOUT_EVERY`-th query is held out of training for `q_error_p50`.
const HOLDOUT_EVERY: usize = 5;
/// Training samples and epochs: a brief fit, enough for a trained head.
const TRAIN_SAMPLES: usize = 240;
const TRAIN_EPOCHS: usize = 3;

/// Wall-clock seconds of each set-up step, in the order they run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Synthetic IMDB data and the engine over it (`workloads`).
    pub generate_s: f64,
    /// Training-data collection: plan, execute, simulate (`sparksim`).
    pub collect_s: f64,
    /// Generating and planning the workload's traffic (`sparksim`).
    pub plan_pool_s: f64,
    /// Word2vec over the plan-statement corpus (`encoding`).
    pub word2vec_s: f64,
    /// Encoding the training samples and fitting the model (`core::train`).
    pub fit_s: f64,
    /// Freezing the model, starting the shards and warming them.
    pub start_s: f64,
    /// From process start to ready for the first timed call.
    pub total_s: f64,
}

impl SetupTimes {
    const TAG: &'static str = "servebench-setup";

    fn fields(&self) -> [f64; 7] {
        [
            self.generate_s,
            self.collect_s,
            self.plan_pool_s,
            self.word2vec_s,
            self.fit_s,
            self.start_s,
            self.total_s,
        ]
    }

    /// One line a set-up child process prints for its parent.
    pub fn to_line(self) -> String {
        let values: Vec<String> = self.fields().iter().map(|v| format!("{v:?}")).collect();
        format!("{} {}", Self::TAG, values.join(" "))
    }

    pub fn from_line(line: &str) -> Option<Self> {
        let mut it = line.split_whitespace();
        if it.next()? != Self::TAG {
            return None;
        }
        let v: Vec<f64> = it.map(|x| x.parse().ok()).collect::<Option<_>>()?;
        let [generate_s, collect_s, plan_pool_s, word2vec_s, fit_s, start_s, total_s] =
            <[f64; 7]>::try_from(v).ok()?;
        Some(Self {
            generate_s,
            collect_s,
            plan_pool_s,
            word2vec_s,
            fit_s,
            start_s,
            total_s,
        })
    }
}

/// The served system plus the bench-side handles the checks and the
/// traced run call directly.
pub struct System {
    pub service: ShardedServing,
    pub traffic: Traffic,
    /// The encoder the service uses (`ModelBundle::encoder`).
    pub encoder: PlanEncoder,
    pub word2vec: Word2Vec,
    /// The same weights, frozen again outside the service.
    pub frozen: FrozenModel,
    pub model_config: ModelConfig,
    pub gpsj: GpsjModel,
    pub cluster: ClusterConfig,
    /// Held-out (plan, resources, observed seconds) triples.
    pub heldout: Vec<(PhysicalPlan, ResourceConfig, f64)>,
}

impl System {
    /// Builds the system; `t0` is when this process started.
    pub fn build(
        workload: Workload,
        seed: u64,
        seconds: f64,
        shards: usize,
        t0: Instant,
    ) -> (Self, SetupTimes) {
        let mut times = SetupTimes::default();
        let mut lap = Instant::now();
        let mut step = |slot: &mut f64| {
            *slot = lap.elapsed().as_secs_f64();
            lap = Instant::now();
        };

        let data =
            workloads::imdb::generate(&ImdbConfig { title_rows: TITLE_ROWS, seed: MODEL_SEED });
        let scale = data.simulated_scale();
        let cluster = ClusterConfig::default();
        let engine = Engine::with_options(
            data.catalog,
            PlannerOptions::scaled_to(scale),
            cluster.clone(),
            SimulatorConfig { data_scale: scale, ..SimulatorConfig::default() },
        );
        let graph = data.graph;
        step(&mut times.generate_s);

        let collection = collect(
            &engine,
            &graph,
            &CollectionConfig {
                num_queries: COLLECT_QUERIES,
                resource_states_per_plan: 3,
                runs_per_observation: 3,
                querygen: QueryGenConfig::default(),
                grid: ResourceGrid::default(),
                seed: MODEL_SEED,
                threads: 0,
            },
        );
        step(&mut times.collect_s);

        let shard_cfg = ShardConfig { shards, ..ShardConfig::default() };
        let max_nodes = shard_cfg.serving.max_plan_nodes;
        let traffic = Traffic::plan(workload, &engine, &graph, seed, seconds, max_nodes);
        step(&mut times.plan_pool_s);

        let corpus: Vec<Vec<String>> = collection
            .plan_runs
            .iter()
            .flat_map(|r| plan_sentences(&r.plan))
            .collect();
        let word2vec =
            train_word2vec(&corpus, &W2vConfig { dim: 32, epochs: 2, ..W2vConfig::default() });
        let encoder = PlanEncoder::new(word2vec.clone(), EncoderConfig::default());
        step(&mut times.word2vec_s);

        let (train_runs, held_runs): (Vec<_>, Vec<_>) = collection
            .plan_runs
            .iter()
            .partition(|r| r.query_idx % HOLDOUT_EVERY != 0);
        let cluster_ref = &cluster;
        let all: Vec<Sample> = train_runs
            .iter()
            .flat_map(|r| {
                let plan = encoder.encode(&r.plan);
                r.observations.iter().map(move |(res, seconds)| Sample {
                    plan: plan.clone(),
                    resources: res.feature_vector(cluster_ref),
                    seconds: *seconds,
                })
            })
            .collect();
        let stride = all.len().div_ceil(TRAIN_SAMPLES).max(1);
        let samples: Vec<Sample> = all.into_iter().step_by(stride).collect();
        let model_config = ModelConfig::raal(encoder.node_dim());
        let mut model = CostModel::new(model_config.clone());
        let train_cfg = TrainConfig {
            epochs: TRAIN_EPOCHS,
            lr: 1.5e-3,
            batch_size: 32,
            clip_norm: 5.0,
            seed: MODEL_SEED,
            threads: 0,
        };
        train(&mut model, &samples, &train_cfg);
        let heldout: Vec<(PhysicalPlan, ResourceConfig, f64)> = held_runs
            .iter()
            .filter(|r| r.plan.len() <= max_nodes)
            .flat_map(|r| {
                r.observations
                    .iter()
                    .map(|(res, s)| (r.plan.clone(), res.clone(), *s))
            })
            .collect();
        step(&mut times.fit_s);

        let gpsj = GpsjModel::new(GpsjParams { data_scale: scale, ..GpsjParams::default() });
        let frozen = FrozenModel::freeze(model.clone());
        let bundle = ModelBundle::new(model, &encoder);
        let served_encoder = bundle.encoder();
        let fallback: Arc<dyn FallbackModel + Send + Sync> = Arc::new(gpsj.clone());
        let service = ShardedServing::new(bundle, fallback, shard_cfg);
        // Warm every shard's worker and arena before timing.
        for (plan, res, _) in &heldout {
            std::hint::black_box(service.predict("warmup", plan, res));
        }
        step(&mut times.start_s);
        times.total_s = t0.elapsed().as_secs_f64();

        let system = Self {
            service,
            traffic,
            encoder: served_encoder,
            word2vec,
            frozen,
            model_config,
            gpsj,
            cluster,
            heldout,
        };
        (system, times)
    }
}
