//! The four workloads: which plans each client sends, under which
//! resources, in which call shape. Everything here is planned at set-up
//! from the workload seed, so the timed phase only issues calls.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sparksim::resource::{ClusterConfig, ResourceConfig, ResourceGrid};
use sparksim::{Engine, PhysicalPlan};
use workloads::querygen::{generate_queries, QueryGenConfig};
use workloads::FkGraph;

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single-plan `predict`, every plan new.
    Probe,
    /// Single-plan `predict`, one plan swept over the whole resource grid.
    Whatif,
    /// `predict_many` over one query's candidate plans.
    Select,
    /// `Probe` with the program's telemetry switched on.
    ProbeTelemetry,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "probe" => Some(Self::Probe),
            "whatif" => Some(Self::Whatif),
            "select" => Some(Self::Select),
            "probe_telemetry" => Some(Self::ProbeTelemetry),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Probe => "probe",
            Self::Whatif => "whatif",
            Self::Select => "select",
            Self::ProbeTelemetry => "probe_telemetry",
        }
    }
}

/// Plans per second the pool is sized for: above the 6-8k plans/s two
/// clients reach on two cores, so `probe` sends every plan once. A
/// serving path fast enough to wrap round the pool shows it in
/// `encoding.plan_repeat_share`. Each plan holds about 10 KiB, so the
/// pool is most of the resident set on `probe` and `select`.
const POOL_PLANS_PER_S: f64 = 10_000.0;
/// Bound on the pool, about 1 GiB of plans: a run longer than 10 s wraps
/// round it on `probe` and `select`.
const MAX_POOL_PLANS: usize = 100_000;

/// One serving call: the plans (indices into [`Traffic::plans`]) priced
/// together under one resource point.
pub struct Call {
    pub plans: Vec<usize>,
    pub res: ResourceConfig,
}

/// A workload's planned traffic. Clients take whole tasks in order from
/// a shared cursor and issue the task's calls back to back.
pub struct Traffic {
    pub plans: Vec<PhysicalPlan>,
    pub tasks: Vec<Vec<Call>>,
}

impl Traffic {
    /// Plans enough traffic for `seconds` of load. Plans the admission
    /// guard would turn away (more than `max_nodes` nodes) are left out,
    /// so that no call falls back by design.
    pub fn plan(
        workload: Workload,
        engine: &Engine,
        graph: &FkGraph,
        seed: u64,
        seconds: f64,
        max_nodes: usize,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7AFF_1C5E_ED00_0001);
        let cluster = ClusterConfig::default();
        let grid = ResourceGrid::default();
        let plans_wanted = ((POOL_PLANS_PER_S * seconds).ceil() as usize).min(MAX_POOL_PLANS);
        let queries = match workload {
            // About four candidate plans per generated query.
            Workload::Probe | Workload::ProbeTelemetry | Workload::Select => plans_wanted / 4 + 64,
            Workload::Whatif => plans_wanted / 144 + 64,
        };
        let sql = generate_queries(graph, &QueryGenConfig::default(), queries, &mut rng);
        let candidates: Vec<Vec<PhysicalPlan>> = plan_all(engine, &sql)
            .into_iter()
            .map(|c| c.into_iter().filter(|p| p.len() <= max_nodes).collect::<Vec<_>>())
            .filter(|c| !c.is_empty())
            .collect();

        let mut plans = Vec::new();
        let mut tasks = Vec::new();
        match workload {
            Workload::Probe | Workload::ProbeTelemetry => {
                for plan in candidates.into_iter().flatten() {
                    let call = Call {
                        plans: vec![plans.len()],
                        res: grid.sample(&cluster, &mut rng),
                    };
                    plans.push(plan);
                    tasks.push(vec![call]);
                }
            }
            Workload::Whatif => {
                let points = grid.enumerate(&cluster);
                for mut c in candidates {
                    let id = plans.len();
                    // The optimizer's default (first) candidate is the
                    // plan a resource planner already knows.
                    plans.push(c.swap_remove(0));
                    tasks.push(
                        points
                            .iter()
                            .map(|r| Call { plans: vec![id], res: r.clone() })
                            .collect(),
                    );
                }
            }
            Workload::Select => {
                for c in candidates {
                    let ids = (plans.len()..plans.len() + c.len()).collect();
                    plans.extend(c);
                    tasks.push(vec![Call { plans: ids, res: grid.sample(&cluster, &mut rng) }]);
                }
            }
        }
        Self { plans, tasks }
    }
}

/// Plans every query on all cores; unplannable queries yield no
/// candidates. The result is in query order whatever the thread count.
fn plan_all(engine: &Engine, sql: &[String]) -> Vec<Vec<PhysicalPlan>> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = sql.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = sql
            .chunks(chunk)
            .map(|qs| {
                s.spawn(move || {
                    qs.iter()
                        .map(|q| engine.plan_candidates(q).unwrap_or_default())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("planner thread panicked"))
            .collect()
    })
}
