//! The closed-loop load and the traced replay of each call's layers.
//!
//! One client thread per core. Each client takes the next task from a
//! shared cursor, issues its calls back to back and waits for every
//! answer before sending the next call: optimizer callers each wait for
//! their estimate.

use crate::measure::{median, process_cpu_us, quantile};
use crate::system::System;
use crate::traffic::Call;
use encoding::tokenizer::tokenize_statement;
use encoding::EncodedPlan;
use raal::serving::{PredictionSource, ServingPrediction, SloStats};
use sparksim::PhysicalPlan;
use std::hint::black_box;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Every `CHECK_EVERY`-th call of a client is kept for the output check
/// against `FrozenModel::predict_packed`.
const CHECK_EVERY: u64 = 32;

/// One timed interval of the traced run. Spans of one call share `req`.
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Plans the interval covered.
    pub plans: u32,
}

/// Layer span names, in the order the traced replay records them.
pub const CALL: &str = "serving.call";
pub const GPSJ: &str = "gpsj.estimate";
pub const ENCODE: &str = "encoding.encode";
pub const RENDER: &str = "encoding.render";
pub const TOKENIZE: &str = "encoding.tokenize";
pub const EMBED: &str = "encoding.embed";
pub const STRUCTURE: &str = "encoding.structure";
pub const VALIDATE: &str = "encoding.validate";
pub const PLAN_SIDE: &str = "model.plan_side";
pub const RESOURCE_SIDE: &str = "model.resource_side";
pub const PACKED: &str = "model.packed";

/// A served call kept for the output check.
pub struct Answer {
    pub task: usize,
    pub call: usize,
    pub answers: Vec<ServingPrediction>,
}

/// One call as the client saw it.
pub struct Timing {
    /// The call, as indices into `Traffic::tasks`.
    pub task: usize,
    pub call: usize,
    /// When the call returned, in seconds since the phase started.
    pub end_s: f64,
    /// Issue to return, in microseconds.
    pub latency_us: f64,
    pub plans: u32,
}

/// What one client saw.
#[derive(Default)]
pub struct ClientLog {
    /// Every call issued, in order.
    pub calls: Vec<Timing>,
    pub model: u64,
    pub nonfinite: u64,
    /// Calls in flight across all clients when each call was issued.
    pub inflight_sum: u64,
    pub kept: Vec<Answer>,
    pub spans: Vec<Span>,
}

/// One measured phase.
pub struct Phase {
    pub logs: Vec<ClientLog>,
    /// Window boundaries: process CPU time and host steal at the start
    /// and at the end of each window.
    pub marks: Vec<Mark>,
    /// The service's counters over this phase alone.
    pub slo: SloStats,
}

/// A window boundary of a phase.
#[derive(Clone, Copy)]
pub struct Mark {
    /// Seconds since the phase started.
    pub at_s: f64,
    /// Process CPU time (user + system), microseconds.
    pub cpu_us: f64,
    /// CPU time the host took from this machine, in clock ticks.
    pub steal: f64,
}

impl Mark {
    fn now(start: Instant) -> Self {
        Self {
            at_s: start.elapsed().as_secs_f64(),
            cpu_us: process_cpu_us(),
            steal: host_steal(),
        }
    }
}

/// End-to-end figures over the quiet windows of the timed phases.
pub struct Figures {
    pub plans_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub cpu_us_per_plan: f64,
    /// Quiet windows over all windows.
    pub quiet_share: f64,
    /// Share of CPU time the host took, over all windows and over the
    /// quiet ones.
    pub steal_share: f64,
    pub quiet_steal_share: f64,
}

impl Phase {
    pub fn calls(&self) -> usize {
        self.logs.iter().map(|l| l.calls.len()).sum()
    }

    pub fn plans(&self) -> u64 {
        self.timings().map(|t| u64::from(t.plans)).sum()
    }

    pub fn timings(&self) -> impl Iterator<Item = &Timing> {
        self.logs.iter().flat_map(|l| &l.calls)
    }

    pub fn latencies(&self) -> Vec<f64> {
        self.timings().map(|t| t.latency_us).collect()
    }

    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.logs.iter().flat_map(|l| l.spans.iter())
    }

    /// The phase cut at its marks. Calls count in the window they return
    /// in (the last, if after the final mark).
    fn windows(&self) -> Vec<Window> {
        let n = self.marks.len() - 1;
        let mut windows: Vec<Window> = self
            .marks
            .windows(2)
            .map(|m| Window {
                secs: m[1].at_s - m[0].at_s,
                cpu_us: m[1].cpu_us - m[0].cpu_us,
                steal: m[1].steal - m[0].steal,
                plans: 0,
                latency_us: Vec::new(),
            })
            .collect();
        for t in self.timings() {
            let w = self.marks[1..].iter().position(|m| t.end_s < m.at_s).unwrap_or(n - 1);
            windows[w].latency_us.push(t.latency_us);
            windows[w].plans += u64::from(t.plans);
        }
        windows
    }
}

/// A stretch of a phase between two marks.
struct Window {
    secs: f64,
    cpu_us: f64,
    steal: f64,
    plans: u64,
    latency_us: Vec<f64>,
}

/// Throughput, latency and CPU over the quiet windows of `phases`: those
/// in which the host stole the least CPU time (ties kept, so a host that
/// reports no steal keeps every window). On a shared host a neighbour's
/// burst steals CPU time and slows every figure of the window it lands
/// in; leaving those windows out measures this program rather than its
/// neighbours. Each figure is the median of the quiet windows' figures.
/// `cpus` is the machine's CPU count, which steal is spread over.
pub fn figures(phases: &[Phase], cpus: usize) -> Figures {
    let windows: Vec<Window> = phases.iter().flat_map(Phase::windows).collect();
    // A window in which no call returned has no figures to offer.
    let busy = || windows.iter().filter(|w| !w.latency_us.is_empty());
    let cut = busy().map(|w| w.steal).fold(f64::INFINITY, f64::min);
    let quiet: Vec<&Window> = busy().filter(|w| w.steal <= cut).collect();
    let over_quiet =
        |f: fn(&Window) -> f64| median(&quiet.iter().map(|w| f(w)).collect::<Vec<_>>());
    // Steal is counted in clock ticks of 1/100 s per CPU.
    let steal_share = |ws: &mut dyn Iterator<Item = &Window>| {
        let (steal, secs) = ws.fold((0.0, 0.0), |(s, t), w| (s + w.steal, t + w.secs));
        steal / (secs * 100.0 * cpus as f64)
    };
    Figures {
        plans_per_s: over_quiet(|w| w.plans as f64 / w.secs),
        p50_us: over_quiet(|w| quantile(&w.latency_us, 0.50)),
        p99_us: over_quiet(|w| quantile(&w.latency_us, 0.99)),
        cpu_us_per_plan: over_quiet(|w| w.cpu_us / w.plans as f64),
        quiet_share: quiet.len() as f64 / windows.len() as f64,
        steal_share: steal_share(&mut windows.iter()),
        quiet_steal_share: steal_share(&mut quiet.iter().copied()),
    }
}

/// Total steal time of all CPUs in `/proc/stat` (its eighth `cpu`
/// field), in clock ticks; 0 where the kernel does not report it.
fn host_steal() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0.0)
}

/// The closed-loop load on one system: its clients share one cursor
/// over the traffic, so consecutive phases continue where the last one
/// stopped and no task is sent twice until the traffic wraps.
pub struct Load<'a> {
    sys: &'a System,
    clients: usize,
    /// Send every call through `predict_many`; otherwise single-plan
    /// calls use `predict`.
    many: bool,
    cursor: AtomicUsize,
    /// Anchors span timestamps.
    epoch: Instant,
}

impl<'a> Load<'a> {
    pub fn new(sys: &'a System, clients: usize, many: bool) -> Self {
        Self {
            sys,
            clients,
            many,
            cursor: AtomicUsize::new(0),
            epoch: Instant::now(),
        }
    }

    /// Drives the clients for `seconds`, cut into `windows` equal
    /// windows. With `traced`, each call's layers are replayed and timed
    /// after it returns.
    pub fn run(&self, seconds: f64, windows: usize, traced: bool) -> Phase {
        let barrier = Barrier::new(self.clients + 1);
        let inflight = AtomicU32::new(0);
        let slo_before = self.sys.service.slo_stats();
        let (logs, marks) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.clients)
                .map(|c| {
                    let (barrier, inflight) = (&barrier, &inflight);
                    s.spawn(move || {
                        barrier.wait();
                        let start = Instant::now();
                        let deadline = start + Duration::from_secs_f64(seconds);
                        self.client(c, inflight, start, deadline, traced)
                    })
                })
                .collect();
            let mut marks = vec![Mark::now(Instant::now())];
            barrier.wait();
            let t0 = Instant::now();
            for w in 1..=windows {
                let at = Duration::from_secs_f64(seconds * w as f64 / windows as f64);
                std::thread::sleep(at.saturating_sub(t0.elapsed()));
                marks.push(Mark::now(t0));
            }
            let logs: Vec<ClientLog> = handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect();
            (logs, marks)
        });
        let after = self.sys.service.slo_stats();
        let slo = SloStats {
            total: after.total - slo_before.total,
            model: after.model - slo_before.model,
            by_reason: std::array::from_fn(|i| after.by_reason[i] - slo_before.by_reason[i]),
            slo_target: after.slo_target,
        };
        Phase { logs, marks, slo }
    }

    fn client(
        &self,
        c: usize,
        inflight: &AtomicU32,
        start: Instant,
        deadline: Instant,
        traced: bool,
    ) -> ClientLog {
        let sys = self.sys;
        let tasks = &sys.traffic.tasks;
        let tenant = format!("client-{c}");
        let mut log = ClientLog::default();
        let mut seq = 0u64;
        'run: loop {
            // ORDERING: a ticket counter; it publishes no other data.
            let task = self.cursor.fetch_add(1, Ordering::Relaxed) % tasks.len();
            for (ci, call) in tasks[task].iter().enumerate() {
                if Instant::now() >= deadline {
                    break 'run;
                }
                let refs: Vec<&PhysicalPlan> =
                    call.plans.iter().map(|&i| &sys.traffic.plans[i]).collect();
                // ORDERING: a statistics gauge; it publishes no other data.
                log.inflight_sum += u64::from(inflight.fetch_add(1, Ordering::Relaxed) + 1);
                let (mut answers, mut one) = (Vec::new(), None);
                let issued = Instant::now();
                if self.many || refs.len() > 1 {
                    answers = sys.service.predict_many(&tenant, &refs, &call.res);
                } else {
                    one = Some(sys.service.predict(&tenant, refs[0], &call.res));
                }
                let took = issued.elapsed();
                answers.extend(one);
                // ORDERING: as above.
                inflight.fetch_sub(1, Ordering::Relaxed);

                log.calls.push(Timing {
                    task,
                    call: ci,
                    end_s: (issued + took - start).as_secs_f64(),
                    latency_us: took.as_secs_f64() * 1e6,
                    plans: refs.len() as u32,
                });
                for a in &answers {
                    log.model += u64::from(a.source == PredictionSource::Model);
                    log.nonfinite += u64::from(!a.seconds.is_finite());
                }
                if traced {
                    let req = ((c as u64) << 40) | seq;
                    log.spans.push(Span {
                        req,
                        name: CALL,
                        start_ns: (issued - self.epoch).as_nanos() as u64,
                        dur_ns: took.as_nanos() as u64,
                        plans: refs.len() as u32,
                    });
                    replay_layers(sys, call, &refs, req, self.epoch, &mut log.spans);
                }
                if seq.is_multiple_of(CHECK_EVERY) {
                    log.kept.push(Answer { task, call: ci, answers });
                }
                seq += 1;
            }
        }
        log
    }
}

/// Times, from outside, the public function of each layer on this call's
/// exact inputs: the analytical fallback the service prices eagerly, the
/// plan encoder and its parts, and the frozen model's plan side,
/// resource side and packed pass.
fn replay_layers(
    sys: &System,
    call: &Call,
    refs: &[&PhysicalPlan],
    req: u64,
    epoch: Instant,
    spans: &mut Vec<Span>,
) {
    let mut timed = |name: &'static str, plans: u32, f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        spans.push(Span {
            req,
            name,
            start_ns: (start - epoch).as_nanos() as u64,
            dur_ns: start.elapsed().as_nanos() as u64,
            plans,
        });
    };
    let features = call.res.feature_vector(&sys.cluster);
    for plan in refs {
        timed(GPSJ, 1, &mut || {
            black_box(sys.gpsj.estimate_seconds(plan, &call.res));
        });
    }
    let mut encoded: Vec<EncodedPlan> = Vec::with_capacity(refs.len());
    for plan in refs {
        timed(ENCODE, 1, &mut || encoded.push(sys.encoder.encode(plan)));
        let mut statements = Vec::new();
        timed(RENDER, 1, &mut || {
            statements = (0..plan.len()).map(|i| plan.statement(i)).collect::<Vec<String>>();
        });
        let mut tokens = Vec::new();
        timed(TOKENIZE, 1, &mut || {
            tokens = statements.iter().map(|s| tokenize_statement(s)).collect::<Vec<_>>();
        });
        timed(EMBED, 1, &mut || {
            for t in &tokens {
                black_box(sys.word2vec.embed_mean(t));
            }
        });
        timed(STRUCTURE, 1, &mut || {
            let parents = plan.parents();
            for i in 0..plan.len() {
                black_box(plan.structure_row(i, &parents));
            }
        });
        let enc = encoded.last().expect("just encoded");
        timed(VALIDATE, 1, &mut || {
            black_box(sys.encoder.validate(enc).is_ok());
        });
        let mut ctx = None;
        timed(PLAN_SIDE, 1, &mut || ctx = Some(sys.frozen.plan_context(enc)));
        let ctx = ctx.expect("plan context");
        timed(RESOURCE_SIDE, 1, &mut || {
            black_box(sys.frozen.predict_with_context(&ctx, &features));
        });
    }
    let items: Vec<(&EncodedPlan, &[f32])> =
        encoded.iter().map(|e| (e, features.as_slice())).collect();
    timed(PACKED, refs.len() as u32, &mut || {
        black_box(sys.frozen.predict_packed(&items));
    });
}

/// Checks the kept model answers against `FrozenModel::predict_packed` on
/// the same inputs and weight tier. Returns (answers compared, answers
/// off by more than `tolerance` relative).
pub fn check_answers(sys: &System, logs: &[ClientLog], tolerance: f64) -> (u64, u64) {
    let (mut compared, mut wrong) = (0, 0);
    for kept in logs.iter().flat_map(|l| l.kept.iter()) {
        let call = &sys.traffic.tasks[kept.task][kept.call];
        let features = call.res.feature_vector(&sys.cluster);
        let encoded: Vec<EncodedPlan> = call
            .plans
            .iter()
            .map(|&i| sys.encoder.encode(&sys.traffic.plans[i]))
            .collect();
        let items: Vec<(&EncodedPlan, &[f32])> =
            encoded.iter().map(|e| (e, features.as_slice())).collect();
        let expected = sys.frozen.predict_packed(&items);
        for (got, want) in kept.answers.iter().zip(&expected) {
            if got.source != PredictionSource::Model {
                continue;
            }
            compared += 1;
            let scale = want.abs().max(got.seconds.abs()).max(f64::MIN_POSITIVE);
            // A NaN difference fails the check too.
            let agrees = (got.seconds - want).abs() / scale <= tolerance;
            if !agrees {
                wrong += 1;
            }
        }
    }
    (compared, wrong)
}
