//! `servebench` — the serving benchmark of the RAAL cost model.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload <probe|whatif|select|probe_telemetry> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Builds the served system (set-up, timed), drives it closed-loop from
//! one client thread per core for `S` seconds, checks the answers, and
//! prints one JSON result object as the last line of standard output:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 when an output check fails. See `README.md` for
//! the workloads, the metrics and how to read the traced run.

mod drive;
mod measure;
mod system;
mod traffic;

use drive::{Phase, Span};
use measure::{median, quantile, Metrics};
use raal::serving::FallbackReason;
use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use system::{SetupTimes, System};
use traffic::Workload;

/// Full set-ups per run; `setup_s` and the set-up layers report the
/// median. The first is this process's own, from process start; the
/// others run in fresh child processes, so the measured process holds
/// one set-up's memory.
const SETUP_REPS: usize = 3;
/// Set in a child process that only builds the system and reports its
/// set-up times.
const SETUP_CHILD_ENV: &str = "SERVEBENCH_SETUP_ONLY";
/// Relative agreement required between a served model answer and
/// `FrozenModel::predict_packed` on the same inputs (the fast-path budget).
const ANSWER_TOLERANCE: f64 = 1e-5;
/// The measured phase is cut into windows of about this many seconds;
/// throughput, latency and CPU figures come from the windows in which
/// the host stole the least CPU time (see `drive::figures`). On
/// `probe` a window holds about 1,900 calls, on `select` about 600.
const WINDOW_S: f64 = 0.3;

const USAGE: &str = "usage: servebench --workload <probe|whatif|select|probe_telemetry> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv: HashMap<&str, &str> = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                kv.insert(k.as_str(), v.as_str());
            }
            _ => return Err(format!("malformed arguments: {argv:?}")),
        }
    }
    let get = |k: &str| kv.get(k).copied().ok_or(format!("missing {k}"));
    let workload = get("--workload")?;
    let args = Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload '{workload}'"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got '{t}'")),
        },
    };
    if kv.len() != 4 {
        return Err(format!("unexpected arguments: {argv:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn main() {
    let process_start = Instant::now();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("servebench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).expect("create the output directory");
    // One client thread and one shard per core.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if std::env::var_os(SETUP_CHILD_ENV).is_some() {
        telemetry::init_from_env();
        let (_sys, times) =
            System::build(args.workload, args.seed, args.seconds, cores, process_start);
        println!("{}", times.to_line());
        return;
    }
    // Telemetry is on only where the workload asks for it, as an operator
    // would switch it on; set before any thread starts.
    let events = events(&out_dir, 0);
    match args.workload {
        Workload::ProbeTelemetry => std::env::set_var("RAAL_TELEMETRY", &events),
        _ => std::env::remove_var("RAAL_TELEMETRY"),
    }
    telemetry::init_from_env();
    let (sys, times) = System::build(args.workload, args.seed, args.seconds, cores, process_start);
    let mut setups = vec![times];
    let load = drive::Load::new(&sys, cores, args.workload == Workload::Select);

    // Untraced, the timed phase runs in SETUP_REPS slices with a child
    // set-up between each two, which spreads it over a longer stretch of
    // the host's load. The traced run spends one slice untraced, as the
    // baseline for `trace.overhead`, and then as long traced.
    let (slices, slice_s) = if args.trace {
        (1, args.seconds / 2.0)
    } else {
        (SETUP_REPS, args.seconds / SETUP_REPS as f64)
    };
    let sink_start = sink_len(&events);
    let mut plain = Vec::with_capacity(slices);
    for k in 0..slices {
        if k > 0 {
            setups.push(setup_in_child(&args, &out_dir, k));
        }
        plain.push(load.run(slice_s, windows(slice_s), false));
    }
    let rss_mb = measure::rss_mb();
    let sink = sink_start..sink_len(&events);
    let traced = args.trace.then(|| load.run(slice_s, windows(slice_s), true));
    while setups.len() < SETUP_REPS {
        setups.push(setup_in_child(&args, &out_dir, setups.len()));
    }

    // Output checks, after the clock has stopped.
    let phases: Vec<&Phase> = plain.iter().chain(traced.as_ref()).collect();
    let attempted: u64 = phases.iter().map(|p| p.plans()).sum();
    let model: u64 = phases.iter().flat_map(|p| &p.logs).map(|l| l.model).sum();
    let nonfinite: u64 = phases.iter().flat_map(|p| &p.logs).map(|l| l.nonfinite).sum();
    let (compared, wrong) = phases
        .iter()
        .map(|p| drive::check_answers(&sys, &p.logs, ANSWER_TOLERANCE))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    let (q_error_p50, q_nonfinite) = q_error(&sys);
    let failed = (attempted - model) + nonfinite;

    let figures = drive::figures(&plain, cores);
    let mut m = Metrics::default();
    if let Some(traced) = &traced {
        per_layer(&mut m, &sys, &setups, &plain[0], traced, &events, sink);
        let path = out_dir.join(format!("{}-seed{}.spans.jsonl", args.workload.name(), args.seed));
        write_spans(&path, traced.spans()).expect("write the span file");
    } else {
        let plain_model: u64 = plain.iter().map(|p| p.slo.model).sum();
        let plain_total: u64 = plain.iter().map(|p| p.slo.total).sum();
        let model_share = plain_model as f64 / plain_total as f64;
        end_to_end(&mut m, &setups, &figures, model_share, rss_mb, q_error_p50);
    }
    sys.service.shutdown();
    telemetry::shutdown();

    let correct = nonfinite == 0 && q_nonfinite == 0 && wrong == 0 && compared > 0;
    println!(
        "servebench {}: seed {} | {} clients, {} shards | {} calls, {} plans, {} fallbacks | \
         {compared} answers checked against predict_packed, {wrong} off | \
         {nonfinite} non-finite",
        args.workload.name(),
        args.seed,
        cores,
        cores,
        phases.iter().map(|p| p.calls()).sum::<usize>(),
        attempted,
        attempted - model,
    );
    for reason in FallbackReason::ALL {
        let n: u64 = phases.iter().map(|p| p.slo.count(reason)).sum();
        if n > 0 {
            println!("  fallbacks: {n} x {}", reason.counter());
        }
    }
    println!(
        "  host steal {:.1}% of CPU time; figures from the quietest {:.0}% of windows ({:.1}% steal)",
        100.0 * figures.steal_share,
        100.0 * figures.quiet_share,
        100.0 * figures.quiet_steal_share
    );
    for (name, value, unit) in m.iter() {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    let correct = correct && m.all_finite();
    println!("{}", m.result_line(correct, attempted.max(1), failed));
    if !correct {
        std::process::exit(1);
    }
}

fn windows(seconds: f64) -> usize {
    ((seconds / WINDOW_S).round() as usize).max(1)
}

/// The telemetry event file of set-up `k` (0 is the measured process).
fn events(out_dir: &Path, k: usize) -> PathBuf {
    out_dir.join(format!("probe_telemetry.{k}.events.jsonl"))
}

/// Runs set-up `k` in a fresh copy of this program and reads back its times.
fn setup_in_child(args: &Args, out_dir: &Path, k: usize) -> SetupTimes {
    let exe = std::env::current_exe().expect("locate this program");
    let mut cmd = std::process::Command::new(exe);
    cmd.args(std::env::args_os().skip(1)).env(SETUP_CHILD_ENV, "1");
    if args.workload == Workload::ProbeTelemetry {
        cmd.env("RAAL_TELEMETRY", events(out_dir, k));
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("start a set-up process");
    assert!(out.status.success(), "set-up process {k} failed: {}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .and_then(SetupTimes::from_line)
        .unwrap_or_else(|| panic!("set-up process {k} printed no times: {stdout}"))
}

/// Bytes in the telemetry event file so far (0 when telemetry is off).
fn sink_len(path: &Path) -> u64 {
    if !telemetry::enabled() {
        return 0;
    }
    telemetry::flush();
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Median q-error of the served model over the held-out triples, priced
/// through the service, plus how many answers were non-finite.
fn q_error(sys: &System) -> (f64, u64) {
    let mut q = Vec::with_capacity(sys.heldout.len());
    let mut nonfinite = 0;
    for (plan, res, observed) in &sys.heldout {
        let p = sys.service.predict("q-error", plan, res).seconds;
        if !p.is_finite() {
            nonfinite += 1;
            continue;
        }
        let (p, o) = (p.max(1e-6), observed.max(1e-6));
        q.push((p / o).max(o / p));
    }
    (median(&q), nonfinite)
}

fn end_to_end(
    m: &mut Metrics,
    setups: &[SetupTimes],
    f: &drive::Figures,
    model_share: f64,
    rss_mb: f64,
    q_err: f64,
) {
    m.put("setup_s", median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>()), "s");
    m.put("plans_per_s", f.plans_per_s, "1/s");
    m.put("latency_p50_us", f.p50_us, "us");
    m.put("latency_p99_us", f.p99_us, "us");
    m.put("cpu_us_per_plan", f.cpu_us_per_plan, "us");
    m.put("rss_mb", rss_mb, "MB");
    m.put("model_share", model_share, "ratio");
    m.put("q_error_p50", q_err, "ratio");
}

fn per_layer(
    m: &mut Metrics,
    sys: &System,
    setups: &[SetupTimes],
    plain: &Phase,
    traced: &Phase,
    events: &Path,
    sink: std::ops::Range<u64>,
) {
    let setup = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    m.put("workloads.generate_s", setup(|s| s.generate_s), "s");
    m.put("sparksim.collect_s", setup(|s| s.collect_s), "s");
    m.put("sparksim.plan_pool_s", setup(|s| s.plan_pool_s), "s");
    m.put("encoding.word2vec_s", setup(|s| s.word2vec_s), "s");
    m.put("train.fit_s", setup(|s| s.fit_s), "s");
    m.put("serving.start_s", setup(|s| s.start_s), "s");

    // Per-plan durations of each replayed layer, in microseconds.
    let mut per_plan: HashMap<&str, Vec<f64>> = HashMap::new();
    // Per-call sums, for the residual and the layer-sum share.
    let mut per_call: HashMap<u64, (f64, f64)> = HashMap::new();
    for s in traced.spans() {
        let us = s.dur_ns as f64 / 1e3;
        per_plan.entry(s.name).or_default().push(us / f64::from(s.plans));
        let (call, layers) = per_call.entry(s.req).or_default();
        match s.name {
            drive::CALL => *call += us,
            drive::GPSJ | drive::ENCODE | drive::PACKED => *layers += us,
            _ => {}
        }
    }
    let layer = |name: &str| median(per_plan.get(name).map_or(&[][..], |v| &v[..]));
    m.put("encoding.encode_us", layer(drive::ENCODE), "us");
    m.put("encoding.render_us", layer(drive::RENDER), "us");
    m.put("encoding.tokenize_us", layer(drive::TOKENIZE), "us");
    m.put("encoding.embed_us", layer(drive::EMBED), "us");
    m.put("encoding.structure_us", layer(drive::STRUCTURE), "us");
    m.put("encoding.validate_us", layer(drive::VALIDATE), "us");
    let shape = traffic_shape(sys, &[plain, traced]);
    m.put("encoding.plan_repeat_share", shape.plan_repeat_share, "ratio");
    m.put("encoding.statement_repeat_share", shape.statement_repeat_share, "ratio");
    m.put("encoding.nodes_per_plan", shape.nodes_per_plan, "count");
    m.put("model.plan_side_us", layer(drive::PLAN_SIDE), "us");
    m.put("model.resource_side_us", layer(drive::RESOURCE_SIDE), "us");
    m.put("model.packed_us_per_plan", layer(drive::PACKED), "us");
    m.put("model.flops_per_plan", shape.flops_per_plan, "flop");
    m.put("gpsj.estimate_us", layer(drive::GPSJ), "us");

    let call_us = traced.latencies();
    let call_p50 = quantile(&call_us, 0.50);
    let residual: Vec<f64> = per_call.values().map(|(c, l)| c - l).collect();
    let layer_sum: Vec<f64> = per_call.values().map(|(_, l)| *l).collect();
    let calls = traced.calls() as f64;
    m.put("serving.call_us_p50", call_p50, "us");
    m.put("serving.call_us_p99", quantile(&call_us, 0.99), "us");
    m.put("serving.residual_us", median(&residual), "us");
    m.put("serving.plans_per_call", traced.plans() as f64 / calls, "count");
    let inflight: u64 = traced.logs.iter().map(|l| l.inflight_sum).sum();
    m.put("serving.inflight_mean", inflight as f64 / calls, "count");
    for reason in FallbackReason::ALL {
        let name = reason.counter().trim_start_matches("serving.fallback.");
        let n = plain.slo.count(reason) + traced.slo.count(reason);
        m.put(format!("serving.fallback_{name}"), n as f64, "count");
    }

    // The program's own telemetry: zero unless the workload enables it.
    let snapshot = sys.service.metrics_snapshot();
    let plain_calls = plain.calls() as f64;
    let lines = count_lines(events, &sink);
    m.put(
        "telemetry.sink_bytes_per_call",
        (sink.end - sink.start) as f64 / plain_calls,
        "B",
    );
    m.put("telemetry.lines_per_call", lines as f64 / plain_calls, "count");
    let series = snapshot.counters.len() + snapshot.gauges.len() + snapshot.hists.len();
    m.put("telemetry.series", series as f64, "count");
    let batch = snapshot.hists.get("serving.batch_size").map_or(0.0, |h| h.all.mean);
    m.put("serving.batch_size_mean", batch, "count");

    m.put("trace.overhead", call_p50 / quantile(&plain.latencies(), 0.50), "ratio");
    m.put("trace.layer_sum_share", median(&layer_sum) / call_p50, "ratio");
}

/// Traffic properties that caching and batching claims depend on.
struct TrafficShape {
    plan_repeat_share: f64,
    statement_repeat_share: f64,
    nodes_per_plan: f64,
    flops_per_plan: f64,
}

/// Measures the served traffic: repeats by `PhysicalPlan::fingerprint`
/// and by node statement, plan size, and model FLOPs per plan.
fn traffic_shape(sys: &System, phases: &[&Phase]) -> TrafficShape {
    let plans = &sys.traffic.plans;
    let mut fingerprints: HashMap<usize, String> = HashMap::new();
    let mut distinct_plans = HashSet::new();
    let mut distinct_statements = HashSet::new();
    let (mut served, mut nodes, mut flops) = (0usize, 0usize, 0.0);
    for t in phases.iter().flat_map(|p| p.timings()) {
        for &i in &sys.traffic.tasks[t.task][t.call].plans {
            let plan = &plans[i];
            let fp = fingerprints.entry(i).or_insert_with(|| {
                for id in 0..plan.len() {
                    distinct_statements.insert(plan.statement(id));
                }
                plan.fingerprint()
            });
            distinct_plans.insert(fp.clone());
            served += 1;
            nodes += plan.len();
            let edges = plan.nodes().iter().map(|n| n.children.len()).sum();
            flops += model_flops(&sys.model_config, plan.len(), edges);
        }
    }
    let served_f = served.max(1) as f64;
    TrafficShape {
        plan_repeat_share: 1.0 - distinct_plans.len() as f64 / served_f,
        // Every node of every plan served is one statement served.
        statement_repeat_share: 1.0 - distinct_statements.len() as f64 / nodes.max(1) as f64,
        nodes_per_plan: nodes as f64 / served_f,
        flops_per_plan: flops / served_f,
    }
}

/// Matrix-multiply FLOPs (two per multiply-add) of one single-plan pass,
/// computed from the layer shapes of `ModelConfig`; gate nonlinearities
/// and softmax are left out. LSTM plan layer over `n` nodes, node
/// attention over `edges` child links, resource attention, dense head.
fn model_flops(cfg: &raal::ModelConfig, n: usize, edges: usize) -> f64 {
    let [n, e, d, h, k, r, hh] = [
        n,
        edges,
        cfg.node_dim,
        cfg.hidden,
        cfg.latent_k,
        cfg.resource_dim,
        cfg.head_hidden,
    ]
    .map(|v| v as f64);
    let stats = encoding::plan_encoder::PLAN_STAT_FEATURES as f64;
    let lstm = n * 2.0 * (d + h) * 4.0 * h;
    let node_attention = 2.0 * 2.0 * n * h * k + 2.0 * e * (k + h);
    let resource_attention = 2.0 * r * k + 2.0 * n * h * k + 2.0 * n * (k + h);
    let head = 2.0 * ((2.0 * h + r + stats) * hh + hh * (hh / 2.0) + hh / 2.0);
    lstm + node_attention + resource_attention + head
}

/// Newlines in the byte range `range` of `path`.
fn count_lines(path: &Path, range: &std::ops::Range<u64>) -> u64 {
    if range.is_empty() {
        return 0;
    }
    let data = std::fs::read(path).unwrap_or_default();
    let (from, to) = (range.start as usize, (range.end as usize).min(data.len()));
    data.get(from..to)
        .map_or(0, |d| d.iter().filter(|&&b| b == b'\n').count() as u64)
}

/// Writes the traced run's spans, one JSON object per line.
fn write_spans<'a>(path: &PathBuf, spans: impl Iterator<Item = &'a Span>) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}, \"plans\": {}}}",
            s.req, s.name, s.start_ns, s.dur_ns, s.plans
        )?;
    }
    w.flush()
}
