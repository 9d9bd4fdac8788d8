//! The workspace's benchmark: four workloads on the OE-STM backend, driven
//! only through the public entry points (`cec::SetExt`, `cec::TxQueue`,
//! `txkv::KeySpace`, `durable`, `stm_core::api::Atomic`).
//!
//! ```text
//! perfbench --workload <set-compose|kv-zipf|kv-durable|queue-handoff>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run prints the end-to-end metrics; with `--trace 1`
//! it prints the per-layer metrics of a traced run. The last line of
//! standard output is one JSON object; earlier lines starting with `#` are
//! notes. `perfbench/run.py` builds this binary and adds the process's peak
//! resident memory. See `perfbench/README.md` for the workloads and the
//! metric map.

mod gen;
mod handoff;
mod harness;
mod hist;
mod kv;
mod probe;
mod set_compose;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stm_core::api::Atomic;
use stm_core::{Backend, BackendRegistry, StmConfig};

use harness::{run_phase, Client, Loop, PhaseOut};
use probe::{ratio, Call, CountingSink};

/// Per-layer metrics of the traced run. Every workload prints all of them;
/// a layer a workload never calls reads 0.
const PER_LAYER: [(&str, &str); 31] = [
    ("stm-core.attempts_per_op", "count"),
    ("stm-core.commits_per_attempt", "ratio"),
    ("stm-core.cm_waits", "count"),
    ("stm-core.progress_parks", "count"),
    ("stm-core.reads_per_attempt", "count"),
    ("stm-core.writes_per_attempt", "count"),
    ("wait.parks_per_handoff", "count"),
    ("wait.wakeups_per_park", "ratio"),
    ("wait.spurious_wakeups", "count"),
    ("cec.pin_ns", "ns"),
    ("cec.contains_us", "us"),
    ("cec.add_us", "us"),
    ("cec.remove_us", "us"),
    ("cec.add_all_us", "us"),
    ("cec.remove_all_us", "us"),
    ("cec.enqueue_us", "us"),
    ("cec.dequeue_us", "us"),
    ("txkv.get_us", "us"),
    ("txkv.set_us", "us"),
    ("txkv.cas_us", "us"),
    ("txkv.del_us", "us"),
    ("txkv.multi_us", "us"),
    ("durable.hook_us", "us"),
    ("durable.fsync_us", "us"),
    ("durable.bytes_appended", "bytes"),
    ("durable.commits_per_fsync", "ratio"),
    ("durable.bytes_per_commit", "bytes"),
    ("durable.recover_us", "us"),
    ("durable.recover_records", "count"),
    ("loadgen.late_p99_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Share of `--seconds` the closed loop gets; the open loop gets the rest.
const CLOSED_SHARE: f64 = 0.6;

/// A workload: its set-up, its clients, and the checks on its end state.
pub trait Workload: Sync {
    type Setup: Sync;
    type Client<'a>: Client
    where
        Self: 'a;

    /// How many identical set-ups a run makes; `setup_s` is their median.
    fn setups(&self) -> usize;
    /// The open-loop phase's offered rate and round length.
    fn open(&self) -> Loop;
    /// Build the structures and prefill them through the program.
    fn setup(&self, probes: &Probes) -> Self::Setup;
    fn atomic<'s>(&self, s: &'s Self::Setup) -> &'s Atomic<Backend>;
    fn clients<'a>(&'a self, s: &'a Self::Setup) -> Vec<Self::Client<'a>>;
    /// Upkeep between rounds, untimed.
    fn between(&self, _s: &Self::Setup) -> Result<(), String> {
        Ok(())
    }
    /// Check the end state against the clients' models.
    fn finish(
        &self,
        s: &Self::Setup,
        clients: &[Self::Client<'_>],
        layers: &mut Layers,
    ) -> Result<(), String>;
    /// Zero the workload's own probes before the traced phases.
    fn reset_probes(&self, _s: &Self::Setup) {}
    /// Read the workload's own probes after the traced phases.
    fn layers(&self, _s: &Self::Setup, _layers: &mut Layers) {}
}

/// What the traced run attaches to the program; nothing in untraced runs.
pub struct Probes {
    sink: Option<Arc<CountingSink>>,
}

impl Probes {
    pub fn off() -> Self {
        Self { sink: None }
    }

    pub fn traced(&self) -> bool {
        self.sink.is_some()
    }

    pub fn config(&self) -> StmConfig {
        match &self.sink {
            Some(sink) => StmConfig::default().with_trace_sink(Arc::clone(sink) as _),
            None => StmConfig::default(),
        }
    }
}

/// Per-layer readings, every metric of [`PER_LAYER`] defaulting to 0.
#[derive(Debug)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Self(PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect())
    }
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self.0.get_mut(name);
        *slot.unwrap_or_else(|| panic!("{name} is not a per-layer metric")) = value;
    }
}

/// The OE-STM backend, built through the registry as the bench pipeline
/// builds it.
pub fn backend(config: StmConfig) -> Backend {
    let mut registry = BackendRegistry::new();
    oe_stm::register_backends(&mut registry);
    registry.build("oe", config).expect("oe is registered")
}

pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

struct Report {
    attempted: u64,
    error: Option<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn phase_note(name: &str, p: &PhaseOut) -> String {
    let q = |x| us(p.lat().quantile_ns(x));
    format!(
        "{name}: {} ops in {} rounds, median round {:.0} ops/s; whole phase: latency p50 {:.3} us p90 {:.3} us p99 {:.3} us p99.9 {:.3} us over {} samples, generator lateness p50 {:.3} us p99 {:.3} us",
        p.ops,
        p.rounds(),
        p.ops_per_s(),
        q(0.5),
        q(0.9),
        q(0.99),
        q(0.999),
        p.lat().count(),
        us(p.late().quantile_ns(0.5)),
        us(p.late().quantile_ns(0.99)),
    )
}

fn first_error(errors: impl IntoIterator<Item = Option<String>>) -> Option<String> {
    errors.into_iter().flatten().next()
}

/// The end-to-end run: set up several times, then a closed-loop and an
/// open-loop phase on the last set-up, then the end-state checks.
fn drive_plain<W: Workload>(w: &W, budget: Duration) -> Report {
    let mut setup_times = Vec::new();
    let mut s = None;
    for _ in 0..w.setups() {
        drop(s.take());
        let t = Instant::now();
        s = Some(w.setup(&Probes::off()));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let s = s.expect("at least one set-up");
    let setup_note = format!(
        "set-up: median of {} set-ups; in order, ms: {}",
        setup_times.len(),
        setup_times
            .iter()
            .map(|t| format!("{:.2}", t * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let mut clients = w.clients(&s);
    let between = || w.between(&s);
    let closed = run_phase(
        &mut clients,
        Loop::Closed,
        budget.mul_f64(CLOSED_SHARE),
        false,
        &between,
    );
    let open = run_phase(
        &mut clients,
        w.open(),
        budget.mul_f64(1.0 - CLOSED_SHARE),
        false,
        &between,
    );
    let fin = w.finish(&s, &clients, &mut Layers::default());
    let offered = match w.open() {
        Loop::Open { rate, .. } => rate,
        Loop::Closed => unreachable!("the open phase is open"),
    };
    Report {
        attempted: closed.ops + open.ops,
        error: first_error([closed.error.clone(), open.error.clone(), fin.err()]),
        metrics: vec![
            ("setup_s", median(&mut setup_times), "s"),
            ("ops_per_s", closed.ops_per_s(), "1/s"),
            ("p50_us", closed.round_quantile_us(0.5), "us"),
            ("p99_us", closed.round_quantile_us(0.99), "us"),
            ("rate.p50_us", open.round_quantile_us(0.5), "us"),
        ],
        notes: vec![
            setup_note,
            phase_note("closed loop", &closed),
            phase_note(
                &format!("open loop at {offered:.0} ops/s per client"),
                &open,
            ),
        ],
    }
}

/// The traced run: an untraced closed-loop phase as the reference, then a
/// closed-loop and an open-loop phase with every probe attached.
fn drive_traced<W: Workload>(w: &W, budget: Duration) -> Report {
    let third = budget / 3;
    let (reference, ref_error) = {
        let s = w.setup(&Probes::off());
        let mut clients = w.clients(&s);
        let out = run_phase(&mut clients, Loop::Closed, third, false, &|| w.between(&s));
        let fin = w.finish(&s, &clients, &mut Layers::default());
        (out.ops_per_s(), first_error([out.error, fin.err()]))
    };

    let sink = Arc::new(CountingSink::default());
    let probes = Probes {
        sink: Some(Arc::clone(&sink)),
    };
    let s = w.setup(&probes);
    let at = w.atomic(&s);
    at.reset_stats();
    sink.reset();
    w.reset_probes(&s);
    let mut clients = w.clients(&s);
    let between = || w.between(&s);
    let closed = run_phase(&mut clients, Loop::Closed, third, true, &between);
    let open = run_phase(&mut clients, w.open(), third, true, &between);
    let stats = at.stats();
    let (reads, writes) = (sink.reads() as f64, sink.writes() as f64);

    let mut layers = Layers::default();
    w.layers(&s, &mut layers);
    let fin = w.finish(&s, &clients, &mut layers);

    let ops = (closed.ops + open.ops) as f64;
    let attempts = (stats.commits + stats.aborts_by_cause.iter().sum::<u64>()) as f64;
    let mut spans = closed.spans.clone();
    spans.merge(&open.spans);
    layers.set("stm-core.attempts_per_op", ratio(attempts, ops));
    layers.set(
        "stm-core.commits_per_attempt",
        ratio(stats.commits as f64, attempts),
    );
    layers.set("stm-core.cm_waits", stats.cm_waits() as f64);
    layers.set("stm-core.progress_parks", stats.progress_parks as f64);
    layers.set("stm-core.reads_per_attempt", ratio(reads, attempts));
    layers.set("stm-core.writes_per_attempt", ratio(writes, attempts));
    layers.set(
        "wait.parks_per_handoff",
        ratio(stats.retry_parks as f64, ops),
    );
    layers.set(
        "wait.wakeups_per_park",
        ratio(stats.wakeups as f64, stats.retry_parks as f64),
    );
    layers.set("wait.spurious_wakeups", stats.spurious_wakeups as f64);
    layers.set("cec.pin_ns", spans.pin_mean_ns());
    for call in Call::ALL {
        layers.set(call.metric(), spans.mean_us(call));
    }
    layers.set("loadgen.late_p99_us", us(open.late().quantile_ns(0.99)));
    layers.set(
        "trace.overhead_pct",
        (1.0 - closed.ops_per_s() / reference) * 100.0,
    );

    Report {
        attempted: closed.ops + open.ops,
        error: first_error([
            ref_error,
            closed.error.clone(),
            open.error.clone(),
            fin.err(),
        ]),
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers.0[name], unit))
            .collect(),
        notes: vec![
            format!("untraced reference: {reference:.0} ops/s closed loop"),
            phase_note("traced closed loop", &closed),
            phase_note("traced open loop", &open),
        ],
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <set-compose|kv-zipf|kv-durable|queue-handoff> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |flag: &str, v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
    let args = Args {
        workload: get("--workload")?,
        seed: num("--seed", get("--seed")?)?,
        seconds: num("--seconds", get("--seconds")?)?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace {other}: expected 0 or 1")),
        },
    };
    if !(1..=600).contains(&args.seconds) {
        return Err(format!("--seconds {}: expected 1 to 600", args.seconds));
    }
    Ok(args)
}

fn drive<W: Workload>(w: &W, args: &Args) -> Report {
    let budget = Duration::from_secs(args.seconds);
    if args.trace {
        drive_traced(w, budget)
    } else {
        drive_plain(w, budget)
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let report = match args.workload.as_str() {
        "set-compose" => drive(&set_compose::SetCompose::new(args.seed), &args),
        "kv-zipf" => drive(&kv::Kv::new(args.seed, false), &args),
        "kv-durable" => drive(&kv::Kv::new(args.seed, true), &args),
        "queue-handoff" => drive(
            &handoff::Handoff {
                values: handoff::gen_values(args.seed),
            },
            &args,
        ),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    if let Some(e) = &report.error {
        eprintln!("check failed: {e}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "{name} is {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        report.error.is_none(),
        report.attempted,
        metrics.join(", ")
    );
}
