//! The phase runner shared by every workload.
//!
//! A phase runs whole rounds on every client thread until its time budget
//! is spent. In a round each client executes its pre-generated operations
//! `0..n` in order; the threads then meet at a barrier, check the round's
//! results against their models (untimed), and meet again. Only the time
//! between a round's start and the barrier after its last operation counts
//! as measured time, so checks and between-round upkeep (the durable
//! checkpoint) do not dilute throughput.
//!
//! Closed loop: each operation starts when the previous one returns, and
//! its latency is its own duration. Open loop: each operation is due at a
//! fixed offset from the round start; the client busy-waits (yielding,
//! never sleeping) until it is due, and its latency runs from the due
//! time, so a stall also charges the operations queued behind it. How late
//! the generator issued each operation is recorded beside the latency.
//!
//! Every round also yields its own throughput and latency quantiles. The
//! reported figures are medians over rounds: on a small shared host one
//! stall of tens of milliseconds (or one escalated park in the program)
//! queues thousands of operations, and would alone decide a whole-phase
//! quantile. The whole-phase histograms stay available for the notes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::hist::Hist;
use crate::median;
use crate::probe::Spans;

/// One client thread of a workload.
pub trait Client: Send {
    /// Whether this client's operations are the workload's operations:
    /// timed, counted and paced. A reactive helper (the handoff
    /// responder) is not.
    fn timed(&self) -> bool {
        true
    }
    /// Operations per closed-loop round.
    fn pool_len(&self) -> usize;
    /// Execute operation `i`, recording spans when tracing.
    fn exec(&mut self, i: usize, spans: Option<&mut Spans>);
    /// Check the results of operations `0..n` of the round just run.
    fn verify(&mut self, n: usize) -> Result<(), String>;
}

#[derive(Debug, Clone, Copy)]
pub enum Loop {
    Closed,
    /// `rate` operations per second per timed client, `round` operations
    /// per round.
    Open {
        rate: f64,
        round: usize,
    },
}

/// Latency quantiles of one client's round, in ns.
#[derive(Debug, Clone, Copy)]
struct RoundLat {
    p50: f64,
    p99: f64,
}

#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Timed operations completed.
    pub ops: u64,
    pub lat: Option<Hist>,
    pub late: Option<Hist>,
    pub spans: Spans,
    pub error: Option<String>,
    /// Per round: timed operations per second.
    round_rates: Vec<f64>,
    /// Per timed client and round.
    round_lats: Vec<RoundLat>,
}

impl PhaseOut {
    /// Median over rounds of the round's throughput.
    pub fn ops_per_s(&self) -> f64 {
        median(&mut self.round_rates.clone())
    }

    /// Median over clients' rounds of the round's `q` quantile (0.5 or
    /// 0.99), in µs.
    pub fn round_quantile_us(&self, q: f64) -> f64 {
        let mut v: Vec<f64> = self
            .round_lats
            .iter()
            .map(|r| match q {
                0.5 => r.p50,
                0.99 => r.p99,
                _ => panic!("no per-round quantile {q}"),
            })
            .collect();
        median(&mut v) / 1e3
    }

    pub fn rounds(&self) -> usize {
        self.round_rates.len()
    }

    pub fn lat(&self) -> &Hist {
        self.lat.as_ref().expect("phase recorded latencies")
    }

    pub fn late(&self) -> &Hist {
        self.late.as_ref().expect("phase recorded lateness")
    }
}

struct ThreadOut {
    ops: u64,
    lat: Hist,
    late: Hist,
    round_lats: Vec<RoundLat>,
    round_rates: Vec<f64>,
    spans: Spans,
    error: Option<String>,
}

/// Run one phase over `clients` (one thread each) for at least `budget`.
/// `between` runs on the first client's thread after each round's check
/// but the phase's last, while the others wait.
pub fn run_phase<C: Client>(
    clients: &mut [C],
    mode: Loop,
    budget: Duration,
    trace: bool,
    between: &(dyn Fn() -> Result<(), String> + Sync),
) -> PhaseOut {
    let n_clients = clients.len();
    let timed_clients = clients.iter().filter(|c| c.timed()).count();
    let shared = Shared {
        n_clients,
        timed_clients,
        mode,
        trace,
        barrier: Barrier::new(n_clients),
        stop: AtomicBool::new(false),
        phase_start: Instant::now(),
        budget,
        between,
    };
    let outs: Vec<ThreadOut> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let shared = &shared;
                s.spawn(move || worker(client, c, shared))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = PhaseOut::default();
    let mut lat = Hist::new();
    let mut late = Hist::new();
    for t in outs {
        out.ops += t.ops;
        lat.merge(&t.lat);
        late.merge(&t.late);
        out.spans.merge(&t.spans);
        out.round_lats.extend(t.round_lats);
        out.round_rates.extend(t.round_rates);
        if out.error.is_none() {
            out.error = t.error;
        }
    }
    out.lat = Some(lat);
    out.late = Some(late);
    out
}

struct Shared<'a> {
    n_clients: usize,
    timed_clients: usize,
    mode: Loop,
    trace: bool,
    barrier: Barrier,
    stop: AtomicBool,
    phase_start: Instant,
    budget: Duration,
    between: &'a (dyn Fn() -> Result<(), String> + Sync),
}

fn worker<C: Client>(client: &mut C, c: usize, sh: &Shared<'_>) -> ThreadOut {
    let mut t = ThreadOut {
        ops: 0,
        lat: Hist::new(),
        late: Hist::new(),
        round_lats: Vec::new(),
        round_rates: Vec::new(),
        spans: Spans::default(),
        error: None,
    };
    let mut round_lat = Hist::new();
    let timed = client.timed();
    let (n, pace) = match sh.mode {
        Loop::Closed => (client.pool_len(), None),
        Loop::Open { rate, round } => {
            let interval = Duration::from_secs_f64(1.0 / rate);
            let offset = interval.mul_f64(c as f64 / sh.n_clients as f64);
            (
                round.min(client.pool_len()),
                timed.then_some((interval, offset)),
            )
        }
    };
    loop {
        sh.barrier.wait();
        let start = Instant::now();
        for i in 0..n {
            let due = pace.map(|(interval, offset)| {
                let due = start + offset + interval * i as u32;
                // Yield rather than spin: a spinning client that another
                // task preempts loses a whole time slice, while one that
                // yields lets short tasks run in the gaps.
                while Instant::now() < due {
                    std::thread::yield_now();
                }
                due
            });
            let t0 = Instant::now();
            client.exec(i, if sh.trace { Some(&mut t.spans) } else { None });
            let t1 = Instant::now();
            if timed {
                let ns = (t1 - due.unwrap_or(t0)).as_nanos() as u64;
                t.lat.record_ns(ns);
                round_lat.record_ns(ns);
                if let Some(due) = due {
                    t.late.record_ns((t0 - due).as_nanos() as u64);
                }
            }
            if sh.trace {
                t.spans.pin_probe();
            }
        }
        sh.barrier.wait();
        if timed {
            t.ops += n as u64;
            t.round_lats.push(RoundLat {
                p50: round_lat.quantile_ns(0.5),
                p99: round_lat.quantile_ns(0.99),
            });
            round_lat = Hist::new();
        }
        if c == 0 {
            let wall = start.elapsed().as_secs_f64();
            t.round_rates.push((n * sh.timed_clients) as f64 / wall);
            if sh.phase_start.elapsed() >= sh.budget {
                sh.stop.store(true, Ordering::SeqCst);
            }
        }
        if let Err(e) = client.verify(n) {
            t.error.get_or_insert(e);
        }
        if c == 0 && !sh.stop.load(Ordering::SeqCst) {
            if let Err(e) = (sh.between)() {
                t.error.get_or_insert(e);
            }
        }
        sh.barrier.wait();
        if sh.stop.load(Ordering::SeqCst) {
            return t;
        }
    }
}
