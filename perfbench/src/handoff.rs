//! `queue-handoff`: two threads ping-pong values through two `TxQueue`s.
//!
//! The initiator enqueues a value on the request queue and blocks in
//! `dequeue_blocking` on the reply queue; the responder blocks on the
//! request queue and echoes each value back. One value is in flight at a
//! time, so a blocked `dequeue_blocking` parks until the other side's
//! committed enqueue wakes it: `stm_core::wait` is on the critical path,
//! and the STM work per handoff is tiny. Every value must come back
//! exactly once and in order.
//!
//! The workload is not listed in `BENCHMARK.json`: its throughput and tail
//! move too much from run to run to gate on (see the README). It is the
//! one workload where the `wait.*` per-layer metrics move.

use cec::TxQueue;
use stm_core::api::Atomic;
use stm_core::Backend;

use crate::gen::Rng;
use crate::harness::{Client, Loop};
use crate::probe::{span, Call, Spans};
use crate::{Layers, Probes, Workload};

pub const POOL: usize = 256;

/// The values the initiator sends, in order.
pub fn gen_values(seed: u64) -> Vec<i64> {
    let mut rng = Rng::new(seed, 0x9);
    (0..POOL).map(|_| (rng.next_u64() >> 1) as i64).collect()
}

/// `got` must be `sent`, item for item: nothing dropped, duplicated or
/// reordered.
pub fn check_sequence(who: &str, sent: &[i64], got: &[i64]) -> Result<(), String> {
    if got.len() != sent.len() {
        return Err(format!(
            "queue-handoff: {who} got {} values, {} were sent",
            got.len(),
            sent.len()
        ));
    }
    match (0..sent.len()).find(|&i| got[i] != sent[i]) {
        None => Ok(()),
        Some(i) => Err(format!(
            "queue-handoff: {who} got {} at position {i}, expected {}",
            got[i], sent[i]
        )),
    }
}

pub struct HandoffSetup {
    pub at: Atomic<Backend>,
    pub requests: TxQueue,
    pub replies: TxQueue,
}

pub struct Handoff {
    pub values: Vec<i64>,
}

pub struct HandoffClient<'a> {
    s: &'a HandoffSetup,
    values: &'a [i64],
    initiator: bool,
    got: Vec<i64>,
}

impl HandoffClient<'_> {
    fn step(&self, i: usize, mut spans: Option<&mut Spans>) -> i64 {
        let s = self.s;
        if self.initiator {
            span(&mut spans, Call::Enqueue, || {
                s.requests.enqueue(&s.at, self.values[i]);
            });
            span(&mut spans, Call::Dequeue, || {
                s.replies.dequeue_blocking(&s.at)
            })
        } else {
            let v = span(&mut spans, Call::Dequeue, || {
                s.requests.dequeue_blocking(&s.at)
            });
            span(&mut spans, Call::Enqueue, || s.replies.enqueue(&s.at, v));
            v
        }
    }
}

impl Client for HandoffClient<'_> {
    fn timed(&self) -> bool {
        self.initiator
    }

    fn pool_len(&self) -> usize {
        self.values.len()
    }

    #[inline]
    fn exec(&mut self, i: usize, spans: Option<&mut Spans>) {
        self.got[i] = self.step(i, spans);
    }

    fn verify(&mut self, n: usize) -> Result<(), String> {
        let who = if self.initiator {
            "initiator"
        } else {
            "responder"
        };
        check_sequence(who, &self.values[..n], &self.got[..n])
    }
}

impl Workload for Handoff {
    type Setup = HandoffSetup;
    type Client<'a> = HandoffClient<'a>;

    fn setups(&self) -> usize {
        101
    }

    fn open(&self) -> Loop {
        Loop::Open {
            rate: 1_000.0,
            round: 100,
        }
    }

    fn setup(&self, probes: &Probes) -> HandoffSetup {
        HandoffSetup {
            at: Atomic::new(crate::backend(probes.config())),
            requests: TxQueue::new(),
            replies: TxQueue::new(),
        }
    }

    fn atomic<'s>(&self, s: &'s HandoffSetup) -> &'s Atomic<Backend> {
        &s.at
    }

    fn clients<'a>(&'a self, s: &'a HandoffSetup) -> Vec<HandoffClient<'a>> {
        [true, false]
            .into_iter()
            .map(|initiator| HandoffClient {
                s,
                values: &self.values,
                initiator,
                got: vec![0; self.values.len()],
            })
            .collect()
    }

    fn finish(
        &self,
        s: &HandoffSetup,
        _: &[HandoffClient<'_>],
        _: &mut Layers,
    ) -> Result<(), String> {
        if s.requests.is_empty(&s.at) && s.replies.is_empty(&s.at) {
            Ok(())
        } else {
            Err("queue-handoff: values left in a queue after the run".into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_check_catches_dropped_and_reordered_items() {
        let sent = gen_values(4);
        assert_eq!(check_sequence("t", &sent, &sent), Ok(()));
        let mut dropped = sent.clone();
        dropped.remove(17);
        assert!(check_sequence("t", &sent, &dropped).is_err());
        let mut swapped = sent.clone();
        swapped.swap(3, 4);
        assert!(check_sequence("t", &sent, &swapped).is_err());
        let mut duplicated = sent.clone();
        duplicated[9] = duplicated[8];
        assert!(check_sequence("t", &sent, &duplicated).is_err());
    }

    #[test]
    fn a_round_trip_through_the_queues_passes_the_check() {
        let w = Handoff {
            values: gen_values(4)[..64].to_vec(),
        };
        let s = w.setup(&Probes::off());
        let mut clients = w.clients(&s);
        let out = crate::harness::run_phase(
            &mut clients,
            Loop::Closed,
            std::time::Duration::ZERO,
            false,
            &|| Ok(()),
        );
        assert_eq!(out.error, None);
        assert_eq!(out.ops, 64);
        w.finish(&s, &clients, &mut Layers::default()).unwrap();
    }
}
