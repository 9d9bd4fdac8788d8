//! `set-compose`: the paper's §VII-A mix on `cec::HashSet` at load factor
//! 512 (Fig. 8) under OE-STM.
//!
//! 2^12 keys prefilled over a 2^13 key range in 8 buckets; each client
//! runs 80% `contains`, 15% composed `add_all`/`remove_all` of a pair
//! `{v, w}` and 5% `add`/`remove`. Client `c` owns the keys whose bit 3 is
//! `c`, so its own `BTreeSet` model predicts every return value. Buckets
//! are `key mod 8`, so every bucket holds both clients' keys, alternating
//! in blocks of one: the clients conflict on the links between
//! neighbouring nodes. The paper's pair is `{v, ⌈v/2⌉}`; here `w` is
//! `⌈v/2⌉` with bit 3 set to `c`, which keeps the composed operation
//! spanning two distant parts of the set.
//!
//! The workload runs on the hash set, not the skip list, because OE-STM's
//! elastic operations on `cec::SkipListSet` return wrong answers now and
//! then with two threads (see the README); an operation that fails only
//! now and then cannot be counted steadily, so it is left out.

use std::collections::BTreeSet;

use cec::{HashSet, SetExt};
use stm_core::api::Atomic;
use stm_core::Backend;

use crate::gen::Rng;
use crate::harness::{Client, Loop};
use crate::probe::{span, Call, Spans};
use crate::{Layers, Probes, Workload};

pub const RANGE: i64 = 1 << 13;
pub const PREFILL: usize = 1 << 12;
/// Buckets for the paper's load factor of 512.
pub const BUCKETS: usize = PREFILL / 512;
pub const CLIENTS: usize = 2;
/// Operations per client per closed-loop round.
pub const POOL: usize = 1 << 13;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    Contains(i64),
    Add(i64),
    Remove(i64),
    AddAll([i64; 2]),
    RemoveAll([i64; 2]),
}

impl SetOp {
    fn call(self) -> Call {
        match self {
            SetOp::Contains(_) => Call::Contains,
            SetOp::Add(_) => Call::Add,
            SetOp::Remove(_) => Call::Remove,
            SetOp::AddAll(_) => Call::AddAll,
            SetOp::RemoveAll(_) => Call::RemoveAll,
        }
    }
}

/// The client that owns `key`.
pub fn owner(key: i64) -> usize {
    ((key >> 3) & 1) as usize
}

/// `key` moved into client `c`'s keys (bit 3 set to `c`).
fn owned(key: i64, c: usize) -> i64 {
    (key & !8) | ((c as i64) << 3)
}

/// The prefilled keys: a random half of the range, in descending order.
///
/// Descending order puts every insert at the head of its bucket, so a
/// set-up costs a few milliseconds of allocation and commits. Inserted in
/// random order, each add walks half a 512-node bucket, and the set-up
/// time read either about 14 or about 23 ms from run to run (10 runs: 4 and
/// 6), too bimodal for a median of ten runs to hold within its bound.
pub fn prefill_keys(seed: u64) -> Vec<i64> {
    let mut keys: Vec<i64> = (0..RANGE).collect();
    Rng::new(seed, 0x5e7).shuffle(&mut keys);
    keys.truncate(PREFILL);
    keys.sort_unstable_by(|a, b| b.cmp(a));
    keys
}

/// Client `c`'s operations.
pub fn gen_ops(seed: u64, c: usize) -> Vec<SetOp> {
    let mut rng = Rng::new(seed, 1 + c as u64);
    let own = |rng: &mut Rng| owned(rng.below(RANGE as u64) as i64, c);
    (0..POOL)
        .map(|_| {
            let v = own(&mut rng);
            let roll = rng.below(100);
            let coin = rng.below(2) == 0;
            let pair = [v, owned((v + 1) / 2, c)];
            match (roll, coin) {
                (0..=79, _) => SetOp::Contains(v),
                (80..=94, true) => SetOp::AddAll(pair),
                (80..=94, false) => SetOp::RemoveAll(pair),
                (_, true) => SetOp::Add(v),
                (_, false) => SetOp::Remove(v),
            }
        })
        .collect()
}

/// The sequential specification: apply `op` to `model`, return its result.
pub fn model_apply(model: &mut BTreeSet<i64>, op: SetOp) -> bool {
    match op {
        SetOp::Contains(k) => model.contains(&k),
        SetOp::Add(k) => model.insert(k),
        SetOp::Remove(k) => model.remove(&k),
        SetOp::AddAll(ks) => ks.iter().fold(false, |ch, &k| model.insert(k) | ch),
        SetOp::RemoveAll(ks) => ks.iter().fold(false, |ch, &k| model.remove(&k) | ch),
    }
}

/// Check `results` of `ops` in order against the model, advancing it.
pub fn check_results(
    model: &mut BTreeSet<i64>,
    ops: &[SetOp],
    results: &[bool],
) -> Result<(), String> {
    for (i, (&op, &got)) in ops.iter().zip(results).enumerate() {
        let want = model_apply(model, op);
        if got != want {
            return Err(format!(
                "set-compose: op {i} {op:?} returned {got}, model says {want}"
            ));
        }
    }
    Ok(())
}

/// The final contents must equal the union of the clients' models.
pub fn check_final(contents: &BTreeSet<i64>, models: &[&BTreeSet<i64>]) -> Result<(), String> {
    let union: BTreeSet<i64> = models.iter().flat_map(|m| m.iter().copied()).collect();
    if *contents != union {
        let diff: Vec<_> = contents.symmetric_difference(&union).take(5).collect();
        return Err(format!(
            "set-compose: final contents differ from the models at {diff:?}"
        ));
    }
    Ok(())
}

pub struct Setup {
    pub at: Atomic<Backend>,
    pub set: HashSet,
}

/// Build the runner and the set, and prefill it through the program.
pub fn setup(config: stm_core::StmConfig, keys: &[i64]) -> Setup {
    let at = Atomic::new(crate::backend(config));
    let set = HashSet::new(BUCKETS);
    for &k in keys {
        assert!(set.add(&at, k), "prefill key {k} added twice");
    }
    Setup { at, set }
}

pub struct SetClient<'a> {
    pub s: &'a Setup,
    pub ops: &'a [SetOp],
    pub results: Vec<bool>,
    pub model: BTreeSet<i64>,
}

impl<'a> SetClient<'a> {
    pub fn new(s: &'a Setup, ops: &'a [SetOp], c: usize, prefill: &[i64]) -> Self {
        let model = prefill.iter().copied().filter(|&k| owner(k) == c).collect();
        Self {
            s,
            results: vec![false; ops.len()],
            ops,
            model,
        }
    }

    fn apply(&self, op: SetOp) -> bool {
        let (at, set) = (&self.s.at, &self.s.set);
        match op {
            SetOp::Contains(k) => set.contains(at, k),
            SetOp::Add(k) => set.add(at, k),
            SetOp::Remove(k) => set.remove(at, k),
            SetOp::AddAll(ks) => set.add_all(at, &ks),
            SetOp::RemoveAll(ks) => set.remove_all(at, &ks),
        }
    }
}

impl Client for SetClient<'_> {
    fn pool_len(&self) -> usize {
        self.ops.len()
    }

    #[inline]
    fn exec(&mut self, i: usize, mut spans: Option<&mut Spans>) {
        let op = self.ops[i];
        let out = span(&mut spans, op.call(), || self.apply(op));
        self.results[i] = out;
    }

    fn verify(&mut self, n: usize) -> Result<(), String> {
        check_results(&mut self.model, &self.ops[..n], &self.results[..n])
    }
}

pub struct SetCompose {
    pub prefill: Vec<i64>,
    pub ops: Vec<Vec<SetOp>>,
}

impl SetCompose {
    pub fn new(seed: u64) -> Self {
        Self {
            prefill: prefill_keys(seed),
            ops: (0..CLIENTS).map(|c| gen_ops(seed, c)).collect(),
        }
    }
}

impl Workload for SetCompose {
    type Setup = Setup;
    type Client<'a> = SetClient<'a>;

    fn setups(&self) -> usize {
        15
    }

    fn open(&self) -> Loop {
        Loop::Open {
            rate: 7_000.0,
            round: 700,
        }
    }

    fn setup(&self, probes: &Probes) -> Setup {
        setup(probes.config(), &self.prefill)
    }

    fn atomic<'s>(&self, s: &'s Setup) -> &'s Atomic<Backend> {
        &s.at
    }

    fn clients<'a>(&'a self, s: &'a Setup) -> Vec<SetClient<'a>> {
        (0..CLIENTS)
            .map(|c| SetClient::new(s, &self.ops[c], c, &self.prefill))
            .collect()
    }

    fn finish(&self, s: &Setup, clients: &[SetClient<'_>], _: &mut Layers) -> Result<(), String> {
        let got = contents(s);
        check_final(&got, &clients.iter().map(|c| &c.model).collect::<Vec<_>>())?;
        match s.set.size(&s.at) {
            n if n == got.len() => Ok(()),
            n => Err(format!(
                "set-compose: size() is {n}, {} keys are present",
                got.len()
            )),
        }
    }
}

/// Read the whole key range back through the program.
pub fn contents(s: &Setup) -> BTreeSet<i64> {
    (0..RANGE).filter(|&k| s.set.contains(&s.at, k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_stay_with_their_client_and_share_buckets() {
        for c in 0..CLIENTS {
            let mut buckets = std::collections::BTreeSet::new();
            for op in gen_ops(3, c) {
                let keys: Vec<i64> = match op {
                    SetOp::Contains(k) | SetOp::Add(k) | SetOp::Remove(k) => vec![k],
                    SetOp::AddAll(ks) | SetOp::RemoveAll(ks) => ks.to_vec(),
                };
                for k in keys {
                    assert!((0..RANGE).contains(&k) && owner(k) == c, "{op:?}");
                    buckets.insert(k % BUCKETS as i64);
                }
            }
            assert_eq!(buckets.len(), BUCKETS, "client {c} misses a bucket");
        }
    }

    #[test]
    fn the_check_catches_a_flipped_result() {
        let prefill = prefill_keys(9);
        let s = setup(stm_core::StmConfig::default(), &prefill);
        let ops = gen_ops(9, 0)[..2000].to_vec();
        let mut client = SetClient::new(&s, &ops, 0, &prefill);
        for i in 0..2000 {
            client.exec(i, None);
        }
        let mut good = client.model.clone();
        assert_eq!(
            check_results(&mut good, client.ops, &client.results),
            Ok(())
        );
        let mut bad = client.results.clone();
        bad[1234] = !bad[1234];
        let mut m = client.model.clone();
        assert!(check_results(&mut m, client.ops, &bad).is_err());

        let mut other = SetClient::new(&s, &[], 1, &prefill);
        client.verify(2000).unwrap();
        let got = contents(&s);
        assert_eq!(check_final(&got, &[&client.model, &other.model]), Ok(()));
        other.model.insert(8);
        other.model.remove(&8);
        other.model.insert(RANGE + 1);
        assert!(check_final(&got, &[&client.model, &other.model]).is_err());
    }
}
