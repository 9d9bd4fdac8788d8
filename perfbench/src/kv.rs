//! `kv-zipf` and `kv-durable`: the `txkv` service under OE-STM.
//!
//! A `txkv::KeySpace` of 8 hash shards over 2^13 keys, half of them (the
//! shared ones) prefilled; keys are zipfian (θ = 0.99, ranks scattered
//! over the range). Key `k` belongs to client `k % 4` when that is 0 or 1 and is shared
//! otherwise. SET, CAS and DEL go to the client's own keys, so a per-client
//! map predicts each result exactly. MULTI adds 1 to each of 4 shared keys,
//! so a shared key ends at its prefill value plus the increments applied
//! to it. GET goes to any key and is checked exactly on own keys, and on
//! the other keys against properties every correct history has.
//!
//! `kv-durable` runs a write-heavy mix with every key registered with a
//! `durable::DurableStore` (group-committed WAL behind the commit hook)
//! over `durable::MemVfs`. Between rounds, untimed, the log is folded into
//! a snapshot, so its memory stays bounded; the last round's log is left
//! for recovery. After the run a copy of the
//! durable bytes is recovered and must equal the final state read through
//! GET.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use durable::{DurableStore, MemVfs, Vfs, WalStats};
use stm_core::api::Atomic;
use stm_core::Backend;
use txkv::{KeySpace, MultiOp, ShardKind};

use crate::gen::{scatter, Rng, Zipf};
use crate::harness::{Client, Loop};
use crate::probe::{span, Call, Spans, TimedHook, TimedVfs};
use crate::{median, Layers, Probes, Workload};

pub const CAPACITY: usize = 1 << 13;
pub const SHARDS: usize = 8;
pub const CLIENTS: usize = 2;
pub const POOL: usize = 1 << 15;
const MULTI_KEYS: usize = 4;
const PREFILL_BATCH: usize = 64;
/// Result word for "absent".
const NONE: u64 = u64::MAX;
/// Own-key values carry their owner in bits 40 and up; shared values stay
/// below 2^40.
const TAG_SHIFT: u32 = 40;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    Get(i64),
    Set(i64, u64),
    Cas(i64, Option<u64>, u64),
    Del(i64),
    Multi([i64; MULTI_KEYS]),
}

/// Percentages of GET, SET, CAS, DEL and MULTI.
#[derive(Debug, Clone, Copy)]
pub struct Mix(pub [u64; 5]);

pub const SERVICE_MIX: Mix = Mix([80, 10, 4, 3, 3]);
pub const WRITE_MIX: Mix = Mix([30, 40, 10, 10, 10]);

fn tag(c: usize) -> u64 {
    (c as u64 + 1) << TAG_SHIFT
}

/// The owning client of `k`, or `None` for a shared key.
pub fn owner(k: i64) -> Option<usize> {
    match k % 4 {
        0 => Some(0),
        1 => Some(1),
        _ => None,
    }
}

/// The prefilled keys and values: every shared key, which is half the
/// range, with a seeded value. Which keys are present does not depend on
/// the seed, so the hottest keys cost the same in every run.
pub fn prefill(seed: u64) -> Vec<(i64, u64)> {
    let mut rng = Rng::new(seed, 0xf111);
    (0..CAPACITY as i64)
        .filter(|&k| owner(k).is_none())
        .map(|k| (k, rng.below(1 << 20)))
        .collect()
}

/// Client `c`'s operations. CAS expectations come from replaying the
/// client's own keys: half expect the value the key holds at that point of
/// the first round, half a value that is never written.
pub fn gen_ops(seed: u64, c: usize, mix: Mix, prefill: &[(i64, u64)]) -> Vec<KvOp> {
    let mut rng = Rng::new(seed, 0x100 + c as u64);
    let zipf = Zipf::new(CAPACITY, 0.99);
    let mut own: HashMap<i64, u64> = prefill
        .iter()
        .filter(|(k, _)| owner(*k) == Some(c))
        .copied()
        .collect();
    let never = tag(c) | ((1 << TAG_SHIFT) - 1);
    let cut: Vec<u64> = mix
        .0
        .iter()
        .scan(0, |a, &p| {
            *a += p;
            Some(*a)
        })
        .collect();
    assert_eq!(cut[4], 100, "mix must sum to 100");
    let key = |rng: &mut Rng| scatter(zipf.sample(rng), CAPACITY as u64) as i64;
    (0..POOL as u64)
        .map(|i| {
            let roll = rng.below(100);
            let k = key(&mut rng);
            let mine = (k & !3) | c as i64;
            if roll < cut[0] {
                KvOp::Get(k)
            } else if roll < cut[1] {
                let v = tag(c) | (i + 1);
                own.insert(mine, v);
                KvOp::Set(mine, v)
            } else if roll < cut[2] {
                let new = tag(c) | (1 << 39) | (i + 1);
                let expect = if rng.below(2) == 0 {
                    own.get(&mine).copied()
                } else {
                    Some(never)
                };
                if own.get(&mine).copied() == expect {
                    own.insert(mine, new);
                }
                KvOp::Cas(mine, expect, new)
            } else if roll < cut[3] {
                own.remove(&mine);
                KvOp::Del(mine)
            } else {
                let mut ks = [0i64; MULTI_KEYS];
                let mut n = 0;
                while n < MULTI_KEYS {
                    let s = (key(&mut rng) & !3) | 2 | rng.below(2) as i64;
                    if !ks[..n].contains(&s) {
                        ks[n] = s;
                        n += 1;
                    }
                }
                KvOp::Multi(ks)
            }
        })
        .collect()
}

fn opt(w: u64) -> Option<u64> {
    (w != NONE).then_some(w)
}

fn word(v: Option<u64>) -> u64 {
    v.unwrap_or(NONE)
}

/// One client's sequential model: its own keys exactly, and the
/// increments it applied to shared keys.
#[derive(Debug, Clone)]
pub struct Model {
    c: usize,
    own: HashMap<i64, u64>,
    base: Arc<Vec<Option<u64>>>,
    pub incs: Vec<u64>,
}

impl Model {
    pub fn new(c: usize, base: Arc<Vec<Option<u64>>>) -> Self {
        let own = (0..CAPACITY as i64)
            .filter(|&k| owner(k) == Some(c))
            .filter_map(|k| base[k as usize].map(|v| (k, v)))
            .collect();
        Self {
            c,
            own,
            base,
            incs: vec![0; CAPACITY],
        }
    }

    /// Check one result word and advance the model.
    pub fn check(&mut self, op: KvOp, got: u64) -> Result<(), String> {
        let ok = match op {
            KvOp::Get(k) => {
                let got = opt(got);
                match owner(k) {
                    Some(o) if o == self.c => got == self.own.get(&k).copied(),
                    // Another client's key: absent, or a value that client wrote.
                    Some(o) => got.is_none_or(|v| v >> TAG_SHIFT == tag(o) >> TAG_SHIFT),
                    // Shared: increments only, so never below what this
                    // client has already seen applied.
                    None => {
                        let floor = self.base[k as usize].map(|b| b + self.incs[k as usize]);
                        match (got, floor) {
                            (None, None) => self.incs[k as usize] == 0,
                            (None, Some(_)) => false,
                            (Some(v), f) => {
                                v < 1 << TAG_SHIFT && v >= f.unwrap_or(self.incs[k as usize])
                            }
                        }
                    }
                }
            }
            KvOp::Set(k, v) => word(self.own.insert(k, v)) == got,
            KvOp::Cas(k, expect, new) => {
                let applies = self.own.get(&k).copied() == expect;
                if applies {
                    self.own.insert(k, new);
                }
                got == u64::from(applies)
            }
            KvOp::Del(k) => word(self.own.remove(&k)) == got,
            KvOp::Multi(ks) => {
                for k in ks {
                    self.incs[k as usize] += 1;
                }
                got == MULTI_KEYS as u64
            }
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "kv: client {} op {op:?} returned {:?}",
                self.c,
                opt(got)
            ))
        }
    }
}

/// The state every correct run ends in, from the clients' models.
pub fn expected_image(models: &[&Model]) -> Vec<Option<u64>> {
    let base = &models[0].base;
    (0..CAPACITY)
        .map(|k| match owner(k as i64) {
            Some(c) => models[c].own.get(&(k as i64)).copied(),
            None => {
                let incs: u64 = models.iter().map(|m| m.incs[k]).sum();
                match base[k] {
                    Some(b) => Some(b + incs),
                    None => (incs > 0).then_some(incs),
                }
            }
        })
        .collect()
}

pub fn check_image(what: &str, got: &[Option<u64>], want: &[Option<u64>]) -> Result<(), String> {
    match (0..want.len()).find(|&k| got[k] != want[k]) {
        None => Ok(()),
        Some(k) => Err(format!(
            "kv: {what}: key {k} is {:?}, expected {:?}",
            got[k], want[k]
        )),
    }
}

/// The image a recovery reports, in the keyspace's durable naming: slot
/// `k` under key `k`, its presence mirror under `CAPACITY + k`.
pub fn recovered_image(values: &BTreeMap<u64, u64>) -> Vec<Option<u64>> {
    (0..CAPACITY as u64)
        .map(|k| {
            let present = values.get(&(CAPACITY as u64 + k)).copied().unwrap_or(0) == 1;
            present.then(|| values.get(&k).copied().unwrap_or(0))
        })
        .collect()
}

pub struct KvSetup {
    pub at: Atomic<Backend>,
    pub ks: KeySpace,
    store: Option<DurableStore>,
    mem: Option<Arc<MemVfs>>,
    hook: Option<Arc<TimedHook>>,
    vfs: Option<Arc<TimedVfs>>,
    wal_mark: Mutex<WalStats>,
}

pub struct Kv {
    pub durable: bool,
    pub prefill: Vec<(i64, u64)>,
    pub base: Arc<Vec<Option<u64>>>,
    pub ops: Vec<Vec<KvOp>>,
    pub open_rate: f64,
}

impl Kv {
    pub fn new(seed: u64, durable: bool) -> Self {
        let prefill = prefill(seed);
        let mut base = vec![None; CAPACITY];
        for &(k, v) in &prefill {
            base[k as usize] = Some(v);
        }
        let mix = if durable { WRITE_MIX } else { SERVICE_MIX };
        let ops = (0..CLIENTS)
            .map(|c| gen_ops(seed, c, mix, &prefill))
            .collect();
        Self {
            durable,
            prefill,
            base: Arc::new(base),
            ops,
            open_rate: if durable { 25_000.0 } else { 50_000.0 },
        }
    }

    fn image(&self, s: &KvSetup) -> Vec<Option<u64>> {
        (0..CAPACITY as i64).map(|k| s.ks.get(&s.at, k)).collect()
    }
}

pub struct KvClient<'a> {
    s: &'a KvSetup,
    ops: &'a [KvOp],
    results: Vec<u64>,
    pub model: Model,
}

impl KvClient<'_> {
    fn apply(&self, op: KvOp) -> u64 {
        let (at, ks) = (&self.s.at, &self.s.ks);
        match op {
            KvOp::Get(k) => word(ks.get(at, k)),
            KvOp::Set(k, v) => word(ks.set(at, k, v)),
            KvOp::Cas(k, e, n) => u64::from(ks.cas(at, k, e, n)),
            KvOp::Del(k) => word(ks.del(at, k)),
            KvOp::Multi(keys) => ks.multi(at, &keys, |_, cur| MultiOp::Put(cur.unwrap_or(0) + 1)),
        }
    }
}

fn call(op: KvOp) -> Call {
    match op {
        KvOp::Get(_) => Call::Get,
        KvOp::Set(..) => Call::Set,
        KvOp::Cas(..) => Call::Cas,
        KvOp::Del(_) => Call::Del,
        KvOp::Multi(_) => Call::Multi,
    }
}

impl Client for KvClient<'_> {
    fn pool_len(&self) -> usize {
        self.ops.len()
    }

    #[inline]
    fn exec(&mut self, i: usize, mut spans: Option<&mut Spans>) {
        let op = self.ops[i];
        let out = span(&mut spans, call(op), || self.apply(op));
        self.results[i] = out;
    }

    fn verify(&mut self, n: usize) -> Result<(), String> {
        for i in 0..n {
            self.model.check(self.ops[i], self.results[i])?;
        }
        Ok(())
    }
}

impl Workload for Kv {
    type Setup = KvSetup;
    type Client<'a> = KvClient<'a>;

    fn setups(&self) -> usize {
        15
    }

    fn open(&self) -> Loop {
        Loop::Open {
            rate: self.open_rate,
            round: (self.open_rate / 10.0) as usize,
        }
    }

    fn setup(&self, probes: &Probes) -> KvSetup {
        let ks = KeySpace::new(ShardKind::Hash, SHARDS, CAPACITY);
        let mut config = probes.config();
        let (mut store, mut mem, mut hook, mut vfs) = (None, None, None, None);
        if self.durable {
            let m = Arc::new(MemVfs::new());
            let v: Arc<dyn Vfs> = if probes.traced() {
                let t = Arc::new(TimedVfs::new(Arc::clone(&m) as Arc<dyn Vfs>));
                vfs = Some(Arc::clone(&t));
                t
            } else {
                Arc::clone(&m) as Arc<dyn Vfs>
            };
            let (st, _) = DurableStore::open(v).expect("open an empty store");
            ks.register_durable(st.heap());
            config = if probes.traced() {
                let t = Arc::new(TimedHook {
                    inner: st.hook(),
                    timer: Default::default(),
                });
                hook = Some(Arc::clone(&t));
                config.with_commit_hook(t)
            } else {
                config.with_commit_hook(st.hook())
            };
            store = Some(st);
            mem = Some(m);
        }
        let at = Atomic::new(crate::backend(config));
        for batch in self.prefill.chunks(PREFILL_BATCH) {
            let keys: Vec<i64> = batch.iter().map(|p| p.0).collect();
            let changed = ks.multi(&at, &keys, |i, _| MultiOp::Put(batch[i].1));
            assert_eq!(changed, keys.len() as u64, "prefill batch did not apply");
        }
        KvSetup {
            at,
            ks,
            store,
            mem,
            hook,
            vfs,
            wal_mark: Mutex::default(),
        }
    }

    fn atomic<'s>(&self, s: &'s KvSetup) -> &'s Atomic<Backend> {
        &s.at
    }

    fn reset_probes(&self, s: &KvSetup) {
        if let (Some(hook), Some(vfs), Some(store)) = (&s.hook, &s.vfs, &s.store) {
            hook.timer.reset();
            vfs.reset();
            *s.wal_mark.lock().expect("wal mark lock") = store.wal().stats();
        }
    }

    fn clients<'a>(&'a self, s: &'a KvSetup) -> Vec<KvClient<'a>> {
        (0..CLIENTS)
            .map(|c| KvClient {
                s,
                ops: &self.ops[c],
                results: vec![0; POOL],
                model: Model::new(c, Arc::clone(&self.base)),
            })
            .collect()
    }

    /// Fold the log into a snapshot, as the store's background snapshotter
    /// would, but untimed between rounds, so the log never holds more than
    /// one round. The harness skips this after a phase's last round, so
    /// recovery replays a log as well as a snapshot.
    fn between(&self, s: &KvSetup) -> Result<(), String> {
        match &s.store {
            Some(store) => store
                .checkpoint()
                .map(|_| ())
                .map_err(|e| format!("kv-durable: checkpoint failed: {e}")),
            None => Ok(()),
        }
    }

    fn finish(
        &self,
        s: &KvSetup,
        clients: &[KvClient<'_>],
        layers: &mut Layers,
    ) -> Result<(), String> {
        let image = self.image(s);
        let models: Vec<&Model> = clients.iter().map(|c| &c.model).collect();
        check_image("final state", &image, &expected_image(&models))?;
        let present = image.iter().filter(|v| v.is_some()).count();
        if s.ks.len(&s.at) != present {
            return Err(format!("kv: len() disagrees with {present} present keys"));
        }
        let (Some(store), Some(mem)) = (&s.store, &s.mem) else {
            return Ok(());
        };
        if let Some(e) = store.io_error() {
            return Err(format!("kv-durable: the log failed: {e}"));
        }
        // Recover what a crash right now would leave: the durable bytes.
        let mut times = Vec::new();
        let mut records = 0;
        for _ in 0..5 {
            let copy = MemVfs::from_durable_image(mem.durable_image());
            let t = Instant::now();
            let rec =
                durable::recover(&copy).map_err(|e| format!("kv-durable: recovery failed: {e}"))?;
            times.push(t.elapsed().as_secs_f64());
            check_image("recovered image", &recovered_image(&rec.values), &image)?;
            records = rec.records_applied;
        }
        layers.set("durable.recover_us", median(&mut times) * 1e6);
        layers.set("durable.recover_records", records as f64);
        Ok(())
    }

    fn layers(&self, s: &KvSetup, layers: &mut Layers) {
        if let (Some(hook), Some(vfs), Some(store)) = (&s.hook, &s.vfs, &s.store) {
            let (now, mark) = (
                store.wal().stats(),
                *s.wal_mark.lock().expect("wal mark lock"),
            );
            let records = (now.records - mark.records) as f64;
            let flushes = (now.flushes - mark.flushes) as f64;
            let bytes = vfs.wal_bytes.load(std::sync::atomic::Ordering::Relaxed) as f64;
            layers.set("durable.hook_us", hook.timer.mean_us());
            layers.set("durable.fsync_us", vfs.fsync.mean_us());
            layers.set("durable.bytes_appended", bytes);
            layers.set(
                "durable.commits_per_fsync",
                crate::probe::ratio(records, flushes),
            );
            layers.set(
                "durable.bytes_per_commit",
                crate::probe::ratio(bytes, records),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_run(durable: bool) -> (Kv, KvSetup) {
        let mut w = Kv::new(5, durable);
        for ops in &mut w.ops {
            ops.truncate(3000);
        }
        let s = w.setup(&Probes::off());
        (w, s)
    }

    #[test]
    fn own_keys_and_shared_keys_are_disjoint() {
        let w = Kv::new(1, false);
        for (c, ops) in w.ops.iter().enumerate() {
            for op in ops {
                match *op {
                    KvOp::Set(k, _) | KvOp::Cas(k, ..) | KvOp::Del(k) => {
                        assert_eq!(owner(k), Some(c))
                    }
                    KvOp::Multi(ks) => assert!(ks.iter().all(|&k| owner(k).is_none())),
                    KvOp::Get(k) => assert!((0..CAPACITY as i64).contains(&k)),
                }
            }
        }
    }

    #[test]
    fn the_checks_catch_wrong_answers() {
        let (w, s) = small_run(false);
        let mut clients = w.clients(&s);
        for c in &mut clients {
            for i in 0..3000 {
                c.exec(i, None);
            }
        }
        // A flipped CAS result, a wrong SET previous value and a MULTI that
        // claims fewer keys each fail the per-op check.
        let c = &clients[0];
        for (i, op) in c.ops.iter().enumerate().take(300) {
            let mut bad = c.results.clone();
            bad[i] = match op {
                KvOp::Cas(..) => bad[i] ^ 1,
                KvOp::Set(..) | KvOp::Del(_) => bad[i].wrapping_add(1),
                KvOp::Multi(_) => 3,
                KvOp::Get(_) => continue,
            };
            let mut m = c.model.clone();
            let res: Result<(), String> = (0..=i).try_for_each(|j| m.check(c.ops[j], bad[j]));
            assert!(res.is_err(), "wrong answer to {op:?} passed");
        }
        for c in &mut clients {
            c.verify(3000).unwrap();
        }
        let mut layers = Layers::default();
        w.finish(&s, &clients, &mut layers).unwrap();
        // A final state one increment short fails the image check.
        let models: Vec<&Model> = clients.iter().map(|c| &c.model).collect();
        let want = expected_image(&models);
        let mut got = want.clone();
        let k = (0..CAPACITY)
            .find(|&k| owner(k as i64).is_none() && want[k].is_some())
            .unwrap();
        got[k] = want[k].map(|v| v - 1);
        assert!(check_image("final", &got, &want).is_err());
    }

    #[test]
    fn the_recovery_check_catches_an_altered_value() {
        let (w, s) = small_run(true);
        let mut clients = w.clients(&s);
        for c in &mut clients {
            for i in 0..3000 {
                c.exec(i, None);
            }
            c.verify(3000).unwrap();
        }
        w.between(&s).unwrap();
        let mut layers = Layers::default();
        w.finish(&s, &clients, &mut layers).unwrap();
        let rec = durable::recover(s.mem.as_ref().unwrap().as_ref()).unwrap();
        let image: Vec<Option<u64>> = w.image(&s);
        assert_eq!(
            check_image("recovered", &recovered_image(&rec.values), &image),
            Ok(())
        );
        let mut values = rec.values.clone();
        let k = (0..CAPACITY as u64)
            .find(|&k| image[k as usize].is_some())
            .unwrap();
        *values.get_mut(&k).unwrap() += 1;
        assert!(check_image("recovered", &recovered_image(&values), &image).is_err());
    }
}
