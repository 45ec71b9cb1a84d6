//! Layer micro-benchmarks: one workload's operation mix driven through each
//! layer's public functions on its own, from outside, in blocks of calls.
//!
//! Every layer sees the workload's shape (`Mix`): its lane count and
//! per-lane size, how many inserts come per removal, the removal batch, and
//! a hold-model key stream (prefill uniform over a window of `span` keys;
//! each insert lands uniformly in the window above the key last removed).

use std::sync::Arc;

use choice_obs::ObsHub;
use choice_pq::{DynSharedPq, HandleStats, MultiQueue, MultiQueueConfig, PqHandle, SharedPq};
use choice_registry::{QueueRegistry, QuotaSpec};
use choice_wire::{Request, Response};
use rank_stats::rng::RandomSource;
use seq_pq::{BinaryHeap, SequentialPriorityQueue};

use crate::stats::{self, block_ns};
use crate::Report;

/// Calls per timed block.
const BLOCK: usize = 1024;
/// Timed blocks per measurement (the median is reported).
const ROUNDS: usize = 96;
const RING: usize = 1 << 16;

/// The shape one workload drives through every layer.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub lanes: usize,
    pub lane_size: usize,
    pub inserts_per_removal: usize,
    pub batch: usize,
    pub span: u64,
    pub seed: u64,
}

impl Mix {
    fn keys(&self, n: usize, salt: u64) -> Vec<u64> {
        let mut rng = stats::rng(self.seed, salt);
        (0..n).map(|_| rng.next_below(self.span)).collect()
    }

    /// How many independent structures keep `lane_size` per lane while a
    /// block of `BLOCK` inserts spreads over them.
    fn copies(&self, per_copy: usize) -> usize {
        (BLOCK / per_copy.max(1)).clamp(1, BLOCK)
    }

    /// The removal requests and responses of one cycle of the mix.
    fn removal(&self, keys: &[u64]) -> (Request, Response) {
        if self.batch == 1 {
            (
                Request::DeleteMin,
                Response::Entry {
                    key: keys[0],
                    value: keys[0],
                },
            )
        } else {
            (
                Request::DeleteMinBatch {
                    max: self.batch as u32,
                },
                Response::Batch(keys.iter().take(self.batch).map(|&k| (k, k)).collect()),
            )
        }
    }
}

/// Sets the per-layer metrics every workload measures the same way.
pub fn measure(mix: &Mix, report: &mut Report) {
    seq_pq(mix, report);
    lane_pairs(mix, report);
    admission(mix, report);
    codec(mix, report);
}

/// The `HandleStats` ratios of a workload's live sessions.
pub fn handle_counters(stats: &HandleStats, report: &mut Report) {
    let attempts = stats.removals + stats.failed_removals + stats.contended_retries;
    report.set(
        "core.retries_per_op",
        stats.contended_retries as f64 / stats.operations().max(1) as f64,
    );
    report.set("core.empty_polls", stats.empty_polls as f64);
    report.set(
        "core.useful_ratio",
        stats.removals as f64 / attempts.max(1) as f64,
    );
}

/// `seq_pq.push_ns` / `seq_pq.pop_ns`: the workload's key stream on bare
/// `BinaryHeap`s at its per-lane size.
fn seq_pq(mix: &Mix, report: &mut Report) {
    let copies = mix.copies(mix.lane_size);
    let prefill = mix.keys(copies * mix.lane_size, 0x1A7E_0001);
    let increments = mix.keys(RING, 0x1A7E_0002);
    let mut heaps: Vec<BinaryHeap<u64>> = prefill
        .chunks(mix.lane_size.max(1))
        .map(|chunk| chunk.iter().map(|&k| (k, k)).collect())
        .collect();
    let mut bases = vec![0u64; heaps.len()];
    let mut cursor = 0usize;
    let mut pushes = Vec::with_capacity(ROUNDS);
    let mut pops = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        pushes.push(block_ns(1, BLOCK, |_| {
            for j in 0..BLOCK {
                let h = j % heaps.len();
                let key = bases[h] + increments[cursor % RING];
                cursor += 1;
                heaps[h].push(key, key);
            }
        }));
        pops.push(block_ns(1, BLOCK, |_| {
            for j in 0..BLOCK {
                let h = j % heaps.len();
                if let Some((key, _)) = heaps[h].pop() {
                    bases[h] = key;
                }
            }
        }));
    }
    report.set("seq_pq.push_ns", stats::median(&mut pushes));
    report.set("seq_pq.pop_ns", stats::median(&mut pops));
}

/// One hold pair through any session: remove, then insert above the key.
fn hold_pair<H: PqHandle<u64> + ?Sized>(session: &mut H, base: &mut u64, increment: u64) {
    if let Some((key, _)) = session.delete_min() {
        *base = key;
    }
    session.insert(*base + increment, 0);
}

/// `core.lane_pair_ns` / `core.dyn_pair_ns`: a 1-lane, d = 1 MultiQueue —
/// handle, lane and heap with no choice — concrete, then type-erased
/// through `register_dyn`.
fn lane_pairs(mix: &Mix, report: &mut Report) {
    let copies = mix.copies(mix.lane_size);
    let prefill = mix.keys(copies * mix.lane_size, 0x1A7E_0003);
    let increments = mix.keys(RING, 0x1A7E_0004);
    let one_lane = || {
        MultiQueueConfig::with_queues(1)
            .with_d(1)
            .with_seed(mix.seed)
    };
    let fill = |session: &mut dyn PqHandle<u64>, chunk: &[u64]| {
        for &key in chunk {
            session.insert(key, 0);
        }
    };

    let queues: Vec<MultiQueue<u64>> = (0..copies).map(|_| MultiQueue::new(one_lane())).collect();
    let mut sessions: Vec<_> = queues.iter().map(|q| q.register()).collect();
    for (s, chunk) in sessions
        .iter_mut()
        .zip(prefill.chunks(mix.lane_size.max(1)))
    {
        fill(s, chunk);
    }
    let mut bases = vec![0u64; copies];
    let mut cursor = 0usize;
    let lane_ns = block_ns(ROUNDS, BLOCK, |_| {
        for j in 0..BLOCK {
            let h = j % copies;
            hold_pair(&mut sessions[h], &mut bases[h], increments[cursor % RING]);
            cursor += 1;
        }
    });
    drop(sessions);
    drop(queues);

    let queues: Vec<Arc<dyn DynSharedPq<u64>>> = (0..copies)
        .map(|_| Arc::new(MultiQueue::new(one_lane())) as Arc<dyn DynSharedPq<u64>>)
        .collect();
    let mut sessions: Vec<_> = queues.iter().map(|q| q.register_dyn()).collect();
    for (s, chunk) in sessions
        .iter_mut()
        .zip(prefill.chunks(mix.lane_size.max(1)))
    {
        fill(s.as_mut(), chunk);
    }
    let mut bases = vec![0u64; copies];
    let dyn_ns = block_ns(ROUNDS, BLOCK, |_| {
        for j in 0..BLOCK {
            let h = j % copies;
            hold_pair(
                sessions[h].as_mut(),
                &mut bases[h],
                increments[cursor % RING],
            );
            cursor += 1;
        }
    });
    report.set("core.lane_pair_ns", lane_ns);
    report.set("core.dyn_pair_ns", dyn_ns);
}

/// `core.insert_ns` / `core.delete_min_ns` for workloads whose queue calls
/// the benchmark cannot time live: single-thread calls on the workload's
/// own configuration at its per-lane size. The removal time is per call of
/// the workload's removal operation (`delete_min` or a batch).
pub fn core_calls(mix: &Mix, report: &mut Report) {
    let per_queue = mix.lanes * mix.lane_size;
    let copies = mix.copies(per_queue);
    let prefill = mix.keys(copies * per_queue, 0x1A7E_0005);
    let increments = mix.keys(RING, 0x1A7E_0006);
    let config = MultiQueueConfig::with_queues(mix.lanes)
        .with_d(2)
        .with_seed(mix.seed);
    let queues: Vec<MultiQueue<u64>> = (0..copies)
        .map(|_| MultiQueue::new(config.clone()))
        .collect();
    let mut sessions: Vec<_> = queues.iter().map(|q| q.register()).collect();
    for (s, chunk) in sessions.iter_mut().zip(prefill.chunks(per_queue.max(1))) {
        for &key in chunk {
            s.insert(key, 0);
        }
    }
    let mut bases = vec![0u64; copies];
    let mut cursor = 0usize;
    let removal_calls = BLOCK / mix.batch;
    let mut out = Vec::with_capacity(mix.batch);
    let mut inserts = Vec::with_capacity(ROUNDS);
    let mut removals = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        inserts.push(block_ns(1, BLOCK, |_| {
            for j in 0..BLOCK {
                let h = j % copies;
                sessions[h].insert(bases[h] + increments[cursor % RING], 0);
                cursor += 1;
            }
        }));
        removals.push(block_ns(1, removal_calls, |_| {
            for j in 0..removal_calls {
                let h = j % copies;
                out.clear();
                if mix.batch == 1 {
                    out.extend(sessions[h].delete_min());
                } else {
                    sessions[h].delete_min_batch_into(mix.batch, &mut out);
                }
                if let Some(&(key, _)) = out.last() {
                    bases[h] = key;
                }
            }
        }));
    }
    report.set("core.insert_ns", stats::median(&mut inserts));
    report.set("core.delete_min_ns", stats::median(&mut removals));
}

/// `registry.admit_insert_ns` / `registry.admit_removal_ns`: a registry
/// binding's admission gate (unlimited quota, telemetry attached as in the
/// server) on the workload's mix. Refusals found here count in
/// `registry.refusals` for workloads that do not run the server.
fn admission(mix: &Mix, report: &mut Report) {
    let registry = QueueRegistry::default();
    registry.set_obs(ObsHub::new());
    let queue: Arc<dyn DynSharedPq<u64>> = Arc::new(MultiQueue::<u64>::new(
        MultiQueueConfig::with_queues(mix.lanes).with_seed(mix.seed),
    ));
    registry
        .install("ledger", queue, QuotaSpec::unlimited())
        .expect("fresh registry accepts a queue");
    let binding = registry.bind("ledger").expect("installed queue binds");
    let keys = mix.keys(BLOCK, 0x1A7E_0007);
    let removal_calls = (BLOCK / mix.batch).max(1);
    let mut refusals = 0u64;
    let mut inserts = Vec::with_capacity(ROUNDS);
    let mut removals = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        inserts.push(block_ns(1, BLOCK, |_| {
            for &key in &keys {
                refusals += u64::from(binding.admit_insert(key).is_err());
            }
        }));
        removals.push(block_ns(1, removal_calls, |_| {
            for _ in 0..removal_calls {
                refusals += u64::from(binding.admit_removal().is_err());
                binding.note_removed(mix.batch as u64);
            }
        }));
    }
    report.set("registry.admit_insert_ns", stats::median(&mut inserts));
    report.set("registry.admit_removal_ns", stats::median(&mut removals));
    report.set("registry.refusals", refusals as f64);
}

/// `wire.*`: request and response frames of the workload's mix encoded and
/// decoded in memory, per frame, plus the bytes one operation puts on the
/// wire in both directions.
fn codec(mix: &Mix, report: &mut Report) {
    let keys = mix.keys(BLOCK, 0x1A7E_0008);
    let mut requests = Vec::with_capacity(BLOCK);
    let mut responses = Vec::with_capacity(BLOCK);
    let cycle = mix.inserts_per_removal + 1;
    for i in 0..BLOCK {
        if i % cycle < mix.inserts_per_removal {
            requests.push(Request::Insert {
                key: keys[i],
                value: i as u64,
            });
            responses.push(Response::Inserted);
        } else {
            let start = i.saturating_sub(mix.batch);
            let (request, response) = mix.removal(&keys[start..]);
            requests.push(request);
            responses.push(response);
        }
    }
    let frames = requests.len();
    let mut req_buf = Vec::with_capacity(64 * frames);
    let mut resp_buf = Vec::with_capacity(256 * frames);
    let req_encode = block_ns(ROUNDS, frames, |_| {
        req_buf.clear();
        for r in &requests {
            r.encode(&mut req_buf);
        }
    });
    let resp_encode = block_ns(ROUNDS, frames, |_| {
        resp_buf.clear();
        for r in &responses {
            r.encode(&mut resp_buf);
        }
    });
    let mut decoded_ok = true;
    let req_decode = block_ns(ROUNDS, frames, |_| {
        let mut at = 0;
        for expected in &requests {
            match Request::decode(&req_buf[at..]) {
                Ok((request, used)) => {
                    decoded_ok &= &request == expected;
                    at += used;
                }
                Err(_) => decoded_ok = false,
            }
        }
    });
    let resp_decode = block_ns(ROUNDS, frames, |_| {
        let mut at = 0;
        for expected in &responses {
            match Response::decode(&resp_buf[at..]) {
                Ok((response, used)) => {
                    decoded_ok &= &response == expected;
                    at += used;
                }
                Err(_) => decoded_ok = false,
            }
        }
    });
    report.check(decoded_ok, || {
        "a frame did not decode to what was encoded".into()
    });
    report.set("wire.req_encode_ns", req_encode);
    report.set("wire.req_decode_ns", req_decode);
    report.set("wire.resp_encode_ns", resp_encode);
    report.set("wire.resp_decode_ns", resp_decode);
    report.set(
        "wire.bytes_per_op",
        (req_buf.len() + resp_buf.len()) as f64 / frames as f64,
    );
}
