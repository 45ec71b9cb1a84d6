//! C1 (part 1) — per-operation cost of the sequential priority queue
//! substrates used as MultiQueue lanes.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use rank_stats::rng::{RandomSource, Xoshiro256};
use seq_pq::{BinaryHeap, SequentialPriorityQueue, SkipListPq};

const PREFILL: usize = 10_000;
const OPS: usize = 1_000;

fn keys(count: usize, seed: u64) -> Vec<u64> {
    let mut rng = Xoshiro256::seeded(seed);
    (0..count).map(|_| rng.next_below(1 << 32)).collect()
}

fn bench_backend<Q, F>(c: &mut Criterion, name: &str, make: F)
where
    Q: SequentialPriorityQueue<u64>,
    F: Fn() -> Q + Copy,
{
    let prefill_keys = keys(PREFILL, 1);
    let op_keys = keys(OPS, 2);

    c.bench_function(&format!("seq_pq/{name}/push_pop_mix"), |b| {
        b.iter_batched(
            || {
                let mut q = make();
                for &k in &prefill_keys {
                    q.push(k, k);
                }
                q
            },
            |mut q| {
                for &k in &op_keys {
                    q.push(k, k);
                    q.pop();
                }
                q.len()
            },
            BatchSize::LargeInput,
        )
    });
}

fn benches(c: &mut Criterion) {
    bench_backend(c, "binary_heap", BinaryHeap::<u64>::new);
    bench_backend(c, "skiplist", SkipListPq::<u64>::new);
}

criterion_group!(seq_pq_ops, benches);
criterion_main!(seq_pq_ops);
