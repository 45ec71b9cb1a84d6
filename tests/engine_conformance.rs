//! The engine is the analysed process: one session on an unsharded
//! MultiQueue must remove keys with the rank distribution of the sequential
//! process of Section 3 under the same `ChoiceRule`.
//!
//! Both sides run the hold loop: a prefill of increasing keys, then
//! `STEPS` rounds of "insert the next key, remove one". A removal whose
//! samples all hit empty lanes draws again on both sides (the engine's
//! sparse retry). The engine's ranks come from `InversionCounter` over the
//! session's timestamped log, exact because the queue is drained afterwards;
//! the process charges each removal its rank among the labels present.
//!
//! Ranks are binned as `1..=4n` plus one overflow bin and compared by
//! total-variation distance (`choice_process::coupling`). The threshold is
//! measured, not chosen: `SEEDS` process runs on different seeds give the
//! process-against-itself spread (each run against the pool of the others),
//! and the engine may sit at most twice the largest of those from the pool.
//!
//! The positive control is the one mechanism that leaves the analysed
//! process: insert shards. A single session inserts only into its own shard
//! (`id % shards`), so on a 2-shard queue half the lanes never receive a
//! key. That session must fail against the uniform process and pass against
//! the biased process whose weight is 0 on the other shard's lanes.

use power_of_choice::multiqueue::ChoiceRule;
use power_of_choice::prelude::*;
use power_of_choice::process::{rank_occupancy_distance, RankOccupancy};

const PREFILL: u64 = 1_024;
const STEPS: u64 = 8_000;
const SEEDS: u64 = 8;

/// Ranks binned into `1..=4n` and one overflow bin.
fn histogram(ranks: &[u64], lanes: usize) -> RankOccupancy {
    let bins = 4 * lanes + 1;
    let mut h = RankOccupancy::new(bins);
    for &rank in ranks {
        h.record((rank as usize - 1).min(bins - 1));
    }
    h
}

/// The hold-phase ranks of one instrumented engine session.
fn engine_ranks(config: MultiQueueConfig) -> Vec<u64> {
    let queue = MultiQueue::<u64>::new(config);
    let mut session = queue.register_with(HandlePolicy::instrumented());
    for key in 0..PREFILL {
        session.insert(key, key);
    }
    for key in PREFILL..PREFILL + STEPS {
        session.insert(key, key);
        session.delete_min().expect("the hold loop never empties");
    }
    while session.delete_min().is_some() {}
    let mut counter = InversionCounter::new();
    counter.record_all(session.take_log());
    let mut ranks = counter.per_removal_ranks();
    ranks.truncate(STEPS as usize);
    ranks
}

/// The hold-phase ranks of the sequential process.
fn process_ranks(config: ProcessConfig) -> Vec<u64> {
    let mut process = SequentialProcess::new(config);
    process.prefill(PREFILL);
    (0..STEPS)
        .map(|_| {
            process.insert();
            loop {
                if let Some(removal) = process.remove() {
                    break removal.rank;
                }
            }
        })
        .collect()
}

/// The sum of several histograms.
fn pooled<'a>(histograms: impl Iterator<Item = &'a RankOccupancy>) -> RankOccupancy {
    let mut pool: Option<RankOccupancy> = None;
    for h in histograms {
        let p = pool.get_or_insert_with(|| RankOccupancy::new(h.counts.len()));
        for (sum, count) in p.counts.iter_mut().zip(&h.counts) {
            *sum += count;
        }
        p.total += h.total;
    }
    pool.expect("at least one histogram")
}

/// The engine's distance from the pooled process runs of `config`, and the
/// threshold those runs set: twice the largest distance of one run from
/// the pool of the others.
fn distance_and_threshold(engine: &RankOccupancy, config: &ProcessConfig) -> (f64, f64) {
    let runs: Vec<RankOccupancy> = (0..SEEDS)
        .map(|seed| {
            let ranks = process_ranks(config.clone().with_seed(1_000 + seed));
            histogram(&ranks, config.queues)
        })
        .collect();
    let spread = (0..runs.len())
        .map(|i| {
            let others = runs.iter().enumerate().filter(|&(j, _)| j != i);
            rank_occupancy_distance(&runs[i], &pooled(others.map(|(_, run)| run)))
        })
        .fold(0.0, f64::max);
    let distance = rank_occupancy_distance(engine, &pooled(runs.iter()));
    (distance, 2.0 * spread)
}

#[test]
fn one_session_matches_the_sequential_process() {
    let rules = [
        ChoiceRule::DChoice(1),
        ChoiceRule::OnePlusBeta(0.5),
        ChoiceRule::DChoice(2),
        ChoiceRule::DChoice(4),
    ];
    let mut failures = Vec::new();
    for rule in rules {
        for lanes in [4, 8, 16] {
            let engine = engine_ranks(
                MultiQueueConfig::with_queues(lanes)
                    .with_choice(rule)
                    .with_seed(7),
            );
            let (distance, threshold) = distance_and_threshold(
                &histogram(&engine, lanes),
                &ProcessConfig::new(lanes).with_choice(rule),
            );
            if distance > threshold {
                failures.push(format!(
                    "{rule:?}, n = {lanes}: distance {distance:.3} > threshold {threshold:.3}"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "engine leaves the process: {failures:?}"
    );
}

#[test]
fn a_single_session_on_two_shards_is_the_biased_process() {
    let lanes = 8;
    let engine = histogram(
        &engine_ranks(
            MultiQueueConfig::with_queues(lanes)
                .with_shards(2)
                .with_seed(7),
        ),
        lanes,
    );
    let uniform = ProcessConfig::new(lanes).with_choice(ChoiceRule::DChoice(2));
    let (distance, threshold) = distance_and_threshold(&engine, &uniform);
    assert!(
        distance > threshold,
        "half the lanes never receive a key, yet the session looks uniform: \
         distance {distance:.3} <= threshold {threshold:.3}"
    );
    // Handle 0 inserts into shard 0, which owns the even lanes.
    let weights = (0..lanes).map(|lane| if lane % 2 == 0 { 1.0 } else { 0.0 });
    let biased = uniform.with_bias_weights(weights.collect());
    let (distance, threshold) = distance_and_threshold(&engine, &biased);
    assert!(
        distance <= threshold,
        "the session is not the biased process: distance {distance:.3} > threshold {threshold:.3}"
    );
}
