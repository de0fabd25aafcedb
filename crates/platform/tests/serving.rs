//! Concurrency tests for the epoch-swapped serving index: readers must
//! never observe a torn table, epochs must be monotone per reader, and
//! snapshots must stay intact while the writer publishes many
//! generations past them. Interleavings are perturbed by seeded yield schedules so a
//! failure reproduces from its seed.

use sa_platform::ServingView;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

const KEYS: usize = 8;
const EPOCHS: u64 = 120;
const READERS: usize = 4;

/// SplitMix64: tiny, seedable, good enough to scramble yield schedules.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Every publish writes a table whose entries ALL equal the epoch
/// number, so any mixed-generation read is immediately visible.
fn epoch_table(epoch: u64) -> HashMap<String, i64> {
    (0..KEYS).map(|k| (format!("k{k}"), epoch as i64)).collect()
}

#[test]
fn no_torn_reads_and_monotone_epochs_across_seeded_interleavings() {
    for seed in 0..24u64 {
        let view: ServingView<i64> = ServingView::new();
        let done = Arc::new(AtomicBool::new(false));

        let writer = {
            let view = view.clone();
            let done = done.clone();
            thread::spawn(move || {
                let mut rng = SplitMix64(seed.wrapping_mul(0x5851_f42d) + 1);
                for epoch in 1..=EPOCHS {
                    let assigned = view.publish(epoch_table(epoch), epoch);
                    assert_eq!(assigned, epoch, "publish numbers epochs densely");
                    for _ in 0..rng.next() % 4 {
                        thread::yield_now();
                    }
                }
                done.store(true, Ordering::SeqCst);
            })
        };

        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let view = view.clone();
                let done = done.clone();
                thread::spawn(move || {
                    let mut rng = SplitMix64(seed ^ (r as u64).wrapping_mul(0x9e3779b9));
                    let mut last_epoch = 0u64;
                    let mut reads = 0u64;
                    while !done.load(Ordering::SeqCst) || reads == 0 {
                        // Point read: value (when present) must equal the
                        // generation's epoch — a torn swap would mix them.
                        let key = format!("k{}", rng.next() % KEYS as u64);
                        let read = view.get(&key);
                        if let Some(v) = read.value {
                            assert_eq!(v, read.epoch as i64, "torn point read (seed {seed})");
                            reads += 1;
                        }
                        assert!(
                            read.epoch >= last_epoch,
                            "epoch went backwards: {0} < {last_epoch} (seed {seed})",
                            read.epoch
                        );
                        last_epoch = read.epoch;

                        // Whole-generation read: every entry of one
                        // snapshot must agree.
                        let snap = view.snapshot();
                        assert!(snap.epoch >= last_epoch, "snapshot epoch regressed");
                        last_epoch = snap.epoch;
                        for v in snap.table.values() {
                            assert_eq!(*v, snap.epoch as i64, "torn snapshot (seed {seed})");
                        }
                        if rng.next().is_multiple_of(3) {
                            thread::yield_now();
                        }
                    }
                    // One read after the writer is done: the reader
                    // must land on the final generation.
                    let snap = view.snapshot();
                    assert!(snap.epoch >= last_epoch);
                    (reads, snap.epoch)
                })
            })
            .collect();

        writer.join().unwrap();
        for r in readers {
            let (reads, last_epoch) = r.join().unwrap();
            assert!(reads > 0, "reader starved (seed {seed})");
            assert_eq!(last_epoch, EPOCHS, "readers converge on the final epoch");
        }
        assert_eq!(view.epoch(), EPOCHS);
    }
}

#[test]
fn snapshots_stay_intact_while_the_ring_wraps() {
    let view: ServingView<i64> = ServingView::new();
    let done = Arc::new(AtomicBool::new(false));

    // Readers hoard snapshots while the writer publishes many
    // generations past them; each hoarded Arc must still read as the
    // single coherent generation it was taken from.
    let hoarders: Vec<_> = (0..2)
        .map(|_| {
            let view = view.clone();
            let done = done.clone();
            thread::spawn(move || {
                let mut held = Vec::new();
                while !done.load(Ordering::SeqCst) {
                    let snap = view.snapshot();
                    if snap.epoch > 0 {
                        held.push(snap);
                    }
                    thread::yield_now();
                }
                for snap in held {
                    for v in snap.table.values() {
                        assert_eq!(*v, snap.epoch as i64, "hoarded snapshot mutated");
                    }
                    assert_eq!(snap.table.len(), KEYS);
                }
            })
        })
        .collect();

    for epoch in 1..=200u64 {
        view.publish(epoch_table(epoch), epoch);
    }
    done.store(true, Ordering::SeqCst);
    for h in hoarders {
        h.join().unwrap();
    }
    assert_eq!(view.epoch(), 200);
}
