//! Fixture: the observability layer's two atomic shapes, done right.
//! Metric cells (`value`, as in `micrograd_obs::registry`) are plain
//! statistics and stay Relaxed; a seqlock's sequence word publishes with
//! Release and is acquired before the payload is trusted.

use std::sync::atomic::{
    AtomicU64,
    Ordering::{Acquire, Relaxed, Release},
};

struct Cell {
    value: AtomicU64,
}

struct Slot {
    seq: AtomicU64,
}

impl Cell {
    fn inc(&self) {
        self.value.fetch_add(1, Relaxed);
    }
    fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

impl Slot {
    fn publish(&self, seq: u64) {
        self.seq.store(seq, Release);
    }
    fn read(&self) -> u64 {
        self.seq.load(Acquire)
    }
}

fn main() {
    let cell = Cell {
        value: AtomicU64::new(0),
    };
    let slot = Slot {
        seq: AtomicU64::new(0),
    };
    cell.inc();
    slot.publish(2);
    let _ = (cell.get(), slot.read());
}
